"""Published reference tables, transcribed as exact values, plus comparison.

Tables A1-A3 are the small-index rho grids (A2 and A3 print columns b <= 3
plus the (4,4) corner; the b = 4 column is completed through the transpose
symmetry rho^d_{ab} = (-1)^(a+b+d) rho^d_{ba}).  Tables B4-B7 are generic
values, B8-B9 their exponential specializations, B10-B13 the quantum ones.

Transcription is literal, typos included: cells where the published value
disagrees with the pipeline consensus are expected to show up in the
comparison, and the frozen list of those cells is KNOWN_ERRATA.  Everything
here is data plus comparison plumbing; no published value is ever used as
an input to the computational pipelines.

Each cell is literal data built by one constructor.  A generic cell is
(scale, {exponent tuple: integer}), the scale times the terms; (2, 0, 1) is
g1^2 g3.  A cell printed with fractional coefficients is put over their
lcm: 3/2 g3 + g1 g2 reads (1/2, {(0, 0, 1): 3, (1, 1): 2}).  A quantum
cell is (P, s, m), the printed P(q) / (s (q;q)_m), P's coefficients ascending.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import GPoly
from .correlator import connected_closed_form, nonconnected_assemble, rho_coeff
from .oracle import weighted_from_definition
from .partitions import Partition, format_partition
from .qrational import QRat
from .tau import connected_any, hurwitz_any
from .weights import WeightModel, display, specialize


class PipelineDisagreement(RuntimeError):
    """Two independent pipelines computed different values for one cell."""


def _poly(scale: int | Fraction, terms: dict[tuple[int, ...], int]) -> GPoly:
    return GPoly.from_int_terms({e: c * scale.numerator for e, c in terms.items()},
                                scale.denominator)


def _polys(cells: dict) -> dict:
    return {key: _poly(*cell) for key, cell in cells.items()}


def _quantum(cells: dict) -> dict:
    return {key: QRat.over_pochhammer(p, m, s) for key, (p, s, m) in cells.items()}


F = Fraction

# -- A tables: rho^d grids ------------------------------------------------

_A1_GRID = [
    [0, F(1, 2), -F(1, 2), F(1, 4), -F(1, 12)],
    [F(1, 2), 0, -F(1, 4), F(1, 6), -F(1, 16)],
    [F(1, 2), -F(1, 4), 0, F(1, 24), -F(1, 48)],
    [F(1, 4), -F(1, 6), F(1, 24), 0, -F(1, 288)],
    [F(1, 12), -F(1, 16), F(1, 48), -F(1, 288), 0],
]
A1_PRINTED = {(a, b): _poly(_A1_GRID[a][b], {(1,): 1}) for a in range(5) for b in range(5)}

A2_PRINTED = _polys({
    (0, 0): (0, {}), (0, 1): (F(-1, 2), {(0, 1): 1}),
    (0, 2): (F(1, 6), {(2,): 2, (0, 1): 5}), (0, 3): (F(-1, 24), {(2,): 11, (0, 1): 14}),
    (1, 0): (F(1, 2), {(0, 1): 1}), (1, 1): (F(1, 3), {(2,): 1, (0, 1): -2}),
    (1, 2): (F(1, 8), {(2,): -1, (0, 1): 6}), (1, 3): (F(-1, 6), {(2,): 1, (0, 1): 3}),
    (2, 0): (F(1, 6), {(2,): 2, (0, 1): 5}), (2, 1): (F(1, 8), {(2,): 1, (0, 1): -6}),
    (2, 2): (F(1, 4), {(2,): -1, (0, 1): 2}), (2, 3): (F(1, 72), {(2,): 5, (0, 1): -19}),
    (3, 0): (F(1, 24), {(2,): 11, (0, 1): 14}), (3, 1): (F(-1, 6), {(2,): 1, (0, 1): 3}),
    (3, 2): (F(1, 72), {(2,): -5, (0, 1): 19}), (3, 3): (F(1, 18), {(2,): 1, (0, 1): -2}),
    (4, 0): (F(1, 24), {(2,): 7, (0, 1): 6}), (4, 1): (F(-1, 144), {(2,): 25, (0, 1): 31}),
    (4, 2): (F(1, 48), {(2,): 1, (0, 1): 5}), (4, 3): (F(1, 576), {(2,): 7, (0, 1): -22}),
})
A2_CORNER = _poly(F(-5, 864), {(2,): 1, (0, 1): -2})

A3_PRINTED = _polys({
    (0, 0): (0, {}), (0, 1): (F(1, 2), {(0, 0, 1): 1}),
    (0, 2): (F(-1, 6), {(1, 1): 6, (0, 0, 1): -9}),
    (0, 3): (F(1, 4), {(3,): 1, (1, 1): 8, (0, 0, 1): 6}),
    (1, 0): (F(1, 2), {(0, 0, 1): 1}), (1, 1): (0, {}),
    # the (1,2) cell is printed with "2 g_2g_2"; transcribed literally
    (1, 2): (F(1, 4), {(3,): 1, (0, 2): -2, (0, 0, 1): -4}),
    (1, 3): (F(1, 6), {(3,): -1, (1, 1): 8, (0, 0, 1): 7}),
    (2, 0): (F(1, 6), {(1, 1): 6, (0, 0, 1): 9}),
    (2, 1): (F(1, 4), {(3,): 1, (1, 1): -2, (0, 0, 1): -4}),
    (2, 2): (0, {}), (2, 3): (F(1, 24), {(3,): -5, (1, 1): 10, (0, 0, 1): 9}),
    (3, 0): (F(1, 4), {(3,): 1, (1, 1): 8, (0, 0, 1): 6}),
    (3, 1): (F(1, 6), {(3,): 1, (1, 1): -8, (0, 0, 1): -7}),
    (3, 2): (F(1, 24), {(3,): -5, (1, 1): 10, (0, 0, 1): 9}), (3, 3): (0, {}),
    (4, 0): (F(5, 12), {(3,): 1, (1, 1): 4, (0, 0, 1): 2}),
    (4, 1): (F(-1, 48), {(3,): 5, (1, 1): 60, (0, 0, 1): 33}),
    (4, 2): (F(1, 48), {(3,): -5, (1, 1): 22, (0, 0, 1): 13}),
    (4, 3): (F(1, 144), {(3,): 7, (1, 1): -14, (0, 0, 1): -8}),
})
A3_CORNER = GPoly.zero()

_A_TABLES = {
    "A1": (1, A1_PRINTED, None),
    "A2": (2, A2_PRINTED, A2_CORNER),
    "A3": (3, A3_PRINTED, A3_CORNER),
}

# -- B4/B5: generic values, profile length 1 and 2 ------------------------

B4_PRINTED = _polys({
    ((2,), 1): (F(1, 2), {(1,): 1}),
    ((2,), 3): (F(1, 2), {(0, 0, 1): 1}),
    ((3,), 2): (F(1, 3), {(2,): 1, (0, 1): 1}),
    ((3,), 4): (F(1, 3), {(0, 2): 1, (1, 0, 1): 4, (0, 0, 0, 1): 5}),
    ((2, 1), 3): (F(1, 2), {(1, 1): 2, (0, 0, 1): 3}),
    ((2, 1), 5): (F(1, 2), {(1, 0, 0, 1): 6, (0, 1, 1): 4, (0, 0, 0, 0, 1): 11}),
    ((4,), 3): (F(1, 4), {(3,): 1, (1, 1): 3, (0, 0, 1): 1}),
    ((4,), 5): (F(1, 4), {(2, 0, 1): 10, (1, 2): 5, (1, 0, 0, 1): 25, (0, 1, 1): 15,
                          (0, 0, 0, 0, 1): 15}),
    ((3, 1), 4): (F(1, 3), {(2, 1): 3, (0, 2): 4, (1, 0, 1): 10, (0, 0, 0, 1): 8}),
    ((3, 1), 6): (1, {(2, 0, 0, 1): 6, (1, 1, 1): 8, (1, 0, 0, 0, 1): 24, (0, 3): 1,
                      (0, 1, 0, 1): 16, (0, 0, 2): 7, (0, 0, 0, 0, 0, 1): 22}),
    ((2, 2), 4): (F(1, 4), {(2, 1): 2, (0, 2): 1, (1, 0, 1): 4, (0, 0, 0, 1): 2}),
    ((2, 2), 6): (F(1, 4), {(2, 0, 0, 1): 11, (1, 1, 1): 13, (1, 0, 0, 0, 1): 36, (0, 3): 1,
                            (0, 1, 0, 1): 19, (0, 0, 2): 11, (0, 0, 0, 0, 0, 1): 25}),
})

# B5 prints B4's values again in these cells
B5_PRINTED = {key: B4_PRINTED[key] for key in [((2,), 1), ((2,), 3), ((3,), 2), ((3,), 4),
                                              ((4,), 3), ((2, 2), 4)]} | _polys({
    ((2, 1), 3): (1, {(1, 1): 1, (0, 0, 1): 1}),
    ((2, 1), 5): (1, {(1, 0, 0, 1): 3, (0, 1, 1): 2, (0, 0, 0, 0, 1): 5}),
    # the d = 5 row prints "25/4 g_4" (not 25/4 g_1 g_4); transcribed literally
    ((4,), 5): (F(1, 4), {(2, 0, 1): 10, (1, 2): 5, (0, 0, 0, 1): 25, (0, 1, 1): 15,
                          (0, 0, 0, 0, 1): 15}),
    ((3, 1), 4): (1, {(2, 1): 1, (0, 2): 1, (1, 0, 1): 2, (0, 0, 0, 1): 1}),
    ((3, 1), 6): (1, {(2, 0, 0, 1): 6, (1, 1, 1): 8, (1, 0, 0, 0, 1): 20, (0, 3): 1,
                      (0, 1, 0, 1): 14, (0, 0, 2): 6, (0, 0, 0, 0, 0, 1): 15}),
    ((2, 2), 6): (F(1, 4), {(2, 0, 0, 1): 11, (1, 1, 1): 13, (1, 0, 0, 0, 1): 35, (0, 3): 1,
                            (0, 1, 0, 1): 19, (0, 0, 2): 10, (0, 0, 0, 0, 0, 1): 25}),
})

# -- B6/B7: generic values, profile length 3 ------------------------------

B6_PRINTED = _polys({
    ((1, 1, 1), 2): (F(1, 2), {(0, 1): 1}),
    ((2, 1, 1), 3): (F(5, 4), {(1, 1): 1, (0, 0, 1): 1}),
    ((2, 2, 1), 2): (F(1, 8), {(2,): 1}),
    ((2, 2, 1), 4): (F(1, 4), {(2, 1): 4, (0, 2): 1, (0, 0, 0, 1): 7}),
    ((3, 2, 1), 3): (F(1, 6), {(3,): 1, (1, 1): 1}),
    # printed as 1/6 (11 g1^3 g2 + 31 g1^2 g3 + 15 g2 g3 + 18 g1 g2^2 + 26 g1 g4) + g5
    ((3, 2, 1), 5): (F(1, 6), {(3, 1): 11, (2, 0, 1): 31, (0, 1, 1): 15, (1, 2): 18,
                               (1, 0, 0, 1): 26, (0, 0, 0, 0, 1): 6}),
})

B7_PRINTED = _polys({
    ((1, 1, 1), 4): (F(1, 3), {(0, 2): 1, (1, 0, 1): 1, (0, 0, 0, 1): 2}),
    ((2, 1, 1), 5): (F(1, 2), {(2, 0, 1): 2, (0, 1, 1): 7, (1, 2): 3, (1, 0, 0, 1): 7,
                               (0, 0, 0, 0, 1): 5}),
    ((2, 1, 1), 7): (1, {(0, 2, 1): 5, (0, 0, 1, 1): 22, (2, 0, 0, 0, 1): 10, (1, 1, 0, 1): 15,
                         (0, 1, 0, 0, 1): 30, (1, 0, 2): 5, (1, 0, 0, 0, 0, 1): 40,
                         (0, 0, 0, 0, 0, 0, 1): 35}),
    ((2, 2, 1), 6): (1, {(0, 3): 1, (3, 0, 1): 1, (0, 1, 0, 1): 5, (2, 2): 2, (2, 0, 0, 1): 5,
                         (1, 1, 1): 9, (1, 0, 0, 0, 1): 7, (0, 0, 2): 3, (0, 0, 0, 0, 0, 1): 3}),
    ((2, 2, 2), 7): (F(1, 6), {(4, 0, 1): 2, (0, 2, 1): 11, (0, 0, 1, 1): 17, (3, 2): 5,
                               (3, 0, 0, 1): 13, (0, 1, 0, 0, 1): 13, (2, 1, 1): 33,
                               (2, 0, 0, 0, 1): 27, (1, 3): 7, (1, 0, 2): 22, (1, 1, 0, 1): 36,
                               (1, 0, 0, 0, 0, 1): 23, (0, 0, 0, 0, 0, 0, 1): 7}),
    ((3, 2, 1), 7): (1, {(4, 0, 1): 2, (0, 2, 1): 18, (0, 0, 1, 1): 17, (3, 2): 5,
                         (3, 0, 0, 1): 13, (0, 1, 0, 0, 1): 18, (2, 1, 1): 35, (2, 0, 0, 0, 1): 27,
                         (1, 3): 10, (1, 0, 2): 22, (1, 1, 0, 1): 43, (1, 0, 0, 0, 0, 1): 23,
                         (0, 0, 0, 0, 0, 0, 1): 7}),
})

# -- B8/B9: exponential specializations -----------------------------------

# mu -> (connected at d=N+l-2, connected at d=N+l,
#        nonconnected at d=N+l-2, nonconnected at d=N+l)
B8_PRINTED = {
    (2,): (F(1, 2), F(1, 12), F(1, 2), F(1, 12)),
    (3,): (F(1, 2), F(3, 8), F(1, 2), F(3, 8)),
    (2, 1): (F(3, 4), F(1, 3), F(3, 4), F(27, 80)),
    (4,): (F(2, 3), F(4, 3), F(2, 3), F(4, 3)),
    (3, 1): (F(9, 8), F(27, 16), F(3, 4), F(9, 5)),
    (2, 2): (F(1, 2), F(2, 3), F(13, 24), F(121, 180)),
}

# (mu, d) -> (connected, nonconnected)
B9_PRINTED = {
    ((1, 1, 1), 4): (F(1, 6), F(3, 16)),
    ((2, 1, 1), 5): (F(1), F(41, 30)),
    ((2, 1, 1), 7): (F(13, 12), F(73, 63)),
    ((2, 2, 1), 6): (F(2), F(521, 180)),
    ((2, 2, 2), 7): (F(4, 3), F(9853, 5760)),
    ((3, 2, 1), 7): (F(9), F(2511, 160)),
}

# -- B10-B13: quantum specializations --------------------------------------

B10_PRINTED = _quantum({
    ((2,), 1): ([1], 2, 1), ((2,), 3): ([1], 2, 3),
    ((3,), 2): ([2, 1], 3, 3),
    ((3,), 4): ([10, 5, 6, 5, 1], 3, 4),
    ((2, 1), 3): ([5, 2, 2], 2, 3),
    ((2, 1), 5): ([21, 10, 14, 14, 14, 4, 4], 2, 5),
    ((4,), 3): ([5, 5, 5, 1], 4, 3),
    ((4,), 5): ([70, 70, 105, 120, 125, 70, 55, 20, 5], 4, 5),
    ((3, 1), 4): ([25, 20, 27, 23, 10, 3], 3, 4),
    ((3, 1), 6): ([84, 77, 125, 156, 198, 191, 163, 124, 94, 52, 21, 10, 1], 1, 6),
    ((2, 2), 4): ([10, 10, 13, 12, 5, 2], 4, 4),
    ((2, 2), 6): ([231, 231, 370, 469, 589, 579, 489, 378, 281, 161, 62, 30, 2], 8, 6),
})

B11_PRINTED = _quantum({
    ((2,), 1): ([1], 2, 1),
    ((2,), 3): ([1], 2, 2),  # printed with (q;q)_2
    ((3,), 2): ([2, 1], 3, 3),
    ((3,), 4): ([10, 5, 6, 5, 1], 3, 4),
    ((2, 1), 3): ([2, 1, 1], 1, 3),
    ((2, 1), 5): ([10, 5, 7, 7, 7, 2, 2], 1, 5),
    ((4,), 3): ([5, 5, 5, 1], 4, 3),
    ((4,), 5): ([70, 70, 105, 120, 125, 70, 55, 20, 5], 4, 5),
    ((3, 1), 4): ([5, 5, 7, 6, 3, 1], 1, 4),
    ((3, 1), 6): ([70, 70, 115, 145, 185, 180, 156, 120, 91, 51, 21, 10, 1], 1, 6),
    ((2, 2), 4): ([9, 9, 12, 11, 5, 2], 4, 4),
    ((2, 2), 6): ([114, 114, 183, 232, 292, 287, 243, 188, 140, 80, 31, 15, 1], 4, 6),
})

B12_PRINTED = _quantum({
    ((1, 1, 1), 2): ([1], 2, 2),
    ((2, 1, 1), 3): ([10, 5, 5], 4, 3),
    ((2, 2, 1), 2): ([1, 1], 8, 2),
    ((2, 2, 1), 4): ([14, 16, 21, 20, 9, 4], 4, 4),
    ((3, 2, 1), 3): ([2, 3, 3, 1], 6, 3),
    ((3, 2, 1), 5): ([107, 172, 287, 369, 409, 319, 248, 133, 51, 11], 6, 5),
})

B13_PRINTED = _quantum({
    ((1, 1, 1), 4): ([4, 2, 3, 2, 1], 3, 4),
    ((2, 1, 1), 5): ([24, 24, 39, 44, 47, 28, 23, 8, 3], 2, 5),
    ((2, 1, 1), 7): ([162, 162, 279, 371, 518, 593, 685, 598, 598, 491,
                      404, 257, 182, 90, 50, 15, 5], 1, 7),
    ((2, 2, 1), 6): ([36, 54, 99, 141, 189, 207, 204, 179, 143, 97,
                      53, 28, 8, 2], 1, 6),
    ((2, 2, 2), 7): ([216, 432, 891, 1485, 2295, 3099, 3922, 4377, 4689, 4567,
                      4157, 3435, 2655, 1837, 1173, 638, 301, 117, 29, 5], 6, 7),
    ((3, 2, 1), 7): ([240, 480, 1002, 1664, 2584, 3484, 4416, 4927, 5288, 5139,
                      4687, 3863, 2990, 2063, 1319, 711, 338, 128, 32, 5], 1, 7),
})

# cells where the published value conflicts with the pipeline consensus
KNOWN_ERRATA = {
    ("A3", "(0,2)"),
    ("A3", "(1,2)"),
    ("B4", "(2,2) d=4"),
    ("B4", "(2,2) d=6"),
    ("B5", "(4) d=5"),
    ("B6", "(2,2,1) d=4"),
    ("B8", "(2,1) d=3 connected"),
    ("B8", "(3,1) d=4 nonconnected"),
    ("B10", "(3) d=2"),
    ("B11", "(2) d=3"),
    ("B11", "(3) d=2"),
}


def table_ids() -> list[str]:
    return ["A1", "A2", "A3"] + [f"B{i}" for i in range(4, 14)]


# the tables `verify --scope quick` compares, and so the quick errata report
QUICK_TABLE_IDS = ("A1", "A2", "A3", "B4", "B5", "B6", "B7", "B8", "B9")

# B table id -> (weight model kind, connected, printed values); B8 and B9
# print connected and nonconnected values side by side
_B_TABLES = {
    "B4": ("generic", False, B4_PRINTED),
    "B5": ("generic", True, B5_PRINTED),
    "B6": ("generic", False, B6_PRINTED),
    "B7": ("generic", True, B7_PRINTED),
    "B8": ("exp", None, B8_PRINTED),
    "B9": ("exp", None, B9_PRINTED),
    "B10": ("quantum", False, B10_PRINTED),
    "B11": ("quantum", True, B11_PRINTED),
    "B12": ("quantum", False, B12_PRINTED),
    "B13": ("quantum", True, B13_PRINTED),
}


def _consensus(mu: Partition, d: int, connected: bool) -> tuple[GPoly, tuple[str, ...]]:
    """The generic value and the pipelines that agree on it: tau, and the
    closed forms for length <= 3.  Shared by every weight model's table; it
    holds no cache of its own, since each pipeline caches its values."""
    via_tau = connected_any(mu, d) if connected else hurwitz_any(mu, d)
    if len(mu) > 3:
        return via_tau, ("tau",)
    via_corr = connected_closed_form(mu, d) if connected else nonconnected_assemble(mu, d)
    if via_corr != via_tau:
        raise PipelineDisagreement(
            f"pipeline disagreement at mu={mu}, d={d}, connected={connected}: "
            f"tau={via_tau} correlator={via_corr}"
        )
    return via_tau, ("tau", "correlator")


def _value(kind: str, mu: Partition, d: int, connected: bool):
    """The consensus value under the table's weight model, and its pipelines."""
    generic, names = _consensus(mu, d, connected)
    if kind == "generic":
        return generic, names
    if kind == "quantum":
        return specialize(generic, WeightModel.quantum()), names
    model = WeightModel.exponential()
    value = specialize(generic, model)
    if connected:
        return value, names
    # third route: the all-transpositions count, straight from characters
    via_oracle = weighted_from_definition(mu, d, model)
    if via_oracle != value:
        raise PipelineDisagreement(
            f"oracle disagreement at mu={mu}, d={d}: {via_oracle} vs {value}"
        )
    return value, names + ("oracle",)


def _cells(table_id: str):
    """(cell, printed, provenance, computed, pipelines) in print order."""
    if table_id in _A_TABLES:
        d, printed, corner = _A_TABLES[table_id]
        for a in range(5):
            for b in range(5):
                if (a, b) in printed or (a, b) == (4, 4):
                    want, provenance = printed.get((a, b), corner), "printed"
                else:
                    # column completed via the transpose symmetry
                    want = printed[(b, a)].scale((-1) ** (a + b + d))
                    provenance = "symmetry"
                yield f"({a},{b})", want, provenance, rho_coeff(a, b, d), ("correlator",)
        return
    if table_id not in _B_TABLES:
        raise ValueError(f"unknown table id {table_id!r}")
    kind, connected, printed = _B_TABLES[table_id]
    if table_id == "B8":
        # columns: connected at d = N+l-2 and N+l, then nonconnected at both
        cells = []
        for mu, cols in sorted(printed.items()):
            lo = sum(mu) + len(mu) - 2
            cells += zip([mu] * 4, (lo, lo + 2, lo, lo + 2), (True, True, False, False), cols)
    elif table_id == "B9":
        cells = [(mu, d, c, want) for (mu, d), pair in sorted(printed.items())
                 for c, want in zip((True, False), pair)]
    else:
        cells = [(mu, d, connected, want) for (mu, d), want in sorted(printed.items())]
    for mu, d, c, want in cells:
        cell = f"({format_partition(mu)}) d={d}"
        if kind == "exp":
            cell += " connected" if c else " nonconnected"
        yield (cell, want, "printed") + _value(kind, mu, d, c)


def compare_tables(table_id: str) -> list[dict]:
    """Rows of {cell, printed, computed, match, provenance, pipelines}.

    Raises PipelineDisagreement when two pipelines disagree on a cell, so
    each pipeline's entry is the computed value."""
    rows = []
    for cell, want, provenance, got, names in _cells(table_id.upper()):
        shown, match = display(got), want == got
        rows.append(
            {
                "cell": cell,
                "printed": shown if match else display(want),
                "computed": shown,
                "match": match,
                "provenance": provenance,
                "pipelines": {name: shown for name in names},
            }
        )
    return rows


def errata_report(scope: str = "full") -> list[dict]:
    """Machine-readable list of published cells conflicting with consensus;
    scope "quick" covers QUICK_TABLE_IDS, "full" every table."""
    report = []
    for table_id in QUICK_TABLE_IDS if scope == "quick" else table_ids():
        for row in compare_tables(table_id):
            if not row["match"]:
                report.append(
                    {
                        "table": table_id,
                        "cell": row["cell"],
                        "printed": row["printed"],
                        "consensus": row["computed"],
                        "pipelines": row["pipelines"],
                    }
                )
    return report
