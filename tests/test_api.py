"""The top-level package exports exactly its documented public API, the
three pipelines import none of each other's modules nor the request policy,
and the shared modules import no pipeline."""

import ast
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import hurwitz
from hurwitz import HurwitzResult, WeightModel, compute, parse_model
from hurwitz.oracle import FactorizationQuery

PIPELINES = ("tau", "correlator", "oracle")
SHARED = ("algebra", "series", "partitions", "qrational", "weights")
# the request policy: the size caps and the pipeline names live in `cli` only
POLICY = {"WEIGHT_CAP", "DEGREE_CAP", "check_caps", "HurwitzResult", "PIPELINES"}


def test_all_names_resolve():
    for name in hurwitz.__all__:
        assert getattr(hurwitz, name) is not None, name


def test_readme_quick_tour():
    from hurwitz import (QRat, WeightModel, compute, connected_any, hurwitz_any, specialize,
                         weighted_from_definition)

    res = compute((2, 1), 3, WeightModel.exponential(), connected=True)
    assert (res.pipeline, res.value) == ("correlator", Fraction(2, 3))
    assert str(compute((2, 1), 3).value) == "3/2*g3 + g1*g2"
    h = hurwitz_any((2, 1), 3)
    assert str(h) == "3/2*g3 + g1*g2"
    hc = connected_any((2, 1), 3)
    assert str(hc) == "g3 + g1*g2"
    assert specialize(hc, WeightModel.exponential()) == Fraction(2, 3)
    quantum = specialize(hc, WeightModel.quantum())
    assert isinstance(quantum, QRat)
    third = WeightModel.quantum(Fraction(1, 3))
    assert quantum.evaluate(Fraction(1, 3)) == Fraction(891, 208)
    assert specialize(hc, third) == Fraction(891, 208)
    # the definitional check, nonconnected by default
    assert weighted_from_definition((2, 1), 3, third) == specialize(h, third)
    assert weighted_from_definition((2, 1), 3, third, connected=True) == Fraction(891, 208)


# -- the three records: validation, immutability, equality, JSON ----------


def test_records_validate_their_fields():
    with pytest.raises(ValueError, match="unknown weight model kind 'bogus'"):
        WeightModel("bogus")
    with pytest.raises(ValueError, match="unequal weight"):
        FactorizationQuery(((2,), (3,)))


@pytest.mark.parametrize("record, field", [
    (WeightModel.exponential(), "kind"),
    (FactorizationQuery(((2,), (1, 1))), "classes"),
    (compute((2,), 1), "value"),
])
def test_records_are_immutable(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, None)


def test_equal_records_compare_and_hash_equal():
    pairs = [(WeightModel.rational([1, 2], [3]), parse_model("rational:c=1,2;d=3")),
             (FactorizationQuery(((2,), (2,)), True), FactorizationQuery(((2,), (2,)), True)),
             (compute((2, 1), 3, connected=True), compute([1, 2], 3, connected=True))]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b)
    assert WeightModel.quantum() != WeightModel.quantum(Fraction(1, 3))
    assert FactorizationQuery(((2,), (2,))) != FactorizationQuery(((2,), (2,)), True)


def test_weight_model_repr():
    assert repr(WeightModel.exponential()) == (
        "WeightModel(kind='exp', c=(), d=(), q=None, coeffs=())")


@pytest.mark.parametrize("model", ["generic", "exp", "rational:c=1;d=1/2", "dual:d=2",
                                   "quantum", "quantum:q=1/3", "taylor:1,1/2,1/3,1/4,1/5"])
def test_results_round_trip_through_json(model):
    result = compute((3, 1), 4, parse_model(model), connected=True)
    assert HurwitzResult.from_json(result.to_json()) == result


def test_import_loads_no_dataclasses():
    # a fresh process pays for every module `import hurwitz.cli` loads
    src = str(Path(hurwitz.__file__).resolve().parents[1])
    code = ("import sys, hurwitz.cli, hurwitz.verify; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def _tree(module):
    return ast.parse((Path(hurwitz.__file__).parent / f"{module}.py").read_text())


def _identifiers(module):
    """Every name the module defines, assigns, imports or reads."""
    found = set()
    for node in ast.walk(_tree(module)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.add(node.name)
        elif isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.update(part for name in (node.name, node.asname) if name
                         for part in name.split("."))
    return found


def _imports(module):
    """(imported hurwitz module, enclosing function) for every import in
    the module, at any nesting level."""
    tree = _tree(module)
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.ImportFrom):
                base = "." * child.level + (child.module or "")
                if base in (".", "hurwitz"):    # from . import x
                    names = [alias.name for alias in child.names]
                elif base.startswith((".", "hurwitz.")):    # from .x import y
                    names = [base.lstrip(".").removeprefix("hurwitz.")]
                else:
                    names = []
                found.extend((name.split(".")[0], func) for name in names)
            elif isinstance(child, ast.Import):
                found.extend((alias.name.split(".")[1], func) for alias in child.names
                             if alias.name.startswith("hurwitz."))
            visit(child, func)

    visit(tree, None)
    return found


def _names_from(module, source):
    """The names the module imports from the hurwitz module `source`."""
    return {alias.name for node in ast.walk(_tree(module)) if isinstance(node, ast.ImportFrom)
            and node.module in (source, f"hurwitz.{source}") for alias in node.names}


def test_pipelines_are_independent():
    imports = {m: _imports(m) for m in PIPELINES}
    for module, found in imports.items():
        names = {name for name, _ in found}
        assert not names & (set(PIPELINES) - {module}), (module, names)
        # tau and the correlator share only Newton's identity, in `series`,
        # through its one entry point
        assert ("series" in names) == (module != "oracle"), (module, names)
        if module != "oracle":
            assert _names_from(module, "series") == {"power_sum_total"}, module
    # the published tables and the CLI read every pipeline, so no pipeline
    # reads them, nor the request policy the CLI holds
    assert all(name not in ("tables", "cli") for found in imports.values() for name, _ in found)
    for module in PIPELINES:
        assert not _identifiers(module) & POLICY, module
    # every pipeline reads the shared modules, so they read no pipeline and
    # nothing built on the pipelines
    for module in SHARED:
        names = {name for name, _ in _imports(module)}
        assert not names & {*PIPELINES, "tables", "verify", "cli"}, (module, names)
    # the trie walk is read in `series` only
    for path in Path(hurwitz.__file__).parent.glob("*.py"):
        if path.stem != "series":
            assert "_trie_walk" not in _identifiers(path.stem), path.stem
    assert "_trie_walk" in _identifiers("series")
