"""The top-level package exports exactly its documented public API, the
three pipelines import none of each other's modules nor the request policy,
and the shared modules import no pipeline."""

import ast
from fractions import Fraction
from pathlib import Path

import hurwitz

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
    # the power products and the conversion to g are read in `series` only
    for path in Path(hurwitz.__file__).parent.glob("*.py"):
        if path.stem != "series":
            assert not _identifiers(path.stem) & {"power_products", "to_gpoly"}, path.stem
