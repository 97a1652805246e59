"""No module of ``qtl`` imports sympy or scipy, or a layer above its own.

Both serve the suite as independent oracles (exact ranks, reduced forms,
characteristic polynomials, float spectra); a ``qtl`` module that used
them would be checked against itself.  The layers build on each other in
the order of ``LAYERS``, so each module imports only the ones before it.
The imports are read off the syntax tree of every module, so an import
inside a function counts too.
"""

import ast
import pathlib

import pytest

ORACLES = {"sympy", "scipy"}
MODULES = sorted((pathlib.Path(__file__).resolve().parent.parent / "src" / "qtl").glob("*.py"))
LAYERS = ["errors", "linalg", "subspace", "superop", "program", "qwhile", "formula", "checker", "jsonio", "cli"]


def _imported(tree) -> set:
    """The top-level package of every absolute import in a syntax tree."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_modules_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_oracle_import(path):
    assert not _imported(ast.parse(path.read_text(), str(path))) & ORACLES


def test_guard_sees_every_import_form():
    source = "import numpy\ndef f():\n    from scipy import linalg\nimport sympy.polys as p\nfrom . import errors\n"
    assert _imported(ast.parse(source)) == {"numpy", "scipy", "sympy"}


def _layers_imported(tree) -> set:
    """The ``qtl`` modules that a module of the package imports, relative
    (``from .program import x``, ``from . import jsonio``) or absolute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 1 and module:
                names.add(module.split(".")[0])
            elif node.level == 1:
                names.update(alias.name for alias in node.names)
            elif module.startswith("qtl."):
                names.add(module.split(".")[1])
        elif isinstance(node, ast.Import):
            names.update(alias.name.split(".")[1] for alias in node.names if alias.name.startswith("qtl."))
    return names


def test_layers_cover_the_package():
    assert {path.stem for path in MODULES} == set(LAYERS) | {"__init__"}


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem in LAYERS], ids=lambda p: p.name)
def test_no_import_from_a_later_layer(path):
    later = set(LAYERS[LAYERS.index(path.stem):])
    assert not _layers_imported(ast.parse(path.read_text(), str(path))) & later


def test_layer_guard_sees_every_import_form():
    source = "from .program import x\ndef f():\n    from .qwhile import y\nfrom . import jsonio\nimport qtl.cli\nfrom qtl.formula import z\n"
    assert _layers_imported(ast.parse(source)) == {"program", "qwhile", "jsonio", "cli", "formula"}


# The embedded layout (entry h of configuration c's block at coordinate
# h * |configs| + c) is stated in ``program`` alone; ``linalg`` slices its
# own grids.  Elsewhere a strided slice would restate the layout, so the
# only step allowed is a negative constant (a reversal such as [::-1]).
LAYOUT_OWNERS = {"program", "linalg"}


def _strided_slices(tree) -> list:
    """The line of every slice whose step is present and not a negative
    constant."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Slice) or node.step is None:
            continue
        step = node.step
        if isinstance(step, ast.UnaryOp) and isinstance(step.op, ast.USub) and isinstance(step.operand, ast.Constant):
            continue
        if isinstance(step, ast.Constant) and isinstance(step.value, int) and step.value < 0:
            continue
        lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem not in LAYOUT_OWNERS], ids=lambda p: p.name)
def test_no_strided_slice_outside_program(path):
    assert _strided_slices(ast.parse(path.read_text(), str(path))) == []


def test_slice_guard_sees_every_step():
    source = "a = x[::-1]\nb = x[c::n]\nc = y[:, 1::2]\nd = x[1:3]\ne = x[::k]\nf = x[::-k]\n"
    assert _strided_slices(ast.parse(source)) == [2, 3, 5, 6]
