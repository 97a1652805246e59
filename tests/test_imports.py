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


# The exit loop answers every exit question on its subspace lattice, so
# neither it nor the checker steps a program's blocks.
SIMULATORS = {"simulate_deterministic", "selector_successors", "CQState"}


def _names_used(tree) -> set:
    """Every name imported with ``from ... import`` and every attribute read."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem in ("qwhile", "checker")], ids=lambda p: p.name)
def test_exit_loop_uses_no_simulator(path):
    assert not _names_used(ast.parse(path.read_text(), str(path))) & SIMULATORS


def test_simulator_guard_sees_every_form():
    source = "def f():\n    from .program import CQState\nimport qtl.program as p\nx = p.selector_successors\n"
    assert _names_used(ast.parse(source)) & SIMULATORS == {"CQState", "selector_successors"}


# The checker's lattice work runs on the actions' Kraus operators: a matrix
# representation is formed only where a spectrum is needed (the loop
# refinement's period, limit states) and by the oracle's own image path,
# and no dagger of one, or of anything else, is formed.
CHECKER = next(p for p in MODULES if p.stem == "checker")
MATRIX_REP_CALLERS = {"_p2_refine", "limit_states", "_matrix_rep_image"}


def _method_callers(tree, method) -> list:
    """The outermost function around every call of ``.method()`` (None for
    a call outside every function)."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            inner = owner
            if owner is None and isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute) and child.func.attr == method:
                found.append(inner)
            visit(child, inner)

    visit(tree, None)
    return found


def test_checker_forms_matrix_reps_only_for_a_spectrum():
    tree = ast.parse(CHECKER.read_text(), str(CHECKER))
    assert set(_method_callers(tree, "matrix_rep")) <= MATRIX_REP_CALLERS
    assert _method_callers(tree, "dagger") == []


def test_method_guard_sees_every_caller():
    source = (
        "x = m.matrix_rep()\n"
        "def _p2_refine(a):\n"
        "    def pull(e):\n"
        "        return e.matrix_rep().dagger()\n"
        "    return a.dagger()\n"
        "class C:\n"
        "    def limit_states(self):\n"
        "        return self.matrix_rep()\n"
    )
    tree = ast.parse(source)
    assert _method_callers(tree, "matrix_rep") == [None, "_p2_refine", "limit_states"]
    assert _method_callers(tree, "dagger") == ["_p2_refine", "_p2_refine"]
