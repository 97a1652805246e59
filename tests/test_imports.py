"""No module of ``qtl`` imports sympy or scipy, or a layer above its own.

Both serve the suite as independent oracles (exact ranks, reduced forms,
characteristic polynomials, float spectra); a ``qtl`` module that used
them would be checked against itself.  The layers build on each other in
the order of ``LAYERS``, so each module imports only the ones before it.
The imports are read off the syntax tree of every module, so an import
inside a function counts too.  No function imports at all: every import
sits at module level, where it runs once.
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


def _nested_imports(tree) -> list:
    """(line, function name) of every import inside a function body: the
    import statement runs on each call, and one on the literal read path
    showed in the profile as thousands of ``importlib`` lookups."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            for inner in ast.walk(node):
                if isinstance(inner, (ast.Import, ast.ImportFrom)):
                    found.append((inner.lineno, getattr(node, "name", "<lambda>")))
    return sorted(set(found))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_import_inside_a_function(path):
    assert _nested_imports(ast.parse(path.read_text(), str(path))) == []


def test_nested_import_guard_sees_every_form():
    source = (
        "import numpy\n"
        "def f():\n    import json\n"
        "class C:\n    def m(self):\n        from . import errors\n"
        "    def n(self):\n        def inner():\n            from qtl.linalg import Mat\n"
        "async def g():\n    import os\n"
    )
    assert _nested_imports(ast.parse(source)) == [(3, "f"), (6, "m"), (9, "inner"), (9, "n"), (11, "g")]


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


# The checker's lattice work runs on the actions' Kraus operators.  A
# channel's real matrix in the Hermitian operator basis is formed only where
# a spectrum is needed (the loop refinement's period, limit states), and the
# period test reads nothing else; the complex matrix representation serves
# only the oracle's own image path, and no dagger of one, or of anything
# else, is formed.
CHECKER = next(p for p in MODULES if p.stem == "checker")
MATRIX_REP_CALLERS = {"_matrix_rep_image"}
SPECTRAL_CALLERS = {"_p2_refine", "limit_states"}


def _callers(tree, name) -> list:
    """The outermost function around every call of ``name()`` or
    ``.name()`` (None for a call outside every function)."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            inner = owner
            if owner is None and isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name
            if isinstance(child, ast.Call) and name in (getattr(child.func, "attr", None), getattr(child.func, "id", None)):
                found.append(inner)
            visit(child, inner)

    visit(tree, None)
    return found


def test_checker_forms_matrix_reps_only_for_a_spectrum():
    tree = ast.parse(CHECKER.read_text(), str(CHECKER))
    assert set(_callers(tree, "matrix_rep")) == MATRIX_REP_CALLERS
    assert set(_callers(tree, "hermitian_rep")) == SPECTRAL_CALLERS
    assert set(_callers(tree, "_peripheral_period")) == SPECTRAL_CALLERS
    assert _callers(tree, "dagger") == []


def test_method_guard_sees_every_caller():
    source = (
        "x = m.matrix_rep()\n"
        "def _p2_refine(a):\n"
        "    def pull(e):\n"
        "        return e.matrix_rep().dagger()\n"
        "    return a.dagger()\n"
        "class C:\n"
        "    def limit_states(self):\n"
        "        return _peripheral_period(self.matrix_rep())\n"
    )
    tree = ast.parse(source)
    assert _callers(tree, "matrix_rep") == [None, "_p2_refine", "limit_states"]
    assert _callers(tree, "dagger") == ["_p2_refine", "_p2_refine"]
    assert _callers(tree, "_peripheral_period") == ["limit_states"]


# An operator is placed on the embedded space only to act on states: the
# one-step channels, embedded states and the exit loop's exit blocks.  The
# one-step channels are placed as Kraus stacks from the d x d channels of
# one table (``program.outcome_channels``), which the exit loop reads too;
# ``place_blocks`` places block-diagonal Mats only (states and exit
# blocks).  Subspaces are placed block by block (``place_subspaces``), so
# no module builds a D x D operator only to take its support.
PLACE_BLOCKS_CALLERS = {"program.embed", "qwhile.exit_embedded"}
PLACED_CALLERS = {"program._selector_channels"}
OUTCOME_CHANNELS_CALLERS = {"program._selector_channels", "qwhile.edges"}


def _module_callers(name) -> set:
    """"module.function" of the outermost function around every call of
    ``name`` in the modules of ``qtl``."""
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in MODULES}
    return {f"{stem}.{owner}" for stem, tree in trees.items() for owner in _callers(tree, name)}


def test_operators_are_placed_only_to_act():
    assert _module_callers("place_blocks") == PLACE_BLOCKS_CALLERS


def test_only_the_one_step_channels_place_kraus_stacks():
    assert _module_callers("placed") == PLACED_CALLERS


def test_the_step_is_stated_once():
    assert _module_callers("outcome_channels") == OUTCOME_CHANNELS_CALLERS


# Every refutation witness of [] f, <> [] f, [] <> f and [] (f U g) is added
# by one function, the graph-first protocol, which grows the one support
# graph of the call; the lattice procedures return verdicts only.  The
# oracle keeps its own dispatch over the same searches, and _escape_witness,
# the [] f search the protocol is handed, reads the graph's escape.
WITNESS_SEARCHES = ("grow", "escape", "recurrent_escape", "avoiding_lasso", "_escape_witness")
WITNESS_CALLERS = {"_graph_first", "oracle_bfs"}


def _module_functions(tree) -> ast.Module:
    """The module-level functions of a syntax tree, with no class body."""
    return ast.Module([node for node in tree.body if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))], [])


def test_one_function_adds_every_witness():
    functions = _module_functions(ast.parse(CHECKER.read_text(), str(CHECKER)))
    for name in WITNESS_SEARCHES:
        allowed = WITNESS_CALLERS | ({"_escape_witness"} if name == "escape" else set())
        assert set(_callers(functions, name)) <= allowed, name
    assert set(_callers(functions, "grow")) == {"_graph_first"}


def test_module_functions_leave_out_class_bodies():
    source = "class G:\n    def __init__(self):\n        self.grow(1)\ndef f(g):\n    return g.grow(2)\n"
    assert _callers(_module_functions(ast.parse(source)), "grow") == ["f"]


# The Q-While reference interpreter and the pass over each node's facts run
# in loops over work lists, so no source the parser accepts can exhaust
# Python's recursion limit in them.
QWHILE = next(p for p in MODULES if p.stem == "qwhile")
LOOP_ONLY = ("denote_steps", "_node_facts", "_bottom_up")


def _nested_functions(function) -> list:
    """The names of the functions and lambdas defined inside a function."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
    return [getattr(n, "name", "<lambda>") for n in ast.walk(function) if n is not function and isinstance(n, kinds)]


def test_interpreter_and_facts_pass_do_not_recurse():
    functions = _module_functions(ast.parse(QWHILE.read_text(), str(QWHILE)))
    defined = {f.name: f for f in functions.body}
    for name in LOOP_ONLY:
        assert _nested_functions(defined[name]) == [], name
        assert name not in _callers(functions, name), name


def test_recursion_guard_sees_every_form():
    source = "def f(x):\n    return f(x - 1)\ndef g():\n    def h():\n        pass\n    return lambda: 1\n"
    functions = _module_functions(ast.parse(source))
    assert _callers(functions, "f") == ["f"]
    assert _nested_functions(functions.body[1]) == ["h", "<lambda>"]
