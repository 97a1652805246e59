"""No module of ``qtl`` imports sympy or scipy.

Both serve the suite as independent oracles (exact ranks, reduced forms,
characteristic polynomials, float spectra); a ``qtl`` module that used
them would be checked against itself.  The imports are read off the
syntax tree of every module, so an import inside a function counts too.
"""

import ast
import pathlib

import pytest

ORACLES = {"sympy", "scipy"}
MODULES = sorted((pathlib.Path(__file__).resolve().parent.parent / "src" / "qtl").glob("*.py"))


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
