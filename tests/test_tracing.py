"""The benchmark's tracer finds every function that it names.

``perfbench/tracing.py`` wraps ``qtl`` functions and methods by name, and
its per-layer report reads their spans back by name.  A rename in ``qtl``
that the tracer does not follow would read 0 in that metric, or make
``Tracer.install`` fail under ``--trace 1``.  This test installs the tracer
on the package, checks every name, and uninstalls it again.
"""

import importlib.util
import pathlib
import sys

import qtl
import qtl.cli  # the benchmark imports every layer through the CLI
from qtl.linalg import Mat

TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
# named by the tracer, but gone from linalg
UNRESOLVED = {"linalg.peripheral_split", "linalg.kernel_basis", "linalg.invert"}


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _snapshot(tracing) -> dict:
    """The identity of every attribute of the loaded qtl modules and of the
    methods the tracer wraps."""
    ids = {
        (name, attr): id(obj)
        for name, mod in list(sys.modules.items())
        if name == "qtl" or name.startswith("qtl.")
        for attr, obj in vars(mod).items()
    }
    for layer, cls_name, meth, _ in tracing._METHODS:
        cls = getattr(getattr(qtl, layer), cls_name)
        ids[(layer, cls_name, meth)] = id(cls.__dict__.get(meth))
    return ids


def test_tracer_resolves_every_name_and_uninstalls():
    tracing = _load_tracing()
    before = _snapshot(tracing)
    tracer = tracing.Tracer()
    try:
        # a _METHODS entry without its method fails here
        tracer.install()
        wrapped = set(tracer.names)
        assert {name for *_, name in tracing._METHODS} <= wrapped
        timed = {f"{layer}.{fn}" for layer, fns in tracing._TIMED.items() for fn in fns}
        assert timed - wrapped == UNRESOLVED
        qtl.linalg.rank(Mat.eye(2) @ Mat.eye(2))
        assert tracer.totals("linalg.rank")[0] == 1
        assert tracer.totals("linalg.Mat.matmul")[0] == 1
    finally:
        tracer.uninstall()
    assert _snapshot(tracing) == before
