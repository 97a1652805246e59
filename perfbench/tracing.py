"""Outside-in tracing of the ``qtl`` layers.

``Tracer.install`` wraps the public functions of every ``qtl`` module, and
a fixed list of methods, from the outside: each wrapper is set on every
module attribute through which the function is looked up (so both
``qtl.linalg.invert`` and ``qtl.checker.invert``), and methods are set on
their class.  A call records one span (name, start, end, parent span,
query id); spans stay in memory and are written out by ``dump``.  Self
time is computed as each span closes: its duration minus the time covered
by its direct children and by the tracer's own bookkeeping inside it.

Per-entry helpers (``CRat`` arithmetic, rational parsing and formatting)
are left unwrapped: they run millions of times per query, and wrapping them
would bury the layer spans under tracing overhead.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

# Module-level public functions that run once per matrix entry.
_PER_ENTRY = {
    "linalg.parse_rational",
    "linalg.format_rational",
    "jsonio.scalar_to_json",
    "jsonio.scalar_from_json",
    "qwhile.format_scalar",
}

# (module, class, method, span name); __init__ spans carry the class name.
_METHODS = [
    ("linalg", "Mat", "__matmul__", "linalg.Mat.matmul"),
    ("subspace", "Subspace", "__init__", "subspace.Subspace"),
    ("subspace", "Subspace", "meet", "subspace.Subspace.meet"),
    ("subspace", "Subspace", "contains", "subspace.Subspace.contains"),
    ("subspace", "Subspace", "complement", "subspace.Subspace.complement"),
    ("subspace", "SubspaceUnion", "__init__", "subspace.SubspaceUnion"),
    ("superop", "SuperOp", "matrix_rep", "superop.SuperOp.matrix_rep"),
    ("superop", "SuperOp", "apply", "superop.SuperOp.apply"),
    ("superop", "MatrixRep", "image", "superop.MatrixRep.image"),
    ("superop", "MatrixRep", "preimage", "superop.MatrixRep.preimage"),
    ("superop", "MatrixRep", "power", "superop.MatrixRep.power"),
]

LAYERS = ("linalg", "subspace", "superop", "program", "qwhile", "formula", "jsonio", "checker", "cli")


def _mat_bits(m) -> int:
    """Largest bit length among the numerators and the denominator of a Mat."""
    bits = m.den.bit_length()
    for grid in (m.num_re, m.num_im):
        if grid.size:
            bits = max(bits, int(max(grid.max(), -grid.min())).bit_length())
    return bits


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_query = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.queries: list[str] = []
        self.query = -1
        self._stack: list[list] = []
        self._restore: list[tuple] = []
        # high-water marks and counters taken at the layer boundaries
        self.max_bits = 0
        self.max_n = {"linalg.invert": 0, "linalg.peripheral_split": 0}
        self.matrix_rep_misses = 0
        self.union_offered = 0
        self.union_kept = 0
        self.union_max_members = 0
        self.actions_max = 0

    # ------------------------------------------------------------------

    def set_query(self, query_id: str):
        self.queries.append(query_id)
        self.query = len(self.queries) - 1

    def _name(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return self._index[name]

    def wrap(self, fn, name, before=None, after=None):
        idx = self._name(name)
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            hook_s = 0.0
            state = None
            if before is not None:
                t = clock()
                args, kwargs, state = before(args, kwargs)
                hook_s = clock() - t
            span = len(tracer.span_start)
            start = clock()
            tracer.span_name.append(idx)
            tracer.span_parent.append(stack[-1][2] if stack else -1)
            tracer.span_query.append(tracer.query)
            tracer.span_start.append(start)
            tracer.span_end.append(start)
            frame = [start, 0.0, span]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer.span_end[span] = end
                tracer.calls[idx] += 1
                tracer.self_s[idx] += (end - start) - frame[1]
                if stack:
                    stack[-1][1] += (end - start) + hook_s
            if after is not None:
                t = clock()
                after(state, args, result)
                if stack:
                    stack[-1][1] += clock() - t
            return result

        return wrapper

    # ------------------------------------------------------------------
    # hooks for the counters that need the arguments or the result

    def _bits_of(self, state, args, result):
        self.max_bits = max(self.max_bits, _mat_bits(result))

    def _bits_of_list(self, state, args, result):
        for m in result:
            self.max_bits = max(self.max_bits, _mat_bits(m))

    def _matmul_bits(self, state, args, result):
        if result is not NotImplemented:
            self.max_bits = max(self.max_bits, _mat_bits(result))

    def _invert_after(self, state, args, result):
        self.max_n["linalg.invert"] = max(self.max_n["linalg.invert"], args[0].rows)
        self._bits_of(state, args, result)

    def _split_after(self, state, args, result):
        self.max_n["linalg.peripheral_split"] = max(self.max_n["linalg.peripheral_split"], args[0].rows)
        self.max_bits = max(self.max_bits, _mat_bits(result.stable_part), _mat_bits(result.peripheral_projector))

    def _matrix_rep_before(self, args, kwargs):
        if args[0]._matrix_rep is None:
            self.matrix_rep_misses += 1
        return args, kwargs, None

    @staticmethod
    def _union_before(args, kwargs):
        # SubspaceUnion(self, ambient_dim, members, _canonical=False)
        canonical = kwargs.get("_canonical", args[3] if len(args) > 3 else False)
        members = list(args[2])
        return (args[0], args[1], members) + tuple(args[3:]), kwargs, (None if canonical else len(members))

    def _union_after(self, offered, args, result):
        kept = len(args[0].members)
        self.union_max_members = max(self.union_max_members, kept)
        if offered is not None:
            self.union_offered += offered
            self.union_kept += kept

    def _automaton_after(self, state, args, result):
        self.actions_max = max(self.actions_max, len(result.actions))

    # ------------------------------------------------------------------

    def install(self):
        """Wrap every public ``qtl`` function and the listed methods."""
        import qtl

        modules = [m for name, m in sys.modules.items() if name == "qtl" or name.startswith("qtl.")]
        hooks = {
            "linalg.invert": (None, self._invert_after),
            "linalg.kernel_basis": (None, self._bits_of_list),
            "linalg.peripheral_split": (None, self._split_after),
            "linalg.Mat.matmul": (None, self._matmul_bits),
            "superop.SuperOp.matrix_rep": (self._matrix_rep_before, None),
            "subspace.SubspaceUnion": (self._union_before, self._union_after),
            "program.to_automaton": (None, self._automaton_after),
        }
        wrappers = {}
        for layer in LAYERS:
            mod = getattr(qtl, layer)
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (
                    attr.startswith("_")
                    or not callable(obj)
                    or isinstance(obj, type)
                    or getattr(obj, "__module__", None) != mod.__name__
                    or name in _PER_ENTRY
                ):
                    continue
                wrappers[id(obj)] = (obj, self.wrap(obj, name, *hooks.get(name, (None, None))))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)][1])
        for layer, cls_name, meth, name in _METHODS:
            cls = getattr(getattr(qtl, layer), cls_name)
            orig = cls.__dict__[meth]
            self._restore.append((cls, meth, orig))
            setattr(cls, meth, self.wrap(orig, name, *hooks.get(name, (None, None))))

    def uninstall(self):
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    # ------------------------------------------------------------------

    def totals(self, name):
        idx = self._index.get(name)
        return (0, 0.0) if idx is None else (self.calls[idx], self.self_s[idx])

    def dump(self, path):
        """Write the spans: a JSON header line, then the raw columns."""
        header = {
            "names": self.names,
            "queries": self.queries,
            "spans": len(self.span_start),
            "columns": ["name:i32", "parent:i32", "query:i32", "start:f64", "end:f64"],
        }
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for column in (self.span_name, self.span_parent, self.span_query, self.span_start, self.span_end):
                column.tofile(fh)


# ----------------------------------------------------------------------
# the per-layer report

_TIMED = {
    "linalg": ["invert", "peripheral_split", "kernel_basis", "rank", "kron", "mat_sum", "Mat.matmul"],
    "subspace": ["Subspace", "Subspace.meet", "Subspace.contains", "Subspace.complement", "support", "SubspaceUnion"],
    "superop": ["SuperOp.matrix_rep", "MatrixRep.image", "MatrixRep.preimage", "MatrixRep.power",
                "image", "preimage", "SuperOp.apply"],
    "program": ["to_automaton", "step_superop", "simulate_deterministic", "embed"],
    "qwhile": ["parse", "compile_qwhile", "bohm_jacopini"],
    "formula": ["parse_formula", "atom_from_blocks"],
    "jsonio": ["program_from_json", "atoms_from_json"],
    "cli": ["main"],
    "checker": ["check_next", "check_invariance", "check_eventually_always", "check_always_eventually",
                "check_always_until", "maximal_invariant", "maximal_extension", "check_exit_formulas",
                "reachability_superop"],
}

PER_LAYER = [(f"{layer}.{fn}.{kind}", unit) for layer, fns in _TIMED.items() for fn in fns
             for kind, unit in (("calls", "count"), ("self_s", "s"))]
PER_LAYER += [
    ("linalg.invert.max_n", "rows"),
    ("linalg.peripheral_split.max_n", "rows"),
    ("linalg.max_bits", "bits"),
    ("subspace.union.kept_ratio", "ratio"),
    ("subspace.union.max_members", "count"),
    ("superop.SuperOp.matrix_rep.misses", "count"),
    ("program.actions.max", "count"),
    ("checker.chain_depth.max", "count"),
    ("checker.refinements.sum", "count"),
    ("checker.unknown.count", "count"),
    ("checker.witness.count", "count"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),  # filled in by run.py, which sees both runs
]


def layer_metrics(tracer: Tracer, outputs) -> dict:
    """Every per-layer metric except the overhead, from the tracer and from
    the parsed outputs of the traced queries (None for a failed query)."""
    values = {}
    for layer, fns in _TIMED.items():
        for fn in fns:
            calls, self_s = tracer.totals(f"{layer}.{fn}")
            values[f"{layer}.{fn}.calls"] = calls
            values[f"{layer}.{fn}.self_s"] = self_s
    verdicts = [o for o in outputs if o and "status" in o]
    depths = [o["diagnostics"].get(k, 0) or 0 for o in verdicts for k in ("chain_depth", "invariance_chain_depth")]
    values.update({
        "linalg.invert.max_n": tracer.max_n["linalg.invert"],
        "linalg.peripheral_split.max_n": tracer.max_n["linalg.peripheral_split"],
        "linalg.max_bits": tracer.max_bits,
        "subspace.union.kept_ratio": tracer.union_kept / tracer.union_offered if tracer.union_offered else 1.0,
        "subspace.union.max_members": tracer.union_max_members,
        "superop.SuperOp.matrix_rep.misses": tracer.matrix_rep_misses,
        "program.actions.max": tracer.actions_max,
        "checker.chain_depth.max": max(depths, default=0),
        "checker.refinements.sum": sum(o["diagnostics"].get("refinements", 0) for o in verdicts),
        "checker.unknown.count": sum(o["status"] == "unknown" for o in verdicts),
        "checker.witness.count": sum(bool(o.get("witness")) for o in verdicts if o["status"] == "not_valid"),
        "trace.spans": len(tracer.span_start),
    })
    return values
