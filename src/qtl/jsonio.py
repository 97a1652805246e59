"""JSON schemas for matrices, subspaces, channels, programs and verdicts.

Numbers are exact: rationals are encoded as "p/q" strings (or bare
integers), complex entries as two-element arrays [re, im] of rationals, and
matrices as row-major nested arrays.  Real entries may be given directly as
rational literals.  Matrices are read straight into the integer grids of a
``Mat`` (:meth:`Mat.from_rows`) and written from them; an entry that is no
exact number, or a missing key, raises MalformedInput naming it.

Program schema (sequential):

    {"dimension": 2,
     "locations": ["l1", "l2"],
     "initial_location": "l1",
     "exit_location": "l2",
     "initial_state": [[...], ...],
     "act": {"l1": {"kraus": [matrix, ...],
                    "measurement": [matrix, ...],
                    "next": {"0": ["l2"], "1": ["l1"]}}, ...}}

Each location's "next" has one entry per outcome of that location's own
measurement, "0" to "n-1"; the program rejects a missing or an extra one
(measurements are not padded to a common outcome count).  The concurrent
variant replaces locations/act by "processes" (each with its own
locations, act and "initial_location") plus "initial_scheduler"; next
entries become ["location", scheduler].  An automaton is {"dimension",
"actions": {name: {"kraus": [...]}}, "initial_state"}.
"""

from __future__ import annotations

import json
import math

from .errors import MalformedInput, QtlError
from .linalg import Mat
from .subspace import Subspace, SubspaceUnion
from .superop import Measurement, SuperOp
from .program import (
    ConcurrentProcess,
    ConcurrentProgram,
    LocationAction,
    QuantumAutomaton,
    SequentialProgram,
)
from .formula import Atom, atom_from_blocks


def _field(obj, key, what):
    """obj[key], or MalformedInput naming the missing key."""
    try:
        return obj[key]
    except (KeyError, TypeError, IndexError):
        raise MalformedInput(f"{what} has no {key!r}") from None


_JSON_KINDS = {dict: "an object", list: "a list", int: "an integer"}


def _typed(obj, key, what, kind: type):
    """obj[key] as a JSON object, list or integer (kind dict, list or int),
    or MalformedInput naming the key."""
    value = _field(obj, key, what)
    if not isinstance(value, kind):
        raise MalformedInput(f"{what} {key!r} is {_JSON_KINDS[kind]}, got {value!r}")
    return value


def _ratio_literal(num: int, den: int) -> str:
    """num/den in lowest terms: "p/q", or "p" for an integer."""
    g = math.gcd(num, den)
    if g == den:
        return str(num // den)
    return f"{num // g}/{den // g}"


def mat_to_json(m: Mat):
    """The entries of m as literals, read off its integer grids."""
    den = m.den
    return [
        [_ratio_literal(re, den) if not im else [_ratio_literal(re, den), _ratio_literal(im, den)]
         for re, im in zip(row_re, row_im)]
        for row_re, row_im in zip(m.num_re.tolist(), m.num_im.tolist())
    ]


def mat_from_json(obj) -> Mat:
    if not isinstance(obj, list) or not all(isinstance(row, list) for row in obj):
        raise MalformedInput(f"a matrix is a list of rows, got {obj!r}")
    return Mat.from_rows(obj)


def subspace_to_json(s: Subspace):
    return {"dim": s.ambient_dim, "basis": mat_to_json(s.rref)}


def subspace_from_json(obj) -> Subspace:
    dim = _field(obj, "dim", "subspace")
    basis = obj.get("basis", [])
    if not isinstance(basis, list) or not all(isinstance(v, list) for v in basis):
        raise MalformedInput(f"a subspace basis is a list of vectors, got {basis!r}")
    return Subspace.from_vectors(dim, basis)


def union_to_json(u: SubspaceUnion):
    return [subspace_to_json(m) for m in u.members]


def channel_to_json(e: SuperOp):
    return {"kraus": [mat_to_json(k) for k in e.kraus]}


def channel_from_json(obj) -> SuperOp:
    return SuperOp([mat_from_json(k) for k in _typed(obj, "kraus", "channel", list)])


# ----------------------------------------------------------------------
# programs and automata


def _act_to_json(a: LocationAction, concurrent: bool):
    def target(t):
        return [t[0], t[1]] if concurrent else t

    return {
        "kraus": [mat_to_json(k) for k in a.channel.kraus],
        "measurement": [mat_to_json(op) for op in a.measurement.operators],
        "next": {str(j): [target(t) for t in targets] for j, targets in a.next.items()},
    }


def _targets(j, targets, concurrent: bool) -> tuple:
    """The targets of outcome j: location labels, or [location, scheduler]
    pairs in a concurrent process; MalformedInput otherwise."""
    if isinstance(targets, list) and not concurrent:
        return tuple(targets)
    if isinstance(targets, list) and all(isinstance(t, list) and len(t) == 2 for t in targets):
        try:
            return tuple((t[0], int(t[1])) for t in targets)
        except (TypeError, ValueError):
            pass
    shape = "[location, scheduler] pairs" if concurrent else "locations"
    raise MalformedInput(f"next[{j!r}] is a list of {shape}, got {targets!r}")


def _act_from_json(obj, concurrent: bool) -> LocationAction:
    # the program checks that the channel is trace preserving
    channel = SuperOp([mat_from_json(k) for k in _typed(obj, "kraus", "location action", list)], validate=False)
    measurement = Measurement([mat_from_json(op) for op in _typed(obj, "measurement", "location action", list)])
    nxt = {}
    for j, targets in _typed(obj, "next", "location action", dict).items():
        try:
            outcome = int(j)
        except ValueError:
            raise MalformedInput(f"an outcome of 'next' is an integer, got {j!r}") from None
        nxt[outcome] = _targets(j, targets, concurrent)
    return LocationAction(channel, measurement, nxt)


def program_to_json(p):
    if isinstance(p, SequentialProgram):
        return {
            "dimension": p.dim,
            "locations": list(p.locations),
            "initial_location": p.initial_location,
            "exit_location": p.exit_location,
            "initial_state": mat_to_json(p.initial_state),
            "act": {loc: _act_to_json(p.act[loc], False) for loc in p.locations},
        }
    if isinstance(p, ConcurrentProgram):
        return {
            "dimension": p.dim,
            "processes": [
                {
                    "locations": list(proc.locations),
                    "initial_location": p.initial_locations[k],
                    "act": {loc: _act_to_json(proc.act[loc], True) for loc in proc.locations},
                }
                for k, proc in enumerate(p.processes)
            ],
            "initial_scheduler": p.initial_scheduler,
            "initial_state": mat_to_json(p.initial_state),
        }
    if isinstance(p, QuantumAutomaton):
        return {
            "dimension": p.dim,
            "actions": {name: channel_to_json(e) for name, e in p.actions.items()},
            "initial_state": mat_to_json(p.initial_state),
        }
    raise TypeError(f"cannot serialize {p!r}")


def program_from_json(obj):
    """Detects the model by shape: actions -> automaton, processes ->
    concurrent program, otherwise sequential program."""
    if not isinstance(obj, dict):
        raise MalformedInput(f"a program is a JSON object, got {obj!r}")
    if "actions" in obj:
        return QuantumAutomaton(
            _field(obj, "dimension", "automaton"),
            {name: channel_from_json(c) for name, c in _typed(obj, "actions", "automaton", dict).items()},
            mat_from_json(_field(obj, "initial_state", "automaton")),
        )
    if "processes" in obj:
        processes = []
        initial_locations = []
        for proc in _typed(obj, "processes", "program", list):
            act = {loc: _act_from_json(a, True) for loc, a in _typed(proc, "act", "process", dict).items()}
            processes.append(ConcurrentProcess(_typed(proc, "locations", "process", list), act))
            initial_locations.append(_field(proc, "initial_location", "process"))
        return ConcurrentProgram(
            dim=_field(obj, "dimension", "program"),
            processes=processes,
            initial_state=mat_from_json(_field(obj, "initial_state", "program")),
            initial_locations=initial_locations,
            initial_scheduler=_typed(obj, "initial_scheduler", "program", int),
        )
    act = {loc: _act_from_json(a, False) for loc, a in _typed(obj, "act", "program", dict).items()}
    return SequentialProgram(
        dim=_field(obj, "dimension", "program"),
        locations=_typed(obj, "locations", "program", list),
        act=act,
        initial_state=mat_from_json(_field(obj, "initial_state", "program")),
        initial_location=_field(obj, "initial_location", "program"),
        exit_location=obj.get("exit_location"),
    )


# ----------------------------------------------------------------------
# atoms


def atoms_from_json(obj, program) -> dict:
    """Atom table from a list of {"name", "blocks": {label: subspace}} or
    {"name", "subspace": {...}} entries; blocks are per-configuration."""
    if not isinstance(obj, list):
        raise MalformedInput(f"an atom table is a JSON list, got {obj!r}")
    atoms = {}
    for entry in obj:
        name = _field(entry, "name", "atom")
        if "subspace" in entry:
            atoms[name] = Atom(name, subspace_from_json(entry["subspace"]))
        else:
            if not hasattr(program, "configs"):
                raise QtlError(
                    f"atom {name!r} uses per-location blocks, which need a program; "
                    "automata take a raw 'subspace' instead"
                )
            blocks = {
                label: subspace_from_json(sub) for label, sub in _typed(entry, "blocks", "atom", dict).items()
            }
            atoms[name] = atom_from_blocks(name, blocks, program)
    return atoms


# ----------------------------------------------------------------------
# normal form and verdicts


def normal_form_to_json(nf):
    return {
        "body_channel": channel_to_json(nf.body_channel),
        "m0": mat_to_json(nf.m0),
        "m1": mat_to_json(nf.m1),
    }


def verdict_to_json(v):
    out = {"status": v.status, "diagnostics": _plain(v.diagnostics)}
    if v.witness is not None:
        out["witness"] = _plain(v.witness)
    if v.certificate is not None:
        out["certificate"] = union_to_json(v.certificate)
    return out


def _plain(value):
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, float) and value == float("inf"):
        return "inf"
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    return str(value)


def dumps(obj, **kwargs) -> str:
    return json.dumps(obj, indent=2, **kwargs)
