"""Command-line front end: check, compile, reach, simulate.

Exit codes of ``qtl check``: 0 the property is valid, 1 it is refuted,
2 the checker cannot decide (a period certificate is missing, or the shape
is undecidable by construction), 3 input or usage error, including a
formula outside the decidable fragment.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import os
import sys
from fractions import Fraction

from .errors import MalformedInput, QtlError
from . import jsonio
from .formula import parse_formula
from .program import QuantumAutomaton, SequentialProgram, initial_cq, embed, selector_successors
from .qwhile import bohm_jacopini, compile_qwhile, parse as parse_qwhile
from .checker import VALID, NOT_VALID, UNKNOWN, check, reachability_superop

EXIT_VALID = 0
EXIT_NOT_VALID = 1
EXIT_UNKNOWN = 2
EXIT_ERROR = 3


# reads a JSON number with a fraction or an exponent by its decimal text (0.1
# is 1/10, not the binary double nearest to it); built once, as json.load
# builds a new decoder on every call that passes parse_float
_DECODER = json.JSONDecoder(parse_float=Fraction)


def _load_json(path):
    """The JSON document in the file: its bytes, read unbuffered in one
    call and decoded as UTF-8 once."""
    with open(path, "rb", buffering=0) as fh:
        return _DECODER.decode(fh.readall().decode("utf-8"))


def _load_program(path):
    return jsonio.program_from_json(_load_json(path))


def cmd_check(args) -> int:
    target = _load_program(args.program)
    atoms = jsonio.atoms_from_json(_load_json(args.atoms), target) if args.atoms else {}
    formula = parse_formula(args.formula, atoms)
    verdict = check(target, formula, atoms)
    report = jsonio.verdict_to_json(verdict)
    report["formula"] = args.formula
    if args.json:
        print(jsonio.dumps(report))
    else:
        print(f"formula: {args.formula}")
        print(f"status: {verdict.status}")
        if verdict.witness:
            print(f"witness: {jsonio.dumps(jsonio._plain(verdict.witness))}")
        if verdict.certificate is not None:
            dims = ", ".join(str(m.dim) for m in verdict.certificate.members)
            print(f"certificate: union of subspaces with dimensions [{dims}]")
        if verdict.diagnostics:
            print(f"diagnostics: {jsonio.dumps(jsonio._plain(verdict.diagnostics))}")
    return {VALID: EXIT_VALID, NOT_VALID: EXIT_NOT_VALID, UNKNOWN: EXIT_UNKNOWN}[verdict.status]


def cmd_compile(args) -> int:
    if args.source.endswith(".json"):
        program = _load_program(args.source)
        if not isinstance(program, SequentialProgram):
            print("error: normal form needs a sequential program", file=sys.stderr)
            return EXIT_ERROR
    else:
        with open(args.source, "r", encoding="utf-8") as fh:
            program = compile_qwhile(parse_qwhile(fh.read()))
    if args.normal_form:
        nf = bohm_jacopini(program)  # NotDeterministic for nondeterministic input
        payload = jsonio.normal_form_to_json(nf)
    else:
        payload = jsonio.program_to_json(program)
    text = jsonio.dumps(payload)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return EXIT_VALID


def cmd_reach(args) -> int:
    program = _load_program(args.program)
    if not isinstance(program, SequentialProgram):
        print("error: reachability needs a sequential program", file=sys.stderr)
        return EXIT_ERROR
    result = reachability_superop(program)
    report = {
        "kraus_rank": result.kraus_rank,
        "reach_trace": result.diagnostics["reach_trace"],
        "expected_steps": jsonio._plain(result.expected_steps),
        "almost_terminates": result.almost_terminates,
    }
    if args.json:
        print(jsonio.dumps(report))
    else:
        for key, value in report.items():
            print(f"{key}: {value}")
    return EXIT_VALID


def _budget():
    text = os.environ.get("QTL_BUDGET", "4096")
    try:
        return int(text)
    except ValueError:
        raise MalformedInput(f"QTL_BUDGET is an integer, got {text!r}") from None


def cmd_simulate(args) -> int:
    if args.steps < 0:
        print(f"error: --steps is a step count, got {args.steps}", file=sys.stderr)
        return EXIT_ERROR
    program = _load_program(args.program)
    if isinstance(program, QuantumAutomaton):
        print("error: simulate needs a program, not an automaton", file=sys.stderr)
        return EXIT_ERROR
    atoms = {}
    if args.atoms:
        atoms = jsonio.atoms_from_json(_load_json(args.atoms), program)
    budget = _budget()
    if args.schedule == "enumerate":
        traces = [[initial_cq(program)]]
        for _ in range(args.steps):
            grown = []
            for trace in traces:
                for nxt in selector_successors(program, trace[-1], cap=budget):
                    grown.append(trace + [nxt])
                    if len(grown) > budget:
                        print("error: trace enumeration exceeded QTL_BUDGET", file=sys.stderr)
                        return EXIT_ERROR
            traces = grown
    else:
        word = []
        for item in args.schedule.split(",") if args.schedule else []:
            try:
                word.append(int(item))
            except ValueError:
                print(f"error: schedule item {item!r} is not an integer", file=sys.stderr)
                return EXIT_ERROR
        state = initial_cq(program)
        trace = [state]
        for k in range(args.steps):
            succ = selector_successors(program, state, cap=budget)
            pick = word[k] if k < len(word) else 0
            if not 0 <= pick < len(succ):
                print(f"error: schedule index {pick} out of range at step {k}", file=sys.stderr)
                return EXIT_ERROR
            state = succ[pick]
            trace.append(state)
        traces = [trace]
    payload = []
    for t_idx, trace in enumerate(traces):
        steps = []
        for k, state in enumerate(trace):
            entry = {
                "step": k,
                "blocks": {
                    str(c): jsonio.mat_to_json(b) for c, b in sorted(state.blocks.items(), key=lambda kv: str(kv[0]))
                },
            }
            if atoms:
                emb = embed(state, program)
                entry["atom_probabilities"] = {
                    name: float((atom.subspace.projector @ emb).trace().re)
                    for name, atom in atoms.items()
                }
            steps.append(entry)
        payload.append({"trace": t_idx, "steps": steps})
    if args.json:
        print(jsonio.dumps(payload))
    else:
        for item in payload:
            print(f"trace {item['trace']}:")
            for entry in item["steps"]:
                print(f"  step {entry['step']}:")
                for c, b in entry["blocks"].items():
                    print(f"    {c}: {b}")
                if "atom_probabilities" in entry:
                    print(f"    atom probabilities: {entry['atom_probabilities']}")
    return EXIT_VALID


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qtl",
        description="Verification of temporal properties of quantum programs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser(
        "check",
        help="decide a temporal formula",
        description=f"{__doc__}\n{inspect.getdoc(check)}",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p_check.add_argument("program", help="program / automaton JSON file")
    p_check.add_argument("--atoms", help="atom table JSON file")
    p_check.add_argument("-f", "--formula", required=True, help="formula text")
    p_check.add_argument("--json", action="store_true")

    p_compile = sub.add_parser("compile", help="compile .qw source to a program")
    p_compile.add_argument("source", help=".qw source (or program JSON with --normal-form)")
    p_compile.add_argument("-o", "--output", help="output path (default stdout)")
    p_compile.add_argument("--normal-form", action="store_true", dest="normal_form")

    p_reach = sub.add_parser("reach", help="reachability of the exit location")
    p_reach.add_argument("program")
    p_reach.add_argument("--json", action="store_true")

    p_sim = sub.add_parser("simulate", help="exact step-by-step simulation")
    p_sim.add_argument("program")
    p_sim.add_argument("--steps", type=int, default=4)
    p_sim.add_argument("--schedule", default="", help="comma-separated successor picks, or 'enumerate'")
    p_sim.add_argument("--atoms")
    p_sim.add_argument("--json", action="store_true")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built once per process: parsing reads it
    and leaves it unchanged."""
    return build_parser()


def _parse(argv: list) -> argparse.Namespace:
    """``_parser().parse_args(argv)``, parsing argv once: when argv[0] names
    a command, its sub-parser parses the rest, as argparse hands it over,
    and the top-level parser reports what is left unrecognized; otherwise
    (no command, ``--help``, an unknown command) the top-level parser parses
    argv."""
    parser = _parser()
    # the name -> sub-parser table of the parser's one subparsers action
    (commands,) = (a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    command = commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, rest = command.parse_known_args(argv[1:])
    if rest:
        parser.error(f"unrecognized arguments: {' '.join(rest)}")
    args.command = argv[0]
    return args


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        # argparse exits 2 on usage errors, which collides with "unknown"
        return EXIT_VALID if exc.code in (0, None) else EXIT_ERROR
    try:
        # looked up when called, not kept in the parser built once per process
        return globals()[f"cmd_{args.command}"](args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except UnicodeDecodeError as exc:
        print(f"error: not UTF-8 text: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except QtlError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
