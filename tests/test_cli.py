import json
import random
import time
from fractions import Fraction

import pytest

from qtl import jsonio
from qtl.linalg import Mat
from qtl.program import QuantumAutomaton, to_automaton
from qtl.superop import SuperOp
from qtl.qwhile import compile_source
from qtl import cli
from qtl.cli import main

from helpers import (
    EXAMPLE_LOOP_SRC,
    PARTIALLY_TRAPPED_SRC,
    SHAPE_EXAMPLES,
    UNSUPPORTED_FORMULAS,
    random_automaton,
    random_deterministic_program,
    rotation_loop_src,
    rotation_loop_with_minus_trap_src,
    span,
)


@pytest.fixture()
def workspace(tmp_path):
    prog = compile_source(EXAMPLE_LOOP_SRC)
    program_path = tmp_path / "example1.json"
    program_path.write_text(jsonio.dumps(jsonio.program_to_json(prog)))
    source_path = tmp_path / "example1.qw"
    source_path.write_text(EXAMPLE_LOOP_SRC)
    atoms = [
        {
            "name": "p",
            "blocks": {
                "l1": {"dim": 2, "basis": [["1", "0"], ["0", "1"]]},
                "l2": {"dim": 2, "basis": [["1", "0"], ["0", "1"]]},
                "l3": {"dim": 2, "basis": [["1", "0"], ["0", "1"]]},
                "l4": {"dim": 2, "basis": [["1", "0"]]},
            },
        },
        {"name": "exit0", "blocks": {"l4": {"dim": 2, "basis": [["1", "0"]]}}},
    ]
    atoms_path = tmp_path / "atoms.json"
    atoms_path.write_text(json.dumps(atoms))
    return tmp_path, str(program_path), str(atoms_path), str(source_path)


def _write_rotation_loop(tmp_path, n):
    """The rotation loop of t = 1/n and an atom "exit0" (|0> at the exit)."""
    prog = compile_source(rotation_loop_src(n))
    program_path = tmp_path / f"rotation{n}.json"
    program_path.write_text(jsonio.dumps(jsonio.program_to_json(prog)))
    atoms_path = tmp_path / f"rotation{n}_atoms.json"
    atoms = [{"name": "exit0", "blocks": {prog.exit_location: {"dim": 2, "basis": [["1", "0"]]}}}]
    atoms_path.write_text(json.dumps(atoms))
    return str(program_path), str(atoms_path)


def _write_nondeterministic_program(tmp_path):
    """A two-location program whose location "a" may stay or exit on outcome 0."""
    from qtl.program import LocationAction, SequentialProgram
    from qtl.superop import Measurement, SuperOp

    meas = Measurement([Mat.unit(2, 0, 0), Mat.unit(2, 1, 1)])
    act = {
        "a": LocationAction(SuperOp.identity(2), meas, {0: ("a", "e"), 1: ("a",)}),
        "e": LocationAction(
            SuperOp.identity(2), Measurement.trivial(2, 2), {0: ("e",), 1: ("e",)}
        ),
    }
    prog = SequentialProgram(2, ("a", "e"), act, Mat.unit(2, 0, 0), "a", "e")
    path = tmp_path / "nondet.json"
    path.write_text(jsonio.dumps(jsonio.program_to_json(prog)))
    return path


class TestJsonRoundtrips:
    def test_matrix(self):
        m = Mat.from_rows([["1/2", (0, "-1/3")], [5, 0]])
        assert jsonio.mat_from_json(jsonio.mat_to_json(m)) == m

    def test_subspace_and_union(self):
        s = span((1, -1))
        assert jsonio.subspace_from_json(jsonio.subspace_to_json(s)) == s
        from qtl.subspace import SubspaceUnion

        u = SubspaceUnion(2, [span((1, 0)), span((0, 1))])
        assert [jsonio.subspace_from_json(m) for m in jsonio.union_to_json(u)] == list(u.members)

    def test_sequential_program(self):
        rng = random.Random(0)
        prog = random_deterministic_program(rng, 2, 3)
        back = jsonio.program_from_json(jsonio.program_to_json(prog))
        assert back.locations == prog.locations
        assert back.initial_state == prog.initial_state
        for loc in prog.locations:
            assert back.act[loc].channel.matrix_rep() == prog.act[loc].channel.matrix_rep()
            assert back.act[loc].next == prog.act[loc].next

    def test_automaton(self):
        rng = random.Random(1)
        aut = random_automaton(rng, 2, 2)
        back = jsonio.program_from_json(jsonio.program_to_json(aut))
        assert isinstance(back, QuantumAutomaton)
        assert back.initial_state == aut.initial_state
        for name in aut.actions:
            assert back.actions[name].matrix_rep() == aut.actions[name].matrix_rep()

    def test_concurrent_program(self):
        from qtl.program import ConcurrentProcess, ConcurrentProgram, LocationAction
        from qtl.superop import Measurement, SuperOp

        meas = Measurement([Mat.unit(2, 0, 0), Mat.unit(2, 1, 1)])
        p1 = ConcurrentProcess(
            ("p",),
            {"p": LocationAction(SuperOp.identity(2), meas, {0: (("p", 2),), 1: (("p", 1),)})},
        )
        p2 = ConcurrentProcess(
            ("q",),
            {"q": LocationAction(SuperOp.identity(2), meas, {0: (("q", 1),), 1: (("q", 2),)})},
        )
        prog = ConcurrentProgram(2, (p1, p2), Mat.unit(2, 0, 0), ("p", "q"), 1)
        back = jsonio.program_from_json(jsonio.program_to_json(prog))
        assert isinstance(back, ConcurrentProgram)
        assert back.initial_scheduler == 1
        assert back.processes[0].act["p"].next == p1.act["p"].next

    def test_automaton_front_end_builds_no_fraction(self, monkeypatch):
        # every entry is read into integer grids and validated on them: a
        # Fraction built under any qtl module name raises
        import qtl
        from fractions import Fraction

        class NoFraction(Fraction):
            def __new__(cls, *args, **kwargs):
                raise AssertionError("the front end built a Fraction")

        aut = random_automaton(random.Random(3), 3, 3)
        obj = jsonio.program_to_json(aut)
        atoms = [{"name": "p", "subspace": jsonio.subspace_to_json(span((1, "1/2", (0, "-2/3")), (0, 1, 0)))}]
        for name in ("linalg", "subspace", "superop", "program", "formula", "jsonio"):
            monkeypatch.setattr(getattr(qtl, name), "Fraction", NoFraction, raising=False)
        back = jsonio.program_from_json(obj)
        table = jsonio.atoms_from_json(atoms, back)
        monkeypatch.undo()
        assert back.initial_state == aut.initial_state and len(back.actions) == 3
        assert all(back.actions[n].kraus == aut.actions[n].kraus for n in aut.actions)
        assert table["p"].subspace == span((1, "1/2", (0, "-2/3")), (0, 1, 0))

    def test_verdict_schema(self):
        from qtl.checker import check_invariance
        from qtl.subspace import SubspaceUnion

        rng = random.Random(2)
        aut = random_automaton(rng, 2, 2)
        v = check_invariance(aut, SubspaceUnion.full(2))
        payload = jsonio.verdict_to_json(v)
        assert payload["status"] == "valid"
        assert "diagnostics" in payload
        json.dumps(payload)  # serializable


class TestCheckCommand:
    def test_always_valid_exit_zero(self, workspace, capsys):
        _, prog, atoms, _ = workspace
        assert main(["check", prog, "--atoms", atoms, "-f", "[] p"]) == 0
        out = capsys.readouterr().out
        assert "valid" in out

    def test_eventually_refuted_exit_one(self, workspace):
        _, prog, atoms, _ = workspace
        assert main(["check", prog, "--atoms", atoms, "-f", "<> exit0"]) == 1

    def test_almost_eventually_valid(self, workspace):
        _, prog, atoms, _ = workspace
        assert main(["check", prog, "--atoms", atoms, "-f", "<>~ exit0"]) == 0

    def test_almost_eventually_on_slow_rotation_loops(self, tmp_path, capsys):
        for n in (10**5, 10**6):
            prog, atoms = _write_rotation_loop(tmp_path, n)
            assert main(["check", prog, "--atoms", atoms, "-f", "<>~ exit0", "--json"]) == 0
            report = json.loads(capsys.readouterr().out)
            assert report["diagnostics"] == {"reachable_dim": 4, "trapped_dim": 0}

    def test_exit_formulas_unknown_on_nondeterministic_program(self, tmp_path, capsys):
        path = _write_nondeterministic_program(tmp_path)
        atoms = tmp_path / "nondet_atoms.json"
        atoms.write_text(json.dumps([{"name": "at_exit", "blocks": {"e": {"dim": 2, "basis": [["1", "0"]]}}}]))
        for formula in ("<> at_exit", "<>~ at_exit"):
            assert main(["check", str(path), "--atoms", str(atoms), "-f", formula, "--json"]) == 2
            out = json.loads(capsys.readouterr().out)
            assert out["status"] == "unknown"
            assert "deterministic" in out["diagnostics"]["reason"]

    def test_unknown_exit_two(self, workspace):
        _, prog, atoms, _ = workspace
        # "eventually p" is not exit-shaped (p covers non-exit locations)
        assert main(["check", prog, "--atoms", atoms, "-f", "<> p"]) == 2

    def test_unsupported_shape_exit_three(self, workspace):
        _, prog, atoms, _ = workspace
        assert main(["check", prog, "--atoms", atoms, "-f", "<> X p"]) == 3

    @pytest.mark.parametrize("text", UNSUPPORTED_FORMULAS)
    def test_shape_outside_table_exit_three(self, workspace, capsys, text):
        _, prog, atoms, _ = workspace
        assert main(["check", prog, "--atoms", atoms, "-f", text]) == 3
        assert "decidable fragment" in capsys.readouterr().err

    def test_help_names_every_shape(self, capsys):
        assert main(["check", "--help"]) == 0
        text = capsys.readouterr().out
        for shape in SHAPE_EXAMPLES:
            assert f"\n    {shape} " in text

    def test_missing_file_exit_three(self, workspace):
        _, _, atoms, _ = workspace
        assert main(["check", "/nonexistent.json", "--atoms", atoms, "-f", "[] p"]) == 3

    def test_usage_errors_exit_three(self, workspace, capsys):
        _, prog, atoms, _ = workspace
        assert main(["check", prog]) == 3  # missing -f
        # no such option: the period certificates are exact
        assert main(["check", prog, "--atoms", atoms, "-f", "[] p", "--tolerance", "1e-9"]) == 3
        assert "unrecognized arguments: --tolerance" in capsys.readouterr().err
        # nor this one: the period bound is a constant of the checker
        assert main(["check", prog, "-f", "[] p", "--period-bound", "0"]) == 3
        assert "unrecognized arguments: --period-bound" in capsys.readouterr().err
        assert main(["check", "--help"]) == 0
        assert "--period-bound" not in capsys.readouterr().out

    def test_one_parser_serves_consecutive_calls(self, workspace, capsys, monkeypatch):
        import qtl.cli as cli

        _, prog, atoms, source = workspace
        built = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        cli._parser.cache_clear()
        try:
            codes = [main(["check", prog, "--atoms", atoms, "-f", "[] p", "--json"])]
            assert json.loads(capsys.readouterr().out)["status"] == "valid"
            codes += [
                main(["check", prog]),  # missing -f
                main(["reach", prog, "--json"]),
                main(["check", "--help"]),
                main(["compile", source, "--no-such-option"]),
                main(["check", prog, "--atoms", atoms, "-f", "<> exit0"]),
            ]
            # no option of an earlier call leaks into a later one
            assert "\nformula: <> exit0\nstatus: not_valid\n" in capsys.readouterr().out
            codes.append(main(["simulate", prog, "--steps", "1", "--json"]))
        finally:
            cli._parser.cache_clear()
        assert codes == [0, 3, 0, 0, 3, 1, 0]
        assert built == [1]

    def test_one_parse_agrees_with_argparse(self, workspace, capsys):
        # the command's sub-parser on argv[1:], or the top-level parser when
        # argv[0] names no command: the same namespace, exit code, stdout
        # and stderr as argparse's two-level parse
        _, prog, atoms, source = workspace
        table = [
            [],
            ["--help"],
            ["-h", "check"],
            ["check", "--help"],
            ["frobnicate", prog],
            ["check", prog, "--atoms", atoms, "-f", "[] p", "--tolerance", "1e-9"],
            ["check", prog, "-f", "[] p", "extra.json"],
            ["check", prog],
            ["check", prog, "--atoms", atoms, "-f", "[] p", "--json"],
            ["check", "-f", "<> exit0", "--", prog],
            ["compile", source, "-o", "out.json", "--normal-form"],
            ["reach", prog, "--json"],
            ["simulate", prog, "--steps", "x"],
            ["simulate", prog, "--steps", "2", "--schedule", "0,1", "--atoms", atoms],
        ]

        def outcome(parse, argv):
            try:
                result = vars(parse(list(argv)))
            except SystemExit as exc:
                result = exc.code
            out = capsys.readouterr()
            return result, out.out, out.err

        codes = []
        for argv in table:
            expected = outcome(cli._parser().parse_args, argv)
            assert outcome(cli._parse, argv) == expected, argv
            codes.append(expected[0] if isinstance(expected[0], int) else "parsed")
        assert codes == [2, 0, 0, 0, 2, 2, 2, 2, "parsed", "parsed", "parsed", "parsed", 2, "parsed"]

    def test_rewritten_files_are_read_again(self, tmp_path, capsys):
        # each call reads its own files: no answer outlives the call
        x_gate = SuperOp.from_unitary(Mat.from_rows([[0, 1], [1, 0]]))
        automaton, atoms = tmp_path / "automaton.json", tmp_path / "atoms.json"

        def write(action, basis):
            a = QuantumAutomaton(2, {"a": action}, Mat.unit(2, 0, 0))
            automaton.write_text(jsonio.dumps(jsonio.program_to_json(a)))
            atoms.write_text(jsonio.dumps([{"name": "p", "subspace": jsonio.subspace_to_json(span(basis))}]))

        def status():
            main(["check", str(automaton), "--atoms", str(atoms), "-f", "[] p", "--json"])
            return json.loads(capsys.readouterr().out)["status"]

        write(x_gate, (1, 0))
        assert status() == "not_valid"
        write(SuperOp.identity(2), (1, 0))
        assert status() == "valid"
        write(SuperOp.identity(2), (0, 1))
        assert status() == "not_valid"

    def test_json_report_is_one_line(self, workspace, capsys):
        _, prog, atoms, _ = workspace
        for formula in ("[] p", "[] <> exit0", "<>~ exit0"):
            main(["check", prog, "--atoms", atoms, "-f", formula, "--json"])
            out = capsys.readouterr().out
            assert out.count("\n") == 1 and out.endswith("\n")
            assert json.loads(out)["formula"] == formula

    def test_json_report_schema(self, workspace, capsys):
        _, prog, atoms, _ = workspace
        assert main(["check", prog, "--atoms", atoms, "-f", "[] p", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "valid"
        assert payload["formula"] == "[] p"
        assert "certificate" in payload

    def test_matches_library_call(self, workspace):
        _, prog_path, atoms_path, _ = workspace
        from qtl.checker import check_invariance

        prog = jsonio.program_from_json(json.loads(open(prog_path).read()))
        atoms = jsonio.atoms_from_json(json.loads(open(atoms_path).read()), prog)
        v = check_invariance(to_automaton(prog), atoms["p"].subspace)
        code = main(["check", prog_path, "--atoms", atoms_path, "-f", "[] p"])
        assert (code == 0) == v.is_valid

    def test_period_shapes_take_no_float_step(self, workspace, tmp_path, capsys, monkeypatch):
        # the period certificates of [] <> f, [] (f U g) and [] (p U~ q) are
        # exact: numpy's spectral routines may not be called
        import numpy as np
        from qtl import checker
        from qtl.superop import SuperOp

        _, prog, atoms, _ = workspace
        x_gate = QuantumAutomaton(2, {"x": SuperOp.from_unitary(Mat.from_rows([[0, 1], [1, 0]]))}, Mat.unit(2, 0, 0))
        automaton = tmp_path / "x_gate.json"
        automaton.write_text(jsonio.dumps(jsonio.program_to_json(x_gate)))
        automaton_atoms = tmp_path / "x_gate_atoms.json"
        automaton_atoms.write_text(json.dumps([
            {"name": "zero", "subspace": jsonio.subspace_to_json(span((1, 0)))},
            {"name": "all", "subspace": jsonio.subspace_to_json(span((1, 0), (0, 1)))},
        ]))

        def forbidden(*args, **kwargs):
            raise AssertionError("qtl check took a float step")

        for name in ("eig", "eigvals", "svd"):
            monkeypatch.setattr(np.linalg, name, forbidden)
        runs = [(prog, atoms, f"[] {f}") for f in ("<> exit0", "(p U exit0)", "(p U~ exit0)")]
        runs += [(str(automaton), str(automaton_atoms), f"[] {f}") for f in ("<> zero", "(all U zero)", "(all U~ zero)")]
        records = []
        for path, atoms_path, formula in runs:
            main(["check", path, "--atoms", atoms_path, "-f", formula, "--json"])
            records.append(json.loads(capsys.readouterr().out))
        assert [r["status"] for r in records] == ["not_valid", "not_valid", "valid", "valid", "valid", "valid"]
        # the X gate's support graph |0> -> |1> -> |0> closes, so check
        # decides [] <> zero on it; the loop refinement, run on its own,
        # finds the alternation's period two, certified exactly
        assert records[3]["diagnostics"] == {"graph_nodes": 2}
        assert checker._always_eventually_by_fixpoints(x_gate, span((1, 0))).diagnostics["periods"] == [2]
        assert records[5]["diagnostics"]["period"] == 2


class TestMalformedInput:
    """A program file with an unreadable number or a missing key is an input
    error (exit 3) that names the entry or key, in `qtl check` and `qtl reach`."""

    @pytest.mark.parametrize("command", ["check", "reach"])
    @pytest.mark.parametrize(
        "entry, named",
        [("1/0", "'1/0'"), ("x1", "'x1'"), (["1", "0", "0"], "['1', '0', '0']"), (None, "'initial_state'")],
    )
    def test_exit_three_naming_the_input(self, workspace, capsys, command, entry, named):
        tmp_path, prog, atoms, _ = workspace
        with open(prog, encoding="utf-8") as fh:
            obj = json.load(fh)
        if entry is None:
            del obj["initial_state"]
        else:
            obj["initial_state"][0][0] = entry
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        argv = ["check", str(bad), "--atoms", atoms, "-f", "[] p"] if command == "check" else ["reach", str(bad)]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "MalformedInput" in captured.err and named in captured.err

    @staticmethod
    def _run_mutated(workspace, capsys, command, mutate):
        """Run `command` on the example program after `mutate` edits its JSON;
        the exit code and stderr."""
        tmp_path, prog, atoms, _ = workspace
        with open(prog, encoding="utf-8") as fh:
            obj = json.load(fh)
        mutate(obj)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        argv = ["check", str(bad), "-f", "[] true"] if command == "check" else ["reach", str(bad)]
        code = main(argv)
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        return code, captured.err

    @pytest.mark.parametrize("command", ["check", "reach"])
    def test_incomplete_measurement_exit_three(self, workspace, capsys, command):
        # {|0><0|} alone: M†M sums to |0><0|, not to the identity
        def mutate(obj):
            obj["act"]["l1"]["measurement"] = [[["1", "0"], ["0", "0"]]]

        code, err = self._run_mutated(workspace, capsys, command, mutate)
        assert code == 3
        assert "PreconditionViolated" in err and "identity" in err

    @pytest.mark.parametrize("command", ["check", "reach"])
    def test_outcome_key_not_an_integer_exit_three(self, workspace, capsys, command):
        def mutate(obj):
            obj["act"]["l1"]["next"] = {"x": ["l2"], "1": ["l1"]}

        code, err = self._run_mutated(workspace, capsys, command, mutate)
        assert code == 3 and "MalformedInput" in err and "'x'" in err

    @pytest.mark.parametrize("command", ["check", "reach"])
    @pytest.mark.parametrize(
        "path, value",
        [(["act"], []), (["locations"], 5), (["act", "l1", "kraus"], 5), (["act", "l1", "next"], ["l2"])],
    )
    def test_field_of_wrong_type_exit_three(self, workspace, capsys, command, path, value):
        def mutate(obj):
            *parents, key = path
            for name in parents:
                obj = obj[name]
            obj[key] = value

        code, err = self._run_mutated(workspace, capsys, command, mutate)
        assert code == 3 and "MalformedInput" in err and repr(path[-1]) in err

    @pytest.mark.parametrize("command", ["check", "reach"])
    def test_targets_not_a_list_exit_three(self, workspace, capsys, command):
        # a bare string would otherwise be read as one target per character
        def mutate(obj):
            obj["act"]["l1"]["next"]["0"] = "l2"

        code, err = self._run_mutated(workspace, capsys, command, mutate)
        assert code == 3 and "MalformedInput" in err and "'l2'" in err

    @pytest.mark.parametrize("command", ["check", "reach"])
    def test_outcome_without_next_exit_three(self, workspace, capsys, command):
        # the loop head's measurement has two outcomes; outcome 1 loses its
        # targets and is not read as a self-loop
        def mutate(obj):
            del obj["act"]["l2"]["next"]["1"]

        code, err = self._run_mutated(workspace, capsys, command, mutate)
        assert code == 3 and "PreconditionViolated" in err and "next(1, location l2)" in err

    @pytest.mark.parametrize("command", ["check", "reach"])
    def test_next_beyond_the_outcomes_exit_three(self, workspace, capsys, command):
        # skip at l1 measures one outcome; a target for outcome 1 is an error
        def mutate(obj):
            obj["act"]["l1"]["next"]["1"] = ["l1"]

        code, err = self._run_mutated(workspace, capsys, command, mutate)
        assert code == 3 and "PreconditionViolated" in err and "next(1, location l1)" in err

    @pytest.mark.parametrize("command", ["check", "reach"])
    def test_target_named_twice_exit_three(self, workspace, capsys, command):
        # a target listed twice is not a second choice of where to go
        def mutate(obj):
            obj["act"]["l1"]["next"]["0"] *= 2

        code, err = self._run_mutated(workspace, capsys, command, mutate)
        assert code == 3 and "PreconditionViolated" in err and "next(0, location l1) names a target twice" in err

    @pytest.mark.parametrize("command", ["check", "reach"])
    def test_action_for_no_location_exit_three(self, workspace, capsys, command):
        # a misspelt location key is not dropped without a word
        def mutate(obj):
            obj["act"]["l9"] = obj["act"]["l1"]

        code, err = self._run_mutated(workspace, capsys, command, mutate)
        assert code == 3 and "PreconditionViolated" in err and "'l9'" in err

    def test_process_action_for_no_location_exit_three(self, tmp_path, capsys):
        from qtl.program import ConcurrentProcess, ConcurrentProgram, LocationAction
        from qtl.superop import Measurement, SuperOp

        act = LocationAction(SuperOp.identity(2), Measurement.trivial(2), {0: (("p", 1),)})
        prog = ConcurrentProgram(2, (ConcurrentProcess(("p",), {"p": act}),), Mat.unit(2, 0, 0), ("p",), 1)
        obj = jsonio.program_to_json(prog)
        obj["processes"][0]["act"]["q"] = obj["processes"][0]["act"]["p"]
        path = tmp_path / "extra_action.json"
        path.write_text(json.dumps(obj))
        assert main(["check", str(path), "-f", "[] true"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert "PreconditionViolated" in captured.err and "'q', which is not a location of process 1" in captured.err

    def test_process_location_without_action_exit_three(self, tmp_path, capsys):
        from qtl.program import ConcurrentProcess, ConcurrentProgram, LocationAction
        from qtl.superop import Measurement, SuperOp

        act = LocationAction(SuperOp.identity(2), Measurement.trivial(2), {0: (("p", 1),)})
        prog = ConcurrentProgram(2, (ConcurrentProcess(("p",), {"p": act}),), Mat.unit(2, 0, 0), ("p",), 1)
        obj = jsonio.program_to_json(prog)
        obj["processes"][0]["locations"].append("q")
        path = tmp_path / "no_action.json"
        path.write_text(json.dumps(obj))
        assert main(["check", str(path), "-f", "[] true"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert "PreconditionViolated" in captured.err and "location q of process 1" in captured.err

    def test_process_target_named_twice_exit_three(self, tmp_path, capsys):
        from qtl.program import ConcurrentProcess, ConcurrentProgram, LocationAction
        from qtl.superop import Measurement, SuperOp

        act = LocationAction(SuperOp.identity(2), Measurement.trivial(2), {0: (("p", 1),)})
        prog = ConcurrentProgram(2, (ConcurrentProcess(("p",), {"p": act}),), Mat.unit(2, 0, 0), ("p",), 1)
        obj = jsonio.program_to_json(prog)
        obj["processes"][0]["act"]["p"]["next"]["0"] *= 2
        path = tmp_path / "twice.json"
        path.write_text(json.dumps(obj))
        assert main(["check", str(path), "-f", "[] true"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert "PreconditionViolated" in captured.err and "next(0, location p of process 1) names a target twice" in captured.err

    def test_scheduler_not_an_integer_exit_three(self, tmp_path, capsys):
        from qtl.program import ConcurrentProcess, ConcurrentProgram, LocationAction
        from qtl.superop import Measurement, SuperOp

        act = LocationAction(SuperOp.identity(2), Measurement.trivial(2), {0: (("p", 1),)})
        prog = ConcurrentProgram(2, (ConcurrentProcess(("p",), {"p": act}),), Mat.unit(2, 0, 0), ("p",), 1)
        obj = jsonio.program_to_json(prog)
        obj["initial_scheduler"] = "x"
        path = tmp_path / "scheduler.json"
        path.write_text(json.dumps(obj))
        assert main(["check", str(path), "-f", "[] true"]) == 3
        captured = capsys.readouterr()
        assert "MalformedInput" in captured.err and "'initial_scheduler'" in captured.err

    @pytest.mark.parametrize("command", ["check", "reach", "compile", "simulate"])
    @pytest.mark.parametrize(
        "kind, content",
        [("directory", None), ("not_utf8", b'{"dimension": "\xff"}'), ("null", b"null"), ("number", b"3"),
         ("list", b"[]")],
    )
    def test_unreadable_program_exit_three(self, tmp_path, capsys, command, kind, content):
        # a directory, bytes that are no UTF-8, and JSON that is no object
        path = tmp_path / f"{kind}.json"
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        argv = {
            "check": ["check", str(path), "-f", "[] true"],
            "reach": ["reach", str(path)],
            "compile": ["compile", str(path), "--normal-form"],
            "simulate": ["simulate", str(path)],
        }[command]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ") and "Traceback" not in captured.err
        if kind in ("null", "number", "list"):
            assert "MalformedInput" in captured.err and "JSON object" in captured.err

    def test_source_not_utf8_exit_three(self, tmp_path, capsys):
        path = tmp_path / "latin1.qw"
        path.write_bytes("qubits 1; // é\n".encode("latin-1"))
        assert main(["compile", str(path)]) == 3
        assert "UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["check", "simulate"])
    @pytest.mark.parametrize("content", [b"null", b"3", b'{"name": "p"}'])
    def test_atom_table_not_a_list_exit_three(self, workspace, capsys, command, content):
        tmp_path, prog, _, _ = workspace
        atoms = tmp_path / "atoms_bad.json"
        atoms.write_bytes(content)
        argv = ["check", prog, "--atoms", str(atoms), "-f", "[] true"] if command == "check" else [
            "simulate", prog, "--atoms", str(atoms)]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "MalformedInput" in captured.err and "JSON list" in captured.err

    def test_budget_not_an_integer_exit_three(self, workspace, capsys, monkeypatch):
        _, prog, _, _ = workspace
        monkeypatch.setenv("QTL_BUDGET", "abc")
        assert main(["simulate", prog]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "QTL_BUDGET" in captured.err and "'abc'" in captured.err


class TestDecimalNumbers:
    """JSON numbers with a decimal point are read by their decimal text."""

    def test_decimal_initial_state_checks(self, tmp_path, capsys):
        # 0.1 and 0.9 as binary doubles do not sum to one
        path = tmp_path / "decimal.json"
        path.write_text(
            '{"dimension": 2, "actions": {"a": {"kraus": [[[1, 0], [0, 1]]]}}, "initial_state": [[0.1, 0], [0, 0.9]]}'
        )
        assert main(["check", str(path), "-f", "[] true"]) == 0
        assert "status: valid" in capsys.readouterr().out
        assert jsonio.program_from_json(cli._load_json(path)).initial_state == Mat.from_rows([["1/10", 0], [0, "9/10"]])

    def test_decimal_basis(self, tmp_path):
        path = tmp_path / "atoms.json"
        path.write_text('[{"name": "u", "subspace": {"dim": 2, "basis": [[0.1, 0.3]]}}, '
                        '{"name": "v", "subspace": {"dim": 2, "basis": [[1e-1, 2.5E-1]]}}]')
        atoms = jsonio.atoms_from_json(cli._load_json(path), None)
        assert atoms["u"].subspace == span((1, 3))
        assert atoms["v"].subspace == span((2, 5))


class TestCompileCommand:
    def test_compile_to_file(self, workspace, tmp_path):
        _, _, _, source = workspace
        out = tmp_path / "compiled.json"
        assert main(["compile", source, "-o", str(out)]) == 0
        prog = jsonio.program_from_json(json.loads(out.read_text()))
        assert len(prog.locations) == 4

    def test_normal_form_output(self, workspace, capsys):
        _, _, _, source = workspace
        assert main(["compile", source, "--normal-form"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"body_channel", "m0", "m1"}
        m0 = jsonio.mat_from_json(payload["m0"])
        m1 = jsonio.mat_from_json(payload["m1"])
        assert m0 + m1 == Mat.eye(8)

    def test_normal_form_nondeterministic_exit_three(self, tmp_path, capsys):
        path = _write_nondeterministic_program(tmp_path)
        assert main(["compile", str(path), "--normal-form"]) == 3
        assert "NotDeterministic" in capsys.readouterr().err

    def test_syntax_error_exit_three(self, tmp_path, capsys):
        bad = tmp_path / "bad.qw"
        bad.write_text("qubits 1;\napply")
        assert main(["compile", str(bad)]) == 3
        assert "line" in capsys.readouterr().err

    @pytest.mark.parametrize("n_qubits, statements", [(10, 7), (11, 1), (12, 1), (30, 1), (64, 1), (20000, 1)])
    def test_too_large_to_emit_exit_three(self, tmp_path, capsys, n_qubits, statements):
        # a channel and a measurement per location and the input state, as
        # dense d x d grids, past 2^24 entries: refused before any is formed,
        # with no integer of 2^20000 in the message (10 qubits and 6
        # statements, 15 grids of 2^20 entries, compile)
        path = tmp_path / "wide.qw"
        path.write_text(f"qubits {n_qubits};\n" + "; ".join(["skip"] * statements), encoding="utf-8")
        start = time.perf_counter()
        assert main(["compile", str(path)]) == 3
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        grids = 2 * (statements + 1) + 1
        assert captured.out == "" and captured.err == (
            f"error: BudgetExceeded: the {statements + 1} compiled locations need {grids} dense "
            f"2^{n_qubits} x 2^{n_qubits} grids ({grids} x 4^{n_qubits} entries); the limit is 16777216 entries\n"
        )


class TestReachCommand:
    def test_report(self, workspace, capsys):
        _, prog, _, _ = workspace
        assert main(["reach", prog, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"kraus_rank", "reach_trace", "expected_steps", "almost_terminates"}
        assert payload["almost_terminates"] is True
        assert abs(payload["expected_steps"] - 4.0) < 1e-6
        assert payload["kraus_rank"] >= 1

    def test_slowly_exiting_loops(self, tmp_path, capsys):
        # cut radii within 1e-9 of one, and an unreached trap on |-> of a
        # second qubit: exact trace one and the closed-form expected steps
        cases = [
            (_write_rotation_loop(tmp_path, n)[0], Fraction((n * n + 1) ** 2, 2 * n * n) + 1)
            for n in (10**5, 10**6)
        ]
        minus_trap = compile_source(rotation_loop_with_minus_trap_src(10**4))
        path = tmp_path / "minus_trap.json"
        path.write_text(jsonio.dumps(jsonio.program_to_json(minus_trap)))
        cases.append((str(path), Fraction(3 * (10**8 + 1) ** 2, 4 * 10**8) + 1))
        for prog, steps in cases:
            assert main(["reach", prog, "--json"]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["reach_trace"] == 1.0 and payload["almost_terminates"] is True
            assert payload["expected_steps"] == float(steps)

    def test_tolerance_is_no_reach_option(self, workspace, capsys):
        _, prog, _, _ = workspace
        assert main(["reach", prog, "--tolerance", "1e-9"]) == 3
        assert "--tolerance" in capsys.readouterr().err

    def test_kraus_rank_of_the_semantics(self, workspace, capsys):
        # the printed rank is that of the semantic function from the
        # initial location, whose matrix takes rho_0 to the reach block
        from qtl.checker import reachability_superop

        _, prog, _, _ = workspace
        program = compile_source(EXAMPLE_LOOP_SRC)
        r = reachability_superop(program)
        e = program.config_index(program.exit_location)
        n = len(program.locations)
        assert r.channel.apply(program.initial_state) == r.reach_state[e::n, e::n]
        assert main(["reach", prog, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["kraus_rank"] == r.kraus_rank == 2

    def test_reach_takes_no_float_step(self, workspace, tmp_path, capsys, monkeypatch):
        # every number of the record comes from exact arithmetic: numpy's
        # solve and spectral routines may not be called
        import numpy as np

        _, prog, _, _ = workspace
        trapped = tmp_path / "partially_trapped.json"
        trapped.write_text(jsonio.dumps(jsonio.program_to_json(compile_source(PARTIALLY_TRAPPED_SRC))))
        programs = [prog, _write_rotation_loop(tmp_path, 10)[0], str(trapped)]

        def forbidden(*args, **kwargs):
            raise AssertionError("qtl reach took a float step")

        for name in ("solve", "eigh", "svd", "eigvals"):
            monkeypatch.setattr(np.linalg, name, forbidden)
        records = []
        for path in programs:
            assert main(["reach", path, "--json"]) == 0
            records.append(json.loads(capsys.readouterr().out))
        assert [(r["reach_trace"], r["almost_terminates"]) for r in records] == [
            (1.0, True),
            (1.0, True),
            (0.5, False),
        ]
        assert records[2]["expected_steps"] == "inf"


class TestGridLimit:
    """A program whose one-step channels would hold too many dense grid
    entries exits 3 at once, from `qtl reach` and from `qtl check`."""

    def _skip_chain(self, tmp_path, n):
        prog = compile_source("qubits 1;\n" + "skip;\n" * n)
        program_path = tmp_path / f"skips{n}.json"
        program_path.write_text(jsonio.dumps(jsonio.program_to_json(prog)))
        atoms_path = tmp_path / f"skips{n}_atoms.json"
        atoms = [{"name": "p", "blocks": {prog.exit_location: {"dim": 2, "basis": [["1", "0"]]}}}]
        atoms_path.write_text(json.dumps(atoms))
        return str(program_path), str(atoms_path)

    def test_long_chain_fails_fast(self, tmp_path, capsys):
        # 401 grids of 802 x 802, about 258 million entries
        prog, atoms = self._skip_chain(tmp_path, 400)
        for argv in (["reach", prog], ["check", prog, "--atoms", atoms, "-f", "[] p"]):
            start = time.perf_counter()
            assert main(argv) == 3
            assert time.perf_counter() - start < 1
            assert "BudgetExceeded" in capsys.readouterr().err

    def test_chain_below_the_limit_answers(self, tmp_path, capsys):
        # 151 grids of 302 x 302: p holds only at the exit
        prog, atoms = self._skip_chain(tmp_path, 150)
        assert main(["check", prog, "--atoms", atoms, "-f", "[] p", "--json"]) == 1
        assert json.loads(capsys.readouterr().out)["status"] == "not_valid"


class TestSimulateCommand:
    def test_exact_step_states(self, workspace, capsys):
        _, prog, atoms, _ = workspace
        assert main(["simulate", prog, "--steps", "4", "--atoms", atoms, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        steps = payload[0]["steps"]
        assert len(steps) == 5
        sigma2 = steps[2]["blocks"]
        assert sigma2["l4"] == [["1/2", "0"], ["0", "0"]]
        assert sigma2["l3"] == [["0", "0"], ["0", "1/2"]]
        assert steps[4]["atom_probabilities"]["exit0"] == 0.75

    def test_zero_steps(self, workspace, capsys):
        _, prog, _, _ = workspace
        assert main(["simulate", prog, "--steps", "0", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload[0]["steps"]) == 1

    def test_negative_steps_exit_three(self, workspace, capsys):
        _, prog, _, _ = workspace
        assert main(["simulate", prog, "--steps", "-1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "--steps" in captured.err and "-1" in captured.err

    @pytest.mark.parametrize("pick", ["-1", "5"])
    def test_schedule_index_out_of_range_exit_three(self, workspace, capsys, pick):
        # a negative pick is no index from the end
        _, prog, _, _ = workspace
        assert main(["simulate", prog, "--steps", "1", "--schedule", pick]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and f"schedule index {pick} out of range at step 0" in captured.err

    @pytest.mark.parametrize("schedule, item", [("a,b", "'a'"), (",1", "''")])
    def test_schedule_item_not_an_integer_exit_three(self, workspace, capsys, schedule, item):
        _, prog, _, _ = workspace
        assert main(["simulate", prog, "--steps", "1", "--schedule", schedule]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and f"schedule item {item} is not an integer" in captured.err

    def test_enumerate_traces(self, tmp_path, capsys):
        from qtl.program import LocationAction, SequentialProgram
        from qtl.superop import Measurement, SuperOp

        meas = Measurement([Mat.unit(2, 0, 0), Mat.unit(2, 1, 1)])
        act = {
            "a": LocationAction(SuperOp.identity(2), meas, {0: ("a", "b"), 1: ("a",)}),
            "b": LocationAction(SuperOp.identity(2), meas, {0: ("b",), 1: ("b",)}),
        }
        prog = SequentialProgram(
            2, ("a", "b"), act, Mat.from_rows([["1/2", 0], [0, "1/2"]]), "a"
        )
        path = tmp_path / "nondet.json"
        path.write_text(jsonio.dumps(jsonio.program_to_json(prog)))
        assert main(["simulate", str(path), "--steps", "3", "--schedule", "enumerate", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 8  # two choices at each of three steps
