import json
import random

import pytest

from qtl import jsonio
from qtl.linalg import Mat
from qtl.program import QuantumAutomaton, to_automaton
from qtl.qwhile import compile_source
from qtl.cli import main

from helpers import (
    EXAMPLE_LOOP_SRC,
    SHAPE_EXAMPLES,
    UNSUPPORTED_FORMULAS,
    random_automaton,
    random_deterministic_program,
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
        assert jsonio.union_from_json(jsonio.union_to_json(u)) == u

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
        _, prog, _, _ = workspace
        assert main(["check", prog]) == 3  # missing -f
        assert main(["check", prog, "-f", "[] p", "--tolerance", "0"]) == 3
        assert main(["check", prog, "-f", "[] p", "--period-bound", "0"]) == 3
        capsys.readouterr()

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


class TestReachCommand:
    def test_report(self, workspace, capsys):
        _, prog, _, _ = workspace
        assert main(["reach", prog, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["almost_terminates"] is True
        assert abs(payload["expected_steps"] - 4.0) < 1e-6
        assert payload["kraus_rank"] >= 1


    def test_kraus_rank_builds_no_channel(self, workspace, capsys, monkeypatch):
        import qtl.checker as checker

        _, prog, _, _ = workspace
        expected = len(checker.reachability_superop(compile_source(EXAMPLE_LOOP_SRC)).channel.kraus)

        def forbidden(result):
            raise AssertionError("qtl reach built the Kraus operators")

        monkeypatch.setattr(checker.ReachabilityResult, "channel", property(forbidden))
        assert main(["reach", prog, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["kraus_rank"] == expected


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
