import itertools
import json
import random
from fractions import Fraction

import pytest

from qtl import qwhile
from qtl.checker import reachability_superop
from qtl.cli import EXIT_ERROR, main
from qtl.errors import ArityMismatch, NotDeterministic, ParseError, UndeclaredOperator
from qtl.linalg import CRat, Mat, mat_sum
from qtl.program import (
    embed,
    initial_cq,
    simulate_deterministic,
)
from qtl.qwhile import (
    Apply,
    Case,
    Init,
    Seq,
    Skip,
    While,
    bohm_jacopini,
    compile_qwhile,
    compile_source,
    denote_bounded,
    denote_steps,
    lift_operator,
    parse,
    pretty_print,
    steps_for_depth,
)
from qtl.superop import SuperOp

from helpers import EXAMPLE_LOOP_SRC, KET_MINUS_DENSITY, normal_form_exit_series, random_matrix, random_qwhile_source

PRE = """qubits 1;
unitary H = sqrt(1/2) * [[1, 1], [1, -1]];
unitary X = [[0, 1], [1, 0]];
measurement M = {[[1, 0], [0, 0]], [[0, 0], [0, 1]]};
"""

KET0 = Mat.from_rows([[1, 0], [0, 0]])
KET1 = Mat.from_rows([[0, 0], [0, 1]])


# malformed sources: the message, line and column of each ParseError (no
# position for a check made after the whole source is read)
BAD_SOURCES = [
    # a character no token starts with, after comments
    ("qubits 1; # one qubit\n# the body follows\nskip; $ skip", "unexpected character '$'", 3, 7),
    ("qubits 1;\nskip;\n# a comment on line 3\n  @", "unexpected character '@'", 4, 3),
    ("qubits 1;\r\nskip;\r\n  skip skip", "expected 'eof', found 'skip'", 3, 8),
    (PRE + "apply H q0; skip", "expected 'to', found 'q0'", 5, 9),
    (PRE + "apply H to q0, r1", "expected a qubit name q0..q0", 5, 16),
    (PRE + "apply H to q5", "qubit q5 out of range", 5, 12),
    (PRE + "input [[1/0, 0], [0, 1]];\nskip", "zero denominator", 5, 12),
    ("qubits 1;\nunitary S = [[1, 0], [0, 1 + 2]];\nskip", "expected 'i', found ']'", 2, 31),
    (PRE + "while meas M(q0) == 2 { skip }", "while guard must compare against 1", 5, 21),
    (PRE + "if meas M(q0) { 0 -> skip; 0 -> skip; }", "duplicate branch 0", 5, 39),
    (PRE + "input [[1, 0], [0]];\nskip", "ragged matrix literal", 5, 20),
    ("qubits 1;\nunitary B = [[1, 1], [0, 1]];\napply B to q0", "declared operator B is not unitary", 2, 29),
    ("qubits 1;\nunitary S = sqrt(1/3) * [[1, 1], [1, -1]];\nskip", "declared operator S is not unitary", 2, 42),
    ("qubits 1;\nmeasurement N = {[[1, 0], [0, 0]]};\nskip", "measurement N operators do not sum to the identity", 2, 35),
    (PRE + "input [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]];\nskip", "input state must be 2x2", None, None),
    ("", "expected a statement, found ''", 1, 1),
    # non-ASCII digits: a run of \d is an integer, read by its value
    (PRE + "while meas M(q0) == ١ { skip }", "while guard must compare against 1", 5, 21),
    (PRE + "input [[1/٠, 0], [0, 1]];\nskip", "zero denominator", 5, 12),
    (PRE + "input [[¹, 0], [0, 0]];\nskip", "unexpected character '¹'", 5, 9),
]

# an integer of more digits than int() reads (4,300 by default) at each
# place the parser reads an integer's value, a plain matrix entry included:
# the message, line and column
LONG = "9" * 5000
TOO_LONG = "integer of 5000 digits is too long"
LONG_INTEGERS = [
    pytest.param(f"qubits {LONG};\nskip", TOO_LONG, 1, 8, id="qubits"),
    pytest.param(f"qubits 1;\ninput [[1/{LONG}, 0], [0, 1]];\nskip", TOO_LONG, 2, 11, id="denominator"),
    pytest.param(f"qubits 1;\nunitary H = sqrt({LONG}/9) * [[1, 1], [1, -1]];\nskip", TOO_LONG, 2, 18, id="sqrt"),
    pytest.param(f"qubits 1;\ninput [[{LONG}, 0], [0, 1]];\nskip", TOO_LONG, 2, 9, id="entry"),
    pytest.param(f"qubits 1;\ninput [[1, 0], [0, -{LONG}]];\nskip", TOO_LONG, 2, 21, id="negative_entry"),
    pytest.param(PRE + f"if meas M(q0) {{ {LONG} -> skip; 1 -> skip; }}", TOO_LONG, 5, 17, id="case"),
    pytest.param(PRE + f"q{LONG} := |0>", f"qubit q{LONG} out of range", 5, 1, id="qubit"),
]


class TestParser:
    def test_skip(self):
        assert parse("qubits 1;\nskip").body == Skip()

    def test_two_statement_program(self):
        prog = parse(PRE + "q0 := |0>; apply H to q0")
        assert prog.body == Seq((Init(0), Apply("H", (0,))))

    def test_while_roundtrip(self):
        prog = parse(PRE + "while meas M(q0) == 1 { apply H to q0 }")
        assert prog.body == While("M", (0,), Apply("H", (0,)))
        assert parse(pretty_print(prog)).body == prog.body

    def test_if_branches(self):
        prog = parse(PRE + "if meas M(q0) { 0 -> skip; 1 -> apply X to q0; }")
        assert prog.body == Case("M", (0,), (Skip(), Apply("X", (0,))))

    def test_complex_entries(self):
        prog = parse(
            "qubits 1;\nunitary S = [[1, 0], [0, i]];\napply S to q0"
        )
        mat, scale = prog.unitaries["S"]
        assert scale == 1 and mat.entry(1, 1) == CRat(0, 1)
        prog2 = parse(
            "qubits 1;\nunitary W = sqrt(1/2) * [[1, -i], [-i, 1]];\napply W to q0"
        )
        assert prog2.unitaries["W"][1] == Fraction(1, 2)

    def test_random_roundtrip(self):
        """Printing and parsing again gives the same program: statements,
        unitaries (direction and scale), measurements and input."""
        rng = random.Random(0)
        sources = [random_qwhile_source(rng) for _ in range(25)] + [ROUNDTRIP_SOURCE]
        for src in sources:
            prog = parse(src)
            again = parse(pretty_print(prog))
            assert again.body == prog.body
            assert again.unitaries == prog.unitaries
            assert all(type(scale) is Fraction for _, scale in again.unitaries.values())
            assert again.measurements == prog.measurements
            assert again.input_state == prog.input_state

    def test_errors(self):
        with pytest.raises(ParseError):
            parse("qubits 1;\nskip skip")
        with pytest.raises(UndeclaredOperator):
            parse("qubits 1;\napply H to q0")
        with pytest.raises(UndeclaredOperator):
            parse("qubits 1;\nwhile meas M(q0) == 1 { skip }")
        with pytest.raises(ArityMismatch):
            parse(PRE + "apply H to q0, q0")
        with pytest.raises(ParseError):
            parse(PRE + "apply H to q5")
        with pytest.raises(ParseError):
            # not unitary
            parse("qubits 1;\nunitary B = [[1, 1], [0, 1]];\napply B to q0")
        with pytest.raises(ArityMismatch):
            # missing branch
            parse(PRE + "if meas M(q0) { 0 -> skip; }")
        with pytest.raises(ParseError):
            # measurement operators must be complete
            parse("qubits 1;\nmeasurement M = {[[1, 0], [0, 0]]};\nskip")

    def test_line_column_reporting(self):
        with pytest.raises(ParseError) as err:
            parse("qubits 1;\nskip;\napply")
        assert err.value.line == 3

    @pytest.mark.parametrize("source, message, line, col", BAD_SOURCES)
    def test_error_positions(self, source, message, line, col):
        with pytest.raises(ParseError) as err:
            parse(source)
        assert (str(err.value), err.value.line, err.value.col) == (
            message if line is None else f"{message} (line {line}, column {col})",
            line,
            col,
        )

    def test_non_ascii_digits(self):
        """Integers are runs of Unicode decimal digits (``\\d``), read by
        value wherever they stand; other digit-like characters are not."""
        assert parse("qubits ٢;\nskip").n_qubits == 2
        prog = parse("qubits 1;\nunitary X = [[٠, ١], [١, ٠]];\ninput [[١/٢, 0], [0, ３/６]];\napply X to q0")
        assert prog.unitaries["X"] == (Mat.from_rows([[0, 1], [1, 0]]), 1)
        assert prog.input_state == Mat.from_rows([["1/2", 0], [0, "1/2"]])
        with pytest.raises(ParseError, match="unexpected character '²'"):
            parse("qubits ²;\nskip")

    @pytest.mark.parametrize("source, message, line, col", LONG_INTEGERS)
    def test_integer_too_long(self, tmp_path, capsys, source, message, line, col):
        """A ParseError at the integer, which ``qtl compile`` reports as
        an error line with no traceback."""
        message = f"{message} (line {line}, column {col})"
        with pytest.raises(ParseError) as err:
            parse(source)
        assert (str(err.value), err.value.line, err.value.col) == (message, line, col)
        path = tmp_path / "long.qw"
        path.write_text(source, encoding="utf-8")
        assert main(["compile", str(path)]) == EXIT_ERROR
        assert capsys.readouterr().err == f"error: ParseError: {message}\n"


# every scalar form of a matrix literal: i, -i, a+i, a-i, a+bi, a-bi, bi
# and -bi, with integer and fractional parts; sqrt(1/3) and sqrt(1/7) are
# sums of three and four rational squares, so A and B take 3 and 4 Kraus
# operators
COMPLEX_PRE = """qubits 1;
unitary A = sqrt(1/3) * [[1, 1+i], [1-i, -1]];
unitary B = sqrt(1/7) * [[2+i, -1+i], [1+i, 2-i]];
unitary C = sqrt(1/25) * [[3+4i, 0], [0, 4-3i]];
unitary D = sqrt(1/4) * [[2i, 0], [0, -2i]];
unitary Y = [[0, -i], [i, 0]];
unitary F = [[1/2+1/2i, 1/2-1/2i], [1/2-1/2i, 1/2+1/2i]];
measurement M = {[[1, 0], [0, 0]], [[0, 0], [0, 1]]};
"""
COMPLEX_SOURCE = COMPLEX_PRE + (
    "apply B to q0; apply C to q0; apply D to q0; apply Y to q0; apply F to q0; "
    "while meas M(q0) == 1 { apply A to q0 }"
)


# every scalar form with a complex measurement and a complex input, for the
# round trip through the printer
ROUNDTRIP_SOURCE = COMPLEX_PRE + (
    "measurement P = {[[1/2, -1/2i], [1/2i, 1/2]], [[1/2, 1/2i], [-1/2i, 1/2]]};\n"
    "input [[1/2, -1/2i], [1/2i, 1/2]];\n"
    "if meas P(q0) { 0 -> apply A to q0; 1 -> apply B to q0; }; apply C to q0; apply D to q0; "
    "while meas M(q0) == 1 { apply F to q0; apply Y to q0 }"
)


class TestComplexScalars:
    def test_every_scalar_form_parses(self):
        half = Fraction(1, 2)
        expected = {
            "A": ([[1, (1, 1)], [(1, -1), -1]], Fraction(1, 3)),
            "B": ([[(2, 1), (-1, 1)], [(1, 1), (2, -1)]], Fraction(1, 7)),
            "C": ([[(3, 4), 0], [0, (4, -3)]], Fraction(1, 25)),
            "D": ([[(0, 2), 0], [0, (0, -2)]], Fraction(1, 4)),
            "Y": ([[0, (0, -1)], [(0, 1), 0]], Fraction(1)),
            "F": ([[(half, half), (half, -half)], [(half, -half), (half, half)]], Fraction(1)),
        }
        unitaries = parse(COMPLEX_SOURCE).unitaries
        assert unitaries == {name: (Mat.from_rows(rows), scale) for name, (rows, scale) in expected.items()}

    def test_kraus_counts_and_trace_preservation(self):
        channels = {
            name: SuperOp.from_scaled_unitary(mat, scale) for name, (mat, scale) in parse(COMPLEX_SOURCE).unitaries.items()
        }
        assert {name: len(e.kraus) for name, e in channels.items()} == {"A": 3, "B": 4, "C": 1, "D": 1, "Y": 1, "F": 1}
        for e in channels.values():
            assert e.is_trace_preserving()
            assert mat_sum(k.dagger() @ k for k in e.kraus) == Mat.eye(2)

    def test_round_trip(self):
        prog = parse(COMPLEX_SOURCE)
        again = parse(pretty_print(prog))
        assert again.unitaries == prog.unitaries and again.body == prog.body

    def test_loop_exits_almost_surely(self):
        # A sends |1> to (1+i)/sqrt(3) |0> - 1/sqrt(3) |1>: the loop exits
        # with probability 2/3 per round, so with probability one
        result = reachability_superop(compile_source(COMPLEX_SOURCE))
        assert result.almost_terminates
        assert result.reach_state.trace() == CRat(1)
        assert result.expected_steps > 0


class TestLift:
    def test_lift_on_two_qubits(self):
        x = Mat.from_rows([[0, 1], [1, 0]])
        # qubit 0 is the most significant bit
        lifted = lift_operator(x, (0,), 2)
        expected = Mat.zeros(4)
        for i, j in [(0, 2), (2, 0), (1, 3), (3, 1)]:
            expected = expected + Mat.unit(4, i, j)
        assert lifted == expected

    def test_lift_order_matters(self):
        cnot = Mat.from_rows(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
        )
        forward = lift_operator(cnot, (0, 1), 2)
        reversed_ = lift_operator(cnot, (1, 0), 2)
        assert forward == cnot
        assert forward != reversed_

    def test_against_entrywise_definition(self):
        """Entry (r, c) of the lift is op[sub r, sub c] where r and c agree
        off the targets, else 0, for complex operators on every ordered
        choice of targets among three qubits."""

        def reference(op, targets, n):
            def bits(index, qubits):
                out = 0
                for q in qubits:
                    out = (out << 1) | ((index >> (n - 1 - q)) & 1)
                return out

            rest = [q for q in range(n) if q not in targets]
            return Mat.from_rows([
                [op.entry(bits(r, targets), bits(c, targets)) if bits(r, rest) == bits(c, rest) else 0 for c in range(1 << n)]
                for r in range(1 << n)
            ])

        rng = random.Random(4601)
        for k in (1, 2, 3):
            for targets in itertools.permutations(range(3), k):
                op = random_matrix(rng, 1 << k)
                assert lift_operator(op, targets, 3) == reference(op, targets, 3)


class TestDenotation:
    def test_skip(self):
        prog = parse("qubits 1;\nskip")
        out, exhausted = denote_bounded(prog, KET_MINUS_DENSITY, 3)
        assert out == KET_MINUS_DENSITY and not exhausted

    def test_init_resets(self):
        prog = parse("qubits 1;\nq0 := |0>")
        out, _ = denote_bounded(prog, KET1, 3)
        assert out == KET0

    def test_loop_mass_by_depth(self):
        prog = parse(PRE + "while meas M(q0) == 1 { apply H to q0 }")
        for n in range(1, 6):
            out, exhausted = denote_bounded(prog, KET_MINUS_DENSITY, n)
            assert out.trace() == CRat(1 - Fraction(1, 2**n))
            assert exhausted

    def test_monotone_in_depth(self):
        rng = random.Random(1)
        from qtl.linalg import is_psd

        for _ in range(10):
            prog = parse(random_qwhile_source(rng))
            shallow, _ = denote_bounded(prog, KET0, 2)
            deep, _ = denote_bounded(prog, KET0, 4)
            assert is_psd(deep - shallow)


# the openings of a while block and of an if block whose branch 0 holds the
# next block, for sources of blocks nested in one another on one line
WHILE_OPEN = "while meas M(q0) == 1 { "
IF_OPEN = "if meas M(q0) { 1 -> skip; 0 -> "


class TestCompile:
    def test_long_sequence(self, tmp_path):
        # a sequence is one node, walked in a loop: 2,000 statements compile
        # through qtl compile to 2,001 locations, the exit included
        path, out = tmp_path / "long.qw", tmp_path / "long.json"
        path.write_text("qubits 1;\n" + "; ".join(["skip"] * 2000), encoding="utf-8")
        assert main(["compile", str(path), "-o", str(out)]) == 0
        assert len(json.loads(out.read_text(encoding="utf-8"))["locations"]) == 2001

    def test_nesting_limit(self):
        # 200 nested loops compile: 200 guards, the skip and the exit
        prog = compile_source(PRE + WHILE_OPEN * 200 + "skip" + " }" * 200)
        assert len(prog.locations) == 202

    @pytest.mark.parametrize("opening, closing", [(WHILE_OPEN, " }"), (IF_OPEN, "; }")], ids=["while", "if"])
    def test_nested_too_deep(self, tmp_path, capsys, opening, closing):
        # the 201st block is a ParseError at its keyword, which qtl compile
        # reports as an error line with no traceback
        source = PRE + opening * 600 + "skip" + closing * 600
        message = f"blocks nested more than 200 deep (line 5, column {200 * len(opening) + 1})"
        with pytest.raises(ParseError) as err:
            parse(source)
        assert str(err.value) == message
        path = tmp_path / "deep.qw"
        path.write_text(source, encoding="utf-8")
        assert main(["compile", str(path)]) == EXIT_ERROR
        assert capsys.readouterr().err == f"error: ParseError: {message}\n"

    def test_skip_two_locations(self):
        prog = compile_source("qubits 1;\nskip")
        assert len(prog.locations) == 2
        assert prog.exit_location == "l2"
        state = simulate_deterministic(prog, 1)[1]
        assert state.trace_of("l2") == 1

    def test_example_loop_locations(self):
        prog = compile_source(EXAMPLE_LOOP_SRC)
        assert prog.locations == ("l1", "l2", "l3", "l4")
        assert prog.exit_location == "l4"
        # guard routes 0 to the exit and 1 to the body
        assert prog.act["l2"].next[0] == ("l4",)
        assert prog.act["l2"].next[1] == ("l3",)
        assert prog.act["l3"].next[0] == ("l2",)

    def test_if_with_n_outcomes_locations(self):
        src = """qubits 1;
measurement T = {[[1, 0], [0, 0]], [[0, 0], [0, 1]]};
if meas T(q0) { 0 -> skip; 1 -> skip; }
"""
        prog = compile_source(src)
        # guard + two single-statement branches + exit
        assert len(prog.locations) == 4

    def test_loop_free_semantics_match(self):
        rng = random.Random(2)
        count = 0
        while count < 10:
            src = random_qwhile_source(rng, max_loops=0)
            ast = parse(src)
            prog = compile_qwhile(ast)
            steps = len(prog.locations)
            final = simulate_deterministic(prog, steps)[-1]
            expected, exhausted = denote_bounded(ast, prog.initial_state, 1)
            assert not exhausted
            assert final.trace_of(prog.exit_location) == 1
            assert final.block(prog.exit_location) == expected
            count += 1

    def test_denote_steps_equals_exit_blocks_everywhere(self):
        rng = random.Random(3)
        for _ in range(8):
            ast = parse(random_qwhile_source(rng))
            prog = compile_qwhile(ast)
            trajectory = simulate_deterministic(prog, 20)
            for k in range(21):
                assert trajectory[k].block(prog.exit_location) == denote_steps(
                    ast, prog.initial_state, k
                )

    def test_steps_for_depth_alignment_single_loop(self):
        ast = parse(EXAMPLE_LOOP_SRC)
        prog = compile_qwhile(ast)
        trajectory = simulate_deterministic(prog, steps_for_depth(ast, 6))
        for n in range(1, 7):
            k = steps_for_depth(ast, n)
            denoted, _ = denote_bounded(ast, prog.initial_state, n)
            assert trajectory[k].block(prog.exit_location) == denoted

    def test_steps_for_depth_sandwich_nested(self):
        rng = random.Random(4)
        from qtl.linalg import is_psd

        for _ in range(6):
            ast = parse(random_qwhile_source(rng, max_loops=2, max_len=2))
            prog = compile_qwhile(ast)
            for n in (1, 2, 3):
                k = steps_for_depth(ast, n)
                denoted, _ = denote_bounded(ast, prog.initial_state, n)
                exit_k = simulate_deterministic(prog, k)[-1].block(prog.exit_location)
                assert is_psd(exit_k - denoted)
                wider, _ = denote_bounded(ast, prog.initial_state, k + 1)
                assert is_psd(wider - exit_k)


# a measurement in the |+>, |-> basis: guards that alternate M and P split
# the mass at every level of a nest
P_MEAS = "measurement P = {[[1/2, 1/2], [1/2, 1/2]], [[1/2, -1/2], [-1/2, 1/2]]};\n"
BASIC = ("skip", "q0 := |0>", "apply H to q0", "apply X to q0")


def _sequence(rng, n):
    return "; ".join(rng.choice(BASIC) for _ in range(n))


def _nested_ifs(rng, depth):
    """``depth`` loop-free if blocks, each in branch 0 of the next, with a
    random basic statement as branch 1; the guards alternate M and P."""
    body = rng.choice(BASIC)
    for level in range(depth):
        body = f"if meas {'MP'[level % 2]}(q0) {{ 0 -> {body}; 1 -> {rng.choice(BASIC)}; }}"
    return body


def _nested_whiles(rng, depth):
    body = rng.choice(BASIC)
    for _ in range(depth):
        body = f"while meas M(q0) == 1 {{ apply H to q0; {body} }}"
    return "apply H to q0; " + body


class TestLongSources:
    """The compiler and the interpreter read one table of node facts per
    call and recurse nowhere: long sequences and blocks nested to the cap
    compile and interpret, and agree exactly."""

    @pytest.mark.parametrize(
        "make",
        [lambda rng: _sequence(rng, 2000), lambda rng: _nested_ifs(rng, 200), lambda rng: _nested_whiles(rng, 3)],
        ids=["sequence", "nested_if", "nested_while"],
    )
    def test_interpreter_equals_exit_blocks(self, make):
        ast = parse(PRE + P_MEAS + make(random.Random(5301)))
        prog = compile_qwhile(ast)
        n = len(prog.locations)
        trajectory = simulate_deterministic(prog, n + 1)
        for budget in (0, 1, n - 1, n, n + 1):
            assert denote_steps(ast, prog.initial_state, budget) == trajectory[budget].block(prog.exit_location)

    def test_long_sequence_interprets(self):
        ast = parse(PRE + "; ".join(["skip"] * 5000))
        assert denote_steps(ast, KET0, 4999).is_zero()
        assert denote_steps(ast, KET0, 5000) == KET0

    def test_one_facts_table_per_call(self, monkeypatch):
        built = []
        node_facts = qwhile._node_facts
        monkeypatch.setattr(qwhile, "_node_facts", lambda root: built.append(root) or node_facts(root))
        source = _nested_ifs(random.Random(1), 20) + "; " + _nested_whiles(random.Random(2), 3)
        ast = parse(PRE + P_MEAS + source)
        for call in (compile_qwhile, lambda a: denote_steps(a, KET0, 40), lambda a: steps_for_depth(a, 3)):
            built.clear()
            call(ast)
            assert len(built) == 1 and built[0] is ast.body


class TestTwoQubits:
    PRE2 = """qubits 2;
unitary H = sqrt(1/2) * [[1, 1], [1, -1]];
unitary CX = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]];
measurement M = {[[1, 0], [0, 0]], [[0, 0], [0, 1]]};
"""

    def test_bell_preparation(self):
        prog = parse(self.PRE2 + "apply H to q0; apply CX to q0, q1")
        out, _ = denote_bounded(prog, Mat.unit(4, 0, 0), 1)
        half = CRat(Fraction(1, 2))
        bell = Mat.zeros(4)
        for i, j in [(0, 0), (0, 3), (3, 0), (3, 3)]:
            bell = bell + Mat.unit(4, i, j)
        assert out == bell * half

    def test_single_qubit_measurement_on_register(self):
        # measuring q1 of the Bell pair leaves a classical mixture
        src = self.PRE2 + (
            "apply H to q0; apply CX to q0, q1; "
            "if meas M(q1) { 0 -> skip; 1 -> skip; }"
        )
        prog = parse(src)
        out, _ = denote_bounded(prog, Mat.unit(4, 0, 0), 1)
        half = CRat(Fraction(1, 2))
        assert out == Mat.unit(4, 0, 0) * half + Mat.unit(4, 3, 3) * half

    def test_compiled_program_agrees(self):
        src = self.PRE2 + (
            "apply H to q0; apply CX to q0, q1; "
            "while meas M(q0) == 1 { apply H to q0 }"
        )
        ast = parse(src)
        prog = compile_qwhile(ast)
        assert prog.dim == 4
        trajectory = simulate_deterministic(prog, 12)
        for k in (0, 3, 6, 9, 12):
            assert trajectory[k].block(prog.exit_location) == denote_steps(
                ast, prog.initial_state, k
            )


class TestNormalForm:
    def test_example_loop_shape(self):
        prog = compile_source(EXAMPLE_LOOP_SRC)
        nf = bohm_jacopini(prog)
        assert nf.m0.rows == 8
        assert nf.m0 + nf.m1 == Mat.eye(8)
        assert nf.m0 @ nf.m0 == nf.m0
        assert nf.m1 @ nf.m1 == nf.m1

    def test_exit_blocks_match_original(self):
        prog = compile_source(EXAMPLE_LOOP_SRC)
        nf = bohm_jacopini(prog)
        sigma0 = embed(initial_cq(prog), prog)
        trajectory = simulate_deterministic(prog, 16)
        series = normal_form_exit_series(nf, sigma0, 16)
        for k in range(17):
            original = nf.m0 @ embed(trajectory[k], prog) @ nf.m0
            assert series[k] == original

    def test_instant_exit_program(self):
        prog = compile_source("qubits 1;\nskip")
        nf = bohm_jacopini(prog)
        sigma0 = embed(initial_cq(prog), prog)
        assert normal_form_exit_series(nf, sigma0, 0)[-1].is_zero()
        assert normal_form_exit_series(nf, sigma0, 1)[-1].trace() == CRat(1)

    def test_normal_form_idempotent_on_exit_blocks(self):
        # re-reading the normal form as "one while" does not change the exit mass
        prog = compile_source(EXAMPLE_LOOP_SRC)
        nf = bohm_jacopini(prog)
        sigma0 = embed(initial_cq(prog), prog)
        rep = nf.body_channel.matrix_rep()
        from qtl.linalg import kron as _kron
        from qtl.superop import unvec, vec

        loop_rep = rep @ _kron(nf.m1, nf.m1)
        collect = _kron(nf.m0, nf.m0)
        acc = collect @ vec(sigma0)
        v = vec(sigma0)
        series = normal_form_exit_series(nf, sigma0, 12)
        for k in range(12):
            v = loop_rep @ v
            acc = acc + collect @ v
            assert unvec(acc, 8) == series[k + 1]

    def test_lattice_answers_build_no_embedded_matrix_rep(self, monkeypatch):
        # the exit step, the arrivals and the trapped part come from images
        # and pre-images of the cut body's Kraus operators
        from qtl.superop import SuperOp

        prog = compile_source(EXAMPLE_LOOP_SRC)
        d_emb = prog.dim * len(prog.locations)
        original = SuperOp.matrix_rep

        def data_space_only(channel):
            if channel.dim_in == d_emb:
                raise AssertionError("built a matrix representation on the embedded space")
            return original(channel)

        monkeypatch.setattr(SuperOp, "matrix_rep", data_space_only)
        nf = bohm_jacopini(prog)
        assert (nf.exit_step, nf.arrivals.dim, sum(b.dim for b in nf.trapped.values())) == (None, 1, 0)

    def test_requires_determinism(self):
        from qtl.program import LocationAction, SequentialProgram
        from qtl.superop import Measurement, SuperOp

        meas = Measurement([Mat.unit(2, 0, 0), Mat.unit(2, 1, 1)])
        act = {
            "a": LocationAction(SuperOp.identity(2), meas, {0: ("a", "e"), 1: ("a",)}),
            "e": LocationAction(SuperOp.identity(2), Measurement.trivial(2, 2), {0: ("e",), 1: ("e",)}),
        }
        prog = SequentialProgram(2, ("a", "e"), act, KET0, "a", "e")
        with pytest.raises(NotDeterministic):
            bohm_jacopini(prog)
