"""Front end for the quantum while-language.

Concrete syntax (statements separated by ';'):

    qubits 2;
    unitary H = sqrt(1/2) * [[1, 1], [1, -1]];
    measurement M = {[[1, 0], [0, 0]], [[0, 0], [0, 1]]};
    input [[1/2, -1/2], [-1/2, 1/2]];          # optional initial state
    skip;
    q0 := |0>;
    apply H to q0;
    if meas M(q0) { 0 -> skip; 1 -> apply H to q0; }
    while meas M(q0) == 1 { apply H to q0 }

Matrix entries are exact: ``p/q``, ``a+b i`` (written ``1/2+1/2i``), ``i``.
Unitaries may carry a ``sqrt(r) *`` prefix so that directions like the
Hadamard stay inside rational arithmetic; the declared operator is
sqrt(r) * V and the induced conjugation channel has rational Kraus
operators.

The lexer is one regular-expression search over the source; a token's
line and column are found only for an error.  The parser turns each matrix
entry into the literal text a JSON program file holds for it, "p/q" or an
[re, im] pair of those, and a matrix literal into a ``Mat`` through the
reader of those files (:meth:`Mat.from_rows`), so both front ends read
numbers one way.  A declared unitary (scale * V†V = I) and measurement
(sum M†M = I) are checked on their Kraus stacks
(:meth:`qtl.superop._Stack.is_isometry`), with no Mat product.

Compilation targets the location-based sequential program model, one
location per statement plus guard locations for branching, with a fresh
exit location appended.  Branches of an ``if`` whose arms are loop-free are
padded with skips to equal length, which keeps the step count of a path
independent of the measured branch.  Each node's location count and step
cost are read off one table (``_node_facts``), built once per call.

The single-while normal form works on the location blocks of C^d, one
d x d channel per outcome (:func:`qtl.program.outcome_channels`); it places
the exit block and the guard on the embedded space (``place_blocks``).
"""

from __future__ import annotations

import functools
import itertools
import math
import re as _re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    ArityMismatch,
    BudgetExceeded,
    NoExitLocation,
    NotDeterministic,
    ParseError,
    UndeclaredOperator,
)
from .linalg import CRat, Mat, _rows_over, kron, solve
from .program import (
    _GRID_ENTRIES_MAX, LocationAction, SequentialProgram, outcome_channels, place_blocks, step_superop,
)
from .subspace import Subspace, support
from .superop import Measurement, SuperOp, _Stack, image, preimage


# ----------------------------------------------------------------------
# abstract syntax


@dataclass(frozen=True)
class Skip:
    pass


@dataclass(frozen=True)
class Init:
    qubit: int


@dataclass(frozen=True)
class Apply:
    name: str
    qubits: tuple


@dataclass(frozen=True)
class Seq:
    """Two or more statements run in order, none of them a Seq: the parser
    reads a whole sequence into one node, so the passes over a program walk
    its sequences in loops and recurse only into nested blocks."""

    statements: tuple


@dataclass(frozen=True)
class Case:
    name: str
    qubits: tuple
    branches: tuple


@dataclass(frozen=True)
class While:
    name: str
    qubits: tuple
    body: object


@dataclass(frozen=True)
class QWhileProgram:
    """Parsed program: statement tree plus resolved operator tables."""

    n_qubits: int
    unitaries: dict  # name -> (direction Mat, scale Fraction); operator = sqrt(scale)*V
    measurements: dict  # name -> tuple of Mat
    input_state: object  # Mat | None
    body: object

    @property
    def dim(self) -> int:
        return 1 << self.n_qubits


# ----------------------------------------------------------------------
# lexer


_TOKEN_RE = _re.compile(
    r"""
    \|0> | := | -> | == | [;,/*()\[\]{}=+-]
  | \d+ | [A-Za-z_][A-Za-z_0-9]*
  | \#[^\n]*
  | \S
    """,
    _re.VERBOSE,
)

_KEYWORDS = {
    "qubits",
    "unitary",
    "measurement",
    "input",
    "sqrt",
    "skip",
    "apply",
    "to",
    "if",
    "while",
    "meas",
    "i",
}

# token kinds by text: operators and keywords are their own kinds, but for
# the four named operators; "" is the end of the source
_KINDS = {text: text for text in itertools.chain(";,/*()[]{}=+-", _KEYWORDS)}
_KINDS.update({"|0>": "ket0", ":=": "assign", "->": "arrow", "==": "eqeq", "": "eof"})
# ... and by first character, for the other tokens with an ASCII one
_FIRST_KINDS = dict.fromkeys("0123456789", "int") | dict.fromkeys(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_", "name"
)


def _lex(source: str) -> tuple:
    """The tokens as two lists, their kinds and their texts, the last
    token "eof".  One search finds every token, comment and character no
    token starts with, and skips the whitespace between them; the offsets
    of tokens are found again only for an error (:func:`_offset`)."""
    texts = _TOKEN_RE.findall(source)
    if "#" in source:
        texts = [t for t in texts if t[0] != "#"]
    texts.append("")
    kind_of, first_kind = _KINDS.get, _FIRST_KINDS.get
    # a token not known by its text or first character is an integer of
    # non-ASCII digits (\d) or a character no token starts with
    kinds = [kind_of(t) or first_kind(t[0]) or ("int" if t.isdecimal() else "bad") for t in texts]
    if "bad" in kinds:
        k = kinds.index("bad")
        raise ParseError(f"unexpected character {texts[k]!r}", *_line_col(source, _offset(source, k)))
    return kinds, texts


def _offset(source: str, k: int) -> int:
    """The offset in ``source`` of token k of :func:`_lex`."""
    starts = (m.start() for m in _TOKEN_RE.finditer(source) if m[0][0] != "#")
    return next(itertools.islice(starts, k, None), len(source))


def _line_col(source: str, pos: int) -> tuple:
    """The 1-based line and column of offset ``pos``."""
    return source.count("\n", 0, pos) + 1, pos - source.rfind("\n", 0, pos)


# ----------------------------------------------------------------------
# parser


_ONE = Fraction(1)
_QUBIT_RE = _re.compile(r"q(\d+)")
# if and while blocks nest at most this deep (ParseError at the next one's
# keyword): the parser, the pretty printer and denote_bounded recurse up to
# twice per level, so this keeps them well inside Python's default
# recursion limit of 1000
_NESTING_MAX = 200


class _Parser:
    """Recursive descent over the token lists of :func:`_lex`; ``pos`` is
    the index of the current token, and the last token is "eof", which no
    rule steps past."""

    def __init__(self, source: str):
        self.source = source
        self.kinds, self.texts = _lex(source)
        self.pos = 0
        # the statement lists open around the current token: the program's
        # own, and one per if or while block it is nested in
        self.depth = 0

    def eat(self, kind) -> str:
        """The text of the current token, which must be of ``kind``."""
        pos = self.pos
        if self.kinds[pos] != kind:
            self.error(f"expected {kind!r}, found {self.texts[pos]!r}")
        self.pos = pos + 1
        return self.texts[pos]

    def error(self, message, at=None):
        """ParseError at token ``at``, by default the current one."""
        pos = self.pos if at is None else at
        raise ParseError(message, *_line_col(self.source, _offset(self.source, pos)))

    def integer(self) -> int:
        """The current token's value; ParseError past int()'s digit limit."""
        text = self.eat("int")
        try:
            return int(text)
        except ValueError:
            self.error(f"integer of {len(text)} digits is too long", self.pos - 1)

    # -- scalars -------------------------------------------------------

    def rational(self) -> str:
        """[-]p[/q] as the text "p" or "p/q", signed as written."""
        sign = ""
        if self.kinds[self.pos] == "-":
            self.pos += 1
            sign = "-"
        num = self.texts[self.pos]
        self.integer()
        if self.kinds[self.pos] != "/":
            return sign + num
        self.pos += 1
        den = self.texts[self.pos]
        if self.integer() == 0:
            self.error("zero denominator")
        return f"{sign}{num}/{den}"

    def scalar(self):
        """One matrix entry as the literal the JSON files hold: a real one
        as "p/q", any other as its [re, im] pair."""
        kinds = self.kinds
        if kinds[self.pos] == "i":
            self.pos += 1
            return ["0", "1"]
        if kinds[self.pos] == "-" and kinds[self.pos + 1] == "i":
            self.pos += 2
            return ["0", "-1"]
        first = self.rational()
        kind = kinds[self.pos]
        if kind == "i":
            self.pos += 1
            return ["0", first]
        if kind == "+" or kind == "-":
            self.pos += 1
            if kinds[self.pos] == "i":
                self.pos += 1
                return [first, "1" if kind == "+" else "-1"]
            second = self.rational()
            self.eat("i")
            if kind == "-":
                second = second[1:] if second[0] == "-" else "-" + second
            return [first, second]
        return first

    def matrix(self) -> Mat:
        """A matrix literal, read as the JSON files' are (:meth:`Mat.from_rows`)."""
        self.eat("[")
        rows = [self.row()]
        while self.kinds[self.pos] == ",":
            self.pos += 1
            rows.append(self.row())
        self.eat("]")
        if any(len(r) != len(rows[0]) for r in rows):
            self.error("ragged matrix literal")
        return Mat.from_rows(rows)

    def row(self) -> list:
        kinds, texts = self.kinds, self.texts
        self.eat("[")
        entries = []
        while True:
            pos = self.pos
            # a plain integer, signed or not, the usual entry, is its own text
            at = pos + (kinds[pos] == "-")
            if kinds[at] == "int" and kinds[at + 1] in (",", "]"):
                self.pos = at
                self.integer()  # a ParseError past int()'s digit limit
                entries.append(texts[at] if at == pos else "-" + texts[at])
            else:
                entries.append(self.scalar())
            if kinds[self.pos] != ",":
                break
            self.pos += 1
        self.eat("]")
        return entries

    # -- declarations ---------------------------------------------------

    def program(self) -> QWhileProgram:
        n_qubits = None
        unitaries = {}
        measurements = {}
        input_state = None
        while self.kinds[self.pos] in ("qubits", "unitary", "measurement", "input"):
            kind = self.kinds[self.pos]
            self.pos += 1
            if kind == "qubits":
                n_qubits = self.integer()
                if n_qubits < 1:
                    self.error("need at least one qubit")
            elif kind == "unitary":
                name = self.eat("name")
                self.eat("=")
                scale = _ONE
                if self.kinds[self.pos] == "sqrt":
                    self.pos += 1
                    self.eat("(")
                    scale = Fraction(self.rational())
                    self.eat(")")
                    self.eat("*")
                mat = self.matrix()
                if mat.rows != mat.cols or mat.rows & (mat.rows - 1):
                    self.error(f"unitary {name} must be square with power-of-two size")
                if not _Stack.of([mat]).is_isometry(scale):
                    self.error(f"declared operator {name} is not unitary")
                unitaries[name] = (mat, scale)
            elif kind == "measurement":
                name = self.eat("name")
                self.eat("=")
                self.eat("{")
                ops = [self.matrix()]
                while self.kinds[self.pos] == ",":
                    self.pos += 1
                    ops.append(self.matrix())
                self.eat("}")
                d = ops[0].rows
                if any(o.rows != d or o.cols != d for o in ops) or d & (d - 1):
                    self.error(f"measurement {name} operators must share a power-of-two size")
                if not _Stack.of(ops).is_isometry():
                    self.error(f"measurement {name} operators do not sum to the identity")
                measurements[name] = tuple(ops)
            else:  # input
                input_state = self.matrix()
            self.eat(";")
        self._n_qubits = 1 if n_qubits is None else n_qubits
        self._unitaries = unitaries
        self._measurements = measurements
        body = self.statement()
        if self.kinds[self.pos] == ";":
            self.pos += 1
        self.eat("eof")
        # 2^n x 2^n, read off the bit length: 2^n itself may be a huge integer
        n = self._n_qubits
        rows = None if input_state is None else input_state.rows
        if rows is not None and (rows != input_state.cols or rows.bit_length() != n + 1 or rows & (rows - 1)):
            dim = 1 << n if n < 64 else f"2^{n}"
            raise ParseError(f"input state must be {dim}x{dim}")
        return QWhileProgram(
            n_qubits=self._n_qubits,
            unitaries=unitaries,
            measurements=measurements,
            input_state=input_state,
            body=body,
        )

    # -- statements -----------------------------------------------------

    _BASIC_STARTS = ("skip", "name", "apply", "if", "while")

    def statement(self):
        self.depth += 1
        statements = [self.basic()]
        while self.kinds[self.pos] == ";" and self.kinds[self.pos + 1] in self._BASIC_STARTS:
            self.pos += 1
            statements.append(self.basic())
        self.depth -= 1
        return statements[0] if len(statements) == 1 else Seq(tuple(statements))

    def basic(self):
        kind = self.kinds[self.pos]
        if kind == "skip":
            self.pos += 1
            return Skip()
        if kind == "name":
            q = self.qubit()
            self.eat("assign")
            self.eat("ket0")
            return Init(q)
        if kind == "apply":
            self.pos += 1
            name = self.eat("name")
            if name not in self._unitaries:
                raise UndeclaredOperator(f"unitary {name} is not declared")
            self.eat("to")
            qs = self.qubit_list()
            mat, _ = self._unitaries[name]
            if mat.rows != 1 << len(qs):
                raise ArityMismatch(
                    f"unitary {name} acts on {mat.rows.bit_length() - 1} qubits, got {len(qs)}"
                )
            return Apply(name, qs)
        if (kind == "if" or kind == "while") and self.depth > _NESTING_MAX:
            self.error(f"blocks nested more than {_NESTING_MAX} deep")
        if kind == "if":
            self.pos += 1
            name, qs = self.guard()
            n_out = len(self._measurements[name])
            self.eat("{")
            branches = {}
            while self.kinds[self.pos] != "}":
                label = self.integer()
                self.eat("arrow")
                stmt = self.statement()
                self.eat(";")
                if label in branches:
                    self.error(f"duplicate branch {label}")
                branches[label] = stmt
            self.pos += 1
            if sorted(branches) != list(range(n_out)):
                raise ArityMismatch(
                    f"if needs one branch per outcome 0..{n_out - 1}, got {sorted(branches)}"
                )
            return Case(name, qs, tuple(branches[m] for m in range(n_out)))
        if kind == "while":
            self.pos += 1
            name, qs = self.guard()
            if len(self._measurements[name]) != 2:
                raise ArityMismatch(f"while guard {name} must have outcomes 0 and 1")
            self.eat("eqeq")
            if self.eat("int") != "1":
                self.error("while guard must compare against 1", self.pos - 1)
            self.eat("{")
            body = self.statement()
            if self.kinds[self.pos] == ";":
                self.pos += 1
            self.eat("}")
            return While(name, qs, body)
        self.error(f"expected a statement, found {self.texts[self.pos]!r}")

    def guard(self):
        self.eat("meas")
        name = self.eat("name")
        if name not in self._measurements:
            raise UndeclaredOperator(f"measurement {name} is not declared")
        self.eat("(")
        qs = self.qubit_list()
        self.eat(")")
        ops = self._measurements[name]
        if ops[0].rows != 1 << len(qs):
            raise ArityMismatch(f"measurement {name} has the wrong arity for {len(qs)} qubits")
        return name, qs

    def qubit_list(self):
        qs = [self.qubit()]
        while self.kinds[self.pos] == ",":
            self.pos += 1
            qs.append(self.qubit())
        if len(set(qs)) != len(qs):
            raise ArityMismatch("qubit list has repeats")
        return tuple(qs)

    def qubit(self) -> int:
        """The index of the current token, a name q0..q(n-1)."""
        at = self.pos
        text = self.eat("name")
        m = _QUBIT_RE.fullmatch(text)
        if not m:
            self.error(f"expected a qubit name q0..q{self._n_qubits - 1}", at)
        try:
            idx = int(m.group(1))
        except ValueError:  # more digits than int() reads, so out of range too
            idx = self._n_qubits
        if idx >= self._n_qubits:
            self.error(f"qubit {text} out of range", at)
        return idx



def parse(source: str) -> QWhileProgram:
    """Parse source text; positions in errors are 1-based line/column.  A
    sequence of statements is one :class:`Seq`, and if and while blocks nest
    at most 200 deep (ParseError at the keyword of the next one)."""
    return _Parser(source).program()


# ----------------------------------------------------------------------
# pretty printer (round-trips through parse)


def pretty_print(node) -> str:
    if isinstance(node, QWhileProgram):
        decls = [f"qubits {node.n_qubits};"]
        for name, (mat, scale) in node.unitaries.items():
            prefix = "" if scale == 1 else f"sqrt({format_scalar(CRat(scale))}) * "
            decls.append(f"unitary {name} = {prefix}{format_matrix(mat)};")
        for name, ops in node.measurements.items():
            body = ", ".join(format_matrix(o) for o in ops)
            decls.append(f"measurement {name} = {{{body}}};")
        if node.input_state is not None:
            decls.append(f"input {format_matrix(node.input_state)};")
        return "\n".join(decls + [pretty_print(node.body)])
    if isinstance(node, Skip):
        return "skip"
    if isinstance(node, Init):
        return f"q{node.qubit} := |0>"
    if isinstance(node, Apply):
        return f"apply {node.name} to " + ", ".join(f"q{q}" for q in node.qubits)
    if isinstance(node, Seq):
        return "; ".join(pretty_print(s) for s in node.statements)
    if isinstance(node, Case):
        qs = ", ".join(f"q{q}" for q in node.qubits)
        arms = " ".join(
            f"{m} -> {pretty_print(s)};" for m, s in enumerate(node.branches)
        )
        return f"if meas {node.name}({qs}) {{ {arms} }}"
    if isinstance(node, While):
        qs = ", ".join(f"q{q}" for q in node.qubits)
        return f"while meas {node.name}({qs}) == 1 {{ {pretty_print(node.body)} }}"
    raise TypeError(f"not a statement: {node!r}")


def format_scalar(c: CRat) -> str:
    return repr(c)


def format_matrix(m: Mat) -> str:
    rows = []
    for i in range(m.rows):
        rows.append("[" + ", ".join(format_scalar(m.entry(i, j)) for j in range(m.cols)) + "]")
    return "[" + ", ".join(rows) + "]"


# ----------------------------------------------------------------------
# operator lifting and channels


def lift_operator(op: Mat, targets, n_qubits: int) -> Mat:
    """Embed an operator on the listed qubits into the full register.

    Qubit 0 is the most significant bit of the computational basis index.
    Entry (r, c) of the lift is entry (sub r, sub c) of ``op`` where r and c
    agree on the other qubits, and zero elsewhere, sub r the target bits of
    r in the listed order: the lift is op's integer grids taken at those
    index maps, over op's denominator, in lowest terms since every entry of
    op appears.  An operator on every qubit in order is its own lift.
    """
    if tuple(targets) == tuple(range(n_qubits)):
        return op
    rest = [q for q in range(n_qubits) if q not in targets]

    def bits(index, qubits):
        out = 0
        for q in qubits:
            out = (out << 1) | ((index >> (n_qubits - 1 - q)) & 1)
        return out

    indices = range(1 << n_qubits)
    sub = [bits(r, targets) for r in indices]
    ctx = [bits(r, rest) for r in indices]

    def lifted(grid):
        g = grid.tolist()
        return [[g[sub[r]][sub[c]] if ctx[r] == ctx[c] else 0 for c in indices] for r in indices]

    return _rows_over(op.den, lifted(op.num_re), None if op.is_real() else lifted(op.num_im), reduced=True)


def _unitary_channel(prog: QWhileProgram, name: str, qubits) -> SuperOp:
    mat, scale = prog.unitaries[name]
    return SuperOp.from_scaled_unitary(lift_operator(mat, qubits, prog.n_qubits), scale)


# the Kraus operators |0><0| and |0><1| of the reset q := |0>
_RESET = (Mat.from_rows([[1, 0], [0, 0]]), Mat.from_rows([[0, 1], [0, 0]]))


def _init_channel(prog: QWhileProgram, qubit: int) -> SuperOp:
    return SuperOp([lift_operator(k, (qubit,), prog.n_qubits) for k in _RESET], validate=False)


def _lifted_measurement(prog: QWhileProgram, name: str, qubits) -> Measurement:
    ops = [lift_operator(o, qubits, prog.n_qubits) for o in prog.measurements[name]]
    return Measurement(ops, validate=False)


# ----------------------------------------------------------------------
# bounded denotational semantics


def denote_bounded(prog: QWhileProgram, rho: Mat, depth: int):
    """Semantics truncated at ``depth`` guard evaluations per loop entry.

    Returns (partial output, exhausted): the flag is set when some loop
    still carried mass at its cutoff, in which case the result is a lower
    approximation (monotone nondecreasing in depth).
    """
    exhausted = [False]

    def ev(node, rho):
        if rho.is_zero():
            return rho
        if isinstance(node, Skip):
            return rho
        if isinstance(node, Init):
            return _init_channel(prog, node.qubit).apply(rho)
        if isinstance(node, Apply):
            return _unitary_channel(prog, node.name, node.qubits).apply(rho)
        if isinstance(node, Seq):
            for statement in node.statements:
                rho = ev(statement, rho)
            return rho
        if isinstance(node, Case):
            meas = _lifted_measurement(prog, node.name, node.qubits)
            out = Mat.zeros(prog.dim)
            for m_op, branch in zip(meas.operators, node.branches):
                out = out + ev(branch, m_op @ rho @ m_op.dagger())
            return out
        if isinstance(node, While):
            meas = _lifted_measurement(prog, node.name, node.qubits)
            m0, m1 = meas.operators
            out = Mat.zeros(prog.dim)
            remaining = rho
            for _ in range(depth):
                out = out + m0 @ remaining @ m0.dagger()
                remaining = m1 @ remaining @ m1.dagger()
                if remaining.is_zero():
                    return out
                remaining = ev(node.body, remaining)
            if not remaining.is_zero():
                exhausted[0] = True
            return out
        raise TypeError(f"not a statement: {node!r}")

    result = ev(prog.body, rho)
    return result, exhausted[0]


def _bottom_up(root) -> list:
    """Every statement of the tree at ``root``, children before parents."""
    order = [root]
    for node in order:
        if isinstance(node, Seq):
            order.extend(node.statements)
        elif isinstance(node, Case):
            order.extend(node.branches)
        elif isinstance(node, While):
            order.append(node.body)
    order.reverse()
    return order


def _node_facts(root) -> dict:
    """{id(node): (locations, cost)} over the tree at ``root``, in one pass
    with children before parents: the node's compiled location count, and
    its step count under the compiled cost model, or None when it holds a
    loop.  Each branch of a loop-free ``Case`` is followed by skips up to
    the slowest branch, which its count includes."""
    facts = {}
    for node in _bottom_up(root):
        if isinstance(node, Seq):
            counts, costs = zip(*(facts[id(s)] for s in node.statements))
            facts[id(node)] = (sum(counts), None if None in costs else sum(costs))
        elif isinstance(node, Case):
            counts, costs = zip(*(facts[id(b)] for b in node.branches))
            if None in costs:
                facts[id(node)] = (1 + sum(counts), None)
            else:
                target = max(costs)
                facts[id(node)] = (1 + sum(counts) + len(costs) * target - sum(costs), 1 + target)
        elif isinstance(node, While):
            facts[id(node)] = (1 + facts[id(node.body)][0], None)
        else:
            facts[id(node)] = (1, 1)
    return facts


def steps_for_depth(node, depth: int) -> int:
    """Compiled steps that cover every path using <= depth guard evaluations
    per loop entry (the step <-> depth map of the compiler)."""
    if isinstance(node, QWhileProgram):
        node = node.body
    facts = _node_facts(node)
    steps = {}
    for n in _bottom_up(node):
        if facts[id(n)][1] is not None:  # loop-free: its fixed cost
            steps[id(n)] = facts[id(n)][1]
        elif isinstance(n, Seq):
            steps[id(n)] = sum(steps[id(s)] for s in n.statements)
        elif isinstance(n, Case):
            steps[id(n)] = 1 + max(steps[id(b)] for b in n.branches)
        else:
            steps[id(n)] = depth + (depth - 1) * steps[id(n.body)] if depth > 0 else 0
    return steps[id(node)]


def denote_steps(prog: QWhileProgram, rho: Mat, budget: int) -> Mat:
    """Mass that completes within ``budget`` steps of the compiled cost model.

    Independent of the compiler: runs the statement tree operationally,
    charging one step per basic statement or guard evaluation and the same
    branch padding the compiler applies.  Equals the exit block of the
    compiled program after ``budget`` steps, exactly.

    One loop over a work list of (statement, state, steps left,
    continuation), depth first.  A continuation is None, the program's end,
    or a frame (statements, i, up): run ``statements[i:]``, then ``up``.
    Entering a loop again is the frame ((loop,), 0, up), and a padded
    branch's skips are (None, pad, up).  The statement None hands the state
    and its steps left to the continuation.
    """
    facts = _node_facts(prog.body)
    out = Mat.zeros(prog.dim)
    work = [(prog.body, rho, budget, None)]
    while work:
        node, rho, left, cont = work.pop()
        if rho.is_zero():
            continue
        if isinstance(node, Seq):
            node, cont = None, (node.statements, 0, cont)
        if node is None:
            if cont is None:
                out = out + rho
                continue
            statements, i, up = cont
            if statements is None:
                if left >= i:
                    work.append((None, rho, left - i, up))
            else:
                nxt = (statements, i + 1, up) if i + 1 < len(statements) else up
                work.append((statements[i], rho, left, nxt))
            continue
        if left < 1:
            continue
        left -= 1
        if isinstance(node, Skip):
            work.append((None, rho, left, cont))
        elif isinstance(node, Init):
            work.append((None, _init_channel(prog, node.qubit).apply(rho), left, cont))
        elif isinstance(node, Apply):
            work.append((None, _unitary_channel(prog, node.name, node.qubits).apply(rho), left, cont))
        elif isinstance(node, Case):
            meas = _lifted_measurement(prog, node.name, node.qubits)
            cost = facts[id(node)][1]
            branches = []
            for m_op, branch in zip(meas.operators, node.branches):
                pad = 0 if cost is None else cost - 1 - facts[id(branch)][1]
                branches.append((branch, m_op @ rho @ m_op.dagger(), left, (None, pad, cont) if pad else cont))
            work.extend(reversed(branches))
        elif isinstance(node, While):
            m0, m1 = _lifted_measurement(prog, node.name, node.qubits).operators
            work.append((node.body, m1 @ rho @ m1.dagger(), left, ((node,), 0, cont)))
            work.append((None, m0 @ rho @ m0.dagger(), left, cont))
        else:
            raise TypeError(f"not a statement: {node!r}")
    return out


# ----------------------------------------------------------------------
# compilation to the sequential program model


def compile_qwhile(prog: QWhileProgram) -> SequentialProgram:
    """Compile to a deterministic sequential program with a fresh exit location.

    The initial state is the declared ``input``, or |0...0><0...0|; give the
    program another one with ``with_initial_state``.  BudgetExceeded before
    any operator is formed when a channel and a measurement per location,
    and the input state, would hold more than ``_GRID_ENTRIES_MAX`` entries
    as dense d x d grids.
    """
    facts = _node_facts(prog.body)
    total = facts[id(prog.body)][0]
    grids, n = 2 * (total + 1) + 1, prog.n_qubits
    if grids > _GRID_ENTRIES_MAX >> 2 * n:  # grids * 4^n entries, as no huge int
        raise BudgetExceeded(
            f"the {total + 1} compiled locations need {grids} dense 2^{n} x 2^{n} grids "
            f"({grids} x 4^{n} entries); the limit is {_GRID_ENTRIES_MAX} entries"
        )
    dim = prog.dim
    labels = [f"l{i + 1}" for i in range(total + 1)]
    exit_label = labels[-1]
    act = {}
    identity = SuperOp.identity(dim)
    trivial = Measurement.trivial(dim)

    def goto(target_idx):
        return {0: (labels[target_idx],)}

    # emit each statement into slots [start, start + count), with control
    # proceeding to slot ``cont`` afterwards
    work = [(prog.body, 0, total)]
    while work:
        node, start, cont = work.pop()
        if isinstance(node, Skip):
            act[labels[start]] = LocationAction(identity, trivial, goto(cont))
        elif isinstance(node, Init):
            act[labels[start]] = LocationAction(_init_channel(prog, node.qubit), trivial, goto(cont))
        elif isinstance(node, Apply):
            act[labels[start]] = LocationAction(
                _unitary_channel(prog, node.name, node.qubits), trivial, goto(cont)
            )
        elif isinstance(node, Seq):
            *init, last = node.statements
            for statement in init:
                mid = start + facts[id(statement)][0]
                work.append((statement, start, mid))
                start = mid
            work.append((last, start, cont))
        elif isinstance(node, Case):
            cost = facts[id(node)][1]
            nxt = {}
            slot = start + 1
            for m, branch in enumerate(node.branches):
                nxt[m] = (labels[slot],)
                body_size, branch_cost = facts[id(branch)]
                pad = 0 if cost is None else cost - 1 - branch_cost
                work.append((branch, slot, slot + body_size if pad else cont))
                for p in range(pad):
                    tail = cont if p == pad - 1 else slot + body_size + p + 1
                    act[labels[slot + body_size + p]] = LocationAction(identity, trivial, goto(tail))
                slot += body_size + pad
            meas = _lifted_measurement(prog, node.name, node.qubits)
            act[labels[start]] = LocationAction(identity, meas, nxt)
        elif isinstance(node, While):
            meas = _lifted_measurement(prog, node.name, node.qubits)
            act[labels[start]] = LocationAction(
                identity, meas, {0: (labels[cont],), 1: (labels[start + 1],)}
            )
            work.append((node.body, start + 1, start))
        else:
            raise TypeError(f"not a statement: {node!r}")
    act[exit_label] = LocationAction(identity, trivial, {0: (exit_label,)})
    initial_state = prog.input_state
    if initial_state is None:
        initial_state = Mat.unit(dim, 0, 0)
    return SequentialProgram(
        dim=dim,
        locations=labels,
        act=act,
        initial_state=initial_state,
        initial_location=labels[0],
        exit_location=exit_label,
    )


def compile_source(source: str) -> SequentialProgram:
    return compile_qwhile(parse(source))


# ----------------------------------------------------------------------
# single-while normal form


class WhileNormalForm:
    """The exit loop of a deterministic program with exit, as one while loop.

    The guard measures {m0 = "at the exit", m1 = the rest} on the embedded
    space H (x) locations (m0 + m1 = I, both projections) and the body is
    the program's one-step channel; the cut body N is the body after m1.
    Every exit question is asked of this one object: the constructor checks
    the preconditions (an exit location, then determinism), and each part
    is built on first use and cached.

    N maps each location's block of the embedded space into blocks, so it
    is held as its ``edges``: the outcome channels of each location but the
    exit, with their targets.  Every subspace of the loop is then a direct
    sum of blocks, held as a dict {location: subspace of C^d}; images and
    pre-images act on d-wide rows, edge by edge.  Only ``normal_form_to_json``
    (``qtl compile --normal-form``) reads the embedded guard (``m0``, ``m1``)
    and body (``body_channel``), and only the reach state is placed on the
    embedded space (``exit_embedded``).

    The answers are facts of the loop's subspace lattice, since the support
    of N(rho) depends only on the support of rho: ``reachable`` is R, the
    least fixpoint of X -> supp rho_0 v N(X), ``arrivals`` is A, its exit
    block, the support of all the mass that ever reaches the exit, and
    ``exit_step`` is the first step with all mass at the exit, read off the
    chain R >= N(R) >= N^2(R) >= ...  ``traps`` is T, the greatest fixpoint
    of Y -> O ^ N^-1(Y), O the off-exit blocks, the states that never reach
    the exit, and ``trapped`` is R ^ T.  The loop exits with probability
    one exactly when R ^ T = 0 (``exits_almost_surely``): a nonzero Cesaro
    limit of N^n(rho_0) is a fixed point of N supported in R ^ T, and a
    state of R ^ T is a part of some N^k(rho_0) that keeps its mass
    forever.  R grown from the whole block of the initial location gives
    R_in (``input_reachable``) and R_in ^ T (``input_trapped``), the
    lattice of every input state, on which the program's semantic function
    is solved, on the coordinates of a direct sum of blocks
    (``compression``, ``identity_minus_compressed_cut``).
    """

    def __init__(self, program: SequentialProgram):
        if program.exit_location is None:
            raise NoExitLocation("program has no exit location")
        if not program.deterministic:
            raise NotDeterministic("the exit loop needs a deterministic program")
        self.program = program

    @functools.cached_property
    def m0(self) -> Mat:
        return self.exit_embedded(Mat.eye(self.program.dim))

    @functools.cached_property
    def m1(self) -> Mat:
        return Mat.eye(self.m0.rows) - self.m0

    @functools.cached_property
    def body_channel(self) -> SuperOp:
        return step_superop(self.program)

    @functools.cached_property
    def edges(self) -> dict:
        """{s: [(t, M_j o E_s)]}: N over the locations s but the exit (the
        guard cuts its step), each outcome channel with its target t."""
        program = self.program
        return {
            loc: [(program.act[loc].next[j][0], e) for j, e in outcome_channels(program, loc)]
            for loc in program.locations
            if loc != program.exit_location
        }

    def _push(self, blocks: dict) -> dict:
        """N(X) by blocks: block t joins the images of the blocks X_s along
        the edges s -> t."""
        out = dict.fromkeys(self.program.locations, Subspace.zero(self.program.dim))
        for s, edges in self.edges.items():
            if not blocks[s].is_zero():
                for t, e in edges:
                    out[t] = out[t].join(image(e, blocks[s]))
        return out

    def _pull(self, s, blocks: dict) -> Subspace:
        """Block s of N^-1(Y): the meet of the pre-images of the blocks Y_t
        along the edges s -> t."""
        pulled = Subspace.full(self.program.dim)
        for t, e in self.edges[s]:
            pulled = pulled.meet(preimage(e, blocks[t]))
        return pulled

    def _grow(self, start: dict) -> dict:
        """The least fixpoint of X -> start v N(X) by blocks: a worklist of
        locations, each joining its edges' images into their target blocks
        and queueing the targets that grew."""
        blocks = dict.fromkeys(self.program.locations, Subspace.zero(self.program.dim)) | start
        work = dict.fromkeys(start)
        while work:
            s = next(iter(work))
            del work[s]
            for t, e in self.edges.get(s, ()):
                img = image(e, blocks[s])
                if not blocks[t].contains(img):
                    blocks[t] = blocks[t].join(img)
                    work[t] = None
        return blocks

    @functools.cached_property
    def reachable(self) -> dict:
        """R by blocks: the span of the supports of every N^n(rho_0)."""
        return self._grow({self.program.initial_location: support(self.program.initial_state, validate=False)})

    @functools.cached_property
    def input_reachable(self) -> dict:
        """R_in by blocks: R grown from the whole block of the initial
        location, so it holds R for every input state."""
        return self._grow({self.program.initial_location: Subspace.full(self.program.dim)})

    @functools.cached_property
    def traps(self) -> dict:
        """T by blocks: the greatest fixpoint of Y -> O ^ N^-1(Y), from O
        (every block but the exit's full) down: a worklist of locations,
        each meeting its block with its pull and queueing the locations
        with an edge into a block that shrank.  Only the blocks with an edge
        into the exit can shrink first."""
        program, d = self.program, self.program.dim
        into = {loc: [] for loc in program.locations}
        for s, edges in self.edges.items():
            for t, _ in edges:
                into[t].append(s)
        blocks = {loc: Subspace.full(d) for loc in program.locations}
        blocks[program.exit_location] = Subspace.zero(d)
        work = dict.fromkeys(into[program.exit_location])
        while work:
            s = next(iter(work))
            del work[s]
            shrunk = blocks[s].meet(self._pull(s, blocks))
            if shrunk.dim < blocks[s].dim:
                blocks[s] = shrunk
                work.update(dict.fromkeys(into[s]))
        return blocks

    @functools.cached_property
    def trapped(self) -> dict:
        """R ^ T by blocks: the reachable states that never reach the exit."""
        return {loc: r.meet(self.traps[loc]) for loc, r in self.reachable.items()}

    @functools.cached_property
    def input_trapped(self) -> dict:
        """R_in ^ T by blocks, as ``trapped`` is R ^ T; R ^ T = R ^ (R_in ^ T)."""
        return {loc: r.meet(self.traps[loc]) for loc, r in self.input_reachable.items()}

    def compression(self, blocks: dict) -> list:
        """[(V_c, L_c)] over the locations c, for a direct sum of blocks:
        V_c holds the RREF rows of block c as columns (d x k_c) and
        L_c = (V_c^dag V_c)^-1 V_c^dag is its left inverse.  The k_c^2
        coordinates Y of an operator over the sum at location c give the
        block V_c Y V_c^dag, and a block X has the coordinates L_c X L_c^dag
        of P X P, P the projector onto the sum; with vec, these are
        V_c (x) conj V_c and L_c (x) conj L_c."""
        parts = []
        for loc in self.program.locations:
            v = blocks[loc].rref.transpose()
            parts.append((v, solve(v.dagger() @ v, v.dagger())))
        return parts

    def identity_minus_compressed_cut(self, parts: list) -> Mat:
        """I - A, A the cut body on the Sum_c k_c^2 coordinates of
        ``compression``, location by location: block (t, s) of A sums
        kron(E, conj E), E = L_t M_j K V_s, over the edges s -> t, and the
        exit's columns are zero.  Each term is subtracted from one integer
        grid, the identity over the common denominator of all terms, so no
        d^2 x d^2 object is formed and no partial grid is copied."""
        index = {loc: c for c, loc in enumerate(self.program.locations)}
        offsets = list(itertools.accumulate((v.cols**2 for v, _ in parts), initial=0))
        terms = []
        for s_loc, edges in self.edges.items():
            s = index[s_loc]
            v_s = parts[s][0]
            for t_loc, e in edges:
                t = index[t_loc]
                l_t = parts[t][1]
                if v_s.cols and l_t.rows:
                    for op in e.kraus:
                        x = l_t @ op @ v_s
                        terms.append((t, s, kron(x, x.conj())))
        den = math.lcm(1, *(term.den for _, _, term in terms))
        re, im = np.zeros((2, offsets[-1], offsets[-1]), dtype=object)
        np.fill_diagonal(re, den)
        for t, s, term in terms:
            at = slice(offsets[t], offsets[t + 1]), slice(offsets[s], offsets[s + 1])
            re[at] -= term.num_re * (den // term.den)
            im[at] -= term.num_im * (den // term.den)
        return Mat(re, im, den, _real=all(term.is_real() for _, _, term in terms))

    @property
    def exits_almost_surely(self) -> bool:
        return all(b.is_zero() for b in self.trapped.values())

    @property
    def arrivals(self) -> Subspace:
        """A: the span of every exit arrival, R's exit block, a subspace of
        the data space."""
        return self.reachable[self.program.exit_location]

    @functools.cached_property
    def exit_step(self) -> int | None:
        """The first step with all mass at the exit, or None.  N^n(R) is the
        join of the supports of N^k(rho_0), k >= n, so the chain R >= N(R) >=
        N^2(R) >= ... shrinks strictly until it stops; the loop exits exactly
        iff it reaches 0, and the exit step is the index of that 0 minus one."""
        chain, n, dim = self.reachable, 0, sum(b.dim for b in self.reachable.values())
        while dim:
            chain = self._push(chain)
            shrunk = sum(b.dim for b in chain.values())
            if shrunk == dim:
                return None
            n, dim = n + 1, shrunk
        return n - 1

    def exit_embedded(self, block: Mat) -> Mat:
        """A d x d exit block as a state of the embedded space."""
        return place_blocks(self.program, {self.program.exit_location: block})


def bohm_jacopini(program: SequentialProgram) -> WhileNormalForm:
    """Normal form of a deterministic program with exit as a single while loop."""
    return WhileNormalForm(program)
