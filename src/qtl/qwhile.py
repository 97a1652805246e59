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

Compilation targets the location-based sequential program model, one
location per statement plus guard locations for branching, with a fresh
exit location appended.  Branches of an ``if`` whose arms are loop-free are
padded with skips to equal length, which keeps the step count of a path
independent of the measured branch.

The single-while normal form places and reads location blocks of the
embedded space only through ``program.place_blocks`` and ``coordinates``.
"""

from __future__ import annotations

import functools
import re as _re
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    ArityMismatch,
    NoExitLocation,
    NotDeterministic,
    ParseError,
    UndeclaredOperator,
)
from .linalg import CRat, Mat, kron, mat_sum, solve
from .program import (
    LocationAction,
    SequentialProgram,
    coordinates,
    embed,
    initial_cq,
    place_blocks,
    step_superop,
)
from .subspace import Subspace, support
from .superop import Measurement, SuperOp, image, least_fixpoint, preimage


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
    first: object
    second: object


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
    (?P<ws>\s+|\#[^\n]*)
  | (?P<ket0>\|0>)
  | (?P<assign>:=)
  | (?P<arrow>->)
  | (?P<eqeq>==)
  | (?P<int>\d+)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<sym>[;,/*()\[\]{}=+-])
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


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    line: int
    col: int


def _lex(source: str):
    tokens = []
    pos = 0
    line, col = 1, 1
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ParseError(f"unexpected character {source[pos]!r}", line, col)
        text = m.group(0)
        kind = m.lastgroup
        if kind != "ws":
            if kind == "name" and text in _KEYWORDS:
                kind = text
            elif kind == "sym":
                kind = text
            tokens.append(_Token(kind, text, line, col))
        newlines = text.count("\n")
        if newlines:
            line += newlines
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)
        pos = m.end()
    tokens.append(_Token("eof", "", line, col))
    return tokens


# ----------------------------------------------------------------------
# parser


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    @property
    def cur(self) -> _Token:
        return self.tokens[self.pos]

    def peek(self, ahead=1) -> _Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def eat(self, kind) -> _Token:
        tok = self.cur
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text!r}", tok.line, tok.col)
        self.pos += 1
        return tok

    def error(self, message):
        raise ParseError(message, self.cur.line, self.cur.col)

    # -- scalars -------------------------------------------------------

    def rational(self) -> Fraction:
        sign = 1
        if self.cur.kind == "-":
            self.eat("-")
            sign = -1
        num = int(self.eat("int").text)
        if self.cur.kind == "/":
            self.eat("/")
            den = int(self.eat("int").text)
            if den == 0:
                self.error("zero denominator")
            return Fraction(sign * num, den)
        return Fraction(sign * num)

    def scalar(self) -> CRat:
        if self.cur.kind == "i":
            self.eat("i")
            return CRat(0, 1)
        if self.cur.kind == "-" and self.peek().kind == "i":
            self.eat("-")
            self.eat("i")
            return CRat(0, -1)
        first = self.rational()
        if self.cur.kind == "i":
            self.eat("i")
            return CRat(0, first)
        if self.cur.kind in ("+", "-"):
            sign = -1 if self.cur.kind == "-" else 1
            self.pos += 1
            if self.cur.kind == "i":
                self.eat("i")
                return CRat(first, sign)
            second = self.rational()
            self.eat("i")
            return CRat(first, sign * second)
        return CRat(first)

    def matrix(self) -> Mat:
        self.eat("[")
        rows = [self.row()]
        while self.cur.kind == ",":
            self.eat(",")
            rows.append(self.row())
        self.eat("]")
        if any(len(r) != len(rows[0]) for r in rows):
            self.error("ragged matrix literal")
        return Mat.from_rows(rows)

    def row(self):
        self.eat("[")
        entries = [self.scalar()]
        while self.cur.kind == ",":
            self.eat(",")
            entries.append(self.scalar())
        self.eat("]")
        return entries

    # -- declarations ---------------------------------------------------

    def program(self) -> QWhileProgram:
        n_qubits = None
        unitaries = {}
        measurements = {}
        input_state = None
        while self.cur.kind in ("qubits", "unitary", "measurement", "input"):
            kind = self.cur.kind
            self.pos += 1
            if kind == "qubits":
                n_qubits = int(self.eat("int").text)
                if n_qubits < 1:
                    self.error("need at least one qubit")
            elif kind == "unitary":
                name = self.eat("name").text
                self.eat("=")
                scale = Fraction(1)
                if self.cur.kind == "sqrt":
                    self.eat("sqrt")
                    self.eat("(")
                    scale = self.rational()
                    self.eat(")")
                    self.eat("*")
                mat = self.matrix()
                if mat.rows != mat.cols or mat.rows & (mat.rows - 1):
                    self.error(f"unitary {name} must be square with power-of-two size")
                if (mat.dagger() @ mat) * CRat(scale) != Mat.eye(mat.rows):
                    self.error(f"declared operator {name} is not unitary")
                unitaries[name] = (mat, scale)
            elif kind == "measurement":
                name = self.eat("name").text
                self.eat("=")
                self.eat("{")
                ops = [self.matrix()]
                while self.cur.kind == ",":
                    self.eat(",")
                    ops.append(self.matrix())
                self.eat("}")
                d = ops[0].rows
                if any(o.rows != d or o.cols != d for o in ops) or d & (d - 1):
                    self.error(f"measurement {name} operators must share a power-of-two size")
                total = Mat.zeros(d)
                for o in ops:
                    total = total + o.dagger() @ o
                if total != Mat.eye(d):
                    self.error(f"measurement {name} operators do not sum to the identity")
                measurements[name] = tuple(ops)
            else:  # input
                input_state = self.matrix()
            self.eat(";")
        self._n_qubits = 1 if n_qubits is None else n_qubits
        self._unitaries = unitaries
        self._measurements = measurements
        body = self.statement()
        if self.cur.kind == ";":
            self.eat(";")
        self.eat("eof")
        dim = 1 << self._n_qubits
        if input_state is not None and (input_state.rows != dim or input_state.cols != dim):
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
        node = self.basic()
        while self.cur.kind == ";" and self.peek().kind in self._BASIC_STARTS:
            self.eat(";")
            node = Seq(node, self.basic())
        return node

    def basic(self):
        tok = self.cur
        if tok.kind == "skip":
            self.eat("skip")
            return Skip()
        if tok.kind == "name":
            q = self.qubit(self.eat("name"))
            self.eat("assign")
            self.eat("ket0")
            return Init(q)
        if tok.kind == "apply":
            self.eat("apply")
            name = self.eat("name").text
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
        if tok.kind == "if":
            self.eat("if")
            name, qs = self.guard()
            n_out = len(self._measurements[name])
            self.eat("{")
            branches = {}
            while self.cur.kind != "}":
                label = int(self.eat("int").text)
                self.eat("arrow")
                stmt = self.statement()
                self.eat(";")
                if label in branches:
                    self.error(f"duplicate branch {label}")
                branches[label] = stmt
            self.eat("}")
            if sorted(branches) != list(range(n_out)):
                raise ArityMismatch(
                    f"if needs one branch per outcome 0..{n_out - 1}, got {sorted(branches)}"
                )
            return Case(name, qs, tuple(branches[m] for m in range(n_out)))
        if tok.kind == "while":
            self.eat("while")
            name, qs = self.guard()
            if len(self._measurements[name]) != 2:
                raise ArityMismatch(f"while guard {name} must have outcomes 0 and 1")
            self.eat("eqeq")
            one = self.eat("int")
            if one.text != "1":
                raise ParseError("while guard must compare against 1", one.line, one.col)
            self.eat("{")
            body = self.statement()
            if self.cur.kind == ";":
                self.eat(";")
            self.eat("}")
            return While(name, qs, body)
        self.error(f"expected a statement, found {tok.text!r}")

    def guard(self):
        self.eat("meas")
        name = self.eat("name").text
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
        qs = [self.qubit(self.eat("name"))]
        while self.cur.kind == ",":
            self.eat(",")
            qs.append(self.qubit(self.eat("name")))
        if len(set(qs)) != len(qs):
            raise ArityMismatch("qubit list has repeats")
        return tuple(qs)

    def qubit(self, tok: _Token) -> int:
        m = _re.fullmatch(r"q(\d+)", tok.text)
        if not m:
            raise ParseError(f"expected a qubit name q0..q{self._n_qubits - 1}", tok.line, tok.col)
        idx = int(m.group(1))
        if idx >= self._n_qubits:
            raise ParseError(f"qubit {tok.text} out of range", tok.line, tok.col)
        return idx


def parse(source: str) -> QWhileProgram:
    """Parse source text; positions in errors are 1-based line/column."""
    return _Parser(_lex(source)).program()


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
        return f"{pretty_print(node.first)}; {pretty_print(node.second)}"
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
    """
    d = 1 << n_qubits
    k = len(targets)
    rest = [q for q in range(n_qubits) if q not in targets]
    rows = [[CRat(0)] * d for _ in range(d)]

    def split(index):
        sub = 0
        for q in targets:
            sub = (sub << 1) | ((index >> (n_qubits - 1 - q)) & 1)
        ctx = 0
        for q in rest:
            ctx = (ctx << 1) | ((index >> (n_qubits - 1 - q)) & 1)
        return sub, ctx

    for r in range(d):
        sub_r, ctx_r = split(r)
        for c in range(d):
            sub_c, ctx_c = split(c)
            if ctx_r == ctx_c:
                rows[r][c] = op.entry(sub_r, sub_c)
    return Mat.from_rows(rows)


def _unitary_channel(prog: QWhileProgram, name: str, qubits) -> SuperOp:
    mat, scale = prog.unitaries[name]
    return SuperOp.from_scaled_unitary(lift_operator(mat, qubits, prog.n_qubits), scale)


def _init_channel(prog: QWhileProgram, qubit: int) -> SuperOp:
    to_zero = lift_operator(Mat.from_rows([[1, 0], [0, 0]]), (qubit,), prog.n_qubits)
    from_one = lift_operator(Mat.from_rows([[0, 1], [0, 0]]), (qubit,), prog.n_qubits)
    return SuperOp([to_zero, from_one], validate=False)


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
            return ev(node.second, ev(node.first, rho))
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


def _loop_free(node) -> bool:
    if isinstance(node, While):
        return False
    if isinstance(node, Seq):
        return _loop_free(node.first) and _loop_free(node.second)
    if isinstance(node, Case):
        return all(_loop_free(b) for b in node.branches)
    return True


def _fixed_cost(node) -> int:
    """Step count of a loop-free statement under the compiled cost model."""
    if isinstance(node, Seq):
        return _fixed_cost(node.first) + _fixed_cost(node.second)
    if isinstance(node, Case):
        return 1 + max(_fixed_cost(b) for b in node.branches)
    return 1


def steps_for_depth(node, depth: int) -> int:
    """Compiled steps that cover every path using <= depth guard evaluations
    per loop entry (the step <-> depth map of the compiler)."""
    if isinstance(node, QWhileProgram):
        return steps_for_depth(node.body, depth)
    if isinstance(node, Seq):
        return steps_for_depth(node.first, depth) + steps_for_depth(node.second, depth)
    if isinstance(node, Case):
        if _loop_free(node):
            return _fixed_cost(node)
        return 1 + max(steps_for_depth(b, depth) for b in node.branches)
    if isinstance(node, While):
        if depth <= 0:
            return 0
        return depth + (depth - 1) * steps_for_depth(node.body, depth)
    return 1


def denote_steps(prog: QWhileProgram, rho: Mat, budget: int) -> Mat:
    """Mass that completes within ``budget`` steps of the compiled cost model.

    Independent of the compiler: runs the statement tree operationally,
    charging one step per basic statement or guard evaluation and the same
    branch padding the compiler applies.  Equals the exit block of the
    compiled program after ``budget`` steps, exactly.
    """
    acc = [Mat.zeros(prog.dim)]

    def finish(r, left):
        acc[0] = acc[0] + r

    def run(node, rho, left, cont):
        if rho.is_zero():
            return
        if isinstance(node, Seq):
            run(node.first, rho, left, lambda r, l: run(node.second, r, l, cont))
            return
        if left < 1:
            return
        if isinstance(node, Skip):
            cont(rho, left - 1)
        elif isinstance(node, Init):
            cont(_init_channel(prog, node.qubit).apply(rho), left - 1)
        elif isinstance(node, Apply):
            cont(_unitary_channel(prog, node.name, node.qubits).apply(rho), left - 1)
        elif isinstance(node, Case):
            meas = _lifted_measurement(prog, node.name, node.qubits)
            padded = _loop_free(node)
            target = max(_fixed_cost(b) for b in node.branches) if padded else None

            for m_op, branch in zip(meas.operators, node.branches):
                pad = target - _fixed_cost(branch) if padded else 0

                def padded_cont(r, l, pad=pad):
                    if l >= pad:
                        cont(r, l - pad)

                run(branch, m_op @ rho @ m_op.dagger(), left - 1, padded_cont)
        elif isinstance(node, While):
            meas = _lifted_measurement(prog, node.name, node.qubits)
            m0, m1 = meas.operators
            cont(m0 @ rho @ m0.dagger(), left - 1)
            run(
                node.body,
                m1 @ rho @ m1.dagger(),
                left - 1,
                lambda r, l: run(node, r, l, cont),
            )
        else:
            raise TypeError(f"not a statement: {node!r}")

    run(prog.body, rho, budget, finish)
    return acc[0]


# ----------------------------------------------------------------------
# compilation to the sequential program model


def _location_count(node) -> int:
    if isinstance(node, Seq):
        return _location_count(node.first) + _location_count(node.second)
    if isinstance(node, Case):
        if _loop_free(node):
            # each branch is followed by skips up to the slowest branch
            target = max(_fixed_cost(b) for b in node.branches)
            return 1 + sum(
                _location_count(b) + (target - _fixed_cost(b)) for b in node.branches
            )
        return 1 + sum(_location_count(b) for b in node.branches)
    if isinstance(node, While):
        return 1 + _location_count(node.body)
    return 1


def compile_qwhile(prog: QWhileProgram) -> SequentialProgram:
    """Compile to a deterministic sequential program with a fresh exit location.

    The initial state is the declared ``input``, or |0...0><0...0|; give the
    program another one with ``with_initial_state``.
    """
    dim = prog.dim
    total = _location_count(prog.body)
    labels = [f"l{i + 1}" for i in range(total + 1)]
    exit_label = labels[-1]
    act = {}
    identity = SuperOp.identity(dim)
    trivial = Measurement.trivial(dim)

    def goto(target_idx):
        return {0: (labels[target_idx],)}

    def emit(node, start, cont):
        """Emit locations for node into slots [start, start+count); control
        proceeds to slot ``cont`` afterwards."""
        if isinstance(node, Skip):
            act[labels[start]] = LocationAction(identity, trivial, goto(cont))
            return
        if isinstance(node, Init):
            act[labels[start]] = LocationAction(
                _init_channel(prog, node.qubit), trivial, goto(cont)
            )
            return
        if isinstance(node, Apply):
            act[labels[start]] = LocationAction(
                _unitary_channel(prog, node.name, node.qubits), trivial, goto(cont)
            )
            return
        if isinstance(node, Seq):
            mid = start + _location_count(node.first)
            emit(node.first, start, mid)
            emit(node.second, mid, cont)
            return
        if isinstance(node, Case):
            meas = _lifted_measurement(prog, node.name, node.qubits)
            padded = _loop_free(node)
            target = max(_fixed_cost(b) for b in node.branches) if padded else None
            nxt = {}
            slot = start + 1
            for m, branch in enumerate(node.branches):
                nxt[m] = (labels[slot],)
                body_size = _location_count(branch)
                pad = (target - _fixed_cost(branch)) if padded else 0
                if pad:
                    emit(branch, slot, slot + body_size)
                    for p in range(pad):
                        tail = cont if p == pad - 1 else slot + body_size + p + 1
                        act[labels[slot + body_size + p]] = LocationAction(
                            identity, trivial, goto(tail)
                        )
                else:
                    emit(branch, slot, cont)
                slot += body_size + pad
            act[labels[start]] = LocationAction(identity, meas, nxt)
            return
        if isinstance(node, While):
            meas = _lifted_measurement(prog, node.name, node.qubits)
            act[labels[start]] = LocationAction(
                identity, meas, {0: (labels[cont],), 1: (labels[start + 1],)}
            )
            emit(node.body, start + 1, start)
            return
        raise TypeError(f"not a statement: {node!r}")

    emit(prog.body, 0, total)
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
    the program's one-step channel.  Every exit question is asked of this
    one object: the constructor checks the preconditions (an exit location,
    then determinism), and each part is built on first use and cached: the
    guard, the body (``body_channel``) and the cut body N in Kraus form
    (``cut_body``, the body's operators that leave a location other than
    the exit).

    The answers are facts of the loop's subspace lattice, since the support
    of N(rho) depends only on the support of rho: ``reachable`` is
    R, the least fixpoint of X -> supp rho_0 v N(X), ``arrivals`` is A, its
    exit part, the support of all the mass that ever reaches the exit, and
    ``exit_step`` is the first step with all mass at the exit, read off the
    chain R >= N(R) >= N^2(R) >= ...  ``trapped`` is R ^ T, with T the
    greatest fixpoint of Y -> range(m1) ^ N^-1(Y), the states that never
    reach the exit.  The loop exits with probability one exactly when
    R ^ T = 0 (``exits_almost_surely``): a nonzero Cesaro limit of
    N^n(rho_0) is a fixed point of N supported in R ^ T, and a state of
    R ^ T is a part of some N^k(rho_0) that keeps its mass forever.  The
    same two fixpoints started from the whole block of the initial location
    give R_in (``input_reachable``) and R_in ^ T (``input_trapped``), the
    lattice of every input state, on which the program's semantic function
    is solved.  ``compression`` gives the coordinates of the operators over
    a subspace that is a direct sum over locations, and ``compressed_cut``
    the cut body on them.
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
    def cut_body(self) -> SuperOp:
        """N, the body after the guard's m1: each body operator K leaves one
        location, and K m1 is K off the exit and 0 at the exit, so N keeps
        the operators that vanish on the exit (the zero channel if none)."""
        exit_coords = coordinates(self.program, self.program.exit_location)
        kraus = [k for k in self.body_channel.kraus if k[:, exit_coords].is_zero()]
        return SuperOp(kraus or [Mat.zeros(self.body_channel.dim_in)], validate=False)

    def _trap_within(self, start: Subspace) -> Subspace:
        """The greatest fixpoint of Y -> start ^ N^-1(Y), iterated down from
        ``start``."""
        t = start
        while not t.is_zero():
            shrunk = t.meet(preimage(self.cut_body, t))
            if shrunk.dim == t.dim:
                break
            t = shrunk
        return t

    @functools.cached_property
    def reachable(self) -> Subspace:
        """R: the span of the supports of every N^n(rho_0); the exit
        arrivals span m0 R."""
        start = support(embed(initial_cq(self.program), self.program), validate=False)
        return least_fixpoint(start, functools.partial(image, self.cut_body))

    @functools.cached_property
    def trapped(self) -> Subspace:
        """R ^ T: the reachable states that never reach the exit.  As N maps
        R into R, it is the greatest fixpoint of Y -> R ^ range(m1) ^ N^-1(Y),
        iterated down from R ^ range(m1)."""
        return self._trap_within(self.reachable.meet(support(self.m1, validate=False)))

    @functools.cached_property
    def input_reachable(self) -> Subspace:
        """R_in: R grown from the whole block of the initial location, so it
        holds R for every input state."""
        block = place_blocks(self.program, {(self.program.initial_location,) * 2: Mat.eye(self.program.dim)})
        return least_fixpoint(support(block, validate=False), functools.partial(image, self.cut_body))

    @functools.cached_property
    def input_trapped(self) -> Subspace:
        """R_in ^ T, as ``trapped`` is R ^ T; R ^ T = R ^ (R_in ^ T)."""
        return self._trap_within(self.input_reachable.meet(support(self.m1, validate=False)))

    def compression(self, sub: Subspace) -> list:
        """[(V_c, L_c)] over the locations c, for a subspace that is a direct
        sum over locations (every row of its RREF lives in the location of
        its pivot): V_c holds the rows of location c read on its coordinates
        (d x k_c) and L_c = (V_c^dag V_c)^-1 V_c^dag is its left inverse.  The
        k_c^2 coordinates Y of an operator over ``sub`` at location c give
        the block V_c Y V_c^dag, and a block X has the coordinates L_c X
        L_c^dag of P X P, P the projector onto ``sub``; with vec, these are
        V_c (x) conj V_c and L_c (x) conj L_c."""
        parts = []
        for loc in self.program.locations:
            at = coordinates(self.program, loc)
            v = sub.rref[[i for i, p in enumerate(sub.pivots) if p in at]][:, at].transpose()
            parts.append((v, solve(v.dagger() @ v, v.dagger())))
        return parts

    def compressed_cut(self, parts: list) -> Mat:
        """The cut body on the Sum_c k_c^2 coordinates of ``compression``,
        location by location in order: block (t, s) sums
        kron(E, conj E), E = L_t M_j K V_s, over the outcomes j that lead
        from s to t and the Kraus operators K of s's channel.  The exit
        location's columns are zero.  It is assembled from the per-edge
        operators, so no d^2 x d^2 object is formed."""
        program = self.program
        terms = {}
        for s, loc in enumerate(program.locations):
            v_s = parts[s][0]
            if loc == program.exit_location or not v_s.cols:
                continue
            a = program.act[loc]
            for j, m_op in enumerate(a.measurement.operators):
                t = program.config_index(a.next[j][0])
                l_t = parts[t][1]
                if m_op.is_zero() or not l_t.rows:
                    continue
                for k in a.channel.kraus:
                    e = l_t @ m_op @ k @ v_s
                    terms.setdefault((t, s), []).append(kron(e, e.conj()))
        sizes = [v.cols**2 for v, _ in parts]
        grid = [
            [mat_sum(terms[t, s]) if (t, s) in terms else Mat.zeros(rows, cols) for s, cols in enumerate(sizes)]
            for t, rows in enumerate(sizes)
        ]
        return functools.reduce(Mat.vstack, [functools.reduce(Mat.hstack, row) for row in grid])

    @property
    def exits_almost_surely(self) -> bool:
        return self.trapped.is_zero()

    @functools.cached_property
    def arrivals(self) -> Subspace:
        """A: the span of every exit arrival, m0 R read on the exit's
        coordinates, a subspace of the data space."""
        return Subspace(self.program.dim, self.reachable.rref[:, coordinates(self.program, self.program.exit_location)])

    @functools.cached_property
    def exit_step(self) -> int | None:
        """The first step with all mass at the exit, or None.  N^n(R) is the
        join of the supports of N^k(rho_0), k >= n, so the chain R >= N(R) >=
        N^2(R) >= ... shrinks strictly until it stops; the loop exits exactly
        iff it reaches 0, and the exit step is the index of that 0 minus one."""
        chain, n = self.reachable, 0
        while not chain.is_zero():
            shrunk = image(self.cut_body, chain)
            if shrunk.dim == chain.dim:
                return None
            chain, n = shrunk, n + 1
        return n - 1

    def exit_embedded(self, block: Mat) -> Mat:
        """A d x d exit block as a state of the embedded space."""
        return place_blocks(self.program, {(self.program.exit_location,) * 2: block})


def bohm_jacopini(program: SequentialProgram) -> WhileNormalForm:
    """Normal form of a deterministic program with exit as a single while loop."""
    return WhileNormalForm(program)
