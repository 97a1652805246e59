"""Temporal formulas over projective atomic propositions.

Atoms name subspaces of the embedded classical-quantum space; they are built
block-wise, one subspace of the data space per classical configuration, and
the embedded subspace is the direct sum of the blocks.  Conjunction of atoms
is subspace intersection; disjunction of atoms leaves the atom lattice and
is represented downstream as a finite union of subspaces.  Negation does not
exist in this logic.

The almost-surely modalities take atoms only: they speak about measurement
probabilities approaching one, which is not closed under the other
connectives.
"""

from __future__ import annotations

import functools
import re as _re
from dataclasses import dataclass

import numpy as np

from .errors import (
    AlmostOperatorOnNonAtom,
    DimensionMismatch,
    ParseError,
    UnknownAtom,
    UnknownConfiguration,
)
from .linalg import Mat
from .subspace import Subspace


@dataclass(frozen=True)
class Atom:
    """A named projective proposition on the embedded space."""

    name: str
    subspace: Subspace


# formula nodes


@dataclass(frozen=True)
class FTrue:
    pass


@dataclass(frozen=True)
class FFalse:
    pass


@dataclass(frozen=True)
class FAtom:
    name: str


@dataclass(frozen=True)
class And:
    left: object
    right: object


@dataclass(frozen=True)
class Or:
    left: object
    right: object


@dataclass(frozen=True)
class Next:
    body: object


@dataclass(frozen=True)
class Until:
    left: object
    right: object


@dataclass(frozen=True)
class AlmostUntil:
    left: str  # atom name
    right: str  # atom name


@dataclass(frozen=True)
class Eventually:
    body: object


@dataclass(frozen=True)
class AlmostEventually:
    atom: str  # atom name


@dataclass(frozen=True)
class Always:
    body: object


def atom_from_blocks(name: str, blocks: dict, program) -> Atom:
    """Assemble an atom from per-configuration subspaces of the data space.

    Missing configurations default to the zero subspace; the embedded
    subspace is the direct sum over configurations.
    """
    configs = program.configs()
    n_configs = len(configs)
    d = program.dim
    index_of = {}
    for i, c in enumerate(configs):
        index_of[c] = i
        index_of[repr(c)] = i
    by_index = {}
    for label, sub in blocks.items():
        key = label if label in index_of else repr(label)
        if key not in index_of:
            raise UnknownConfiguration(f"configuration {label!r} not in the program")
        if sub.ambient_dim != d:
            raise DimensionMismatch(f"block for {label!r} must live in dimension {d}")
        by_index[index_of[key]] = sub
    # entry h of a block vector at configuration idx sits at h * n_configs + idx
    rows = []
    for idx, sub in sorted(by_index.items()):
        if sub.is_zero():
            continue
        re = np.zeros((sub.dim, d * n_configs), dtype=object)
        im = np.zeros((sub.dim, d * n_configs), dtype=object)
        re[:, idx::n_configs] = sub.rref.num_re
        im[:, idx::n_configs] = sub.rref.num_im
        rows.append(Mat(re, im, sub.rref.den, _normalized=True))
    if not rows:
        return Atom(name, Subspace.zero(d * n_configs))
    return Atom(name, Subspace(d * n_configs, functools.reduce(Mat.vstack, rows)))


# ----------------------------------------------------------------------
# parser

_FORMULA_TOKENS = _re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<always>\[\])
  | (?P<almost_ev><>~)
  | (?P<eventually><>)
  | (?P<and>&&)
  | (?P<or>\|\|)
  | (?P<almost_until>U~)
  | (?P<until>U)
  | (?P<next>X)
  | (?P<true>true)
  | (?P<false>false)
  | (?P<lpar>\()
  | (?P<rpar>\))
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
    """,
    _re.VERBOSE,
)


def _lex_formula(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _FORMULA_TOKENS.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r} in formula", 1, pos + 1)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(0), pos))
        pos = m.end()
    tokens.append(("eof", "", pos))
    return tokens


class _FormulaParser:
    """Precedence: unary ([] <> <>~ X) > U/U~ > && > ||, left-associative."""

    def __init__(self, tokens, atoms):
        self.tokens = tokens
        self.pos = 0
        self.atoms = atoms

    def cur(self):
        return self.tokens[self.pos]

    def eat(self, kind):
        tok = self.cur()
        if tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[1]!r} in formula", 1, tok[2] + 1)
        self.pos += 1
        return tok

    def parse(self):
        node = self.or_level()
        self.eat("eof")
        return node

    def or_level(self):
        node = self.and_level()
        while self.cur()[0] == "or":
            self.eat("or")
            node = Or(node, self.and_level())
        return node

    def and_level(self):
        node = self.until_level()
        while self.cur()[0] == "and":
            self.eat("and")
            node = And(node, self.until_level())
        return node

    def until_level(self):
        node = self.unary()
        while self.cur()[0] in ("until", "almost_until"):
            kind = self.cur()[0]
            self.eat(kind)
            rhs = self.unary()
            if kind == "until":
                node = Until(node, rhs)
            else:
                node = AlmostUntil(self._atom_name(node), self._atom_name(rhs))
        return node

    def unary(self):
        tok = self.cur()
        if tok[0] == "always":
            self.eat("always")
            return Always(self.unary())
        if tok[0] == "eventually":
            self.eat("eventually")
            return Eventually(self.unary())
        if tok[0] == "almost_ev":
            self.eat("almost_ev")
            return AlmostEventually(self._atom_name(self.unary()))
        if tok[0] == "next":
            self.eat("next")
            return Next(self.unary())
        if tok[0] == "lpar":
            self.eat("lpar")
            node = self.or_level()
            self.eat("rpar")
            return node
        if tok[0] == "true":
            self.eat("true")
            return FTrue()
        if tok[0] == "false":
            self.eat("false")
            return FFalse()
        if tok[0] == "name":
            self.eat("name")
            if tok[1] not in self.atoms:
                raise UnknownAtom(f"atom {tok[1]!r} is not defined")
            return FAtom(tok[1])
        raise ParseError(f"unexpected {tok[1]!r} in formula", 1, tok[2] + 1)

    def _atom_name(self, node):
        if not isinstance(node, FAtom):
            raise AlmostOperatorOnNonAtom(
                "almost-surely modalities take atomic propositions only"
            )
        return node.name


def parse_formula(text: str, atoms: dict) -> object:
    """Parse a formula; atom names are resolved against the given table."""
    return _FormulaParser(_lex_formula(text), atoms).parse()


def formula_to_str(node) -> str:
    if isinstance(node, FTrue):
        return "true"
    if isinstance(node, FFalse):
        return "false"
    if isinstance(node, FAtom):
        return node.name
    if isinstance(node, And):
        return f"({formula_to_str(node.left)} && {formula_to_str(node.right)})"
    if isinstance(node, Or):
        return f"({formula_to_str(node.left)} || {formula_to_str(node.right)})"
    if isinstance(node, Next):
        return f"X {formula_to_str(node.body)}"
    if isinstance(node, Until):
        return f"({formula_to_str(node.left)} U {formula_to_str(node.right)})"
    if isinstance(node, AlmostUntil):
        return f"({node.left} U~ {node.right})"
    if isinstance(node, Eventually):
        return f"<> {formula_to_str(node.body)}"
    if isinstance(node, AlmostEventually):
        return f"<>~ {node.atom}"
    if isinstance(node, Always):
        return f"[] {formula_to_str(node.body)}"
    raise TypeError(f"not a formula: {node!r}")
