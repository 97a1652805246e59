"""Exception hierarchy shared by all qtl modules."""


class QtlError(Exception):
    """Base class for every error raised by this package."""


class MalformedInput(QtlError):
    """Input data does not fit its format: a bad number literal or a missing key."""


class DimensionMismatch(QtlError):
    """Operands live in incompatible spaces."""


class SingularMatrix(QtlError):
    """Exact inversion was requested for a rank-deficient matrix."""


class UncertifiedPeriod(QtlError):
    """No period certificate: a peripheral eigenvalue is not a root of unity,
    or the peripheral eigenvalues have no common order within the bound."""


class NotPositive(QtlError):
    """A matrix required to be positive semidefinite has a negative direction."""


class MalformedState(QtlError):
    """A classical-quantum state does not fit the program it is paired with."""


class NotDeterministic(QtlError):
    """The operation needs a program whose next-location map is single-valued."""


class NoExitLocation(QtlError):
    """The operation needs a program with a designated exit location."""


class NonClassicalCoherence(QtlError):
    """A matrix has nonzero blocks between distinct classical configurations."""


class SelectorExplosion(QtlError):
    """The number of nondeterministic choice functions exceeds the cap."""


class ParseError(QtlError):
    """Source text could not be parsed; carries a 1-based position."""

    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"{message} (line {line}, column {col})"
        super().__init__(message)


class UndeclaredOperator(QtlError):
    """A statement refers to a unitary or measurement with no declaration."""


class ArityMismatch(QtlError):
    """An operator was applied to the wrong number of qubits."""


class UnknownConfiguration(QtlError):
    """An atomic proposition names a classical configuration the program lacks."""


class UnknownAtom(QtlError):
    """A formula refers to an atom name missing from the atom table."""


class UnsupportedFormula(QtlError):
    """A formula shape or operand lies outside the table of decidable shapes."""


class AlmostOperatorOnNonAtom(QtlError):
    """The almost-surely modalities accept atomic propositions only."""


class PreconditionViolated(QtlError):
    """A documented operation precondition does not hold for the arguments."""


class BudgetExceeded(QtlError):
    """Enumeration grew past the configured work budget."""
