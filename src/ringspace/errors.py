"""Exception types shared across the package, and the enumeration budget check.

Everything raised on bad mathematical input derives from DomainError so the
command line tool can map the whole family to a single exit code.  A broken
invariant, which is a bug and never the input's fault, raises InternalError.
"""


class DomainError(Exception):
    """Base class for all domain-level failures."""


class RingParseError(DomainError, ValueError):
    """Malformed ring specification string."""


class PayloadError(DomainError, ValueError):
    """Malformed command line payload (bad JSON or unreadable file)."""


class RingMismatchError(DomainError):
    """Operands live over different rings."""


class ShapeMismatchError(DomainError):
    """Matrix or vector dimensions are incompatible."""


class NonCoprimeComponentsError(DomainError):
    """Single-integer encoding needs pairwise coprime component orders."""


class NotFullRankError(DomainError):
    """Operation requires rows of full McCoy rank."""


class NotInvertibleError(DomainError):
    """Square matrix has no inverse over the ring."""


class NotASubspaceError(DomainError):
    """Module is not a free direct summand with unimodular basis."""


class HypothesisNotMetError(DomainError):
    """A law was requested for inputs outside its hypothesis."""


class UntypedSubspaceError(DomainError):
    """Subspace intersects the special part in a non-free module."""


class NotAnArcError(DomainError):
    """Point set is not an arc."""


class NotACapError(DomainError):
    """Point set is not a cap."""


class BudgetExceededError(DomainError):
    """Enumeration or search exceeded its node budget."""


class CountTooLargeError(DomainError):
    """A count has more digits than the command line prints."""


class InternalError(AssertionError):
    """An invariant the library relies on does not hold; this is a bug."""


DEFAULT_BUDGET = 10**6


def charge(units: int, budget: int) -> None:
    """Refuse work that costs ``units`` when only ``budget`` are allowed.

    Made before the work it pays for, so a refused call does none of it.
    """
    if units > budget:
        raise BudgetExceededError("enumeration budget exhausted")


def charge_power(base: int, exponent: int, budget: int) -> None:
    """``charge`` for ``base ** exponent`` units, refused before the power is taken.

    The base is a ring's order, at least 2, so the power is at least
    2^exponent, which exceeds every budget below 2^budget.bit_length(): an
    exponent that reaches that bit length is refused at once, however large
    the power would be.
    """
    if exponent >= budget.bit_length():
        raise BudgetExceededError("enumeration budget exhausted")
    charge(base**exponent, budget)
