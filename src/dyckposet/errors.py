"""Exception hierarchy for the Dyck pattern poset library, and the limit check."""


class DyckPatternError(Exception):
    """Base class for every error this library raises on purpose."""


class InvalidWordError(DyckPatternError):
    """A step string failed Dyck validation."""


class InvalidCharacterError(InvalidWordError):
    """A step string contains a symbol other than U or D (or an accepted alias)."""


class UnbalancedError(InvalidWordError):
    """A step string has unequal numbers of U and D steps."""


class PrefixViolationError(InvalidWordError):
    """Some prefix of a step string has more D than U."""


class InvalidMotzkinError(DyckPatternError):
    """A step string failed Motzkin validation."""


class InvalidShapeParametersError(DyckPatternError):
    """A named-shape constructor was called with out-of-range parameters."""


class ArgumentOutOfRangeError(DyckPatternError):
    """An argument lies outside the documented validity domain."""


class RankOutOfRangeError(ArgumentOutOfRangeError):
    """A rank query lies outside the interval's rank span."""


class NotComparableError(DyckPatternError):
    """Interval endpoints are not related by pattern containment."""


class ElementNotInIntervalError(DyckPatternError):
    """A word was passed to an interval query but is not an interval element."""


class NotTwoPeakError(DyckPatternError):
    """The triple encoding needs a word with exactly two peaks."""


class OutOfGridError(DyckPatternError):
    """A square or triple does not fit inside the given grid."""


class LimitExceededError(DyckPatternError):
    """A generation, interval or scan request exceeded the configured ceiling."""


def check_limit(what: str, value: int, ceiling: int, limit: int | None = None) -> None:
    """Refuse `value` above the active bound: `limit` if given, else `ceiling`.

    This is the library's one refusal point for resource limits.  The message
    names the quantity, its value and the bound that refused it.
    """
    bound = ceiling if limit is None else limit
    if value > bound:
        kind = "ceiling" if limit is None else "limit"
        raise LimitExceededError(f"{what} {value} exceeds the {kind} {bound}")
