"""Exception hierarchy shared across the package.

The CLI maps these onto its exit-code contract: usage / IO problems exit 1,
violated model assumptions exit 2, numerical failures exit 3.
"""


class TorusFPError(Exception):
    """Base class for all package errors."""


class UsageError(TorusFPError):
    """Bad invocation, unreadable config, or malformed input files."""


def check_ranges(section: str, values: dict, checks) -> None:
    """Raise UsageError for the first ``(key, ok, rule)`` in ``checks`` whose
    ``ok`` is false, naming ``[section] key``, the rule and ``values[key]``."""
    for key, ok, rule in checks:
        if not ok:
            raise UsageError(f"[{section}] {key} must be {rule}, got {values[key]!r}")


class AssumptionError(TorusFPError):
    """A model assumption (positivity, parabolicity, initial-data bounds) fails."""


class NumericsError(TorusFPError):
    """A numerical procedure failed (solver breakdown, lost contraction, ...)."""


class ExprError(UsageError):
    """Base class for expression parsing/evaluation errors.

    ``offset`` is the byte offset into the source string where the problem
    was detected (or -1 when no location applies).
    """

    def __init__(self, message: str, offset: int = -1):
        super().__init__(message)
        self.offset = offset


class ExprSyntaxError(ExprError):
    pass


class ExprNameError(ExprError):
    pass


class ExprArityError(ExprError):
    pass


class ExprDomainError(TorusFPError):
    """Evaluation hit a domain fault (log/sqrt of a negative, division by zero).

    ``subexpr`` holds the offending subexpression, pretty-printed.
    """

    def __init__(self, message: str, subexpr: str = ""):
        super().__init__(message)
        self.subexpr = subexpr
