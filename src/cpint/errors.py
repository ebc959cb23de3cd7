"""Exception hierarchy shared by all cpint modules, and the one tol check."""


# raised by an evaluator where its value is undefined; read as NaN
UNDEFINED = (OverflowError, ValueError, ZeroDivisionError)


class CpintError(Exception):
    """Base class for all library errors."""


class NotContinuous(CpintError):
    """A claimed-continuous evaluator failed the oscillation audit."""

    def __init__(self, message, where=None):
        super().__init__(message)
        self.where = where


class NoLimitAtInfinity(CpintError):
    """Tail values do not settle to the claimed limit at +-infinity."""


class BudgetExceeded(CpintError):
    """Refinement depth or evaluation budget hit before tolerance was met."""


class IntervalEmpty(CpintError):
    """Integration interval with a > b."""


class MalformedPieces(CpintError):
    """A piecewise-monotone representation failed its monotonicity audit."""


class NonMonotone(CpintError):
    """An operation requiring a monotone function received a non-monotone one."""


class ResidualTooLarge(CpintError):
    """A solved identity does not hold at the returned point (engine bug)."""


class DomainError(CpintError):
    """An argument lies outside the operation's stated domain."""


def check_tol(tol: float, what: str) -> None:
    """DomainError unless tol >= 0, which a NaN tol fails too."""
    if not tol >= 0.0:
        raise DomainError(f"{what} needs tol >= 0, got {tol!r}")


class UnknownFixture(CpintError):
    """Fixture name not in the registry."""


class ExprSyntaxError(CpintError):
    """Expression text violates the grammar; carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} at position {position}")
        self.position = position


class UnknownFunction(CpintError):
    """Function name not in the expression language."""


class EvalError(CpintError, ValueError):
    """Expression evaluation produced an undefined value.  A ValueError,
    so that evaluators read it as NaN, as they read other math faults."""
