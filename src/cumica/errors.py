"""Exception and warning types shared across the package, and the checks
of alpha and of integer arguments that the entry points apply."""

import math
import numbers


class CumicaError(Exception):
    """Base class for all errors raised by this package."""


class NotPositiveDefinite(CumicaError):
    """A matrix required to be symmetric positive definite is not."""


class RankDeficient(CumicaError):
    """A matrix required to have full rank is (numerically) singular."""


class NotUnit(CumicaError):
    """A projection direction is not a unit vector."""


class IndexOutOfRange(CumicaError, IndexError):
    """A component index is outside the valid range (or k equals l)."""


class SingularCustomWhitener(CumicaError):
    """A caller-supplied standardizing matrix is numerically singular."""


class SingularInput(CumicaError):
    """A matrix argument that must be invertible is numerically singular."""


class NonFiniteInput(CumicaError, ValueError):
    """A data matrix or matrix argument has NaN or infinite entries."""


class MalformedInput(CumicaError, ValueError):
    """A data file has a cell that is not a number, or a row of the wrong
    length."""


class InvalidSpec(CumicaError):
    """A source or model specification has out-of-range parameters."""


class InvalidParams(CumicaError, ValueError):
    """A numeric argument is outside its documented domain."""


def _check_alpha(alpha):
    """Return alpha as a float, or raise InvalidParams outside [0, 1]."""
    if not (0.0 <= alpha <= 1.0) or not math.isfinite(alpha):
        raise InvalidParams(f"alpha must be in [0, 1], got {alpha!r}")
    return float(alpha)


def _check_int(name, value, low=None, kind=None, error=InvalidSpec):
    """``value`` as an int, if it is an integer (NumPy's included, a bool
    not) no less than ``low``, where given.  Otherwise raise ``error``,
    saying that ``name`` must be ``kind``: by default an integer, or
    ``>= low`` for one below the floor."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{name} must be {kind or 'an integer'}, got {value!r}")
    if low is not None and value < low:
        raise error(f"{name} must be {kind or f'>= {low}'}, got {value!r}")
    return int(value)


class ZeroDenominator(CumicaError):
    """An asymptotic-variance denominator vanishes for some component/pair.

    Carries the offending component index or (k, l) pair in ``components``.
    """

    def __init__(self, message, components=()):
        super().__init__(message)
        self.components = tuple(components)


class AssumptionViolated(CumicaError):
    """The source model violates the identifiability assumption a method needs.

    ``number`` is the assumption number (3-8) that failed.
    """

    def __init__(self, number, message):
        super().__init__(f"assumption {number} violated: {message}")
        self.number = number


class TooManyFailures(CumicaError):
    """More than 1% of Monte Carlo replications failed to converge."""


class CumicaWarning(UserWarning):
    """Base class for warnings emitted by this package."""


class DegenerateObjective(CumicaWarning):
    """The attained estimator objective is too small to separate anything."""


class NearDegenerateSpectrum(CumicaWarning):
    """Cumulant eigenvalues are too close to identify components reliably."""
