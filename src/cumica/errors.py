"""Exception and warning types shared across the package, and the checks
of alpha, tolerances, integer arguments, real arrays and generators that
the entry points apply."""

import math
import numbers

import numpy as np


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
    """Return alpha as a float, or raise InvalidParams for a value that is
    not a real number in [0, 1], or is a bool (NumPy's included)."""
    if (isinstance(alpha, (bool, np.bool_))
            or not isinstance(alpha, numbers.Real) or not 0.0 <= alpha <= 1.0):
        raise InvalidParams(f"alpha must be in [0, 1], got {alpha!r}")
    return float(alpha)


def _check_tol(tol):
    """Raise InvalidParams unless ``tol`` is a positive finite real number
    (a bool, NumPy's included, is not)."""
    if (isinstance(tol, (bool, np.bool_)) or not isinstance(tol, numbers.Real)
            or not math.isfinite(tol)):
        raise InvalidParams(f"tol must be a finite float, got {tol!r}")
    if not tol > 0:
        raise InvalidParams(f"tol must be positive, got {tol!r}")


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


def _real_array(A, what, ndim=None):
    """``A`` as a float array, if its entries are real numbers (bools and
    integers included) and, where ``ndim`` is given, it has that many
    axes; otherwise raise ``InvalidParams``, saying what ``what`` must
    be.  The type is checked before the cast, so complex entries raise no
    ``ComplexWarning``, str or object ones no bare ``TypeError`` or
    ``ValueError``, and nested sequences of unequal lengths no bare
    ``ValueError``; the axes are checked before any is indexed."""
    try:
        A = np.asarray(A)
    except ValueError:  # NumPy's message for a ragged nesting
        raise InvalidParams(f"expected {what} of real numbers, got "
                            f"sequences of unequal shapes") from None
    if A.dtype.kind not in "biuf":
        raise InvalidParams(f"expected {what} of real numbers, got dtype "
                            f"{A.dtype}")
    if ndim is not None and A.ndim != ndim:
        raise InvalidParams(f"expected {what} to be a {ndim}-d array, got "
                            f"shape {A.shape}")
    return A.astype(float, copy=False)


def _check_real(name, value):
    """``value`` as a float, if it is a real number (NumPy's included, a
    bool not); otherwise raise ``InvalidParams``."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value,
                                                             numbers.Real):
        raise InvalidParams(f"{name} must be a real number, got {value!r}")
    return float(value)


def _check_generator(name, rng):
    """Raise InvalidSpec unless ``rng`` is a ``numpy.random.Generator``."""
    if not isinstance(rng, np.random.Generator):
        raise InvalidSpec(f"{name} must be a numpy.random.Generator, got "
                          f"{type(rng).__name__}")


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
