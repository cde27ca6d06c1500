"""Source distributions: parsing, exact moments, and sampling.

Every source is standardized to zero mean and unit variance.  The moment
profile collects the six population quantities that drive the asymptotic
variance formulas:

    gamma = E z^3              (skewness)
    beta  = E z^4              (fourth moment)
    kappa = beta - 3           (excess kurtosis)
    nu    = beta - 1
    omega = E z^6 - gamma^2
    eta   = E z^5 - gamma

Supported families (with their spec strings):

    ``gamma:A``    gamma distribution with shape ``A``, standardized
    ``ep:A``       exponential power (generalized normal) with exponent ``A``
    ``mix:PI:MU``  two-point location mixture of normals,
                   ``PI N(0,1) + (1-PI) N(MU,1)``, standardized
    ``normal``     standard normal
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpec, _check_generator, _check_int


@dataclass(frozen=True)
class MomentProfile:
    """Population moments of a standardized source."""

    gamma: float
    beta: float
    kappa: float
    nu: float
    omega: float
    eta: float


@dataclass(frozen=True)
class SourceSpec:
    """A source distribution, checked when it is built, parsed or not.

    Attributes
    ----------
    family : str
        One of ``"gamma"``, ``"ep"``, ``"mix"``, ``"normal"``.
    params : tuple of float
        Family parameters (empty for ``"normal"``), coerced to floats
        (from numbers or their strings).
    """

    family: str
    params: tuple

    def __post_init__(self):
        if isinstance(self.params, str):  # else read character by character
            raise InvalidSpec(f"source spec parameters must be a sequence, "
                              f"got the string {self.params!r}")
        try:
            params = tuple(float(v) for v in self.params)
        except (TypeError, ValueError):
            raw = self.params if np.iterable(self.params) else [self.params]
            text = ":".join(map(str, [self.family, *raw]))
            raise InvalidSpec(f"non-numeric parameter in source spec "
                              f"{text!r}") from None
        object.__setattr__(self, "params", params)
        family = self.family
        if family not in ("normal", "gamma", "ep", "mix"):
            raise InvalidSpec(f"unknown source family {family!r}")
        if not all(math.isfinite(v) for v in params):
            raise InvalidSpec(f"non-finite parameter in source spec "
                              f"{str(self)!r}")
        if family == "normal":
            if params:
                raise InvalidSpec("normal takes no parameters")
        elif family == "gamma":
            if len(params) != 1:
                raise InvalidSpec("gamma takes exactly one parameter (shape)")
            if params[0] <= 0:
                raise InvalidSpec(f"gamma shape must be positive, got {params[0]}")
        elif family == "ep":
            if len(params) != 1:
                raise InvalidSpec("ep takes exactly one parameter (exponent)")
            if params[0] <= 0:
                raise InvalidSpec(f"ep exponent must be positive, got {params[0]}")
        else:  # mix
            if len(params) != 2:
                raise InvalidSpec("mix takes exactly two parameters (pi, mu)")
            if not (0.0 < params[0] < 1.0):
                raise InvalidSpec(f"mix weight must be in (0, 1), got {params[0]}")
            if params[1] == 0.0:
                raise InvalidSpec("mix location shift must be nonzero")

    @staticmethod
    def parse(text):
        """Parse a spec string like ``"gamma:2.0"`` or ``"mix:0.3:5"``;
        the parameters are converted and checked when the spec is built."""
        family, *params = str(text).strip().split(":")
        return SourceSpec(family=family.lower(), params=tuple(params))

    def __str__(self):
        if not self.params:
            return self.family
        return ":".join([self.family] + [repr(float(v)) for v in self.params])


def _as_spec(spec):
    """``spec`` as a ``SourceSpec``: as it is, or parsed from a string;
    anything else raises ``InvalidSpec``."""
    if isinstance(spec, str):
        return SourceSpec.parse(spec)
    if not isinstance(spec, SourceSpec):
        raise InvalidSpec(f"expected a source spec or its string, got "
                          f"{type(spec).__name__}")
    return spec


_NORMAL_MOMENTS = (1.0, 0.0, 1.0, 0.0, 3.0, 0.0, 15.0)  # E N(0,1)^r, r=0..6
# The variance formulas multiply standardized moments up to a total order
# of 16 (the squared fourth-cumulant criterion): with |E z^r| capped at
# _MOMENT_SCALE**r every such product stays below 1e288, a finite float.
_MOMENT_SCALE = 1e18


def _standardized_from_cumulants(kcum):
    """``[E z^0, ..., E z^6]`` of a source with cumulants ``kcum`` =
    ``[k_1, ..., k_6]``, ``k_1 = 0``, standardized to unit variance.

    Uses the cumulant-to-central-moment recursion, which has no
    cancelling terms, so a cumulant of order mu^r stays exact to
    rounding however small mu is.
    """
    m = [1.0]  # central moments m_0, m_1, ...
    for r in range(1, 7):
        total = 0.0
        for j in range(1, r + 1):
            total += math.comb(r - 1, j - 1) * kcum[j - 1] * m[r - j]
        m.append(total)
    sd = math.sqrt(m[2])
    return [1.0] + [m[r] / sd**r for r in range(1, 7)]


def _mix_cumulants(pi, mu):
    """Cumulants k_1..k_6 of ``mix:pi:mu`` about its mean.

    The mixture is mu B + N(0, 1) with B ~ Bernoulli(1 - pi): the
    cumulants of mu B, with v = pi (1 - pi), plus the unit variance of
    the normal part.
    """
    v = (1.0 - pi) * pi
    s = 2.0 * pi - 1.0
    return [0.0, 1.0 + mu * mu * v, mu**3 * v * s, mu**4 * v * (1.0 - 6.0 * v),
            mu**5 * v * s * (1.0 - 12.0 * v),
            mu**6 * v * (1.0 - 30.0 * v + 120.0 * v * v)]


def _standardized_moments(spec):
    """``[E z^0, ..., E z^6]`` of the standardized source ``z``."""
    if spec.family == "normal":
        m = list(_NORMAL_MOMENTS)
    elif spec.family == "gamma":
        (shape,) = spec.params
        # the cumulants of gamma(shape) are k_r = shape * (r-1)!
        m = _standardized_from_cumulants(
            [0.0] + [shape * math.factorial(r - 1) for r in range(2, 7)])
    elif spec.family == "ep":
        (alpha,) = spec.params
        # Standardize by the distribution's own standard deviation; odd
        # moments vanish by symmetry.  In log space so that very peaked
        # shapes are caught as an overflow rather than returning inf.
        m = [1.0, 0.0]
        for r in range(2, 7):
            if r % 2:
                m.append(0.0)
                continue
            log_mr = (math.lgamma((r + 1.0) / alpha)
                      + (r / 2.0 - 1.0) * math.lgamma(1.0 / alpha)
                      - (r / 2.0) * math.lgamma(3.0 / alpha))
            m.append(math.exp(log_mr))
    else:  # mix
        m = _standardized_from_cumulants(_mix_cumulants(*spec.params))
    return m


def moment_profile(spec):
    """Exact moment profile of a parsed (or string) source spec.

    Raises ``InvalidSpec`` when a standardized moment ``E z^r`` exceeds
    ``1e18**r`` or overflows in floating point, or for a ``spec`` that is
    neither a spec nor its string.
    """
    spec = _as_spec(spec)
    try:
        m = _standardized_moments(spec)
        representable = all(abs(m[r]) <= _MOMENT_SCALE**r for r in range(3, 7))
    except ArithmeticError:
        representable = False
    if not representable:
        raise InvalidSpec(
            f"{spec} has standardized moments too large to represent")

    gamma, beta = m[3], m[4]
    kappa = beta - 3.0
    if spec.family == "mix":
        # beta - 3 cancels to rounding noise for a small shift
        kcum = _mix_cumulants(*spec.params)
        kappa = kcum[3] / kcum[1] ** 2
    return MomentProfile(
        gamma=gamma,
        beta=beta,
        kappa=kappa,
        nu=beta - 1.0,
        omega=m[6] - gamma * gamma,
        eta=m[5] - gamma,
    )


def sample_source(spec, n, rng):
    """Draw ``n`` standardized variates from the source.

    Parameters
    ----------
    spec : SourceSpec or str
    n : int
    rng : numpy.random.Generator

    Notes
    -----
    The number and order of generator calls per family is fixed, so a
    given seed reproduces the same sample across runs.  An ``n`` that is
    not a non-negative integer, or an ``rng`` that is not a Generator,
    raises ``InvalidSpec``.
    """
    n = _check_int("n", n, 0)
    _check_generator("rng", rng)
    spec = _as_spec(spec)
    if spec.family == "normal":
        return rng.standard_normal(n)
    if spec.family == "gamma":
        (shape,) = spec.params
        g = rng.gamma(shape, 1.0, size=n)
        return (g - shape) / math.sqrt(shape)
    if spec.family == "ep":
        (alpha,) = spec.params
        # |z| = G^(1/alpha) up to scale, G ~ gamma(1/alpha), with a random
        # sign; the scale makes the variance exactly one.
        g = rng.gamma(1.0 / alpha, 1.0, size=n)
        signs = rng.integers(0, 2, size=n) * 2.0 - 1.0
        scale = math.exp(0.5 * (math.lgamma(1.0 / alpha)
                                - math.lgamma(3.0 / alpha)))
        return signs * g ** (1.0 / alpha) * scale
    pi, mu = spec.params  # mix
    z = rng.standard_normal(n)
    shifted = rng.random(n) >= pi
    mean = (1.0 - pi) * mu
    sd = math.sqrt(1.0 + pi * (1.0 - pi) * mu * mu)
    return (z + np.where(shifted, mu, 0.0) - mean) / sd
