"""Asymptotic variances of the unmixing estimators, in closed form.

For each method the limiting distribution of sqrt(n) (What - I) at the
identity mixing is multivariate normal; the tables built here hold the
elementwise asymptotic variances ASV(w_kl).  All methods share the
diagonal law ASV(w_kk) = (kappa_k + 2) / 4; the off-diagonal laws differ
and are driven by per-source zeta statistics combining the moment
profile entries.

The cluster-identification objective ``cluster_objective`` and its
minimizer ``optimal_alpha`` specialize the deflation off-diagonal law to
a two-point normal location mixture, where the interplay of vanishing
skewness (at mixing weight 1/2) and vanishing excess kurtosis (at weight
(3 - sqrt(3))/6) makes the optimal cumulant weighting nontrivial.
"""

import math
from dataclasses import dataclass

import numpy as np

from .distributions import MomentProfile, SourceSpec, moment_profile
from .errors import (IndexOutOfRange, InvalidParams, ZeroDenominator,
                     _check_alpha, _check_real)

#: Relative floor below which a population skewness / excess kurtosis is
#: treated as an exact zero when testing denominators.
_SNAP = 1e-12


@dataclass(frozen=True)
class ZetaTriple:
    """The three quadratic-form coefficients of an ASV numerator."""

    zeta11: float
    zeta22: float
    zeta12: float


@dataclass
class AsvTable:
    """Elementwise asymptotic variances for one method and weight.

    Attributes
    ----------
    method : str
    alpha : float
    diag : (p,) ndarray
        ``diag[k]`` is ASV(w_kk) = (kappa_k + 2) / 4.
    offdiag : (p, p) ndarray
        ``offdiag[k, l]`` is ASV(w_kl) for k != l; the diagonal is 0.
    """

    method: str
    alpha: float
    diag: np.ndarray
    offdiag: np.ndarray


def _as_profiles(profiles):
    """The moment profiles of a sequence of profiles and source specs
    (strings included); anything but a sequence, a str included, raises
    ``InvalidParams``, and a member that is neither ``TypeError``."""
    if isinstance(profiles, str) or not np.iterable(profiles):
        raise InvalidParams(f"expected a sequence of moment profiles or "
                            f"source specs, got {type(profiles).__name__}")
    out = []
    for pr in profiles:
        if isinstance(pr, (str, SourceSpec)):
            pr = moment_profile(pr)
        if not isinstance(pr, MomentProfile):
            raise TypeError(f"expected a MomentProfile or source spec, "
                            f"got {type(pr).__name__}")
        out.append(pr)
    if not out:
        raise InvalidParams("need at least one source profile")
    return out


def _diag_law(prs):
    return np.array([(pr.kappa + 2.0) / 4.0 for pr in prs])


def zeta_deflation(pr):
    """Per-component zetas of the deflation-based off-diagonal law."""
    g, k = pr.gamma, pr.kappa
    return ZetaTriple(
        zeta11=g * g * (pr.nu - g * g),
        zeta22=k * k * (pr.omega - pr.beta * pr.beta),
        zeta12=g * k * (pr.eta - g * pr.beta),
    )


def zeta_pairwise(pk, pl):
    """Pairwise zetas shared by the symmetric and all-cumulant laws.

    Note the asymmetry: the closing terms involve only the second
    profile, so swapping the pair changes the value.
    """
    gk, kk = pk.gamma, pk.kappa
    gl, kl = pl.gamma, pl.kappa
    return ZetaTriple(
        zeta11=gk * gk * (pk.nu - gk * gk)
        + gl * gl * (pl.nu - gl * gl)
        + gl**4,
        zeta22=kk * kk * (pk.omega - pk.beta * pk.beta)
        + kl * kl * (pl.omega - pl.beta * pl.beta)
        + kl**4,
        zeta12=gk * kk * (pk.eta - gk * pk.beta)
        + gl * kl * (pl.eta - gl * pl.beta)
        + gl * gl * kl * kl,
    )


def zeta_compound(pk, pl, others):
    """Pairwise zetas of the compound-matrix law.

    ``others`` are the profiles of the remaining p - 2 components, whose
    moments enter through the trace structure of the compound matrices.
    """
    return ZetaTriple(
        zeta11=(pk.nu - pk.gamma**2) + (pl.nu - pl.gamma**2)
        + pl.gamma**2 + len(others),
        zeta22=(pk.omega - pk.beta**2) + (pl.omega - pl.beta**2)
        + pl.kappa**2 + sum(pm.beta - 1.0 for pm in others),
        zeta12=(pk.eta - pk.gamma * pk.beta) + (pl.eta - pl.gamma * pl.beta)
        + pl.gamma * pl.kappa + sum(pm.gamma for pm in others),
    )


def _quad_num(z, alpha, w1, w2):
    """w1^2 a^2 z11 + w2^2 b^2 z22 + 2 w1 w2 a b z12 for a=alpha, b=1-alpha."""
    a, b = w1 * alpha, w2 * (1.0 - alpha)
    return a * a * z.zeta11 + b * b * z.zeta22 + 2.0 * a * b * z.zeta12


def _deflation_law(pr, alpha):
    """ASV(w_kl), l > k, of the deflation estimator for component profile
    ``pr``; ``math.inf`` where its criterion 3 alpha gamma^2 +
    4 (1 - alpha) kappa^2 vanishes or its square underflows."""
    den2 = (3.0 * alpha * pr.gamma**2 + 4.0 * (1.0 - alpha) * pr.kappa**2)**2
    if den2 == 0.0:
        return math.inf
    return _quad_num(zeta_deflation(pr), alpha, 3.0, 4.0) / den2


def asv_deflation(profiles, alpha):
    """ASV table of the deflation-based projection pursuit estimator.

    The entry (k, l) with l > k depends only on component k's profile;
    with l < k it is the (l, k') formula evaluated at l's profile plus
    one (the extra unit comes from the orthogonalization against the
    already-extracted rows).
    """
    prs = _as_profiles(profiles)
    alpha = _check_alpha(alpha)
    p = len(prs)
    base = [_deflation_law(pr, alpha) for pr in prs]
    # the last component's criterion enters no entry
    bad = tuple(k for k, v in enumerate(base[:-1]) if v == math.inf)
    if bad:
        raise ZeroDenominator(
            f"deflation criterion vanishes for component(s) {list(bad)} at "
            f"alpha={alpha}", components=bad)
    off = np.zeros((p, p))
    for k in range(p):
        for l in range(p):
            if l > k:
                off[k, l] = base[k]
            elif l < k:
                off[k, l] = base[l] + 1.0
    return AsvTable("deflation", alpha, _diag_law(prs), off)


def _pair_table(method, profiles, alpha, what, law):
    """The AsvTable whose entry (k, l), k != l, is num / den2 for
    ``num, den2 = law(prs, k, l, alpha)``; ``what`` names the quantity
    whose vanishing den2 raises ZeroDenominator."""
    prs = _as_profiles(profiles)
    alpha = _check_alpha(alpha)
    p = len(prs)
    off = np.zeros((p, p))
    for k in range(p):
        for l in range(p):
            if l == k:
                continue
            num, den2 = law(prs, k, l, alpha)
            if den2 == 0.0:
                raise ZeroDenominator(
                    f"{what} vanishes for pair ({k}, {l}) at alpha={alpha}",
                    components=(k, l))
            off[k, l] = num / den2
    return AsvTable(method, alpha, _diag_law(prs), off)


def _rotation_law(w1, w2):
    """Pair law of the symmetric (w1, w2) = (3, 4) and all-cumulant
    (1, 1) estimators: skewness weight w1 alpha, kurtosis weight
    w2 (1 - alpha)."""
    def law(prs, k, l, alpha):
        pk, pl = prs[k], prs[l]
        den2 = (w1 * alpha * (pk.gamma**2 + pl.gamma**2)
                + w2 * (1.0 - alpha) * (pk.kappa**2 + pl.kappa**2))**2
        return _quad_num(zeta_pairwise(pk, pl), alpha, w1, w2), den2
    return law


def _compound_law(prs, k, l, alpha):
    """Pair law of the compound estimator, driven by the skewness and
    kurtosis gaps between the two components."""
    pk, pl = prs[k], prs[l]
    d1 = pk.gamma - pl.gamma
    d2 = pk.kappa - pl.kappa
    others = [prs[m] for m in range(len(prs)) if m != k and m != l]
    z = zeta_compound(pk, pl, others)
    a, b = alpha, 1.0 - alpha
    num = (a * a * d1 * d1 * z.zeta11
           + b * b * d2 * d2 * z.zeta22
           + 2.0 * a * b * d1 * d2 * z.zeta12)
    return num, (a * d1 * d1 + b * d2 * d2)**2


def asv_symmetric(profiles, alpha):
    """ASV table of the symmetric projection pursuit estimator."""
    return _pair_table("symmetric", profiles, alpha, "symmetric criterion",
                       _rotation_law(3.0, 4.0))


def asv_compound(profiles, alpha):
    """ASV table of the compound cumulant-matrix estimator.

    The remaining components' moments enter each pair's formula, so the
    model dimension is ``len(profiles)``, at least two.
    """
    table = _pair_table("compound", profiles, alpha, "compound eigenvalue gap",
                        _compound_law)
    if len(table.diag) < 2:
        raise InvalidParams("compound ASV needs at least two components")
    return table


def asv_allcumulant(profiles, alpha):
    """ASV table of the all-cumulant (joint diagonalization) estimator.

    Shares the pairwise zetas with ``asv_symmetric``; the two tables
    coincide exactly under the weight map ``jade_weight_map``.
    """
    return _pair_table("all_cumulant", profiles, alpha,
                       "all-cumulant criterion", _rotation_law(1.0, 1.0))


def jade_weight_map(alpha_j):
    """Map an all-cumulant weight to the equivalent symmetric PP weight.

    ``asv_allcumulant(profiles, a)`` equals
    ``asv_symmetric(profiles, jade_weight_map(a))`` entrywise.
    """
    alpha_j = _check_alpha(alpha_j)
    return 4.0 * alpha_j / (3.0 + alpha_j)


def offdiag_criterion(table, k, l):
    """The pair criterion ASV(w_kl) + ASV(w_lk) from an AsvTable."""
    p = table.offdiag.shape[0]
    for name, i in (("k", k), ("l", l)):
        if not (0 <= i < p):
            raise IndexOutOfRange(f"index {name}={i} out of range for p={p}")
    if k == l:
        raise IndexOutOfRange(f"need two distinct components, got k=l={k}")
    return float(table.offdiag[k, l] + table.offdiag[l, k])


def _snap(value, scale):
    return 0.0 if abs(value) <= _SNAP * scale else value


def _mixture_profile_snapped(pi, mu):
    pi = _check_real("mixing weight", pi)
    mu = _check_real("location shift", mu)
    if not (0.0 < pi < 1.0):
        raise InvalidParams(f"mixing weight must be in (0, 1), got {pi!r}")
    if mu == 0.0 or not math.isfinite(mu):
        raise InvalidParams(f"location shift must be nonzero, got {mu!r}")
    pr = moment_profile(SourceSpec("mix", (pi, mu)))
    # Snap skewness/kurtosis that are zero in exact arithmetic (pi = 1/2,
    # or pi at the kurtosis root) so pole detection is not at the mercy
    # of rounding in the moment recursion.
    gamma = _snap(pr.gamma, max(1.0, math.sqrt(pr.beta)))
    kappa = _snap(pr.kappa, max(1.0, pr.beta))
    return MomentProfile(gamma=gamma, beta=pr.beta, kappa=kappa,
                         nu=pr.nu, omega=pr.omega, eta=pr.eta)


def cluster_objective(alpha, pi, mu):
    """Deflation-law variance f(alpha) for a two-point normal mixture.

    Evaluates the (k, l), l > k off-diagonal deflation formula at the
    standardized mixture pi N(0,1) + (1-pi) N(mu,1).  Where the
    denominator vanishes (the skewness-only weight at pi = 1/2, or the
    kurtosis-only weight at the vanishing-excess-kurtosis weight), the
    variance diverges and ``math.inf`` is returned as a signaled value
    rather than raising.
    """
    alpha = _check_alpha(alpha)
    return _deflation_law(_mixture_profile_snapped(pi, mu), alpha)


def optimal_alpha(pi, mu, grid_tol=1e-3):
    """Global minimizer of ``cluster_objective`` over alpha in [0, 1].

    A dense grid scan (step ``grid_tol``, in [1e-6, 0.5]) locates the
    best bracket, then golden-section refinement narrows it to width
    1e-8.  Plateaus are resolved toward the smallest alpha: a candidate
    replaces the incumbent only on strict relative improvement, so e.g.
    at pi = 1/2 (where f is constant for alpha < 1) the minimizer
    reported is 0.

    Accuracy is about 3e-7, not the bracket width: the refined point
    replaces the grid point only if it lowers f by a relative 1e-12,
    which near a flat minimum it may not (at mu = 2, pi = 0.02 the
    result is 0.85; the true minimizer is 0.8500003).  So a step below
    1e-6 would gain nothing, and is rejected: its grid has over a
    million points, and at 1e-6 the scan already takes seconds.

    Small-pi limit: as pi -> 0 the minimizer tends to 4/5 for every mu,

        alpha* = 4/5 + (2/25) pi mu^2 (mu^2 + 6)
                 - (2/125) pi^2 mu^2 (mu^2 + 6) (2 mu^4 + 12 mu^2 - 5)
                 + O(pi^3),

    so the first-order form has relative error about
    pi (2 mu^4 + 12 mu^2 - 5) / 5 on alpha* - 4/5 (0.4 pi mu^4 for large
    mu; 0.94% at mu = 2, pi = 6.25e-4).  Sketch: from the raw moments of
    the mixture, gamma = -pi mu^3 + O(pi^2) and kappa = pi mu^4 + O(pi^2),
    while nu - gamma^2 -> 2, omega - beta^2 -> 6 and eta - gamma beta =
    O(pi), so zeta11 ~ 2 gamma^2, zeta22 ~ 6 kappa^2 and zeta12 is of
    higher order.  With a = 3 alpha and b = 4 (1 - alpha) mu^2 the objective is
    then proportional to (2 a^2 + 6 b^2 / mu^2) / (a + b)^2, minimized at
    2 a = 6 b / mu^2, i.e. alpha / (1 - alpha) = 4.  The higher terms
    follow by expanding the stationarity condition N' D - 2 N D' = 0 of
    f = N / D^2 in powers of pi about alpha = 4/5 (done symbolically).
    The mu-sensitivity of alpha* therefore grows like pi mu^4: at mu = 2
    the curve already differs from those of larger mu by more than 0.05
    at pi = 0.02.

    Returns
    -------
    (alpha_star, f_star)
    """
    if not (1e-6 <= _check_real("grid_tol", grid_tol) <= 0.5):
        raise InvalidParams(
            f"grid_tol must be in [1e-6, 0.5], got {grid_tol!r}")
    pr = _mixture_profile_snapped(pi, mu)

    def f(alpha):
        return _deflation_law(pr, alpha)

    steps = max(2, round(1.0 / grid_tol))
    grid = np.linspace(0.0, 1.0, steps + 1)
    best_i, best_f = 0, f(grid[0])
    for i in range(1, len(grid)):
        fi = f(grid[i])
        if fi < best_f * (1.0 - 1e-12):
            best_i, best_f = i, fi
    alpha_star = float(grid[best_i])

    lo = float(grid[max(0, best_i - 1)])
    hi = float(grid[min(len(grid) - 1, best_i + 1)])
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > 1e-8:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    refined = 0.5 * (a + b)
    f_refined = f(refined)
    if f_refined < best_f * (1.0 - 1e-12):
        alpha_star, best_f = refined, f_refined
    return float(alpha_star), float(best_f)


def stat_covariance_table(profile_k, profile_l, profile_m):
    """Limiting covariance matrix of the seven moment statistics.

    The statistic vector, in order, is

        (q_kl, q_lk, r_kl, r_lk, q_{m'kl}, r_{mkl}, s_kl)

    for distinct components k, l, m (and m' sharing m's profile), where
    q, r, s are the sqrt(n)-scaled sample fourth, third and second
    cross-moments of the standardized sources.
    """
    pk, pl, pm = _as_profiles((profile_k, profile_l, profile_m))
    C = np.zeros((7, 7))
    upper = {
        (0, 0): pk.omega, (0, 1): pk.beta * pl.beta, (0, 2): pk.eta,
        (0, 3): pk.beta * pl.gamma, (0, 4): pk.beta, (0, 5): 0.0,
        (0, 6): pk.beta,
        (1, 1): pl.omega, (1, 2): pl.beta * pk.gamma, (1, 3): pl.eta,
        (1, 4): pl.beta, (1, 5): 0.0, (1, 6): pl.beta,
        (2, 2): pk.nu, (2, 3): pk.gamma * pl.gamma, (2, 4): pk.gamma,
        (2, 5): 0.0, (2, 6): pk.gamma,
        (3, 3): pl.nu, (3, 4): pl.gamma, (3, 5): 0.0, (3, 6): pl.gamma,
        (4, 4): pm.beta, (4, 5): 0.0, (4, 6): 1.0,
        (5, 5): 1.0, (5, 6): 0.0,
        (6, 6): 1.0,
    }
    for (i, j), v in upper.items():
        C[i, j] = v
        C[j, i] = v
    return C
