"""Independent reference computations that pin the expected test values.

Everything here is written from first principles and does not import the
package under test: moments come from adaptive quadrature of explicit
densities, the distance index from exhaustive permutation enumeration, and
the classical estimators (FOBI, JADE) from the textbook eigendecomposition /
Givens-rotation recipes using ``numpy.linalg`` directly.  Test modules either
call these routines as the second route of a dual-route check or freeze
numbers produced by running this file as a script:

    python tests/oracles.py
"""

import itertools
import math

import numpy as np
from scipy import integrate


# ---------------------------------------------------------------------------
# standardized densities (analytic closed forms)
# ---------------------------------------------------------------------------

def gamma_density_std(shape):
    """Density of a standardized (zero mean, unit variance) Gamma(shape) law.

    If x ~ Gamma(shape, 1) then z = (x - shape)/sqrt(shape); support is
    z > -sqrt(shape).
    """
    s = math.sqrt(shape)
    lognorm = math.lgamma(shape)

    def pdf(z):
        x = shape + z * s
        if x <= 0.0:
            return 0.0
        return s * math.exp((shape - 1.0) * math.log(x) - x - lognorm)

    return pdf


def ep_density_std(alpha):
    """Density of the standardized exponential-power law, f ∝ exp(-k2*|z|^a).

    The scale constant k2 is pinned by the unit-variance requirement
    k2^(2/a) = Gamma(3/a)/Gamma(1/a); the normalizer is then
    k1 = a * k2^(1/a) / (2*Gamma(1/a)).
    """
    log_k2 = (alpha / 2.0) * (math.lgamma(3.0 / alpha) - math.lgamma(1.0 / alpha))
    k2 = math.exp(log_k2)
    k1 = alpha * math.exp(log_k2 / alpha) / (2.0 * math.exp(math.lgamma(1.0 / alpha)))

    def pdf(z):
        return k1 * math.exp(-k2 * abs(z) ** alpha)

    return pdf


def mixture_density_std(pi, mu):
    """Density of the standardized two-component Gaussian location mixture.

    Raw law: N(0,1) w.p. pi, N(mu,1) w.p. 1-pi; standardized by its own
    mean m = (1-pi)*mu and variance s^2 = 1 + pi*(1-pi)*mu^2.
    """
    m = (1.0 - pi) * mu
    s = math.sqrt(1.0 + pi * (1.0 - pi) * mu * mu)

    def phi(t):
        return math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)

    def pdf(z):
        x = s * z + m
        return s * (pi * phi(x) + (1.0 - pi) * phi(x - mu))

    return pdf


def normal_density(z):
    return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def quad_profile(pdf, lo=-np.inf, hi=np.inf, singular_at=None):
    """Moment sextet (gamma, beta, kappa, nu, omega, eta) by quadrature.

    Integrates z^r * pdf(z) for r = 1..6 adaptively and assembles the same
    shorthand moments the analytic formulas produce.  `singular_at` marks a
    support endpoint or kink the integrator should split on.
    """
    pts = [singular_at] if singular_at is not None else None

    def moment(r):
        val, err = integrate.quad(
            lambda z: (z ** r) * pdf(z), lo, hi,
            points=pts if (np.isfinite(lo) and np.isfinite(hi)) else None,
            limit=400, epsabs=1e-12, epsrel=1e-12,
        )
        return val

    # sanity: unit mass, zero mean, unit variance
    mass, _ = integrate.quad(pdf, lo, hi, limit=400, epsabs=1e-12, epsrel=1e-12)
    m1, m2 = moment(1), moment(2)
    assert abs(mass - 1.0) < 1e-8, mass
    assert abs(m1) < 1e-8, m1
    assert abs(m2 - 1.0) < 1e-8, m2

    m3, m4, m5, m6 = moment(3), moment(4), moment(5), moment(6)
    return {
        "gamma": m3,
        "beta": m4,
        "kappa": m4 - 3.0,
        "nu": m4 - 1.0,
        "omega": m6 - m3 * m3,
        "eta": m5 - m3,
    }


# ---------------------------------------------------------------------------
# special-case asymptotic variances (single-cumulant collapses, hand-coded)
# ---------------------------------------------------------------------------
# These code the alpha = 1 and alpha = 0 limits directly in their collapsed
# algebraic forms, so the general-alpha implementation can be cross-checked
# against an independently derived expression.

def defl_offdiag_skew_only(pk):
    return (pk["nu"] - pk["gamma"] ** 2) / pk["gamma"] ** 2


def defl_offdiag_kurt_only(pk):
    return (pk["omega"] - pk["beta"] ** 2) / pk["kappa"] ** 2


def sym_offdiag_skew_only(pk, pl):
    z11 = (pk["gamma"] ** 2 * (pk["nu"] - pk["gamma"] ** 2)
           + pl["gamma"] ** 2 * (pl["nu"] - pl["gamma"] ** 2)
           + pl["gamma"] ** 4)
    return z11 / (pk["gamma"] ** 2 + pl["gamma"] ** 2) ** 2


def sym_offdiag_kurt_only(pk, pl):
    z22 = (pk["kappa"] ** 2 * (pk["omega"] - pk["beta"] ** 2)
           + pl["kappa"] ** 2 * (pl["omega"] - pl["beta"] ** 2)
           + pl["kappa"] ** 4)
    return z22 / (pk["kappa"] ** 2 + pl["kappa"] ** 2) ** 2


def comp_offdiag_skew_only(pk, pl, p):
    z11 = ((pk["nu"] - pk["gamma"] ** 2) + (pl["nu"] - pl["gamma"] ** 2)
           + pl["gamma"] ** 2 + (p - 2))
    return z11 / (pk["gamma"] - pl["gamma"]) ** 2


def comp_offdiag_kurt_only(pk, pl, rest):
    """alpha = 0 compound collapse; `rest` are the other p-2 profiles."""
    z22 = ((pk["omega"] - pk["beta"] ** 2) + (pl["omega"] - pl["beta"] ** 2)
           + pl["kappa"] ** 2 + sum(pm["beta"] - 1.0 for pm in rest))
    return z22 / (pk["kappa"] - pl["kappa"]) ** 2


def diag_law(pk):
    return (pk["kappa"] + 2.0) / 4.0


# ---------------------------------------------------------------------------
# exhaustive minimum-distance index
# ---------------------------------------------------------------------------

def mdi_bruteforce(W, Omega):
    """Minimum-distance index by enumerating all row permutations.

    For each permutation the per-row scale (sign included, since the scale is
    free over the reals) has the closed least-squares form; the assignment
    step of the production implementation is replaced by brute force.
    """
    G = np.asarray(W) @ np.asarray(Omega)
    p = G.shape[0]
    best = np.inf
    for perm in itertools.permutations(range(p)):
        cost = 0.0
        for i, j in enumerate(perm):
            g = G[j]  # row j of G goes to slot i
            c = g[i] / (g @ g)
            cost += (c * g[i] - 1.0) ** 2 + c * c * (g @ g) - c * c * g[i] ** 2
        best = min(best, cost)
    return math.sqrt(best / (p - 1))


# ---------------------------------------------------------------------------
# per-slice cumulant matrices (the reference for the stacked builds)
# ---------------------------------------------------------------------------

def cum3_matrix(X, i):
    """Third-cumulant matrix ``E[x_i * x x^T]`` of zero-mean data,
    symmetrized."""
    X = np.asarray(X, dtype=float)
    M = (X * X[:, [i]]).T @ X / X.shape[0]
    return (M + M.T) / 2.0


def cum4_matrix(X, i, j):
    """Fourth-cumulant matrix of zero-mean data, symmetrized, with the
    Gaussian part taken from the *sample* covariance S:

        C[i,j] = E[x_i x_j x x^T] - S[i,j] S - S[:,i] S[:,j]^T
                 - S[:,j] S[:,i]^T
    """
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    S = (X.T @ X) / n
    M = (X * (X[:, [i]] * X[:, [j]])).T @ X / n
    M = M - S[i, j] * S - np.outer(S[:, i], S[:, j]) - np.outer(S[:, j], S[:, i])
    return (M + M.T) / 2.0


# ---------------------------------------------------------------------------
# classical FOBI and JADE, coded the textbook way with numpy.linalg
# ---------------------------------------------------------------------------

def classical_fobi(X):
    """FOBI: eigendecomposition of the sample fourth-moment matrix."""
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    Xc = X - X.mean(axis=0)
    S = Xc.T @ Xc / n
    w, V = np.linalg.eigh(S)
    G = V @ np.diag(1.0 / np.sqrt(w)) @ V.T
    Y = Xc @ G
    B = (Y * (Y * Y).sum(axis=1)[:, None]).T @ Y / n
    wb, Vb = np.linalg.eigh(B)
    order = np.argsort(wb)[::-1]
    return Vb[:, order].T @ G


def classical_jade(X):
    """JADE with the full set of parallelized fourth-cumulant matrices.

    Whitening and rotation use numpy.linalg; the Givens sweep follows the
    Cardoso/Souloumiac closed-form angle.
    """
    X = np.asarray(X, dtype=float)
    n, p = X.shape
    Xc = X - X.mean(axis=0)
    S = Xc.T @ Xc / n
    w, V = np.linalg.eigh(S)
    G = V @ np.diag(1.0 / np.sqrt(w)) @ V.T
    Y = Xc @ G

    Shat = Y.T @ Y / n
    mats = []
    for i in range(p):
        for j in range(p):
            M = (Y * (Y[:, i] * Y[:, j])[:, None]).T @ Y / n
            M -= Shat[i, j] * Shat
            M -= np.outer(Shat[:, i], Shat[:, j])
            M -= np.outer(Shat[:, j], Shat[:, i])
            mats.append(0.5 * (M + M.T))
    A = np.stack(mats)

    U = np.eye(p)
    for _ in range(100):
        biggest = 0.0
        for k in range(p - 1):
            for l in range(k + 1, p):
                h1 = A[:, k, k] - A[:, l, l]
                h2 = A[:, k, l] + A[:, l, k]
                ton = h1 @ h1 - h2 @ h2
                toff = 2.0 * (h1 @ h2)
                theta = 0.5 * math.atan2(toff, ton + math.hypot(ton, toff))
                biggest = max(biggest, abs(theta))
                if abs(theta) < 1e-12:
                    continue
                c, s = math.cos(theta), math.sin(theta)
                rk = c * A[:, k, :] + s * A[:, l, :]
                rl = -s * A[:, k, :] + c * A[:, l, :]
                A[:, k, :], A[:, l, :] = rk, rl
                ck = c * A[:, :, k] + s * A[:, :, l]
                cl = -s * A[:, :, k] + c * A[:, :, l]
                A[:, :, k], A[:, :, l] = ck, cl
                uk = c * U[k, :] + s * U[l, :]
                ul = -s * U[k, :] + c * U[l, :]
                U[k, :], U[l, :] = uk, ul
        if biggest < 1e-12:
            break
    return U @ G


def align_to(W, target):
    """Best signed-permutation alignment of W's rows to `target`'s rows."""
    W = np.asarray(W)
    p = W.shape[0]
    T = np.asarray(target)
    overlap = np.abs(W @ T.T)  # overlap[j, i]: row j of W vs row i of target
    best, best_perm = -np.inf, None
    for perm in itertools.permutations(range(p)):
        val = sum(overlap[j, i] for i, j in enumerate(perm))
        if val > best:
            best, best_perm = val, perm
    rows = []
    for i, j in enumerate(best_perm):
        sgn = 1.0 if (W[j] @ T[i]) >= 0 else -1.0
        rows.append(sgn * W[j])
    return np.stack(rows)


# ---------------------------------------------------------------------------
# frozen-value table
# ---------------------------------------------------------------------------

def _main():
    np.set_printoptions(precision=15)

    print("== standardized moment profiles by quadrature ==")
    for label, pdf, lo, hi in [
        ("gamma(1)", gamma_density_std(1.0), -1.0, np.inf),
        ("gamma(2)", gamma_density_std(2.0), -math.sqrt(2.0), np.inf),
        ("gamma(4)", gamma_density_std(4.0), -2.0, np.inf),
        ("ep(1)", ep_density_std(1.0), -np.inf, np.inf),
        ("ep(4)", ep_density_std(4.0), -np.inf, np.inf),
        ("mix(0.3,5)", mixture_density_std(0.3, 5.0), -np.inf, np.inf),
        ("mix(0.5,3)", mixture_density_std(0.5, 3.0), -np.inf, np.inf),
        ("mix((3-sqrt3)/6,4)", mixture_density_std((3.0 - math.sqrt(3.0)) / 6.0, 4.0),
         -np.inf, np.inf),
        ("normal", normal_density, -np.inf, np.inf),
    ]:
        prof = quad_profile(pdf, lo, hi)
        print(f"  {label}: " + ", ".join(f"{k}={v:.15g}" for k, v in prof.items()))

    print("\n== asymptotic-variance spot values (hand formulas on quad moments) ==")
    e1 = quad_profile(gamma_density_std(1.0), -1.0, np.inf)
    print(f"  sym skew-only (exp,exp) offdiag     = {sym_offdiag_skew_only(e1, e1):.15g}")
    print(f"  sym skew-only criterion (k,l)+(l,k) = "
          f"{sym_offdiag_skew_only(e1, e1) * 2:.15g}")
    print(f"  defl skew-only exp (l>k)            = {defl_offdiag_skew_only(e1):.15g}")
    print(f"  defl skew-only exp (l<k)            = {defl_offdiag_skew_only(e1) + 1:.15g}")
    print(f"  diag law exp                        = {diag_law(e1):.15g}")

    uni = {"gamma": 0.0, "beta": 1.8, "kappa": -1.2, "nu": 0.8,
           "omega": 27.0 / 7.0, "eta": 0.0}
    print(f"  compound kurt-only (exp,unif) p=2   = "
          f"{comp_offdiag_kurt_only(e1, uni, []):.15g}")

    print("\n== cluster-identification poles ==")
    pi0 = (3.0 - math.sqrt(3.0)) / 6.0
    print(f"  pi0 = (3-sqrt(3))/6 = {pi0:.17g} = 1/(3+sqrt(3)) = "
          f"{1.0 / (3.0 + math.sqrt(3.0)):.17g}")
    for mu in (2.0, 5.0, 10.0):
        prof = quad_profile(mixture_density_std(pi0, mu))
        print(f"  mix(pi0, {mu}): kappa = {prof['kappa']:.3e} (should be 0)")
    prof = quad_profile(mixture_density_std(0.5, 5.0))
    print(f"  mix(0.5, 5): gamma = {prof['gamma']:.3e} (should be 0)")


if __name__ == "__main__":
    _main()
