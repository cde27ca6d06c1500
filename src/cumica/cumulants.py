"""Sample standardization and third/fourth cumulant statistics.

Everything here works on data matrices with observations in rows.  The
standardization step removes the sample mean and transforms the sample
covariance to the identity; all cumulant statistics are then computed on
the standardized rows.  Sample moments divide by ``n`` throughout (no
small-sample bias corrections), so the statistics are exactly the plug-in
moment estimators that the asymptotic theory describes.

One moment kernel, ``_SourceMoments``, serves every estimator: it forms
the candidate sources ``Y = xst @ U.T`` of a rotation once and yields
their skewness, excess kurtosis, projection index and estimating
equations (the fixed-point form of Hyvarinen 1999).
"""

from dataclasses import dataclass

import numpy as np

from .errors import (IndexOutOfRange, NonFiniteInput, NotPositiveDefinite,
                     NotUnit, SingularCustomWhitener)
from .linalg import inv_sqrt_sym


@dataclass
class StandardizedSample:
    """A centered and whitened data matrix.

    Attributes
    ----------
    xst : (n, p) ndarray
        Standardized observations: ``xst = (x - mean) @ whitener.T``.
    mean : (p,) ndarray
        Sample mean of the raw data.
    whitener : (p, p) ndarray
        The transformation applied after centering.
    """

    xst: np.ndarray
    mean: np.ndarray
    whitener: np.ndarray


def sample_cov(X):
    """Sample covariance with the 1/n convention, after mean removal."""
    X = np.asarray(X, dtype=float)
    Xc = X - X.mean(axis=0)
    return (Xc.T @ Xc) / X.shape[0]


def standardize(X, whitener="symmetric"):
    """Center ``X`` and transform its sample covariance to the identity.

    Parameters
    ----------
    X : (n, p) array_like
        Data matrix, observations in rows.
    whitener : {"symmetric"} or (p, p) array_like
        ``"symmetric"`` uses the unique symmetric inverse square root of
        the sample covariance.  A matrix ``W0`` is taken as a candidate
        whitener supplied by the caller; its rows are rescaled so each
        projection has unit sample variance and the result is polished
        into an exact whitener by a symmetric correction.  When ``W0``
        already whitens the sample, it is returned unchanged up to
        floating-point noise.

    Singular data raise ``NotPositiveDefinite``, which names the cause
    when it is ``n <= p`` or a constant column; NaN or inf entries raise
    ``NonFiniteInput``.

    Returns
    -------
    StandardizedSample
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"expected a 2-d data matrix, got shape {X.shape}")
    n, p = X.shape
    custom = not isinstance(whitener, str)
    if custom:
        W0 = np.asarray(whitener, dtype=float)
        if W0.shape != (p, p):
            raise ValueError(f"whitener must be {p}x{p}, got {W0.shape}")
    elif whitener != "symmetric":
        raise ValueError(f"unknown whitener: {whitener!r}")
    if n <= p:
        raise NotPositiveDefinite(
            f"sample covariance is singular: {n} observations of {p} "
            f"variables (need more observations than variables)")
    mean = X.mean(axis=0)
    # a NaN or inf makes its column mean non-finite, so finite data cost
    # no full scan
    if not np.isfinite(mean).all():
        bad = np.argwhere(~np.isfinite(X))
        if len(bad):
            raise NonFiniteInput(
                f"data matrix has non-finite entries ({len(bad)} in all, "
                f"first at row {bad[0][0]}, column {bad[0][1]})")
    const = np.flatnonzero((X == X[0]).all(axis=0))
    if len(const):
        raise NotPositiveDefinite(
            f"sample covariance is singular: column {const[0]} is constant")
    Xc = X - mean
    S = (Xc.T @ Xc) / n

    if not custom:
        G = inv_sqrt_sym(S)
    else:
        d = np.einsum("ij,jk,ik->i", W0, S, W0)
        if (d <= 0).any() or not np.all(np.isfinite(d)):
            raise SingularCustomWhitener(
                "custom whitener maps the sample covariance to a matrix "
                "with nonpositive diagonal")
        W1 = W0 / np.sqrt(d)[:, None]
        M = W1 @ S @ W1.T
        try:
            G = inv_sqrt_sym((M + M.T) / 2.0) @ W1
        except NotPositiveDefinite as exc:
            raise SingularCustomWhitener(
                "custom whitener is rank deficient on this sample") from exc
    return StandardizedSample(xst=Xc @ G.T, mean=mean, whitener=G)


def _as_xst(xst):
    X = np.asarray(xst, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"expected a 2-d data matrix, got shape {X.shape}")
    return X


def _check_index(i, p, name="i"):
    if not (0 <= i < p):
        raise IndexOutOfRange(f"index {name}={i} out of range for p={p}")


def projection_cumulants(xst, u, tol=1e-10):
    """Skewness and excess kurtosis of the projection ``xst @ u``.

    ``u`` must be unit-norm (the projection of standardized data onto a
    unit vector has unit variance, which the cumulant formulas assume).

    Returns
    -------
    (float, float)
        ``(mean(y**3), mean(y**4) - 3)`` for ``y = xst @ u``.
    """
    X = _as_xst(xst)
    u = np.asarray(u, dtype=float).ravel()
    if u.shape[0] != X.shape[1]:
        raise ValueError(f"u has length {u.shape[0]}, expected {X.shape[1]}")
    nrm = np.linalg.norm(u)
    if abs(nrm - 1.0) > tol:
        raise NotUnit(f"projection direction has norm {nrm!r}, expected 1")
    mom = _SourceMoments(X, u[None, :])
    return float(mom.h3[0]), float(mom.h4[0])


class _SourceMoments:
    """Per-row skewness ``h3``, fourth moment ``m4`` and excess kurtosis
    ``h4`` of the candidate sources ``Y = xst @ U.T``, where the rows of
    ``U`` are unit directions.  Only ``Y`` is kept, not its powers."""

    __slots__ = ("U", "Y", "h3", "m4", "h4")

    def __init__(self, xst, U):
        self.U = U
        self.Y = Y = xst @ U.T
        Y2 = Y * Y
        self.h3 = (Y2 * Y).mean(axis=0)
        self.m4 = (Y2 * Y2).mean(axis=0)
        self.h4 = self.m4 - 3.0

    def objective(self, alpha):
        """The index ``alpha * sum h3^2 + (1 - alpha) * sum h4^2``."""
        h3, h4 = self.h3, self.h4
        return float(alpha * (h3 @ h3) + (1.0 - alpha) * (h4 @ h4))

    def gradient(self, alpha, xst):
        """The stacked estimating equations, one row per source:
        ``T = 3 alpha h3 E[y^2 x] + 4 (1 - alpha) h4 E[y^3 x]``, half the
        Euclidean gradient of the objective at ``U``."""
        n = xst.shape[0]
        Y2 = self.Y * self.Y
        T3 = xst.T @ Y2 / n
        T4 = xst.T @ (Y2 * self.Y) / n
        T = ((3.0 * alpha) * (T3 * self.h3)
             + (4.0 * (1.0 - alpha)) * (T4 * self.h4))
        return T.T


def cum3_matrix(xst, i):
    """Third-cumulant matrix ``E[x_i * x x^T]``, symmetrized.

    For data with zero mean the third moment array is already the third
    cumulant; the slice along coordinate ``i`` is returned.
    """
    X = _as_xst(xst)
    n, p = X.shape
    _check_index(i, p)
    M = (X * X[:, [i]]).T @ X / n
    return (M + M.T) / 2.0


def cum4_matrix(xst, i, j):
    """Fourth-cumulant matrix ``E[x_i x_j x x^T] - corrections``, symmetrized.

    The corrections subtract the Gaussian part using the *sample*
    covariance of ``xst`` (not the identity), which keeps finite-sample
    identities exact when the input is standardized:

        C[i,j] = E[x_i x_j x x^T] - S[i,j] S - S[:,i] S[:,j]^T
                 - S[:,j] S[:,i]^T
    """
    X = _as_xst(xst)
    n, p = X.shape
    _check_index(i, p, "i")
    _check_index(j, p, "j")
    S = (X.T @ X) / n
    M = (X * (X[:, [i]] * X[:, [j]])).T @ X / n
    M = M - S[i, j] * S - np.outer(S[:, i], S[:, j]) - np.outer(S[:, j], S[:, i])
    return (M + M.T) / 2.0


def compound_matrices(xst):
    """The compound cumulant matrices ``(C3, C4)``: the sums over ``i``
    of ``cum3_matrix(xst, i)`` and ``cum4_matrix(xst, i, i)``, in closed
    form ``C3 = E[(1^T x) x x^T]`` and ``C4 = fobi_matrix(x) - tr(S) S -
    2 S^2`` (the FOBI scatter minus its Gaussian part; Miettinen,
    Taskinen, Nordhausen & Oja 2015), each symmetrized once."""
    X = _as_xst(xst)
    n = X.shape[0]
    S = (X.T @ X) / n
    C3 = (X * X.sum(axis=1)[:, None]).T @ X / n
    C4 = fobi_matrix(X) - np.trace(S) * S - 2.0 * (S @ S)
    return (C3 + C3.T) / 2.0, (C4 + C4.T) / 2.0


def cum3_stack(xst):
    """All ``p`` third-cumulant matrices as a ``(p, p, p)`` stack.

    ``stack[i]`` equals ``cum3_matrix(xst, i)``.
    """
    X = _as_xst(xst)
    n, p = X.shape
    T = np.einsum("ri,ra,rb->iab", X, X, X, optimize=True) / n
    return (T + np.swapaxes(T, 1, 2)) / 2.0


def cum4_stack(xst):
    """All distinct fourth-cumulant matrices as a ``(p*(p+1)//2, p, p)`` stack.

    Index pairs ``(i, j)`` with ``i <= j`` are enumerated in row-major
    order; ``stack[m]`` equals ``cum4_matrix(xst, i, j)`` for the m-th
    pair.  The pair list is returned alongside the stack.
    """
    X = _as_xst(xst)
    n, p = X.shape
    S = (X.T @ X) / n
    # Gram trick: the full fourth moment tensor is Z^T Z / n for the
    # row-wise Khatri-Rao product Z[r, (i, j)] = X[r, i] * X[r, j].
    Z = (X[:, :, None] * X[:, None, :]).reshape(n, p * p)
    T = (Z.T @ Z / n).reshape(p, p, p, p)
    pairs = [(i, j) for i in range(p) for j in range(i, p)]
    out = np.empty((len(pairs), p, p))
    for m, (i, j) in enumerate(pairs):
        M = (T[i, j]
             - S[i, j] * S
             - np.outer(S[:, i], S[:, j])
             - np.outer(S[:, j], S[:, i]))
        out[m] = (M + M.T) / 2.0
    return out, pairs


def fobi_matrix(xst):
    """The kurtosis-weighted scatter ``mean(||x||^2 x x^T)``."""
    X = _as_xst(xst)
    n = X.shape[0]
    r2 = (X * X).sum(axis=1)
    return (X * r2[:, None]).T @ X / n
