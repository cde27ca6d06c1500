"""Sample standardization and third/fourth cumulant statistics.

Everything here works on data matrices with observations in rows.  The
standardization step removes the sample mean and transforms the sample
covariance to the identity; all cumulant statistics are then computed on
the standardized rows.  Sample moments divide by ``n`` throughout (no
small-sample bias corrections), so the statistics are exactly the plug-in
moment estimators that the asymptotic theory describes.

The fixed-point estimators read the candidate sources ``Y = xst @ U.T``
of a rotation U through a moment kernel: their skewness, excess
kurtosis, projection index and estimating equations ``E[y^2 x]`` and
``E[y^3 x]`` (the fixed-point form of Hyvarinen 1999; Miettinen,
Taskinen, Nordhausen & Oja 2015).  ``_RowMoments`` reads them from the
rows, at O(n p k) per rotation of k rows.  They are multilinear in U, so
``_TensorMoments`` reads them instead from the sample moment tensors
``E[x x x]`` and ``E[x x x x]``, formed once per sample, at O(k p^4) per
rotation whatever n is; JADE works the same way (Cardoso & Souloumiac
1993), and ends by reading its rotation from the tensors.  Both kernels
read a stack of rotations in one build, each rotation independently of
the others.  One accumulator, ``_pair_moments``, serves the tensors and
the cumulant stacks, and one pass of it gives a JADE fit both: it writes
each row block of the sample's columns, transposed, below a row of ones
and above the block's pair products ``x_i x_j``, and one matrix product
of the pair rows with that buffer sums their second, third and fourth
moments, so the covariance in the fourth cumulants costs no pass of its
own.  ``generate_ic_sample`` draws column-major samples and
``standardize`` keeps its one centered copy column-major, so those
columns are contiguous, and whitens it in place.  Every pass over the
sample walks the same row blocks of a fixed number of entries
(``_row_blocks``): the pair moments, the whitening, the FOBI and
compound scatters, and ``_row_sums``, the one reader of the rows.  It
reads a rotation once: its kernel read serves ``_RowMoments``, and its
end read gives the compound fit's final rotation its skewness and
kurtosis, and the sixth and eighth moments of its spectrum check.  Their
memory is a few blocks plus the output whatever n is, and where the
sample fits in one block they run exactly the unblocked operations.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (NonFiniteInput, NotPositiveDefinite, NotUnit,
                     SingularCustomWhitener)
from .linalg import _rowdot, inv_sqrt_sym


@dataclass
class StandardizedSample:
    """A centered and whitened data matrix.

    Attributes
    ----------
    xst : (n, p) ndarray
        Standardized observations: ``xst = (x - mean) @ whitener.T``,
        stored column-major.
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
    ``NonFiniteInput``.  So do finite data at a scale where the sample
    covariance overflows (``NonFiniteInput``) or has a subnormal
    diagonal entry (``NotPositiveDefinite``); both name the data's scale.

    Returns
    -------
    StandardizedSample
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] == 0:
        raise ValueError(f"expected a 2-d data matrix with at least one "
                         f"column, got shape {X.shape}")
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
    with np.errstate(over="ignore"):  # then S overflows, and says so
        mean = X.mean(axis=0)
    # a NaN or inf makes its column mean non-finite, so finite data cost
    # no full scan
    if not np.isfinite(mean).all():
        bad = np.argwhere(~np.isfinite(X))
        if len(bad):
            raise NonFiniteInput(
                f"data matrix has non-finite entries ({len(bad)} in all, "
                f"first at row {bad[0][0]}, column {bad[0][1]})")
    # row 1 exists since n > p >= 1; only columns equal there can be
    # constant, so only those are scanned in full
    cand = np.flatnonzero(X[1] == X[0])
    const = cand[(X[:, cand] == X[0, cand]).all(axis=0)]
    if len(const):
        raise NotPositiveDefinite(
            f"sample covariance is singular: column {const[0]} is constant")
    # the one sample-sized copy, column-major: centered here, whitened in
    # place below
    Xc = np.subtract(X, mean, order="F")
    # finite data can still overflow S, or leave it subnormal, where its
    # eigenvalues lose their precision: the checks below name both
    with np.errstate(over="ignore", invalid="ignore"):
        S = (Xc.T @ Xc) / n
    if not np.isfinite(S).all():
        raise NonFiniteInput(
            f"sample covariance overflows: the data reach |x| = "
            f"{np.abs(X).max():.3e}; rescale the data")
    if S.diagonal().min() < np.finfo(float).tiny:
        raise NotPositiveDefinite(
            f"sample covariance is subnormal: the centered data reach only "
            f"|x - mean| = {np.abs(Xc).max():.3e}; rescale the data")

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
    Xt = Xc.T  # contiguous rows, one per variable
    for b in _row_blocks(n, p):
        Xt[:, b] = G @ Xt[:, b]
    return StandardizedSample(xst=Xc, mean=mean, whitener=G)


def _as_xst(xst):
    X = np.asarray(xst, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"expected a 2-d data matrix, got shape {X.shape}")
    return X


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
    # written so that a NaN norm fails too
    if not abs(nrm - 1.0) <= tol:
        raise NotUnit(f"projection direction has norm {nrm!r}, expected 1")
    mom = _RowMoments(X, u[None, :])
    return float(mom.h3[0]), float(mom.h4[0])


class _Kernel:
    """Per-row skewness ``h3``, fourth moment ``m4`` and excess kurtosis
    ``h4`` of the candidate sources ``Y = xst @ U.T``, where the rows of
    ``U`` are unit directions, with the index they define and, where the
    read gave them, the estimating equations ``T3 = E[y^2 x]`` and ``T4 =
    E[y^3 x]``.  ``U`` is one rotation of k rows, ``(k, p)``, or a stack
    of them, ``(b, k, p)``: every attribute then carries the stack's
    leading axis, and the rotations are read independently of one
    another."""

    __slots__ = ("U", "h3", "m4", "h4", "T3", "T4")

    def __init__(self, U, h3, m4, T3=None, T4=None):
        self.U, self.h3, self.m4, self.T3, self.T4 = U, h3, m4, T3, T4
        self.h4 = m4 - 3.0

    def objective(self, alpha):
        """The index ``alpha * sum h3^2 + (1 - alpha) * sum h4^2`` of the
        rotation, or the list of those of a stack's rotations."""
        s3 = _rowdot(self.h3, self.h3).tolist()
        s4 = _rowdot(self.h4, self.h4).tolist()
        if self.U.ndim == 2:
            return alpha * s3 + (1.0 - alpha) * s4
        return [alpha * a + (1.0 - alpha) * b for a, b in zip(s3, s4)]

    def gradient(self, alpha):
        """The stacked estimating equations, one row per source:
        ``T = 3 alpha h3 E[y^2 x] + 4 (1 - alpha) h4 E[y^3 x]``, half the
        Euclidean gradient of the objective at ``U``."""
        return ((3.0 * alpha) * (self.T3 * self.h3[..., None])
                + (4.0 * (1.0 - alpha)) * (self.T4 * self.h4[..., None]))

    def take(self, i):
        """The moments, not the equations, of rotation(s) ``i`` of a
        stack."""
        return _Kernel(self.U[i], self.h3[i], self.m4[i])

    def put(self, i, other):
        """Overwrite the moments, not the equations, of rotation ``i`` of a
        stack with those of the one rotation ``other``."""
        self.U[i], self.h3[i], self.m4[i], self.h4[i] = (
            other.U, other.h3, other.m4, other.h4)


class _RowMoments(_Kernel):
    """The moment kernel read from the rows by ``_row_sums``, one
    rotation at a time, equations included, so it holds no more than a
    row block of Y whatever n is."""

    __slots__ = ()

    def __init__(self, xst, U):
        if U.ndim == 2:
            sums = _row_sums(xst, U)
        else:
            sums = (np.array(a) for a in zip(*(_row_sums(xst, u) for u in U)))
        super().__init__(U, *sums)


def _row_sums(xst, U, high=False):
    """The kernel read ``[E[y^3], E[y^4], E[y^2 x], E[y^3 x]]`` of the
    sources ``Y = xst @ U.T`` of one rotation U, or with ``high`` the end
    read ``[E[y^3], E[y^4], E[y^6], E[y^8]]``, which gives the compound
    fit's canonical form and spectrum check in one pass.  The sums are
    added over row blocks, so no more than a block of Y and of its
    powers is held; one block (``n p <= _BLOCK_ENTRIES``) runs the
    unblocked operations."""
    n, p = xst.shape
    # a contiguous right operand gives the same product by a faster path
    Ut = np.ascontiguousarray(U.T)
    sums = None
    for b in _row_blocks(n, p):
        Xb = xst[b]
        Y = Xb @ Ut
        Y2 = Y * Y
        # einsum adds the rows without a temporary of the block's size
        part = [np.einsum("ij,ij->j", Y2, Y), np.einsum("ij,ij->j", Y2, Y2)]
        if high:
            part += [np.einsum("ij,ij,ij->j", Y2, Y2, Y2),
                     np.einsum("ij,ij,ij,ij->j", Y2, Y2, Y2, Y2)]
        else:
            part.append(Y2.T @ Xb)
            Y2 *= Y
            part.append(Y2.T @ Xb)
        del Y, Y2  # so the next block's are not formed beside them
        sums = part if sums is None else [a + s for a, s in zip(sums, part)]
    return [a / n for a in sums]


class _MomentTensors:
    """The third and fourth sample moments of standardized rows in pair
    storage, from one ``_pair_moments`` pass: ``M3[q, a] = E[x_i x_j
    x_a]`` and ``M4[q, r] = E[x_i x_j x_k x_l]`` for the pairs ``q = (i,
    j)``, ``r = (k, l)`` with ``i <= j``, ``k <= l``.  They are views
    of that pass's sums, ``m^2 + m p + m`` floats, ``m = p(p + 1)/2``,
    whatever n is."""

    __slots__ = ("M3", "M4", "iu", "ju", "twice", "idx")

    def __init__(self, xst, moments=None):
        """The tensors of ``xst``; ``moments``, if given, are the ``(M3,
        M4)`` of a ``_pair_moments`` pass over it already made."""
        self.M3, self.M4 = moments or _pair_moments(xst)[1:]
        self.iu, self.ju, self.idx, self.twice = _pairs(xst.shape[1])


class _TensorMoments(_Kernel):
    """The moment kernel read from ``_MomentTensors``: the moments are
    multilinear in the rows ``u`` of ``U``, so with ``v_q = u_i u_j`` (or
    ``2 u_i u_j`` for ``i < j``) over the pairs, ``E[y^2 x] = v M3``,
    ``E[y^2 x_a x_b]`` is ``v M4`` at the pair ``(a, b)``, and
    ``E[y^3 x] = E[y^2 x x^T] u``.  ``h3`` and ``m4`` are these dotted
    with ``u``, so the estimating equations come with the moments.  A
    build costs O(k p^4) per rotation of k rows, whatever n is.  A stack
    is read in groups of rotations whose ``(k, p, p)`` gathers hold at
    most ``_GATHER_ENTRIES`` entries together, so a large fit's batch of
    restarts needs no more memory than one restart."""

    __slots__ = ()

    def __init__(self, tensors, U):
        k, p = U.shape[-2:]
        group = max(1, _GATHER_ENTRIES // (k * p * p))
        if U.ndim == 2 or len(U) <= group:
            T3, T4 = _tensor_equations(tensors, U)
        else:
            T3, T4 = (np.concatenate(a) for a in zip(*(
                _tensor_equations(tensors, U[s:s + group])
                for s in range(0, len(U), group))))
        super().__init__(U, _rowdot(T3, U), _rowdot(T4, U), T3, T4)


# The tensor kernel gathers ``E[y^2 x x^T]`` for at most this many
# entries at a time (1 MB, the gather of one rotation at p = 50).
_GATHER_ENTRIES = 1 << 17


def _tensor_equations(t, U):
    """``E[y^2 x]`` and ``E[y^3 x]`` of the rows of U, or of each
    rotation of a stack, from the ``_MomentTensors`` t; each rotation's
    matrix products are its own, so it reads as it would alone."""
    # take() gathers as indexing does, with a quarter of its overhead
    V = U.take(t.iu, axis=-1) * U.take(t.ju, axis=-1) * t.twice
    Q = (V @ t.M4).take(t.idx, axis=-1)
    return V @ t.M3, (Q @ U[..., None])[..., 0]


def compound_matrices(xst):
    """The compound cumulant matrices ``(C3, C4)``: the sums over ``i``
    of the third-cumulant matrices ``cum3_stack(xst)[i]`` and of the
    fourth-cumulant matrices of the pairs ``(i, i)`` in ``cum4_stack``, in
    closed form ``C3 = E[(1^T x) x x^T]`` and ``C4 = fobi_matrix(x) - tr(S) S -
    2 S^2`` (the FOBI scatter minus its Gaussian part; Miettinen,
    Taskinen, Nordhausen & Oja 2015), each symmetrized once."""
    X = _as_xst(xst)
    S = (X.T @ X) / X.shape[0]
    C3 = _scatter(X, lambda Xb: Xb.sum(axis=1))
    C4 = fobi_matrix(X) - np.trace(S) * S - 2.0 * (S @ S)
    return (C3 + C3.T) / 2.0, (C4 + C4.T) / 2.0


# A row block holds this many entries, so its row count depends only on
# n and its width (never on threads, machine or environment) and every
# blocked sum adds its blocks in the same order everywhere.
_BLOCK_ENTRIES = 1 << 18


def _row_blocks(n, width):
    """Slices of n rows in blocks of ``_BLOCK_ENTRIES // width`` rows (at
    least one), so a block of ``width`` columns holds at most
    ``_BLOCK_ENTRIES`` entries; all rows are one block where ``n * width
    <= _BLOCK_ENTRIES``, an empty one where n = 0."""
    rows = max(1, _BLOCK_ENTRIES // width)
    return [slice(r0, min(r0 + rows, n)) for r0 in range(0, max(n, 1), rows)]


@functools.lru_cache(maxsize=None)
def _pairs(p):
    """The pairs ``i <= j`` of p indices in row-major order, as the index
    arrays ``(iu, ju)``, the ``(p, p)`` index of the pair ``(min(a, b),
    max(a, b))`` among them, and their weights (1 for ``i = j``, 2 for
    ``i < j``, which stands for both ``(i, j)`` and ``(j, i)``); read-only,
    and built once per p, since ``np.triu_indices`` costs more than a
    small fit's kernel build."""
    iu, ju = np.triu_indices(p)
    idx = np.empty((p, p), dtype=np.intp)
    idx[iu, ju] = idx[ju, iu] = np.arange(len(iu))
    twice = np.where(iu == ju, 1.0, 2.0)
    for a in (iu, ju, idx, twice):
        a.flags.writeable = False
    return iu, ju, idx, twice


def _pair_moments(X):
    """The means over the rows of X of the pair products ``Z[r, q] = X[r,
    i_q] X[r, j_q]``, over the ``m`` pairs ``i <= j`` in row-major order,
    and of their products with X and with each other: ``S = X^T X / n``
    (``(p, p)``), read from ``Z^T 1 / n`` since the column of the pair
    ``(i, j)`` sums to ``n S[i, j]``, ``M3 = Z^T X / n`` (``(m, p)``) and
    ``M4 = Z^T Z / n`` (``(m, m)``).  Z is never held whole: each block of
    rows is written, transposed, into one buffer ``[1; X^T; Z^T]``, its
    columns of X (contiguous in a column-major sample) below a row of
    ones and above the pair rows filled from them, and one matrix product
    of the pair rows with the whole buffer sums ``Z^T [1 | X | Z]``."""
    n, p = X.shape
    m = p * (p + 1) // 2
    rows = 1 + p + m
    blocks = _row_blocks(n, rows)
    buf = np.empty(rows * blocks[0].stop)
    acc = np.zeros((m, rows))
    for b in blocks:
        B = buf[:rows * (b.stop - b.start)].reshape(rows, -1)
        B[0] = 1.0
        B[1:1 + p] = X[b].T
        Xt, Zt = B[1:1 + p], B[1 + p:]
        for i in range(p):
            c = i * p - i * (i - 1) // 2
            np.multiply(Xt[i], Xt[i:], out=Zt[c:c + p - i])
        acc += Zt @ B.T
    acc /= n
    S = acc[:, 0][_pairs(p)[2]]
    return S, acc[:, 1:1 + p], acc[:, 1 + p:]


def _cumulant_stacks(xst, third, fourth, tensors=False):
    """``cum3_stack(xst)`` if ``third`` and ``cum4_stack(xst)[0]`` if
    ``fourth``, else None, from one pass over the pair products, which
    also gives the covariance of the fourth-cumulant correction; with
    ``tensors``, the ``_MomentTensors`` of that pass follow them."""
    X = _as_xst(xst)
    S, M3, M4 = _pair_moments(X)
    iu, ju, idx, _ = _pairs(X.shape[1])
    c3 = M3.T[:, idx] if third else None
    c4 = None
    if fourth:
        G = S[iu][:, :, None] * S[ju][:, None, :]
        G = G + G.transpose(0, 2, 1)
        G += S[iu, ju][:, None, None] * S
        c4 = M4[:, idx]
        c4 -= G
    if tensors:
        return c3, c4, _MomentTensors(X, (M3, M4))
    return c3, c4


def cum3_stack(xst):
    """All ``p`` third-cumulant matrices ``E[x_i x x^T]`` as a ``(p, p, p)``
    stack, gathered from the block-summed third moments of the pair
    products (see ``cum4_stack``), which come with their fourth moments.
    Memory is one block plus ``m^2 + m p`` floats, ``m = p(p + 1)/2``.
    """
    return _cumulant_stacks(xst, True, False)[0]


def cum4_stack(xst):
    """All distinct fourth-cumulant matrices as a ``(p*(p+1)//2, p, p)`` stack.

    Index pairs ``(i, j)`` with ``i <= j`` are enumerated in row-major
    order and returned alongside the stack.  The m-th matrix is

        C = E[x_i x_j x x^T] - S[i,j] S - S[:,i] S[:,j]^T - S[:,j] S[:,i]^T

    with the Gaussian part from the *sample* covariance S of ``xst`` (not
    the identity), which keeps finite-sample identities exact when the
    input is standardized.  The fourth moments come from the Gram matrix
    ``Z^T Z / n`` of the pair products ``Z[r, (i, j)] = x_ri x_rj``,
    summed over row blocks of a fixed number of entries, and S from the
    column sums of Z in the same product (the column of ``(i, j)`` sums
    to ``n S[i, j]``); the corrections are broadcast over all pairs, so
    memory is one block plus a few arrays of the output's size, whatever
    n is.
    """
    stack = _cumulant_stacks(xst, False, True)[1]
    iu, ju = _pairs(stack.shape[1])[:2]
    return stack, list(zip(iu.tolist(), ju.tolist()))


def fobi_matrix(xst):
    """The kurtosis-weighted scatter ``mean(||x||^2 x x^T)``, summed over
    row blocks."""
    return _scatter(_as_xst(xst), lambda Xb: (Xb * Xb).sum(axis=1))


def _scatter(X, weight):
    """The weighted scatter ``mean(w x x^T)`` of the rows x of X, with the
    weights ``w = weight(Xb)`` of each row block Xb, summed block by block
    so that no temporary is larger than a block."""
    n, p = X.shape
    acc = np.zeros((p, p))
    for b in _row_blocks(n, p):
        Xb = X[b]
        acc += (Xb * weight(Xb)[:, None]).T @ Xb
    acc /= n
    return acc
