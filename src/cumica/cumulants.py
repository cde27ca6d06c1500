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
Taskinen, Nordhausen & Oja 2015).  ``_SourceMoments`` reads them from
the rows, at O(n p k) per rotation of k rows.  They are multilinear in U,
so ``_TensorMoments`` reads them instead from the sample moment tensors
``E[x x x]`` and ``E[x x x x]``, formed once per sample, at O(k p^4)
per rotation whatever n is; JADE works the same way (Cardoso &
Souloumiac 1993).  Both kernels read a stack of rotations in one build,
each rotation independently of the others.  One accumulator,
``_pair_moments``, serves the tensors and the cumulant stacks: it sums
the third and fourth moments of the pair products ``x_i x_j`` over row
blocks, filling each block once.  Every pass over the sample walks the
same row blocks of a fixed number of entries (``_row_blocks``): the pair
moments, the whitening of ``standardize``'s one centered copy in place,
the FOBI and compound scatters, and ``_BlockMoments``, the moments-only
read that ends a diagonalization fit (with ``_high_moments`` for the
compound fit's spectrum check).  Their memory is a few blocks plus
the output whatever n is, and where the sample fits in one block they run
exactly the unblocked operations.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (NonFiniteInput, NotPositiveDefinite, NotUnit,
                     SingularCustomWhitener)
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
    # the one sample-sized copy: centered here, whitened in place below
    Xc = np.subtract(X, mean, order="C")
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
    # a contiguous right operand gives the same product by a faster path;
    # the symmetric whitener is its own transpose
    Gt = np.ascontiguousarray(G.T) if custom else G
    for b in _row_blocks(n, p):
        Xc[b] = Xc[b] @ Gt
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
    if abs(nrm - 1.0) > tol:
        raise NotUnit(f"projection direction has norm {nrm!r}, expected 1")
    mom = _BlockMoments(X, u[None, :])
    return float(mom.h3[0]), float(mom.h4[0])


class _Kernel:
    """Per-row skewness ``h3``, fourth moment ``m4`` and excess kurtosis
    ``h4`` of the candidate sources ``Y = xst @ U.T``, where the rows of
    ``U`` are unit directions, with the index and estimating equations
    they define.  ``U`` is one rotation of k rows, ``(k, p)``, or a stack
    of them, ``(b, k, p)``: every attribute then carries the stack's
    leading axis, and the rotations are read independently of one
    another.  Subclasses compute the moments and ``_equations``."""

    __slots__ = ("U", "h3", "m4", "h4")

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
        T3, T4 = self._equations()
        return ((3.0 * alpha) * (T3 * self.h3[..., None])
                + (4.0 * (1.0 - alpha)) * (T4 * self.h4[..., None]))

    def take(self, i):
        """The moments, not the equations, of rotation(s) ``i`` of a
        stack."""
        part = _Kernel()
        part.U, part.h3, part.m4, part.h4 = (
            self.U[i], self.h3[i], self.m4[i], self.h4[i])
        return part

    def put(self, i, other):
        """Overwrite the moments, not the equations, of rotation ``i`` of a
        stack with those of the one rotation ``other``."""
        self.U[i], self.h3[i], self.m4[i], self.h4[i] = (
            other.U, other.h3, other.m4, other.h4)


def _rowdot(a, b):
    """Dot products along the last axis, each summed as ``a @ b`` sums
    it for one row, so a stack's rotations score as they would alone."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


class _SourceMoments(_Kernel):
    """The moment kernel read from the data.  One rotation keeps ``Y``
    (not its powers), and ``E[y^2 x]`` and ``E[y^3 x]`` cost one more
    pass over it when the gradient is asked for: most one-rotation reads
    never ask (a rejected backtracking candidate, the final read of every
    fit), and building them eagerly made a p = 3 jade fit 6% slower.  A
    stack is read one rotation at a time, with its equations, and keeps
    no ``Y``, so its memory is that of one rotation whatever the stack's
    size."""

    __slots__ = ("xst", "Y", "_T")

    def __init__(self, xst, U):
        self.U, self.xst = U, xst
        if U.ndim == 2:
            # a contiguous right operand gives the same product by a
            # faster path
            self.Y = xst @ np.ascontiguousarray(U.T)
            n = xst.shape[0]
            s3, s4 = _power_sums(self.Y)[1]
            self.h3, self.m4 = s3 / n, s4 / n
            self._T = None
        else:
            self.Y = None
            self.h3, self.m4, T3, T4 = (
                np.array(a) for a in zip(*(_rotation_moments(xst, u)
                                           for u in U)))
            self._T = T3, T4
        self.h4 = self.m4 - 3.0

    def _equations(self):
        if self._T is not None:
            return self._T
        return _row_equations(self.xst, self.Y, self.Y * self.Y)


def _power_sums(Y):
    """``Y^2`` and the column sums of ``Y^3`` and ``Y^4``."""
    Y2 = Y * Y
    # einsum adds the rows without an (n, k) temporary
    return Y2, [np.einsum("ij,ij->j", Y2, Y), np.einsum("ij,ij->j", Y2, Y2)]


def _row_equations(xst, Y, Y2):
    """``E[y^2 x]`` and ``E[y^3 x]`` from ``Y`` and ``Y^2``, which is
    overwritten by ``Y^3``."""
    n = xst.shape[0]
    T3 = Y2.T @ xst / n
    Y2 *= Y
    return T3, Y2.T @ xst / n


def _rotation_moments(xst, U):
    """``h3``, ``m4``, ``E[y^2 x]`` and ``E[y^3 x]`` of one rotation U,
    keeping nothing the size of the sample."""
    n = xst.shape[0]
    Y = xst @ np.ascontiguousarray(U.T)
    Y2, (s3, s4) = _power_sums(Y)
    return (s3 / n, s4 / n, *_row_equations(xst, Y, Y2))


class _BlockMoments:
    """The moments ``h3``, ``m4`` and ``h4`` of the sources ``Y = xst @
    U.T`` of one rotation U, without the estimating equations: the read
    of a fit that needs no more.  The power sums are added over row
    blocks of xst, so no more than a block of Y is held; one block
    (``n p <= _BLOCK_ENTRIES``) runs exactly the operations of
    ``_SourceMoments``."""

    __slots__ = ("U", "n", "h3", "m4", "h4")

    def __init__(self, xst, U):
        self.U = U
        self.n, p = xst.shape
        Ut = np.ascontiguousarray(U.T)
        sums = np.zeros((2, len(U)))
        for b in _row_blocks(self.n, p):
            sums += _power_sums(xst[b] @ Ut)[1]
        self.h3, self.m4 = sums / self.n
        self.h4 = self.m4 - 3.0


def _high_moments(xst, U):
    """The sixth and eighth moments ``m6`` and ``m8`` of the sources ``Y
    = xst @ U.T``, added over row blocks as ``_BlockMoments`` adds the
    third and fourth.  Only the compound fit's spectrum check needs
    them, so the other reads skip their two slow four-way sums."""
    n, p = xst.shape
    Ut = np.ascontiguousarray(U.T)
    sums = np.zeros((2, len(U)))
    for b in _row_blocks(n, p):
        Y2 = xst[b] @ Ut
        Y2 *= Y2
        sums += [np.einsum("ij,ij,ij->j", Y2, Y2, Y2),
                 np.einsum("ij,ij,ij,ij->j", Y2, Y2, Y2, Y2)]
    return sums / n


class _MomentTensors:
    """The third and fourth sample moments of standardized rows in pair
    storage, from one ``_pair_moments`` pass: ``M3[q, a] = E[x_i x_j
    x_a]`` and ``M4[q, r] = E[x_i x_j x_k x_l]`` for the pairs ``q = (i,
    j)``, ``r = (k, l)`` with ``i <= j``, ``k <= l``.  They take
    ``m^2 + m p`` floats, ``m = p(p + 1)/2``, whatever n is."""

    __slots__ = ("M3", "M4", "iu", "ju", "twice", "idx")

    def __init__(self, xst):
        p = xst.shape[1]
        self.M3, self.M4 = _pair_moments(xst, True, True)
        self.iu, self.ju, self.idx, self.twice = _pairs(p)


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

    __slots__ = ("T3", "T4")

    def __init__(self, tensors, U):
        self.U = U
        k, p = U.shape[-2:]
        group = max(1, _GATHER_ENTRIES // (k * p * p))
        if U.ndim == 2 or len(U) <= group:
            self.T3, self.T4 = _tensor_equations(tensors, U)
        else:
            self.T3, self.T4 = (np.concatenate(a) for a in zip(*(
                _tensor_equations(tensors, U[s:s + group])
                for s in range(0, len(U), group))))
        self.h3 = _rowdot(self.T3, U)
        self.m4 = _rowdot(self.T4, U)
        self.h4 = self.m4 - 3.0

    def _equations(self):
        return self.T3, self.T4


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
    <= _BLOCK_ENTRIES``."""
    rows = max(1, _BLOCK_ENTRIES // width)
    return [slice(r0, min(r0 + rows, n)) for r0 in range(0, n, rows)]


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


def _pair_moments(X, third, fourth):
    """Third moments ``Z^T X / n`` (``(m, p)``) if ``third`` and fourth
    moments ``Z^T Z / n`` (``(m, m)``) if ``fourth``, else None, of the
    pair products ``Z[r, q] = X[r, i_q] X[r, j_q]`` over the ``m`` pairs
    ``i <= j`` in row-major order.  Z is never held whole: each block of
    rows is written into one buffer once and its products summed."""
    n, p = X.shape
    m = p * (p + 1) // 2
    blocks = _row_blocks(n, m)
    buf = np.empty((blocks[0].stop if blocks else 0, m))
    acc3 = np.zeros((m, p)) if third else None
    acc4 = np.zeros((m, m)) if fourth else None
    for b in blocks:
        Xb = X[b]
        Zb = buf[:len(Xb)]
        for i in range(p):
            c = i * p - i * (i - 1) // 2
            np.multiply(Xb[:, i:i + 1], Xb[:, i:], out=Zb[:, c:c + p - i])
        if third:
            acc3 += Zb.T @ Xb
        if fourth:
            acc4 += Zb.T @ Zb
    for acc in (acc3, acc4):
        if acc is not None:
            acc /= n
    return acc3, acc4


def _cumulant_stacks(xst, third, fourth):
    """``cum3_stack(xst)`` if ``third`` and ``cum4_stack(xst)[0]`` if
    ``fourth``, else None, from one pass over the pair products."""
    X = _as_xst(xst)
    p = X.shape[1]
    M3, M4 = _pair_moments(X, third, fourth)
    iu, ju, idx, _ = _pairs(p)
    if fourth:
        S = (X.T @ X) / X.shape[0]
        G = S[iu][:, :, None] * S[ju][:, None, :]
        G = G + G.transpose(0, 2, 1)
        G += S[iu, ju][:, None, None] * S
        M4 = M4[:, idx]
        M4 -= G
    return (M3.T[:, idx] if third else None), M4


def cum3_stack(xst):
    """All ``p`` third-cumulant matrices ``E[x_i x x^T]`` as a ``(p, p, p)``
    stack, gathered from the block-summed third moments of the pair
    products (see ``cum4_stack``).  Memory is one block plus the output.
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
    summed over row blocks of a fixed number of entries, and the
    corrections are broadcast over all pairs, so memory is one block plus
    a few arrays of the output's size, whatever n is.
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
