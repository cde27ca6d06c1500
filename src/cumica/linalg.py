"""Symmetric-matrix and orthogonal-group primitives.

LAPACK backs the eigen and polar primitives: ``sym_eig`` (and the
``inv_sqrt_sym`` built on it) wraps ``numpy.linalg.eigh``, and
``polar_orthogonal`` takes the polar factor from the SVD (Higham 1986).
They share one set of conventions:

* eigenvalues sorted in descending order,
* each eigenvector's largest-magnitude entry made positive,
* a relative floor of ``EIG_FLOOR`` on eigenvalues and singular values.

Jacobi rotations back only ``joint_diagonalize``, which has no LAPACK
equivalent (Cardoso & Souloumiac 1996): plane rotations with the
closed-form optimal Givens angle, swept over the index pairs.  A stack
stops after a sweep that gains at most 16 ulp of its objective (a sweep
whose angles are all below the tolerance turns nothing, so it gains
nothing), or at its sweep budget.  A sweep is a list of
rounds of disjoint pairs, chosen from the stack's shape alone: a stack
of m ``(p, p)`` matrices with p > 3 and ``m p^2`` below
``_ROUND_ENTRIES`` takes round-robin rounds (Brent & Luk 1985), each
turned by one dense p x p rotation in BLAS products; the others take
the cyclic order, one pair a round, turning two rows and two columns.
One loop, ``_jacobi``, rotates a batch of stacks held matrix index last,
``(B, p, p, m)``, so a rotation reads contiguous rows of m entries and
one pass over the rounds serves every stack of the batch, each with its
own angles (the identity below the tolerance) and its own stop;
``joint_diagonalize`` is its batch of one.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (InvalidParams, NonFiniteInput, NotPositiveDefinite,
                     RankDeficient, _check_generator, _check_int,
                     _check_tol, _real_array)

# Relative eigenvalue/singular-value floor below which a matrix is treated
# as not positive definite / rank deficient.
EIG_FLOOR = 1e-12


def _require_square(A):
    """``A`` as a float array, if it is a square matrix of real numbers
    (see ``_real_array``) of at least one row."""
    A = _real_array(A, "a matrix")
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InvalidParams(f"matrix must be square, got shape {A.shape}")
    if not A.size:
        raise InvalidParams(f"matrix must not be empty, got shape {A.shape}")
    return A


# The stack check and the dense Jacobi rotations read their matrices in
# blocks of at most this many entries, so their temporaries stay small
# beside the stack itself.
_CHECK_ENTRIES = 1 << 16
# the reductions as ufunc methods, without the ndarray methods' wrappers
_MAX, _ALL = np.maximum.reduce, np.logical_and.reduce


def _require_symmetric_stack(stack, tol=1e-12, name="matrices[{}]"):
    """Check that every matrix of the ``(m, p, p)`` stack is finite and
    symmetric, each to its own relative scale, vectorized over blocks of
    matrices; the error names the first matrix that fails as ``name``
    formatted with its index."""
    m, p, _ = stack.shape
    rows = max(1, _CHECK_ENTRIES // max(1, p * p))
    for s in range(0, m, rows):
        B = stack[s:s + rows]
        # max(1, max |B|): inf or NaN in a matrix with a non-finite entry
        scale = _MAX(np.abs(B), axis=(1, 2), initial=1.0)
        with np.errstate(invalid="ignore"):  # inf - inf in a non-finite one
            # B - B^T is antisymmetric: its largest entry is its largest
            # magnitude
            asym = _MAX(B - B.transpose(0, 2, 1), axis=(1, 2), initial=0.0)
            # NaN, so false, wherever the scale is not finite
            ok = tol * scale - asym >= 0.0
        if not _ALL(ok):
            i = int(np.argmin(ok))
            what = name.format(s + i)
            if not scale[i] < math.inf:
                raise NonFiniteInput(f"{what} has non-finite entries")
            raise InvalidParams(
                f"{what} is not symmetric (relative tol {tol})")


def is_orthogonal(U, tol=1e-10):
    U = _real_array(U, "a matrix")
    return (U.ndim == 2 and U.shape[0] == U.shape[1]
            and np.abs(U @ U.T - np.eye(U.shape[0])).max() <= tol)


def _optimal_angle(g11, g12, g22):
    """Givens angle maximizing the weighted squared-diagonal gain of a pair.

    With ``h1[s] = B_s[k,k] - B_s[l,l]`` and ``h2[s] = B_s[k,l] + B_s[l,k]``,
    ``g11``, ``g12`` and ``g22`` are the weighted sums of ``h1 * h1``,
    ``h1 * h2`` and ``h2 * h2``.  The rotated difference is cos(2t)*h1 +
    sin(2t)*h2, so the optimal (cos 2t, sin 2t) is the leading eigenvector
    of that 2x2 Gram matrix; the branch with cos 2t >= 0 keeps |t| <= pi/4.
    """
    ton = g11 - g22
    toff = 2.0 * g12
    r = math.hypot(ton, toff)
    if r <= 0.0:
        return 0.0
    x = ton + r
    if math.hypot(x, toff) <= 1e-30 * r:
        # leading eigenvector is (0, 1): equal diagonals, pure off-diagonal
        return math.pi / 4.0
    return 0.5 * math.atan2(toff, x)


def _rotate(stacks, U, k, l, c, s):
    """Apply B <- R B R^T to every matrix of the matrix-last ``(B, p, p,
    m)`` stacks, and U <- R U, in place, where R is the identity except
    R[k,k] = R[l,l] = c, R[k,l] = s, R[l,k] = -s, with each stack's own c
    and s."""
    c2, s2 = c[:, None], s[:, None]
    c3, s3 = c2[..., None], s2[..., None]
    a, b = stacks[:, k], stacks[:, l]
    stacks[:, k], stacks[:, l] = c3 * a + s3 * b, c3 * b - s3 * a
    a, b = stacks[:, :, k], stacks[:, :, l]
    stacks[:, :, k], stacks[:, :, l] = c3 * a + s3 * b, c3 * b - s3 * a
    a, b = U[:, k], U[:, l]
    U[:, k], U[:, l] = c2 * a + s2 * b, c2 * b - s2 * a


# A stack of fewer entries than this, m p^2, takes its sweeps in Brent &
# Luk's round-robin order, a dense p x p rotation per round; a larger one
# takes them in cyclic order, where turning two rows and two columns at a
# time costs less than the dense products.
_ROUND_ENTRIES = 800_000


def _rounds(p, m):
    """A sweep's rounds of disjoint pairs ``k < l`` for a stack of m
    ``(p, p)`` matrices, each as ``(k, l, flat)``: for p <= 3 or a stack
    of ``_ROUND_ENTRIES`` entries or more, the cyclic order (0, 1), (0,
    2), ..., (p - 2, p - 1), one pair a round, with ``flat`` None; else
    ``_round_robin(p)``."""
    if p > 3 and m * p * p < _ROUND_ENTRIES:
        return _round_robin(p)
    return [(k, l, None) for k in range(p - 1) for l in range(k + 1, p)]


@lru_cache(maxsize=None)
def _round_robin(p):
    """A round-robin order of the pairs of p indices (Brent & Luk 1985):
    p - 1 rounds of p/2 disjoint pairs for an even p, p rounds of (p -
    1)/2 for an odd one, which sits one index out of each round.  Each
    round is the index arrays ``(K, L)`` of its pairs and ``flat``, the
    flat indices of ``R[K, K], R[L, L], R[K, L], R[L, K]`` in a ``(p,
    p)`` rotation R."""
    n = p + p % 2  # an odd p plays against index p, which sits out
    ring = list(range(n))
    rounds = []
    for _ in range(n - 1):
        pairs = sorted((min(a, b), max(a, b)) for a, b in
                       zip(ring[:n // 2], ring[::-1]) if max(a, b) < p)
        K, L = np.array(pairs, dtype=np.intp).T
        flat = np.concatenate((K * (p + 1), L * (p + 1), K * p + L, L * p + K))
        for a in (K, L, flat):
            a.flags.writeable = False
        rounds.append((K, L, flat))
        ring = ring[:1] + ring[-1:] + ring[1:-1]  # all but index 0 move on
    return tuple(rounds)


def _turn(stacks, U, R):
    """Apply B <- R B R^T to every matrix of the matrix-last ``(B, p, p,
    m)`` stacks, and U <- R U, in place, with each stack's own ``(p, p)``
    rotation ``R[b]``, by BLAS products over blocks of at most about
    ``_CHECK_ENTRIES`` entries.  A product's shapes depend on p and m
    alone, and each stack's is its own, so no stack's bits depend on the
    others of its batch."""
    B, p, _, m = stacks.shape
    rows = max(1, min(p, _CHECK_ENTRIES // (p * m)))
    group = max(1, _CHECK_ENTRIES // (rows * p * m))
    flat = stacks.reshape(B, p, p * m)  # a view: the stacks are contiguous
    for b in range(0, B, group):
        Rb = R[b:b + group]
        for r in range(0, p, rows):  # R B, on the columns of rows r...
            cols = flat[b:b + group, :, r * m:(r + rows) * m]
            cols[...] = Rb @ cols
        for r in range(0, p, rows):  # then (R B) R^T, on its rows r...
            block = stacks[b:b + group, r:r + rows]
            block[...] = Rb[:, None] @ block
    U[...] = R @ U


def _rowdot(a, b):
    """Dot products along the last axis, each summed as ``a @ b`` sums
    it for one row, so no row's result depends on the others of its
    stack: a rotation scores, and a Jacobi stack (with ``b`` the weights)
    turns, as it would alone."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _objectives(stacks, w):
    """Weighted squared diagonal mass of each matrix-last stack."""
    d = stacks.diagonal(axis1=1, axis2=2)  # (B, m, p)
    return _rowdot(np.multiply(d, d, order="C").sum(axis=-1), w).tolist()


def _masses(stacks, w):
    """Weighted squared Frobenius mass of each matrix-last stack."""
    return _rowdot(np.einsum("bijs,bijs->bs", stacks, stacks), w).tolist()


@dataclass
class JointDiagResult:
    """Outcome of a joint (approximate) diagonalization.

    ``U`` is the orthogonal diagonalizer: U @ A_s @ U.T is as diagonal as
    possible, with ``diagonals[s]`` its diagonal.  After ``sweeps`` sweeps
    the best rotation found is always returned; convergence problems are
    reported through ``converged`` rather than raised.  ``objective``, the
    weighted squared diagonal mass, and the weighted squared Frobenius mass
    are recorded before the first sweep and after each one in
    ``objective_history`` and ``mass_history``, so callers can assert the
    objective never decreases and the rotations conserve the mass.
    """

    U: np.ndarray
    sweeps: int
    converged: bool
    objective: float
    objective_history: np.ndarray
    mass_history: np.ndarray
    diagonals: np.ndarray


def joint_diagonalize(matrices, weights=None, tol=1e-10, max_sweeps=100):
    """Jointly diagonalize symmetric matrices by Jacobi sweeps.

    Maximizes ``sum_s w_s * ||diag(U A_s U^T)||^2`` over orthogonal U using
    plane rotations with the closed-form optimal angle per index pair.  Each
    rotation can only increase the objective, and the weighted total squared
    Frobenius mass is invariant, so the off-diagonal mass decreases
    monotonically.  A sweep visits every index pair once, in rounds of
    disjoint pairs: round-robin rounds, each one dense p x p rotation,
    where p > 3 and the stack holds fewer than ``_ROUND_ENTRIES`` entries
    (``m p^2``), and otherwise the cyclic order, a pair at a time.  This
    is the batch of one of ``_joint_diagonalize_stacks``: the input is
    checked and copied once, matrix index last, and rotated in place
    there.

    Parameters
    ----------
    matrices : sequence of (p, p) arrays or (m, p, p) array
        Symmetric matrices to diagonalize.
    weights : sequence of m nonnegative finite floats, optional
        Relative weight of each matrix in the objective (default: all one).
    tol : float, optional
        Rotation-angle tolerance, positive and finite: an angle below it
        is not turned.  Convergence is declared after a sweep that gains
        at most ``16 * ulp(objective)``, the objective's rounding (a
        sweep whose angles are all below ``tol`` turns nothing, so it
        gains nothing).  Near a degenerate pair the closed-form angle can
        stay above ``tol`` while the objective no longer moves.
    max_sweeps : int, optional
        Sweep budget; exhaustion is flagged via ``converged=False``.

    Returns
    -------
    JointDiagResult

    A bad weight, ``tol`` or ``max_sweeps`` raises ``InvalidParams``;
    matrices with a non-finite entry, or whose weighted squared mass
    overflows, raise ``NonFiniteInput``.
    """
    _check_tol(tol)
    _check_int("max_sweeps", max_sweeps, 0, "a non-negative integer",
               InvalidParams)
    return _joint_diagonalize_stacks([matrices], weights, tol, max_sweeps)[0]


def _joint_diagonalize_stacks(stacks, weights, tol, max_sweeps):
    """``joint_diagonalize`` of each of several stacks of m symmetric
    ``(p, p)`` matrices with the same weights, in one batch: the stacks
    are copied into one matrix-last ``(B, p, p, m)`` array, and each sweep
    visits the rounds of index pairs once for all of them, every stack
    with its own angles.  A stack that converges stops rotating, so each
    one ends as it would alone, to the bit.  Returns one
    ``JointDiagResult`` per stack, in order."""
    # each member checked as it is, so a list of views is not copied
    stacks = [[_real_array(A, "matrices") for A in
               (S if np.iterable(S) else [S])] for S in stacks]
    m = len(stacks[0])
    shape = stacks[0][0].shape if m else ()
    for members in stacks:
        if (len(members) != m or len(shape) != 2 or shape[0] != shape[1]
                or any(A.shape != shape for A in members)):
            raise InvalidParams(f"expected a nonempty stack of square "
                                f"matrices, got {len(members)} of shape "
                                f"{members[-1].shape if members else ()}")
    buf = np.empty((len(stacks), shape[0], shape[0], m))
    for b, members in enumerate(stacks):
        # the one copy, rotated in place
        np.stack(members, axis=-1, out=buf[b])
        _require_symmetric_stack(buf[b].transpose(2, 0, 1))
    if weights is None:
        w = np.ones(m)
    else:
        w = _real_array(weights, "weights")
        if w.shape != (m,):
            raise InvalidParams(f"expected {m} weights, got shape {w.shape}")
        if not np.isfinite(w).all():
            raise InvalidParams(f"weights must be finite, got {w.tolist()}")
        if (w < 0).any():
            raise InvalidParams("weights must be nonnegative")
    return _jacobi(buf, w, tol, max_sweeps)


def _jacobi(stacks, w, tol, max_sweeps):
    """Jacobi sweeps on each matrix-last stack of the ``(B, p, p, m)``
    array, in place, with the weights ``w``.  A sweep is the rounds of
    disjoint index pairs of ``_rounds(p, m)``: a round of one pair turns
    rows and columns k and l (``_rotate``), a round of several turns each
    stack by one p x p rotation (``_turn``).  Each pair's angle is each
    stack's own, from dot products that run per stack; a stack whose
    angle is below ``tol`` turns by ``(c, s) = (1, 0)``, which gives back
    every entry.  A stack stops, converged, after a sweep that gains at
    most ``16 * ulp(objective)``, the objective's rounding (a sweep whose
    angles are all below ``tol`` turns nothing, so it gains nothing), or
    unconverged at ``max_sweeps``.  A stack that stops leaves the batch,
    so no stack's bits depend on the others: the stacks still rotating
    move up in place, so the array ends in no particular order."""
    B, p, _, m = stacks.shape
    U = np.broadcast_to(np.eye(p), (B, p, p)).copy()
    with np.errstate(over="ignore", invalid="ignore"):
        mass_hist = [[x] for x in _masses(stacks, w)]
        obj_hist = [[o] for o in _objectives(stacks, w)]
    for b, (x,) in enumerate(mass_hist):
        if not math.isfinite(x):
            raise NonFiniteInput(
                f"the weighted squared mass of the matrices overflows: they "
                f"reach |a| = {np.abs(stacks[b]).max():.3e}; rescale them")
    results = [None] * B
    live = list(range(B))  # the stack behind each row of the batch
    sweeps = 0

    def finish(i, j, converged):
        results[j] = JointDiagResult(
            U=U[i].copy(), sweeps=sweeps, converged=converged,
            objective=obj_hist[j][-1],
            objective_history=np.array(obj_hist[j]),
            mass_history=np.array(mass_hist[j]),
            diagonals=stacks[i].diagonal().copy())

    if p < 2:
        for i in live:
            finish(i, i, True)
        return results
    rounds = _rounds(p, m)
    while live and sweeps < max_sweeps:
        sweeps += 1
        for k, l, flat in rounds:
            # k and l: one pair's indices, or index arrays of a round's
            h1 = stacks[:, k, k] - stacks[:, l, l]
            h2 = stacks[:, k, l] + stacks[:, l, k]
            g = np.empty((len(live), 3) + h1.shape[1:])
            np.multiply(h1, h1, out=g[:, 0])
            np.multiply(h1, h2, out=g[:, 1])
            np.multiply(h2, h2, out=g[:, 2])
            if flat is None:
                angles = []
                for sums in _rowdot(g, w).tolist():
                    theta = _optimal_angle(*sums)
                    angles.append(theta if abs(theta) >= tol else 0.0)
                if any(angles):
                    _rotate(stacks, U, k, l,
                            np.array([math.cos(t) for t in angles]),
                            np.array([math.sin(t) for t in angles]))
                continue
            entries, turns = [], False
            for row in _rowdot(g, w).tolist():
                angles = [t if abs(t) >= tol else 0.0
                          for t in map(_optimal_angle, *row)]
                turns = turns or any(angles)
                c = [math.cos(t) for t in angles]
                s = [math.sin(t) for t in angles]
                entries.append(c + c + s + [-x for x in s])
            if turns:
                R = np.zeros((len(live), p * p))
                R[:, ::p + 1] = 1.0  # an odd p's index out of the round
                R[:, flat] = entries
                _turn(stacks, U, R.reshape(-1, p, p))
        keep = []
        for i, (j, o, x) in enumerate(zip(live, _objectives(stacks, w),
                                          _masses(stacks, w))):
            # the objective is nonnegative, so its ulp is its rounding
            stop = o - obj_hist[j][-1] <= 16.0 * math.ulp(o)
            obj_hist[j].append(o)
            mass_hist[j].append(x)
            if stop:
                finish(i, j, True)
            else:
                keep.append(i)
        if len(keep) < len(live):
            live = [live[i] for i in keep]
            # the stacks still rotating move to the front, in place, so
            # the batch never holds a second copy of them
            for row, i in enumerate(keep):
                if row < i:
                    stacks[row], U[row] = stacks[i], U[i]
            stacks, U = stacks[:len(keep)], U[:len(keep)]
    for i, j in enumerate(live):  # out of sweeps
        finish(i, j, False)
    return results


def sym_eig(S):
    """Eigendecomposition of a symmetric matrix, checked as
    ``_require_symmetric_stack`` checks a stack of one.

    Returns ``(values, vectors)`` with eigenvalues sorted in descending
    order, eigenvectors in the columns of ``vectors``, and each column's
    largest-magnitude entry made positive.
    """
    S = _require_square(S)
    _require_symmetric_stack(S[None], name="matrix")
    values, vectors = np.linalg.eigh(S)
    values = values[::-1]
    vectors = vectors[:, ::-1]
    flip = vectors[np.abs(vectors).argmax(axis=0), np.arange(len(values))] < 0
    vectors[:, flip] *= -1.0
    return values, vectors


def inv_sqrt_sym(S):
    """Symmetric inverse square root G with G S G = I.

    Raises
    ------
    NotPositiveDefinite
        If any eigenvalue is at or below ``1e-12`` times the largest.
    """
    values, vectors = sym_eig(S)
    if values[0] <= 0.0 or values[-1] <= EIG_FLOOR * values[0]:
        raise NotPositiveDefinite(
            f"matrix is not positive definite (eigenvalue range "
            f"[{values[-1]:.3e}, {values[0]:.3e}])")
    G = (vectors / np.sqrt(values)) @ vectors.T
    return 0.5 * (G + G.T)


def polar_orthogonal(T):
    """Orthogonal polar factor U = T (T^T T)^{-1/2}: ``_polar_step`` on a
    stack of one.

    Among all orthogonal matrices, U maximizes trace(U T^T).  Requires the
    smallest singular value to exceed ``1e-12`` times the largest, and
    raises RankDeficient otherwise.
    """
    T = _require_square(T)
    if not np.isfinite(T).all():
        raise NonFiniteInput("matrix has non-finite entries")
    U = _polar_step(T[None])[0]
    if np.isnan(U[0, 0]):
        raise RankDeficient(
            f"matrix is numerically rank deficient (smallest singular "
            f"value at or below {EIG_FLOOR} times the largest)")
    return U


def _polar_step(T):
    """The polar factor P Q^T of each T = P diag(sv) Q^T of the stack,
    from one SVD call, which factors each T as it would alone.  A T whose
    smallest singular value is at or below ``EIG_FLOOR`` times its
    largest, one that vanishes included, has no factor: it reads NaN.
    This is the symmetric fit's fixed-point step, where a NaN loses, and
    the fit backtracks along the gradient or finds the objective
    stationary."""
    P, sv, Qt = np.linalg.svd(T)
    U = P @ Qt
    U[sv[:, -1] <= EIG_FLOOR * sv[:, 0]] = np.nan
    return U


def random_orthogonal(p, rng):
    """Haar-ish random orthogonal matrix: QR of a standard Gaussian draw.
    A ``p`` that is not a positive integer raises ``InvalidParams``, an
    ``rng`` that is not a Generator ``InvalidSpec``."""
    p = _check_int("p", p, 1, error=InvalidParams)
    _check_generator("rng", rng)
    Z = rng.standard_normal((p, p))
    Q, R = np.linalg.qr(Z)
    return Q * np.sign(np.diag(R))
