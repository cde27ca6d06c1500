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
closed-form optimal Givens angle, applied in cyclic order over index
pairs until the largest |angle| in a sweep falls below the tolerance.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteInput, NotPositiveDefinite, RankDeficient

# Relative eigenvalue/singular-value floor below which a matrix is treated
# as not positive definite / rank deficient.
EIG_FLOOR = 1e-12


def _require_square(A, name):
    """Validate that ``A`` is a finite square matrix."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"{name} must be square, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise NonFiniteInput(f"{name} has non-finite entries")
    return A


def require_symmetric(S, tol=1e-12, name="matrix"):
    """Validate that ``S`` is finite, square and symmetric to relative
    tolerance."""
    S = _require_square(S, name)
    scale = max(1.0, np.abs(S).max()) if S.size else 1.0
    if np.abs(S - S.T).max() > tol * scale:
        raise ValueError(f"{name} is not symmetric (relative tol {tol})")
    return S


def is_orthogonal(U, tol=1e-10):
    U = np.asarray(U, dtype=float)
    return (U.ndim == 2 and U.shape[0] == U.shape[1]
            and np.abs(U @ U.T - np.eye(U.shape[0])).max() <= tol)


def _optimal_angle(h1, h2, weights):
    """Givens angle maximizing the weighted squared-diagonal gain of a pair.

    ``h1[s] = B_s[k,k] - B_s[l,l]`` and ``h2[s] = B_s[k,l] + B_s[l,k]``.
    The rotated difference is cos(2t)*h1 + sin(2t)*h2, so the optimal
    (cos 2t, sin 2t) is the leading eigenvector of the accumulated 2x2
    Gram matrix of (h1, h2); the branch with cos 2t >= 0 keeps |t| <= pi/4.
    """
    g11 = weights @ (h1 * h1)
    g12 = weights @ (h1 * h2)
    g22 = weights @ (h2 * h2)
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


def _rotate_stack(stack, k, l, c, s):
    """Apply B <- R B R^T on every matrix in the stack, in place.

    R is the identity except R[k,k] = R[l,l] = c, R[k,l] = s, R[l,k] = -s.
    """
    new_k = c * stack[:, k, :] + s * stack[:, l, :]
    new_l = c * stack[:, l, :] - s * stack[:, k, :]
    stack[:, k, :] = new_k
    stack[:, l, :] = new_l
    new_k = c * stack[:, :, k] + s * stack[:, :, l]
    new_l = c * stack[:, :, l] - s * stack[:, :, k]
    stack[:, :, k] = new_k
    stack[:, :, l] = new_l


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
    """Jointly diagonalize symmetric matrices by cyclic Jacobi sweeps.

    Maximizes ``sum_s w_s * ||diag(U A_s U^T)||^2`` over orthogonal U using
    plane rotations with the closed-form optimal angle per index pair.  Each
    rotation can only increase the objective, and the weighted total squared
    Frobenius mass is invariant, so the off-diagonal mass decreases
    monotonically.

    Parameters
    ----------
    matrices : sequence of (p, p) arrays or (m, p, p) array
        Symmetric matrices to diagonalize.
    weights : sequence of m nonnegative floats, optional
        Relative weight of each matrix in the objective (default: all one).
    tol : float, optional
        Rotation-angle tolerance: convergence is declared when the largest
        |angle| over a full sweep falls below it.
    max_sweeps : int, optional
        Sweep budget; exhaustion is flagged via ``converged=False``.

    Returns
    -------
    JointDiagResult
    """
    stack = np.array(matrices, dtype=float)  # the one copy, rotated in place
    if stack.ndim != 3 or stack.shape[0] == 0:
        raise ValueError(f"expected a nonempty stack of square matrices, "
                         f"got shape {stack.shape}")
    for i, A in enumerate(stack):
        require_symmetric(A, name=f"matrices[{i}]")
    m, p, _ = stack.shape
    if weights is None:
        w = np.ones(m)
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != (m,):
            raise ValueError(f"expected {m} weights, got shape {w.shape}")
        if (w < 0).any():
            raise ValueError("weights must be nonnegative")

    def objective():
        d = stack.diagonal(axis1=1, axis2=2)
        return float(w @ (d * d).sum(axis=1))

    def mass():
        return float(w @ np.einsum("sij,sij->s", stack, stack))

    U = np.eye(p)
    obj_hist = [objective()]
    mass_hist = [mass()]
    converged = p < 2
    sweeps = 0
    while not converged and sweeps < max_sweeps:
        sweeps += 1
        biggest = 0.0
        for k in range(p - 1):
            for l in range(k + 1, p):
                h1 = stack[:, k, k] - stack[:, l, l]
                h2 = stack[:, k, l] + stack[:, l, k]
                theta = _optimal_angle(h1, h2, w)
                biggest = max(biggest, abs(theta))
                if abs(theta) < tol:
                    continue
                c, s = math.cos(theta), math.sin(theta)
                _rotate_stack(stack, k, l, c, s)
                new_uk = c * U[k, :] + s * U[l, :]
                new_ul = c * U[l, :] - s * U[k, :]
                U[k, :] = new_uk
                U[l, :] = new_ul
        obj_hist.append(objective())
        mass_hist.append(mass())
        if biggest < tol:
            converged = True

    return JointDiagResult(
        U=U,
        sweeps=sweeps,
        converged=converged,
        objective=obj_hist[-1],
        objective_history=np.array(obj_hist),
        mass_history=np.array(mass_hist),
        diagonals=stack.diagonal(axis1=1, axis2=2).copy(),
    )


def sym_eig(S):
    """Eigendecomposition of a symmetric matrix.

    Returns ``(values, vectors)`` with eigenvalues sorted in descending
    order, eigenvectors in the columns of ``vectors``, and each column's
    largest-magnitude entry made positive.
    """
    values, vectors = np.linalg.eigh(require_symmetric(S))
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
    """Orthogonal polar factor U = T (T^T T)^{-1/2}, computed as P Q^T from
    the SVD T = P diag(sv) Q^T.

    Among all orthogonal matrices, U maximizes trace(U T^T).  Requires the
    smallest singular value to exceed ``1e-12`` times the largest.
    """
    P, sv, Qt = np.linalg.svd(_require_square(T, "matrix"))
    if sv[-1] <= EIG_FLOOR * sv[0]:
        raise RankDeficient(
            f"matrix is numerically rank deficient (singular value range "
            f"[{sv[-1]:.3e}, {sv[0]:.3e}])")
    return P @ Qt


def random_orthogonal(p, rng):
    """Haar-ish random orthogonal matrix: QR of a standard Gaussian draw."""
    Z = rng.standard_normal((p, p))
    Q, R = np.linalg.qr(Z)
    return Q * np.sign(np.diag(R))
