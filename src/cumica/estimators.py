"""The four unmixing-matrix estimators.

Every estimator runs one fit pipeline, ``_fit``: check ``alpha``, center
the data and whiten it to identity sample covariance (by the symmetric
inverse square root, or by the compound estimator's pilot unmixing
matrix), find the rotation of the whitened data with the method's
solver, warn if the objective is degenerate, and put the rows in
canonical form.  ``alpha`` in [0, 1] is the proportion of weight on
squared third cumulants, ``1 - alpha`` on squared fourth cumulants.  The
returned matrix W unmixes the raw data: rows of ``(X - mean(X)) @ W.T``
estimate the independent sources, and ``W Cov(X) W^T = I``.

Methods
-------
deflation_pp
    Rows extracted one at a time by a projected fixed-point iteration.
symmetric_pp
    All rows iterated simultaneously with a polar-decomposition step.
compound_cumulant
    Joint diagonalization of the two compound cumulant matrices after
    standardizing by a root-n-consistent pilot estimator.
all_cumulant
    Joint diagonalization of every third- and fourth-cumulant matrix
    (the JADE family; ``alpha = 0`` is classical JADE).

Fixed-point iterations accept an update only if it does not decrease
the sample objective; when the raw update would, a backtracked ascent
step along the Riemannian gradient is used instead, so the logged
objective history is non-decreasing by construction.  The two
diagonalization methods share one joint-diagonalization step.
"""

import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from .cumulants import (_SourceMoments, compound_matrices, cum3_stack,
                        cum4_stack, fobi_matrix, standardize)
from .errors import (DegenerateObjective, NearDegenerateSpectrum,
                     RankDeficient, _check_alpha)
from .linalg import joint_diagonalize, polar_orthogonal, random_orthogonal, sym_eig

#: Objective floor (times p) below which the estimate cannot be trusted
#: to separate anything; triggers the DegenerateObjective warning.
_DEGENERATE_FLOOR = 1e-3


@dataclass
class SolverOptions:
    """Iteration controls shared by all estimators."""

    tol: float = 1e-9
    max_iter: int = 500
    restarts: int = 10
    seed: int = 0

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError(f"tol must be positive, got {self.tol!r}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter!r}")
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts!r}")


@dataclass
class UnmixingEstimate:
    """Result of one estimator run.

    Attributes
    ----------
    W : (p, p) ndarray
        Unmixing matrix in canonical form (see Notes).
    method : str
    alpha : float
    iterations : list of int
        Per-stage iteration counts: one entry per row for the deflation
        estimator, the winning restart's count for the symmetric one,
        and the sweep count for the diagonalization methods.
    converged : bool
    objective : float
        Final sample objective.
    restarts_used : int
        Number of restarts that ran to completion.
    objective_history : object
        Accepted-iterate objective values: an array for single-loop
        methods, a list of per-row arrays for the deflation estimator.

    Notes
    -----
    Canonical form: rows are ordered by descending sample criterion
    ``alpha * skew^2 + (1 - alpha) * kurt^2`` and each row is signed so
    its skewness estimate is nonnegative when ``alpha > 0`` (falling
    back to making the largest-magnitude entry positive).
    """

    W: np.ndarray
    method: str
    alpha: float
    iterations: list
    converged: bool
    objective: float
    restarts_used: int
    objective_history: object = None


def _fit(method, X, alpha, opts, solve, pilot=None):
    """The fit pipeline of every estimator.  ``solve(xst, alpha, opts)``
    returns the winning (kernel, objective, iterations, converged,
    restarts used, objective history); ``pilot(X, alpha, opts)``, if
    given, supplies a candidate whitener in place of the symmetric one."""
    alpha = _check_alpha(alpha)
    opts = opts or SolverOptions()
    st = standardize(X, whitener="symmetric" if pilot is None
                     else pilot(X, alpha, opts))
    mom, objective, iterations, converged, restarts_used, history = solve(
        st.xst, alpha, opts)
    if objective < _DEGENERATE_FLOOR * st.xst.shape[1]:
        warnings.warn(
            f"best objective {objective:.3e} is below {_DEGENERATE_FLOOR}*p; "
            f"the chosen cumulant weighting carries almost no signal for "
            f"these sources", DegenerateObjective, stacklevel=3)
    return UnmixingEstimate(
        W=_canonical_form(mom, st.whitener, alpha), method=method,
        alpha=alpha, iterations=iterations, converged=converged,
        objective=objective, restarts_used=restarts_used,
        objective_history=history)


def _canonical_form(mom, whitener, alpha):
    """Reorder and re-sign the rows of the rotation behind the moment
    kernel ``mom``, then map through the whitener."""
    keys = alpha * mom.h3 * mom.h3 + (1.0 - alpha) * mom.h4 * mom.h4
    order = np.argsort(-keys, kind="stable")
    W = mom.U[order]
    h3 = mom.h3[order]
    for k in range(W.shape[0]):
        use_skew = alpha > 0.0 and h3[k] != 0.0
        if (h3[k] if use_skew else W[k, np.argmax(np.abs(W[k]))]) < 0.0:
            W[k] = -W[k]
    return W @ whitener


def _sign_blind_row_delta(U_new, U_old):
    """max over rows of min(|row diff|, |row sum|) in the sup norm."""
    diff = np.abs(U_new - U_old).max(axis=1)
    summ = np.abs(U_new + U_old).max(axis=1)
    return float(np.minimum(diff, summ).max())


def _ascend(alpha, xst, U0, opts, step, path):
    """Fixed-point ascent of the objective from the rotation ``U0``.

    ``step(T)`` maps the estimating equations T at the current rotation
    U to the next rotation, or to None where T vanishes.  An update that
    would lower the objective is replaced by the first point of
    ``path(U, T)`` that does not (see ``_backtrack``).  The accepted
    iterate's moment kernel carries into the next step.  Returns
    (obj, kernel, iterations, converged, objective history).
    """
    mom = _SourceMoments(xst, U0)
    obj = mom.objective(alpha)
    hist = [obj]
    converged = False
    iters = 0
    for iters in range(1, opts.max_iter + 1):
        T = mom.gradient(alpha, xst)
        U_new = step(T)
        if U_new is None:
            converged = True  # stationary: the criterion is flat here
            break
        new = _SourceMoments(xst, U_new)
        obj_new = new.objective(alpha)
        if obj_new < obj:
            new, obj_new = _backtrack(alpha, xst, mom, obj, path(mom.U, T))
        delta = _sign_blind_row_delta(new.U, mom.U)
        mom, obj = new, obj_new
        hist.append(obj)
        if delta < opts.tol:
            converged = True
            break
    return obj, mom, iters, converged, np.array(hist)


def _backtrack(alpha, xst, mom, obj, path):
    """Ascent fallback: the kernel of the first ``path(t)``, t = 1, 1/2,
    1/4, ..., whose objective is not below ``obj`` (None points are
    skipped).  Returns the accepted (kernel, obj)."""
    t = 1.0
    for _ in range(60):
        U_c = path(t)
        if U_c is not None:
            cand = _SourceMoments(xst, U_c)
            obj_c = cand.objective(alpha)
            if obj_c >= obj:
                return cand, obj_c
        t *= 0.5
    return mom, obj  # numerically stationary


def _stage_starts(p, opts):
    """Identity plus ``opts.restarts - 1`` random orthogonal matrices
    drawn from ``opts.seed``."""
    rng = np.random.default_rng(opts.seed)
    return [np.eye(p)] + [random_orthogonal(p, rng)
                          for _ in range(opts.restarts - 1)]


def _orthocomplement_vector(prev):
    """Any unit vector orthogonal to the rows of ``prev``."""
    k, p = prev.shape
    # Complete prev's row space to an orthonormal basis and take the
    # first new direction.
    q, _ = np.linalg.qr(np.concatenate([prev, np.eye(p)]).T)
    for j in range(k, p):
        v = q[:, j]
        if np.abs(prev @ v).max() < 1e-8:
            return v / np.linalg.norm(v)
    raise RankDeficient("cannot extend the extracted rows to a basis")


def deflation_pp(X, alpha, opts=None):
    """Deflation-based projection pursuit estimator.

    Rows are found one at a time: row k maximizes the sample criterion
    ``alpha * skew(u)^2 + (1 - alpha) * kurt(u)^2`` over unit vectors u
    orthogonal to the rows already found, by a projected fixed-point
    iteration on the cumulant estimating equation.  Each stage tries an
    identity-derived start plus ``opts.restarts - 1`` random orthogonal
    starts and keeps the largest final criterion (ties favor the
    earliest start).
    """
    return _fit("deflation", X, alpha, opts, _deflation_solve)


def _deflation_solve(xst, alpha, opts):
    p = xst.shape[1]
    starts = _stage_starts(p, opts)
    rows, iterations, histories = [], [], []
    all_converged = True
    for k in range(p):
        prev = np.array(rows) if rows else np.zeros((0, p))

        def project(v):
            return v - prev.T @ (prev @ v) if len(rows) else v

        best = None  # (objective, kernel, iters, converged, history)
        for R in starts:
            u = project(R[k])
            nrm = np.linalg.norm(u)
            u = _orthocomplement_vector(prev) if nrm < 1e-8 else u / nrm
            cand = _ascend(alpha, xst, u[None, :], opts,
                           lambda T: _unit_row(project(T[0])),
                           partial(_sphere_path, project))
            if best is None or cand[0] > best[0]:
                best = cand
        obj, mom, iters, conv, hist = best
        rows.append(mom.U[0])
        iterations.append(iters)
        histories.append(hist)
        all_converged = all_converged and conv

    mom = _SourceMoments(xst, np.array(rows))
    return (mom, mom.objective(alpha), iterations, all_converged,
            opts.restarts, histories)


def _unit_row(v):
    """``v`` normalized as a one-row rotation, or None if it vanishes."""
    nrm = np.linalg.norm(v)
    return (v / nrm)[None, :] if nrm > 1e-300 else None


def _sphere_path(project, U, T):
    """Backtracking path of one deflation stage: along the in-sphere
    gradient, kept orthogonal to the rows already found."""
    u, t_vec = U[0], project(T[0])
    d = t_vec - (u @ t_vec) * u  # tangent component; ascent direction
    return lambda t: _unit_row(project(u + t * d))


def symmetric_pp(X, alpha, opts=None):
    """Symmetric projection pursuit estimator.

    All rows are iterated together: the stacked estimating equations T
    are mapped back to the orthogonal group by the polar decomposition
    ``U = T (T^T T)^{-1/2}``.  The identity start runs first, followed by
    ``opts.restarts - 1`` random orthogonal starts; the largest final
    objective wins, ties resolved toward the earlier start.
    """
    return _fit("symmetric", X, alpha, opts, _symmetric_solve)


def _symmetric_solve(xst, alpha, opts):
    best = None  # (objective, kernel, iters, converged, history)
    failures = 0
    for U0 in _stage_starts(xst.shape[1], opts):
        try:
            cand = _ascend(alpha, xst, U0, opts, _polar_step, _cayley_path)
        except RankDeficient:
            failures += 1
            continue
        if best is None or cand[0] > best[0]:  # ties keep the earlier start
            best = cand
    if best is None:
        raise RankDeficient(
            "estimating equations lost rank in every restart")
    obj, mom, iters, converged, hist = best
    return mom, obj, [iters], converged, opts.restarts - failures, hist


def _polar_step(T):
    return None if np.abs(T).max() < 1e-300 else polar_orthogonal(T)


def _cayley_path(U, T):
    """Backtracking path on the orthogonal group via Cayley steps.

    T is half the Euclidean gradient of the objective at U; the skew
    part of (2T) U^T generates the steepest-ascent rotation flow.
    """
    A = (2.0 * T) @ U.T
    A = A - A.T
    eye = np.eye(U.shape[0])

    def point(t):
        M = (0.5 * t) * A
        try:
            return np.linalg.solve(eye - M, (eye + M) @ U)
        except np.linalg.LinAlgError:
            return None
    return point


def _spectrum_warning(alpha, mom):
    """Warn when the eigenvalue gaps identifying the rotation behind the
    moment kernel ``mom`` are within sampling noise (three standard
    errors) of zero for some pair."""
    n, p = mom.Y.shape
    g, k4, m4 = mom.h3, mom.h4, mom.m4
    Y2 = mom.Y * mom.Y
    var3 = np.einsum("ij,ij,ij->j", Y2, Y2, Y2) / n - g * g
    var4 = np.einsum("ij,ij,ij,ij->j", Y2, Y2, Y2, Y2) / n - m4 * m4
    se3 = np.sqrt(np.maximum(var3, 0.0) / n)
    se4 = np.sqrt(np.maximum(var4, 0.0) / n)
    a, b = np.triu_indices(p, 1)
    gap2 = alpha * (g[a] - g[b]) ** 2 + (1.0 - alpha) * (k4[a] - k4[b]) ** 2
    se2 = (alpha * (se3[a] ** 2 + se3[b] ** 2)
           + (1.0 - alpha) * (se4[a] ** 2 + se4[b] ** 2))
    near = gap2 < 9.0 * se2
    bad = list(zip(a[near].tolist(), b[near].tolist()))
    if bad:
        # reported at the caller of compound_cumulant, which reaches here
        # through _fit and _compound_solve
        warnings.warn(
            f"cumulant spectrum gaps for component pair(s) {bad} are within "
            f"three standard errors of zero; the corresponding rows are not "
            f"reliably identified", NearDegenerateSpectrum, stacklevel=5)


def _joint_diagonalization(xst, stack, weights, opts):
    """The solve of both diagonalization methods: jointly diagonalize
    the positive-weight matrices of ``stack``."""
    mats, w = zip(*((A, w) for A, w in zip(stack, weights) if w > 0.0))
    res = joint_diagonalize(mats, weights=w, tol=min(opts.tol, 1e-10),
                            max_sweeps=max(opts.max_iter, 100))
    return (_SourceMoments(xst, res.U), res.objective, [res.sweeps],
            res.converged, 1, res.objective_history)


def compound_cumulant(X, alpha, opts=None, *, standardizer=None):
    """Compound cumulant-matrix estimator.

    The data are first unmixed by a pilot root-n-consistent estimator
    (the ``standardizer``), then the two compound matrices C3 and C4 are
    formed and the remaining rotation is found by jointly diagonalizing
    them with weights ``alpha`` and ``1 - alpha`` (a single
    eigendecomposition when ``alpha`` is 0 or 1).

    Parameters
    ----------
    standardizer : None, "fobi", "symmetric", or (p, p) array_like
        ``None`` picks "fobi" when ``alpha == 0`` (which reproduces the
        classical kurtosis-scatter estimator) and "symmetric" (the
        symmetric PP estimator with the same alpha) otherwise.
    """
    return _fit("compound", X, alpha, opts, _compound_solve,
                partial(_pilot_unmixing, standardizer))


def _pilot_unmixing(standardizer, X, alpha, opts):
    """The compound estimator's candidate whitener; "fobi" is the
    classical kurtosis-scatter estimator."""
    if standardizer is None:
        standardizer = "fobi" if alpha == 0.0 else "symmetric"
    if not isinstance(standardizer, str):
        return np.asarray(standardizer, dtype=float)
    if standardizer == "fobi":
        st = standardize(X)
        return sym_eig(fobi_matrix(st.xst))[1].T @ st.whitener
    if standardizer == "symmetric":
        return symmetric_pp(X, alpha, opts).W
    raise ValueError(f"unknown standardizer: {standardizer!r}")


def _compound_solve(xst, alpha, opts):
    fit = _joint_diagonalization(xst, compound_matrices(xst),
                                 (alpha, 1.0 - alpha), opts)
    _spectrum_warning(alpha, fit[0])
    return fit


def all_cumulant(X, alpha, opts=None):
    """All-cumulant estimator (JADE family).

    Jointly diagonalizes every third-cumulant matrix (weight ``alpha``)
    and every fourth-cumulant matrix (weight ``1 - alpha``) of the
    standardized data.  ``alpha = 0`` reproduces classical JADE.
    """
    return _fit("all_cumulant", X, alpha, opts, _all_cumulant_solve)


def _all_cumulant_solve(xst, alpha, opts):
    # a stack whose weight is zero is not built
    stack, weights = [], []
    if alpha > 0.0:
        stack.extend(cum3_stack(xst))
        weights.extend([alpha] * xst.shape[1])
    if alpha < 1.0:
        c4, pairs = cum4_stack(xst)
        stack.extend(c4)
        # pairs (i, j) with i < j stand in for both (i, j) and (j, i).
        weights.extend((1.0 - alpha) * (1.0 if i == j else 2.0)
                       for i, j in pairs)
    return _joint_diagonalization(xst, stack, weights, opts)
