"""The four unmixing-matrix estimators.

Every estimator runs one fit pipeline, ``_fit``: check ``alpha``, center
the data and whiten it to identity sample covariance (by the symmetric
inverse square root, or by the compound estimator's pilot unmixing
matrix), find the rotation of the whitened data with the method's
solver, and end in ``_estimate``: warn if the objective is degenerate,
and put the rows in canonical form.  ``alpha`` in [0, 1] is the
proportion of weight on squared third cumulants, ``1 - alpha`` on
squared fourth cumulants.  The returned matrix W unmixes the raw data:
rows of ``(X - mean(X)) @ W.T`` estimate the independent sources, and
``W Cov(X) W^T = I``.

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

Fixed-point iterations step on the estimating equations T less their
Gaussian part, ``T' = T - 12 (1 - alpha) h4 U``: the fourth-cumulant
term becomes ``4 (1 - alpha) h4 (E[y^3 x] - 3 u)``, the Newton form of
FastICA's kurtosis step (Hyvarinen 1999).  The third-cumulant term needs
no such correction, since ``E[2 y] = 0`` on whitened data.  T' differs
from T by a multiple of each row of U, which leaves the Riemannian
gradient unchanged (the skew part of ``T U^T``, or for one row the part
of T orthogonal to u).  So the step stops where the step on T stops, at
the objective's stationary points, wherever ``T' U^T`` is positive
definite: at the population solution, row k of T' is ``(3 alpha
gamma_k^2 + 4 (1 - alpha) kappa_k^2) e_k``.  It reaches them in two to
three times fewer iterations.  All else reads T: the backtracking paths
and their slopes, the acceptance rule and both stop rules.  An update is
accepted only if it does not decrease the sample objective by more than
its rounding; when the raw update would, or does not exist because its
equations lost rank, a backtracked ascent step along the Riemannian
gradient is used instead, so the logged objective history is
non-decreasing up to rounding.  The iterations stop when the rotation
moves less than ``tol``, or when no step along the gradient can gain
more than rounding.  They read the sample through a moment kernel, on
its moment tensors unless n is small against p^3.  A fit's restarts (a
deflation stage's, for that estimator) ascend in lockstep: each
iteration builds one kernel for the rows of every restart still running,
each restart keeps its own rules, and a restart that stops leaves the
batch; the largest finite objective wins, ties going to the earlier
start.  The two diagonalization methods share one Jacobi tolerance and
sweep budget.

A Monte Carlo block's fits run through one loop, ``_fit_each``, which
draws each sample only when its turn comes and keeps a numerical error
in the place of the fit it stopped.  A JADE fit needs its sample only
for one pass that forms the cumulant matrices and moment tensors: the
rotation is found from the matrices and its moments read from the
tensors (Cardoso & Souloumiac 1993).  So ``_all_cumulant_block`` runs
that pass in the loop and rotates the block's matrices in one batch.
"""

import math
import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from .cumulants import (_cumulant_stacks, _MomentTensors, _pairs, _row_sums,
                        _RowMoments, _TensorMoments, compound_matrices,
                        fobi_matrix, standardize)
from .errors import (CumicaError, DegenerateObjective, InvalidParams,
                     NearDegenerateSpectrum, RankDeficient, _check_alpha,
                     _check_int)
from .linalg import (_joint_diagonalize_stacks, _polar_step, _rowdot,
                     joint_diagonalize, random_orthogonal, sym_eig)

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
            raise InvalidParams(f"tol must be positive, got {self.tol!r}")
        for name in ("max_iter", "restarts"):
            _check_int(name, getattr(self, name), 1, error=InvalidParams)
        _check_int("seed", self.seed, 0, "a non-negative integer",
                   InvalidParams)


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
        ``opts.restarts`` for the fixed-point fits, 1 for the others.
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
    return _estimate(method, st.whitener, alpha, *solve(st.xst, alpha, opts))


def _estimate(method, whitener, alpha, mom, objective, iterations, converged,
              restarts_used, history):
    """The end of every fit: warn if the objective is degenerate, and
    put the rows of the rotation behind ``mom`` in canonical form."""
    if objective < _DEGENERATE_FLOOR * len(whitener):
        # reported at the caller of the estimator, through _fit
        warnings.warn(
            f"best objective {objective:.3e} is below {_DEGENERATE_FLOOR}*p; "
            f"the chosen cumulant weighting carries almost no signal for "
            f"these sources", DegenerateObjective, stacklevel=4)
    return UnmixingEstimate(
        W=_canonical_form(mom, whitener, alpha), method=method,
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
    """max over rows of min(|row diff|, |row sum|) in the sup norm, for
    each rotation of a stack."""
    diff = np.abs(U_new - U_old).max(axis=-1)
    summ = np.abs(U_new + U_old).max(axis=-1)
    return np.minimum(diff, summ).max(axis=-1)


def _moment_kernel(xst):
    """The moment kernel ``U -> kernel`` of the fixed-point solvers on the
    standardized sample ``xst``: ``_TensorMoments`` where ``p^3 <= 4 n``,
    ``_RowMoments`` otherwise.  There a tensor build is no slower than a
    pass over the rows (measured at p = 10 to 50: 1.5x faster or more
    for p rows, 1.06x or more for one; below p = 10 both take tens of
    microseconds), and the tensors' ``p^4 / 4`` floats are no more than
    the ``n p`` of the sample itself."""
    n, p = xst.shape
    if p ** 3 <= 4 * n:
        return partial(_TensorMoments, _MomentTensors(xst))
    return partial(_RowMoments, xst)


def _ascend(alpha, kernel, U0, opts, step, path):
    """Fixed-point ascents of the objective from each rotation of the
    ``(b, k, p)`` stack ``U0``, in lockstep: an iteration builds one
    moment kernel for the rows of every rotation still ascending, and
    each rotation keeps the rules it would follow alone.

    ``step(T')`` maps the Newton-form equations ``T' = T - 12 (1 -
    alpha) h4 U`` at the current rotations U to the next rotations, NaN
    where there is no step; T, the stacked estimating equations, is half
    the objective's gradient, and T' has its Riemannian part, so the
    step stops where ``step(T)`` would (see the module docstring).  An
    update that loses more than the objective's rounding, or whose
    objective is not finite, is replaced by the first point of
    ``path(U[i], T[i])`` that does not lose (see ``_backtrack``); a loss
    within rounding is no loss, so rounding never decides which step is
    taken.  A rotation has converged when its sign-blind row delta falls
    below ``opts.tol``, or when no point of its path can gain more than
    rounding; it then leaves the batch, and its moments with it.
    Returns one (obj, moments, iterations, converged, objective history)
    per start, in order.
    """
    runs = [None] * len(U0)
    live = list(range(len(U0)))  # the start of each rotation in the batch
    mom = kernel(U0)
    obj = mom.objective(alpha)
    T = mom.gradient(alpha)
    hists = [[o] for o in obj]
    gauss = 12.0 * (1.0 - alpha)
    for iters in range(1, opts.max_iter + 1):
        # the Newton-form step: T less its Gaussian part
        new = kernel(step(T - gauss * (mom.h4[..., None] * mom.U)))
        obj_new = new.objective(alpha)
        T_new = new.gradient(alpha)  # the next step's, taken once
        moved = []
        for i, (o, o_new) in enumerate(zip(obj, obj_new)):
            # changes within o's rounding are no loss (o >= 0, so ulp is
            # numpy's spacing)
            floor = 16.0 * math.ulp(o)
            ok = o_new >= o - floor
            if not ok:
                back = _backtrack(alpha, kernel, o, floor,
                                  *path(mom.U[i], T[i]))
                if back is None:  # numerically stationary: it ends here
                    runs[live[i]] = (o, mom.take(i), iters, math.isfinite(o),
                                     np.array(hists[i]))
                else:
                    cand, obj_new[i] = back
                    new.put(i, cand)
                    T_new[i] = cand.gradient(alpha)
                    ok = True
            if ok:
                hists[i].append(obj_new[i])
            moved.append(ok)
        done = (_sign_blind_row_delta(new.U, mom.U) < opts.tol).tolist()
        if all(moved) and not any(done):
            mom, obj, T = new, obj_new, T_new
            continue
        keep = []
        for i, (ok, stop) in enumerate(zip(moved, done)):
            keep.append(ok and not stop)
            if ok and stop:
                runs[live[i]] = (obj_new[i], new.take(i), iters, True,
                                 np.array(hists[i]))
        live = [start for start, kept in zip(live, keep) if kept]
        hists = [hist for hist, kept in zip(hists, keep) if kept]
        obj = [o for o, kept in zip(obj_new, keep) if kept]
        if not live:
            break
        mom, T = new.take(keep), T_new[keep]
    else:
        for i, start in enumerate(live):  # out of iterations
            runs[start] = (obj[i], mom.take(i), opts.max_iter, False,
                           np.array(hists[i]))
    return runs


def _backtrack(alpha, kernel, obj, floor, point, slope):
    """Ascent fallback: the kernel and objective of the first
    ``point(t)``, t = 1, 1/2, 1/4, ..., whose objective is not below
    ``obj``.  ``slope`` is the objective's derivative along the path at t
    = 0, so a point is tried only while its first-order gain ``t *
    slope`` exceeds ``floor``, the rounding of ``obj``.  Returns None
    when no such point gains: the objective is numerically stationary."""
    t = 1.0
    for _ in range(60):
        if not t * slope > floor:
            break
        cand = kernel(point(t))
        obj_c = cand.objective(alpha)
        if obj_c >= obj:
            return cand, obj_c
        t *= 0.5
    return None


def _best(runs):
    """The run with the largest objective; a non-finite objective never
    beats a finite one, and ties keep the earlier start."""
    finite = [run for run in runs if math.isfinite(run[0])]
    return max(finite, key=lambda run: run[0]) if finite else runs[0]


def _stage_starts(p, opts):
    """Identity plus ``opts.restarts - 1`` random orthogonal matrices
    drawn from ``opts.seed``, as a ``(restarts, p, p)`` stack."""
    rng = np.random.default_rng(opts.seed)
    return np.array([np.eye(p)] + [random_orthogonal(p, rng)
                                   for _ in range(opts.restarts - 1)])


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
    iteration on the cumulant estimating equation T in its Newton form
    ``T' = T - 12 (1 - alpha) h4 u``: the next u is T', projected and
    normalized.  T' has the part of T orthogonal to u, so the step stops
    where the step on T stops, and it needs two to three times fewer
    iterations to get there.  Each stage tries an identity-derived start
    plus ``opts.restarts - 1`` random orthogonal starts, in lockstep,
    and keeps the largest final criterion (ties favor the earliest
    start).
    """
    return _fit("deflation", X, alpha, opts, _deflation_solve)


def _deflation_solve(xst, alpha, opts):
    p = xst.shape[1]
    kernel = _moment_kernel(xst)
    starts = _stage_starts(p, opts)
    rows, iterations, histories = [], [], []
    all_converged = True
    for k in range(p):
        prev = np.array(rows).reshape(k, p)

        def project(V):
            # rows of V (or one vector) less their part along prev
            return V - (V @ prev.T) @ prev if k else V

        U0 = np.array(project(starts[:, k:k + 1, :]))
        for u in U0:
            nrm = np.linalg.norm(u)
            u[:] = _orthocomplement_vector(prev) if nrm < 1e-8 else u / nrm
        obj, mom, iters, conv, hist = _best(_ascend(
            alpha, kernel, U0, opts, partial(_sphere_step, project),
            partial(_sphere_path, project)))
        rows.append(mom.U[0])
        iterations.append(iters)
        histories.append(hist)
        all_converged = all_converged and conv

    mom = kernel(np.array(rows))
    return (mom, mom.objective(alpha), iterations, all_converged,
            opts.restarts, histories)


def _sphere_step(project, T):
    """The fixed-point steps of a deflation stage: each row of T, kept
    orthogonal to the rows already found, normalized.  A row that
    vanishes has no step: its NaN loses, and the backtrack finds the
    objective stationary."""
    V = project(T)
    nrm = np.sqrt(_rowdot(V, V))[..., None]
    return V / np.where(nrm > 1e-300, nrm, np.nan)


def _sphere_path(project, U, T):
    """Backtracking path of one deflation stage, and its slope: along the
    in-sphere gradient, kept orthogonal to the rows already found."""
    u, t_vec = U[0], project(T[0])
    d = t_vec - (u @ t_vec) * u  # tangent component; ascent direction
    # the gradient is 2 T, and <T, d> = |d|^2 for d tangent and projected;
    # a point that vanishes is NaN, which the backtrack never accepts
    return (lambda t: _sphere_step(project, u + t * d)[None],
            2.0 * (d @ d))


def symmetric_pp(X, alpha, opts=None):
    """Symmetric projection pursuit estimator.

    All rows are iterated together: the stacked estimating equations T,
    in their Newton form ``T' = T - 12 (1 - alpha) diag(h4) U``, are
    mapped back to the orthogonal group by the polar decomposition ``U =
    T' (T'^T T')^{-1/2}``.  ``T' U^T`` differs from ``T U^T`` by a
    diagonal, so it is symmetric where ``T U^T`` is: the step stops
    where the polar step on T stops, and it needs two to three times
    fewer iterations to get there.  The identity start and
    ``opts.restarts - 1`` random orthogonal starts ascend in lockstep;
    the largest final objective wins, ties resolved toward the earlier
    start.
    """
    return _fit("symmetric", X, alpha, opts, _symmetric_solve)


def _symmetric_solve(xst, alpha, opts):
    obj, mom, iters, converged, hist = _best(_ascend(
        alpha, _moment_kernel(xst), _stage_starts(xst.shape[1], opts), opts,
        _polar_step, _cayley_path))
    return mom, obj, [iters], converged, opts.restarts, hist


def _cayley_path(U, T):
    """Backtracking path on the orthogonal group via Cayley steps, and
    its slope.

    T is half the Euclidean gradient of the objective at U; the skew
    part A of (2T) U^T generates the steepest-ascent rotation flow, along
    which the objective grows at ``|A|^2 / 2`` (Frobenius norm).
    """
    A = (2.0 * T) @ U.T
    A = A - A.T
    eye = np.eye(U.shape[0])

    def point(t):
        # never singular: for a skew M, the singular values of I - M
        # are at least 1
        M = (0.5 * t) * A
        return np.linalg.solve(eye - M, (eye + M) @ U)
    return point, 0.5 * float(np.sum(A * A))


def _spectrum_warning(alpha, xst, mom):
    """Warn when the eigenvalue gaps identifying the rotation behind the
    moments ``mom`` (a ``_RowMoments`` read of ``xst``) are within
    sampling noise (three standard errors, from a ``_row_sums`` read of
    the sixth and eighth moments) of zero for some pair."""
    n, p = xst.shape
    g, k4, m4 = mom.h3, mom.h4, mom.m4
    m6, m8 = _row_sums(xst, mom.U, "high")
    var3 = m6 - g * g
    var4 = m8 - m4 * m4
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


def _sweep_limits(opts):
    """The Jacobi tolerance and sweep budget of both diagonalization
    methods."""
    return {"tol": min(opts.tol, 1e-10),
            "max_sweeps": max(opts.max_iter, 100)}


def compound_cumulant(X, alpha, opts=None, *, standardizer=None):
    """Compound cumulant-matrix estimator.

    The data are first unmixed by a pilot root-n-consistent estimator
    (the ``standardizer``), then the two compound matrices C3 and C4 are
    formed and the remaining rotation is found by jointly diagonalizing
    them with weights ``alpha`` and ``1 - alpha`` (Jacobi sweeps on the
    one matrix with positive weight when ``alpha`` is 0 or 1).

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
        # compound's own fit tests the same index at the caller, so the
        # pilot's DegenerateObjective would only repeat it from in here
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateObjective)
            return symmetric_pp(X, alpha, opts).W
    raise ValueError(f"unknown standardizer: {standardizer!r}")


def _compound_solve(xst, alpha, opts):
    # the matrix whose weight is zero is left out
    mats, w = zip(*((A, w) for A, w in zip(compound_matrices(xst),
                                            (alpha, 1.0 - alpha)) if w > 0.0))
    res = joint_diagonalize(mats, weights=w, **_sweep_limits(opts))
    mom = _RowMoments(xst, res.U)
    _spectrum_warning(alpha, xst, mom)
    return (mom, res.objective, [res.sweeps], res.converged, 1,
            res.objective_history)


def all_cumulant(X, alpha, opts=None):
    """All-cumulant estimator (JADE family).

    Jointly diagonalizes every third-cumulant matrix (weight ``alpha``)
    and every fourth-cumulant matrix (weight ``1 - alpha``) of the
    standardized data.  ``alpha = 0`` reproduces classical JADE.
    """
    return _fit("all_cumulant", X, alpha, opts, _all_cumulant_solve)


def _all_cumulant_solve(xst, alpha, opts):
    matrices, weights, tensors = _all_cumulant_matrices(xst, alpha)
    return _all_cumulant_read(tensors, joint_diagonalize(
        matrices, weights=weights, **_sweep_limits(opts)))


def _all_cumulant_matrices(xst, alpha):
    """The matrices a JADE fit of the standardized sample ``xst``
    diagonalizes, their weights, and the sample's moment tensors, all
    from one pass over the pair products; a stack whose weight is zero
    is not built."""
    p = xst.shape[1]
    c3, c4, tensors = _cumulant_stacks(xst, alpha > 0.0, alpha < 1.0,
                                       tensors=True)
    matrices, weights = [], []
    if c3 is not None:
        matrices.extend(c3)
        weights.extend([alpha] * p)
    if c4 is not None:
        matrices.extend(c4)
        # pairs (i, j) with i < j stand in for both (i, j) and (j, i).
        weights.extend((1.0 - alpha) * _pairs(p)[3])
    return matrices, weights, tensors


def _all_cumulant_read(tensors, res):
    """What ``_estimate`` needs of a JADE fit whose joint diagonalization
    gave ``res``: the moments of its rotation, read from the tensors."""
    return (_TensorMoments(tensors, res.U), res.objective, [res.sweeps],
            res.converged, 1, res.objective_history)


def _fit_each(fit, draws):
    """``fit(X, seed)`` of each sample and solver seed that the callables
    ``draws`` return, in order; a sample is drawn only when its turn
    comes and dropped before the next.  The ``CumicaError`` or
    ``LinAlgError`` that stops a fit stands in its place; any other error
    is a programming error and propagates."""
    fits = []
    for draw in draws:
        X, seed = draw()
        try:
            fits.append(fit(X, seed))
        except (CumicaError, np.linalg.LinAlgError) as exc:
            fits.append(exc)
        del X  # so the next sample is not drawn beside this one
    return fits


def _all_cumulant_block(draws, alpha, opts):
    """``all_cumulant`` of the samples of ``draws`` (see ``_fit_each``;
    JADE has no random start, so their seeds go unused).

    Each sample is reduced to its cumulant matrices and moment tensors
    before the next is drawn, so the block holds O(p^4) floats per sample
    and one sample at a time.  Then one ``_joint_diagonalize_stacks`` call
    rotates every sample's stack (``joint_diagonalize`` is its batch of
    one), and each fit ends as ``all_cumulant`` ends it, to the bit; the
    error that stopped a preparation stands in the place of its fit.
    """
    def prepare(X, _):
        st = standardize(X)  # its whitened copy is dropped on return
        return (st.whitener, *_all_cumulant_matrices(st.xst, alpha))
    preps = _fit_each(prepare, draws)
    ready = [prep for prep in preps if not isinstance(prep, Exception)]
    results = iter(_joint_diagonalize_stacks(
        [matrices for _, matrices, _, _ in ready], ready[0][2],
        **_sweep_limits(opts)) if ready else ())
    return [prep if isinstance(prep, Exception) else _estimate(
        "all_cumulant", prep[0], alpha,
        *_all_cumulant_read(prep[3], next(results))) for prep in preps]
