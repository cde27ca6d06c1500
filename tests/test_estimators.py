"""Unmixing-estimator behavior on synthetic mixtures.

Ground truths: the planted sources themselves (minimum-distance index
against the known mixing), brute-force reimplementations of the classical
kurtosis-only estimators, and exact invariants — whitening, objective
monotonicity, affine equivariance, and bitwise determinism.
"""

import tracemalloc
import warnings
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

from cumica import estimators
from cumica.cumulants import (_BLOCK_ENTRIES, _MomentTensors, _RowMoments,
                              _TensorMoments, sample_cov, standardize)
from cumica.errors import (DegenerateObjective, InvalidParams,
                           NearDegenerateSpectrum, NonFiniteInput,
                           NotPositiveDefinite, RankDeficient)
from cumica.estimators import (SolverOptions, all_cumulant, compound_cumulant,
                               deflation_pp, symmetric_pp)
from cumica.linalg import polar_orthogonal
from cumica.simulation import IcModelSpec, generate_ic_sample, mdi
from oracles import align_to, classical_fobi, classical_jade

GAMMA_MODEL = IcModelSpec(sources=("gamma:1", "gamma:2", "gamma:4"))
# well-separated skewnesses *and* excess kurtoses, which the compound
# estimator's pairwise eigenvalue gaps need
SPREAD_MODEL = IcModelSpec(sources=("gamma:1", "gamma:8", "ep:4"))

OPTS = SolverOptions(tol=1e-10, restarts=3, seed=0)


def make_sample(model=GAMMA_MODEL, n=6000, seed=321):
    X, omega, _ = generate_ic_sample(model, n, np.random.default_rng(seed))
    return X, omega


class TestRecovery:
    @pytest.mark.parametrize("alpha", [0.0, 0.8, 1.0])
    def test_deflation(self, alpha):
        X, omega = make_sample()
        est = deflation_pp(X, alpha, OPTS)
        assert est.converged
        assert mdi(est.W, omega) < 0.1

    @pytest.mark.parametrize("alpha", [0.0, 0.8, 1.0])
    def test_symmetric(self, alpha):
        X, omega = make_sample()
        est = symmetric_pp(X, alpha, OPTS)
        assert est.converged
        assert mdi(est.W, omega) < 0.1

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_compound(self, alpha):
        X, omega = make_sample(SPREAD_MODEL, n=8000)
        est = compound_cumulant(X, alpha, opts=OPTS)
        assert est.converged
        assert mdi(est.W, omega) < 0.15

    @pytest.mark.parametrize("alpha", [0.0, 0.8, 1.0])
    def test_all_cumulant(self, alpha):
        X, omega = make_sample()
        est = all_cumulant(X, alpha, OPTS)
        assert est.converged
        assert mdi(est.W, omega) < 0.1


class TestInvariants:
    @pytest.mark.filterwarnings("ignore::cumica.errors.NearDegenerateSpectrum")
    def test_unmixed_data_is_white(self):
        X, _ = make_sample()
        for est in (deflation_pp(X, 0.8, OPTS), symmetric_pp(X, 0.8, OPTS),
                    compound_cumulant(X, 0.5, opts=OPTS),
                    all_cumulant(X, 0.8, OPTS)):
            np.testing.assert_allclose(est.W @ sample_cov(X) @ est.W.T,
                                       np.eye(3), atol=1e-9)

    def test_objective_recomputes(self):
        X, _ = make_sample()
        for fn, alpha in [(deflation_pp, 0.8), (symmetric_pp, 0.3)]:
            est = fn(X, alpha, OPTS)
            Y = (X - X.mean(axis=0)) @ est.W.T
            h3 = (Y**3).mean(axis=0)
            h4 = (Y**4).mean(axis=0) - 3.0
            obj = alpha * (h3 @ h3) + (1 - alpha) * (h4 @ h4)
            np.testing.assert_allclose(est.objective, obj, rtol=1e-10)
        # the all-cumulant objective is the diagonal mass of the rotated
        # stacks; it matches the projection index only up to sampling noise
        est = all_cumulant(X, 0.6, OPTS)
        Y = (X - X.mean(axis=0)) @ est.W.T
        h3 = (Y**3).mean(axis=0)
        h4 = (Y**4).mean(axis=0) - 3.0
        obj = 0.6 * (h3 @ h3) + 0.4 * (h4 @ h4)
        np.testing.assert_allclose(est.objective, obj, rtol=0.05)

    def test_objective_histories_monotone(self):
        X, _ = make_sample()
        est = symmetric_pp(X, 0.8, OPTS)
        assert np.all(np.diff(est.objective_history) >= -1e-12)
        defl = deflation_pp(X, 0.8, OPTS)
        for stage_hist in defl.objective_history:
            assert np.all(np.diff(stage_hist) >= -1e-12)
        jd = all_cumulant(X, 0.8, OPTS)
        assert np.all(np.diff(jd.objective_history) >= -1e-10)

    def test_canonical_ordering_and_signs(self):
        X, _ = make_sample()
        for fn in (deflation_pp, symmetric_pp, all_cumulant):
            est = fn(X, 0.8, OPTS)
            Y = (X - X.mean(axis=0)) @ est.W.T
            h3 = (Y**3).mean(axis=0)
            h4 = (Y**4).mean(axis=0) - 3.0
            keys = 0.8 * h3**2 + 0.2 * h4**2
            assert np.all(np.diff(keys) <= 1e-10)
            assert np.all(h3 >= -1e-12)  # skew weight active: rows face up

    def test_deterministic(self):
        X, _ = make_sample()
        for fn, kw in [(deflation_pp, {}), (symmetric_pp, {}),
                       (all_cumulant, {})]:
            a = fn(X, 0.8, OPTS, **kw)
            b = fn(X, 0.8, SolverOptions(tol=1e-10, restarts=3, seed=0), **kw)
            assert np.array_equal(a.W, b.W)

    @pytest.mark.filterwarnings("ignore::cumica.errors.NearDegenerateSpectrum")
    @pytest.mark.parametrize("fn,alpha", [
        (deflation_pp, 0.8), (symmetric_pp, 0.8),
        (compound_cumulant, 0.5), (all_cumulant, 0.8)])
    def test_affine_equivariance(self, fn, alpha):
        model = SPREAD_MODEL if fn is compound_cumulant else GAMMA_MODEL
        X, _ = make_sample(model, n=4000)
        kw = {"opts": OPTS} if fn is compound_cumulant else {}
        args = () if fn is compound_cumulant else (OPTS,)
        W_ref = fn(X, alpha, *args, **kw).W
        rng = np.random.default_rng(99)
        for _ in range(5):
            A = rng.normal(size=(3, 3)) + 3 * np.eye(3)
            b = rng.normal(size=3) * 5
            W_t = fn(X @ A.T + b, alpha, *args, **kw).W
            np.testing.assert_allclose(W_t @ A, W_ref, atol=1e-6)


class TestClassicalLimits:
    def test_all_cumulant_zero_weight_is_jade(self):
        X, _ = make_sample()
        est = all_cumulant(X, 0.0, OPTS)
        W_ref = align_to(classical_jade(X), est.W)
        np.testing.assert_allclose(est.W, W_ref, atol=1e-8)

    def test_compound_zero_weight_fobi_standardizer_is_fobi(self):
        X, _ = make_sample(SPREAD_MODEL, n=5000)
        est = compound_cumulant(X, 0.0, standardizer="fobi", opts=OPTS)
        W_ref = align_to(classical_fobi(X), est.W)
        np.testing.assert_allclose(est.W, W_ref, atol=1e-8)

    def test_compound_positional_opts(self):
        X, _ = make_sample(SPREAD_MODEL, n=5000)
        positional = compound_cumulant(X, 0.5, OPTS)
        keyword = compound_cumulant(X, 0.5, opts=OPTS)
        assert np.array_equal(positional.W, keyword.W)
        with pytest.raises(TypeError):
            compound_cumulant(X, 0.5, OPTS, "fobi")

    def test_compound_standardizer_modes(self):
        X, omega = make_sample(SPREAD_MODEL, n=8000)
        for std in (None, "symmetric", "fobi", np.eye(3)):
            est = compound_cumulant(X, 0.5, standardizer=std, opts=OPTS)
            assert mdi(est.W, omega) < 0.2, std
        with pytest.raises(ValueError, match=r"unknown standardizer: 'jade'"):
            compound_cumulant(X, 0.5, standardizer="jade")


class TestDiagnostics:
    def test_degenerate_objective_warns(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(50_000, 2))  # no skewness anywhere
        with pytest.warns(DegenerateObjective):
            symmetric_pp(X, 1.0, SolverOptions(restarts=2, seed=0))

    @pytest.mark.parametrize("fit", [deflation_pp, symmetric_pp,
                                     compound_cumulant, all_cumulant])
    def test_warnings_point_at_the_caller(self, fit):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(50_000, 2))  # no skewness anywhere
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            fit(X, 1.0, SolverOptions(restarts=2, seed=0))
        degenerate = [w for w in rec if w.category is DegenerateObjective]
        # one warning per fit: compound's symmetric pilot stays silent
        assert len(degenerate) == 1
        assert degenerate[0].filename == __file__
        spectrum = [w for w in rec if w.category is NearDegenerateSpectrum]
        assert bool(spectrum) == (fit is compound_cumulant)
        assert all(w.filename == __file__ for w in spectrum)

    def test_near_degenerate_spectrum_warns(self):
        model = IcModelSpec(sources=("gamma:2", "gamma:2"))
        X, _, _ = generate_ic_sample(model, 4000, np.random.default_rng(8))
        with pytest.warns(NearDegenerateSpectrum):
            compound_cumulant(X, 0.5, opts=SolverOptions(restarts=2, seed=0))

    def test_spectrum_warning_names_the_loop_reference_pairs(self):
        # the per-pair test written out as a loop over moments of Y
        model = IcModelSpec(sources=("gamma:2", "gamma:2", "gamma:8",
                                     "gamma:8", "ep:4"))
        X, _, _ = generate_ic_sample(model, 3000, np.random.default_rng(9))
        mom = _RowMoments(X, np.eye(5))
        Y, alpha = X, 0.4
        n, p = Y.shape
        se3 = [np.sqrt(max(np.mean(y ** 6) - np.mean(y ** 3) ** 2, 0) / n)
               for y in Y.T]
        se4 = [np.sqrt(max(np.mean(y ** 8) - np.mean(y ** 4) ** 2, 0) / n)
               for y in Y.T]
        g, k = mom.h3, mom.h4
        ref = [(a, b) for a in range(p) for b in range(a + 1, p)
               if alpha * (g[a] - g[b]) ** 2 + (1 - alpha) * (k[a] - k[b]) ** 2
               < 9 * (alpha * (se3[a] ** 2 + se3[b] ** 2)
                      + (1 - alpha) * (se4[a] ** 2 + se4[b] ** 2))]
        assert ref and len(ref) < p * (p - 1) // 2
        with pytest.warns(NearDegenerateSpectrum) as rec:
            estimators._spectrum_warning(alpha, X, mom)
        assert f"pair(s) {ref} are" in str(rec[0].message)

    @pytest.mark.parametrize("fit", [deflation_pp, symmetric_pp,
                                     compound_cumulant, all_cumulant])
    def test_weight_outside_unit_interval(self, fit):
        X, _ = make_sample(n=500)
        for bad in (-0.1, 1.5, float("nan")):
            with pytest.raises(InvalidParams):
                fit(X, bad)
        # InvalidParams is a ValueError, so older handlers still catch it
        with pytest.raises(ValueError):
            fit(X, 1.5)

    @pytest.mark.parametrize("fit", [deflation_pp, symmetric_pp,
                                     compound_cumulant, all_cumulant])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_data_rejected(self, fit, bad):
        X, _ = make_sample(n=500)
        X[7, 1] = bad
        with pytest.raises(NonFiniteInput, match="row 7, column 1"):
            fit(X, 0.5, SolverOptions(restarts=2, seed=0))

    @pytest.mark.parametrize("fit", [deflation_pp, symmetric_pp,
                                     compound_cumulant, all_cumulant])
    def test_degenerate_data_named(self, fit):
        X, _ = make_sample(n=500)
        X[:, 0] = 2.5
        with pytest.raises(NotPositiveDefinite, match="column 0 is constant"):
            fit(X, 0.5, SolverOptions(restarts=2, seed=0))
        with pytest.raises(NotPositiveDefinite,
                           match="3 observations of 3 variables"):
            fit(X[:3], 0.5, SolverOptions(restarts=2, seed=0))

    def test_solver_options_validation(self):
        # InvalidParams is a ValueError, so callers catching that still work
        for field, value in [("tol", 0.0), ("tol", -1.0), ("tol", float("nan")),
                             ("max_iter", 0), ("restarts", 0), ("seed", -2),
                             ("seed", 0.5), ("seed", None)]:
            with pytest.raises(InvalidParams, match=field):
                SolverOptions(**{field: value})

    @pytest.mark.parametrize("field", ["max_iter", "restarts"])
    @pytest.mark.parametrize("value", [2.5, True], ids=["float", "bool"])
    def test_counts_must_be_integers(self, field, value):
        # either would be taken, then fail inside the fit or be reported
        # as a count of True
        with pytest.raises(InvalidParams,
                           match=f"{field} must be an integer, got {value}"):
            SolverOptions(**{field: value})
        assert getattr(SolverOptions(**{field: np.int64(2)}), field) == 2

    def test_a_bool_seed_is_rejected(self):
        # as monte_carlo_experiment rejects master_seed=True
        with pytest.raises(InvalidParams) as info:
            SolverOptions(seed=True)
        assert str(info.value) == ("seed must be a non-negative integer, "
                                   "got True")
        assert SolverOptions(seed=np.int64(3)).seed == 3


@pytest.mark.parametrize("fit", [deflation_pp, symmetric_pp,
                                 compound_cumulant, all_cumulant])
def test_one_source(fit):
    # p = 1: the rotation is the identity, and W scales to unit variance
    X = np.random.default_rng(8).gamma(2.0, size=(500, 1)) * 3.0 + 1.0
    est = fit(X, 0.8, SolverOptions(restarts=2, seed=0))
    assert est.converged and est.W.shape == (1, 1)
    assert est.W[0, 0] > 0.0  # gamma data skew right
    np.testing.assert_allclose(est.W[0, 0] ** 2 * sample_cov(X)[0, 0], 1.0,
                               rtol=1e-12)


class TestOrthocomplement:
    def test_unit_vector_orthogonal_to_the_rows(self):
        rng = np.random.default_rng(9)
        prev = np.linalg.qr(rng.normal(size=(5, 2)))[0].T
        v = estimators._orthocomplement_vector(prev)
        assert v.shape == (5,)
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12
        assert np.abs(prev @ v).max() < 1e-12

    def test_full_basis_has_no_complement(self):
        with pytest.raises(RankDeficient, match="basis"):
            estimators._orthocomplement_vector(np.eye(4))


def _digest(data):
    """A key of the sample behind a kernel: its rows or its tensors."""
    if isinstance(data, _MomentTensors):
        return hash(data.M3.tobytes() + data.M4.tobytes())
    return hash(data.tobytes())


class TestMomentKernel:
    """Every fit reads each rotation's moments once: the accepted
    iterate's kernel carries into the next step and the winner's into the
    canonical form, and a diagonalization fit reads its rotation once, by
    row blocks.  A build of a stack of rotations counts once per
    rotation."""

    @pytest.fixture
    def seen(self, monkeypatch):
        seen = []
        for name in ("_RowMoments", "_TensorMoments"):
            base = getattr(estimators, name)

            class Recording(base):
                __slots__ = ()

                def __init__(self, data, U, base=base):
                    key = _digest(data)
                    seen.extend((key, u.shape, u.tobytes())
                                for u in U.reshape(-1, *U.shape[-2:]))
                    base.__init__(self, data, U)

            monkeypatch.setattr(estimators, name, Recording)
        return seen

    @pytest.mark.filterwarnings(
        "ignore::cumica.errors.NearDegenerateSpectrum")
    @pytest.mark.parametrize("fit,alpha,restarts", [
        (symmetric_pp, 0.8, 1), (symmetric_pp, 0.8, 3),
        (compound_cumulant, 0.5, 3), (deflation_pp, 0.8, 1)])
    def test_no_rotation_seen_twice(self, seen, fit, alpha, restarts):
        # deflation with several restarts may legitimately revisit a row:
        # restarts converge to the same direction, and the last stage has
        # only one
        X, _ = make_sample()
        fit(X, alpha, SolverOptions(tol=1e-10, restarts=restarts, seed=0))
        assert len(seen) > 1
        assert len(set(seen)) == len(seen)

    def test_all_cumulant_evaluates_once(self, seen):
        X, _ = make_sample()
        all_cumulant(X, 0.8, OPTS)
        assert len(seen) == 1

    # Kernel builds of one symmetric fit (restarts 1 and 10) at alpha 0,
    # 0.8 and 1, bounded by the measured builds plus a quarter (33, 444;
    # 23, 305; 8, 100 at p = 3 and 139, 1354; 41, 380; 12, 125 at
    # p = 10), and its minimum distance index, to 1e-7.
    P10 = IcModelSpec(sources=tuple(
        f"gamma:{k}" for k in ("1", "2", "4", "8", "0.5", "1.5", "3", "6",
                               "12", "16")), mixing=("random", 7))
    BUILDS = {
        "p3": (GAMMA_MODEL, 6000, 321, {
            (0.0, 1): (42, 0.0239053), (0.0, 10): (555, 0.0239053),
            (0.8, 1): (29, 0.0202136), (0.8, 10): (382, 0.0202136),
            (1.0, 1): (10, 0.0152283), (1.0, 10): (125, 0.0152283)}),
        "p10": (P10, 10_000, 8, {
            (0.0, 1): (174, 0.0638727), (0.0, 10): (1693, 0.0638728),
            (0.8, 1): (52, 0.0509263), (0.8, 10): (475, 0.0509264),
            (1.0, 1): (15, 0.0381570), (1.0, 10): (157, 0.0381570)})}

    @pytest.mark.parametrize("case", ["p3", "p10"])
    def test_symmetric_builds_are_bounded(self, seen, case):
        model, n, seed, expected = self.BUILDS[case]
        X, omega = make_sample(model, n, seed)
        for (alpha, restarts), (bound, score) in expected.items():
            seen.clear()
            est = symmetric_pp(X, alpha,
                               SolverOptions(restarts=restarts, seed=0))
            assert est.converged
            assert len(seen) <= bound, (alpha, restarts, len(seen))
            assert mdi(est.W, omega) == pytest.approx(score, abs=1e-7)


class TestStopping:
    """The fixed-point solvers stop where rounding would decide which
    step to take, and never call a non-finite fit converged."""

    def test_paths_report_their_slope(self):
        # the slope bounds the backtracking halvings, so it must be the
        # objective's derivative along the path at t = 0
        rng = np.random.default_rng(30)
        X = standardize(rng.gamma(2.0, size=(3000, 4))).xst
        U = estimators.random_orthogonal(4, rng)
        prev = U[2:3]

        def project(v):
            return v - prev.T @ (prev @ v)

        u = project(U[0])
        cases = [(U, estimators._cayley_path),
                 ((u / np.linalg.norm(u))[None, :],
                  lambda V, T: estimators._sphere_path(project, V, T))]
        for V, path in cases:
            mom = _RowMoments(X, V)
            point, slope = path(V, mom.gradient(0.7))
            t = 1e-6
            fd = (_RowMoments(X, point(t)).objective(0.7)
                  - _RowMoments(X, point(-t)).objective(0.7)) / (2 * t)
            assert fd == pytest.approx(slope, rel=1e-6)

    @pytest.mark.parametrize("fit", [deflation_pp, symmetric_pp])
    def test_non_finite_step_is_not_taken(self, monkeypatch, fit):
        # a fixed-point step to a non-finite rotation loses; the fit
        # backtracks along the gradient instead
        X, omega = make_sample()
        sphere_step = estimators._sphere_step

        def nan_sphere_step(project, T):
            # the stacked step (b, 1, p) is NaN; the backtracking path
            # normalizes its one-row points, (1, p), as before
            if T.ndim == 3:
                return np.full_like(T, np.nan)
            return sphere_step(project, T)
        monkeypatch.setattr(estimators, "_polar_step",
                            lambda T: np.full_like(T, np.nan))
        monkeypatch.setattr(estimators, "_sphere_step", nan_sphere_step)
        est = fit(X, 0.8, SolverOptions(restarts=2, seed=0))
        assert np.isfinite(est.W).all() and np.isfinite(est.objective)
        assert mdi(est.W, omega) < 0.1

    @pytest.mark.parametrize("fit", [deflation_pp, symmetric_pp])
    def test_non_finite_objective_is_not_converged(self, monkeypatch, fit):
        X, _ = make_sample()
        for name in ("_RowMoments", "_TensorMoments"):
            base = getattr(estimators, name)
            monkeypatch.setattr(estimators, name, type(name, (base,), {
                "__slots__": (), "objective": lambda self, alpha:
                np.nan if self.U.ndim == 2 else [np.nan] * len(self.U)}))
        est = fit(X, 0.8, SolverOptions(restarts=2, seed=0))
        assert not est.converged

    @pytest.mark.parametrize("n,p,tensors", [(250, 10, True),
                                             (249, 10, False),
                                             (40, 3, True)])
    def test_kernel_path_is_fixed_by_n_and_p(self, n, p, tensors):
        X = np.random.default_rng(n).normal(size=(n, p))
        kernel = estimators._moment_kernel(X)
        assert (kernel.func is _TensorMoments) == tensors
        assert isinstance(kernel(np.eye(p)), _TensorMoments) == tensors


class TestLockstep:
    """Each fit's restarts ascend together, one kernel build per
    iteration; each ends where it would alone, and the best finite
    objective wins, ties going to the earlier start."""

    @staticmethod
    def ascents(xst, rows):
        """Both fixed-point ascents as (starts, step, path): the symmetric
        one, and the first deflation stage (no rows found yet)."""
        starts = estimators._stage_starts(xst.shape[1], SolverOptions(
            restarts=5, seed=1))
        if not rows:
            return starts, estimators._polar_step, estimators._cayley_path

        def same(V):
            return V
        return (starts[:, :1, :], partial(estimators._sphere_step, same),
                partial(estimators._sphere_path, same))

    @pytest.mark.parametrize("rows", [False, True], ids=["symmetric",
                                                        "deflation"])
    @pytest.mark.parametrize("tensors", [True, False])
    def test_each_restart_ends_where_it_would_alone(self, rows, tensors):
        xst = standardize(make_sample(n=3000)[0]).xst
        kernel = (partial(_TensorMoments, _MomentTensors(xst)) if tensors
                  else partial(_RowMoments, xst))
        starts, step, path = self.ascents(xst, rows)
        runs = estimators._ascend(0.8, kernel, starts, OPTS, step, path)
        for i, run in enumerate(runs):
            alone = estimators._ascend(0.8, kernel, starts[i:i + 1], OPTS,
                                       step, path)[0]
            assert run[3] and alone[3]
            assert run[0] == pytest.approx(alone[0], rel=1e-12)
            assert estimators._sign_blind_row_delta(
                run[1].U, alone[1].U) < 10 * OPTS.tol
            np.testing.assert_allclose(run[1].h3, alone[1].h3, atol=1e-9)

    def test_best_run(self):
        nan, inf = float("nan"), float("inf")
        best = estimators._best
        assert best([(nan, "a"), (1.0, "b"), (2.0, "c")])[1] == "c"
        assert best([(inf, "a"), (1.0, "b")])[1] == "b"
        assert best([(1.0, "a"), (nan, "b")])[1] == "a"
        assert best([(1.0, "a"), (1.0, "b"), (0.5, "c")])[1] == "a"
        assert best([(nan, "a"), (nan, "b")])[1] == "a"

    @pytest.fixture
    def record(self, monkeypatch):
        """The runs of each ``_ascend`` call, after ``poison`` (if set)
        has changed them."""
        record = SimpleNamespace(runs=[], poison=None)
        ascend = estimators._ascend

        def recording(*args):
            runs = ascend(*args)
            if record.poison:
                record.poison(runs)
            record.runs.append(runs)
            return runs
        monkeypatch.setattr(estimators, "_ascend", recording)
        return record

    def test_non_finite_restart_never_wins(self, record):
        # a first restart whose objective is NaN would block every later
        # one under "a later restart wins only if larger"
        xst = standardize(make_sample()[0]).xst

        def first_is_nan(runs):
            runs[0] = (float("nan"),) + runs[0][1:]
        record.poison = first_is_nan
        mom, obj = estimators._symmetric_solve(xst, 0.8, OPTS)[:2]
        rest = record.runs[0][1:]
        assert obj == max(run[0] for run in rest)
        assert mom is next(run[1] for run in rest if run[0] == obj)

    def test_tie_keeps_the_earlier_start(self, record, monkeypatch):
        xst = standardize(make_sample()[0]).xst
        R = estimators.random_orthogonal(3, np.random.default_rng(4))
        monkeypatch.setattr(estimators, "_stage_starts",
                            lambda p, opts: np.array([R, R, R]))
        mom = estimators._symmetric_solve(xst, 0.8, OPTS)[0]
        runs = record.runs[0]
        # restarts from one start run through the same rotations
        assert runs[0][0] == runs[1][0] == runs[2][0]
        assert mom is runs[0][1]

    def test_polar_step_marks_rank_loss(self):
        # a stack with a rank-deficient T and a vanishing one: neither has
        # a step (NaN, so the fit backtracks along the gradient or finds
        # the objective stationary), and the others step as alone
        rng = np.random.default_rng(6)
        T = rng.normal(size=(4, 3, 3))
        T[1] = np.outer(rng.normal(size=3), rng.normal(size=3))
        T[2] = 0.0
        U = estimators._polar_step(T)
        assert np.isnan(U[1:3]).all()
        for i in (0, 3):
            assert np.array_equal(U[i], polar_orthogonal(T[i]))

    def test_missing_step_backtracks(self, record, monkeypatch):
        # a restart with no step stays in the batch and backtracks along
        # the gradient, and every restart is counted
        step, path = estimators._polar_step, estimators._cayley_path
        events = []

        def second_has_none(T):
            U = step(T)
            if not events:  # the first step of the three restarts
                U[1] = np.nan
            events.append(("step", len(T)))
            return U

        def recording_path(U, T):
            events.append(("path", U))
            return path(U, T)
        monkeypatch.setattr(estimators, "_polar_step", second_has_none)
        monkeypatch.setattr(estimators, "_cayley_path", recording_path)
        X = make_sample()[0]
        est = symmetric_pp(X, 0.8, OPTS)
        # the first iteration backtracks from the second start, and the
        # next step is still taken for all three restarts
        second = next(i for i, e in enumerate(events) if i and e[0] == "step")
        assert events[second] == ("step", 3)
        start = estimators._stage_starts(X.shape[1], OPTS)[1]
        assert any(np.array_equal(U, start) for _, U in events[1:second])
        assert all(np.isfinite(run[0]) for run in record.runs[0])
        assert np.isfinite(est.W).all() and np.isfinite(est.objective)
        assert est.restarts_used == 3 and est.converged

    def test_row_kernel_memory_is_one_restart(self):
        # the row path (p^3 > 4 n) reads a stack one rotation at a time:
        # ten restarts peak no higher than one did
        X = np.random.default_rng(30).gamma(2.0, size=(5000, 30))
        tracemalloc.start()
        try:
            symmetric_pp(X, 0.8, SolverOptions(restarts=10, seed=0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12e6, f"peak {peak / 1e6:.1f} MB"


class TestNewtonStep:
    """The fixed-point step is taken on the estimating equations less
    their Gaussian part, ``T - 12 (1 - alpha) h4 U``: it has the fixed
    points of the step on T, and reaches them in fewer iterations."""

    def test_mixed_sources_converge(self):
        # the step on T alone ran out of its 500 iterations here
        model = IcModelSpec(sources=(
            "gamma:2", "ep:4", "mix:0.3:5", "ep:1", "gamma:8", "ep:8",
            "mix:0.1:3", "gamma:0.5", "ep:6", "mix:0.4:2"),
            mixing=("random", 5))
        X, _, _ = generate_ic_sample(model, 10_000, np.random.default_rng(0))
        est = symmetric_pp(X, 0.8, SolverOptions(seed=0))
        assert est.converged and est.iterations[0] <= 50, est.iterations

    @pytest.mark.parametrize("rows", [False, True], ids=["symmetric",
                                                        "deflation"])
    def test_a_converged_rotation_is_a_fixed_point(self, rows):
        # one step from where a fit converged moves it by less than ten
        # times its tolerance; the default tolerance, since the symmetric
        # fit's best restart ends by the stationarity rule, where the
        # objective's rounding hides a step of about 1e-8
        opts = SolverOptions(restarts=3, seed=0)
        xst = standardize(make_sample()[0]).xst
        kernel = estimators._moment_kernel(xst)
        solve = estimators._deflation_solve if rows else \
            estimators._symmetric_solve
        mom, _, _, converged = solve(xst, 0.8, opts)[:4]
        assert converged
        if rows:
            stages = []
            for k in range(len(mom.U)):
                def project(V, prev=mom.U[:k]):
                    return V - (V @ prev.T) @ prev
                stages.append((mom.U[None, k:k + 1],
                               partial(estimators._sphere_step, project),
                               partial(estimators._sphere_path, project)))
        else:
            stages = [(mom.U[None], estimators._polar_step,
                       estimators._cayley_path)]
        for U0, step, path in stages:
            steps = []

            def recording(T):
                steps.append(step(T))
                return steps[-1]
            estimators._ascend(0.8, kernel, U0, SolverOptions(max_iter=1),
                               recording, path)
            delta = estimators._sign_blind_row_delta(steps[0], U0)[0]
            assert delta < 10 * opts.tol


class TestMemory:
    """A diagonalization fit holds its data, one whitened copy and a few
    row blocks, whatever n is."""

    @pytest.mark.filterwarnings(
        "ignore::cumica.errors.NearDegenerateSpectrum")
    @pytest.mark.parametrize("fit", [
        all_cumulant, partial(compound_cumulant, standardizer="fobi"),
        compound_cumulant], ids=["all_cumulant", "compound-fobi",
                                 "compound-symmetric"])
    def test_peak_is_one_copy_and_a_few_blocks(self, fit):
        p = 10
        n = 3 * (_BLOCK_ENTRIES // p) + 1000  # three row blocks and more
        X, _ = make_sample(TestMomentKernel.P10, n, 3)
        # the whitened copy; at most two blocks are live at once (Y and
        # Y^2 in the final read), and one more is allowed
        bound = X.nbytes + 3 * 8 * _BLOCK_ENTRIES
        tracemalloc.start()
        try:
            fit(X, 0.8, opts=SolverOptions(restarts=2, seed=0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, (f"peak {peak / 1e6:.2f} MB, bound "
                               f"{bound / 1e6:.2f} MB")


def _recorder(calls, name, fn):
    def record(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return record


class TestLayerLookup:
    """perfbench traces a layer by replacing its name in the estimators
    namespace, so every estimator must look its layers up there at call
    time.  Counts per fit, in ``LAYERS`` order."""

    LAYERS = ("standardize", "joint_diagonalize", "_cumulant_stacks",
              "compound_matrices", "_MomentTensors")

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = dict.fromkeys(self.LAYERS, 0)
        for name in self.LAYERS:
            monkeypatch.setattr(estimators, name,
                                _recorder(calls, name, getattr(estimators, name)))
        return calls

    @pytest.mark.filterwarnings("ignore::cumica.errors.NearDegenerateSpectrum")
    @pytest.mark.parametrize("fit,alpha,kw,expected", [
        (deflation_pp, 0.8, {}, (1, 0, 0, 0, 1)),
        (symmetric_pp, 0.8, {}, (1, 0, 0, 0, 1)),
        (compound_cumulant, 0.5, {}, (2, 1, 0, 1, 1)),
        (compound_cumulant, 0.0, {"standardizer": "fobi"}, (2, 1, 0, 1, 0)),
        (compound_cumulant, 1.0, {"standardizer": np.eye(3)}, (1, 1, 0, 1, 0)),
        (all_cumulant, 0.0, {}, (1, 1, 1, 0, 0)),
        (all_cumulant, 0.8, {}, (1, 1, 1, 0, 0)),
        (all_cumulant, 1.0, {}, (1, 1, 1, 0, 0)),
    ], ids=["deflation", "symmetric", "compound-symmetric", "compound-fobi",
            "compound-matrix", "jade-0", "jade-0.8", "jade-1"])
    def test_layer_calls(self, calls, fit, alpha, kw, expected):
        X, _ = make_sample(n=2000)
        fit(X, alpha, SolverOptions(restarts=2, seed=0), **kw)
        assert tuple(calls[name] for name in self.LAYERS) == expected
