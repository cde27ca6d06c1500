"""Unmixing-estimator behavior on synthetic mixtures.

Ground truths: the planted sources themselves (minimum-distance index
against the known mixing), brute-force reimplementations of the classical
kurtosis-only estimators, and exact invariants — whitening, objective
monotonicity, affine equivariance, and bitwise determinism.
"""

import warnings

import numpy as np
import pytest

from cumica import estimators
from cumica.cumulants import _SourceMoments, sample_cov
from cumica.errors import (DegenerateObjective, InvalidParams,
                           NearDegenerateSpectrum, NonFiniteInput,
                           NotPositiveDefinite)
from cumica.estimators import (SolverOptions, all_cumulant, compound_cumulant,
                               deflation_pp, symmetric_pp)
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
        # compound's symmetric pilot warns first, from inside the package
        assert degenerate and degenerate[-1].filename == __file__
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
        mom = _SourceMoments(X, np.eye(5))
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
            estimators._spectrum_warning(alpha, mom)
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
        with pytest.raises(ValueError):
            SolverOptions(tol=0.0)
        with pytest.raises(ValueError):
            SolverOptions(max_iter=0)
        with pytest.raises(ValueError):
            SolverOptions(restarts=0)


class TestMomentKernel:
    """Every fit forms each rotation's candidate sources once: the
    accepted iterate's moments carry into the next step and the winner's
    into the canonical form."""

    @pytest.fixture
    def seen(self, monkeypatch):
        seen = []

        class Recording(_SourceMoments):
            __slots__ = ()

            def __init__(self, xst, U):
                seen.append((hash(xst.tobytes()), U.shape, U.tobytes()))
                super().__init__(xst, U)

        monkeypatch.setattr(estimators, "_SourceMoments", Recording)
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


def _recorder(calls, name, fn):
    def record(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return record


class TestLayerLookup:
    """perfbench traces a layer by replacing its name in the estimators
    namespace, so every estimator must look its layers up there at call
    time.  Counts per fit, in ``LAYERS`` order."""

    LAYERS = ("standardize", "joint_diagonalize", "cum3_stack", "cum4_stack",
              "compound_matrices")

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = dict.fromkeys(self.LAYERS, 0)
        for name in self.LAYERS:
            monkeypatch.setattr(estimators, name,
                                _recorder(calls, name, getattr(estimators, name)))
        return calls

    @pytest.mark.filterwarnings("ignore::cumica.errors.NearDegenerateSpectrum")
    @pytest.mark.parametrize("fit,alpha,kw,expected", [
        (deflation_pp, 0.8, {}, (1, 0, 0, 0, 0)),
        (symmetric_pp, 0.8, {}, (1, 0, 0, 0, 0)),
        (compound_cumulant, 0.5, {}, (2, 1, 0, 0, 1)),
        (compound_cumulant, 0.0, {"standardizer": "fobi"}, (2, 1, 0, 0, 1)),
        (compound_cumulant, 1.0, {"standardizer": np.eye(3)}, (1, 1, 0, 0, 1)),
        (all_cumulant, 0.0, {}, (1, 1, 0, 1, 0)),
        (all_cumulant, 0.8, {}, (1, 1, 1, 1, 0)),
        (all_cumulant, 1.0, {}, (1, 1, 1, 0, 0)),
    ], ids=["deflation", "symmetric", "compound-symmetric", "compound-fobi",
            "compound-matrix", "jade-0", "jade-0.8", "jade-1"])
    def test_layer_calls(self, calls, fit, alpha, kw, expected):
        X, _ = make_sample(n=2000)
        fit(X, alpha, SolverOptions(restarts=2, seed=0), **kw)
        assert tuple(calls[name] for name in self.LAYERS) == expected
