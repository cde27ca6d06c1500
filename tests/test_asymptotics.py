"""Asymptotic-variance formula tests.

Dual-route validation: the single-cumulant limits (alpha = 1 and
alpha = 0) of every method are recomputed from independently hand-coded
collapsed expressions on quadrature moments, and the seven-statistic
limiting covariance is checked against a Monte Carlo estimate.
"""

import math

import numpy as np
import pytest

from cumica.asymptotics import (asv_allcumulant, asv_compound, asv_deflation,
                                asv_symmetric, cluster_objective,
                                jade_weight_map, offdiag_criterion,
                                optimal_alpha, stat_covariance_table)
from cumica.distributions import moment_profile, sample_source
from cumica.errors import (IndexOutOfRange, InvalidParams, ZeroDenominator)
from oracles import (comp_offdiag_kurt_only, comp_offdiag_skew_only,
                     defl_offdiag_kurt_only, defl_offdiag_skew_only,
                     diag_law, sym_offdiag_kurt_only, sym_offdiag_skew_only)

PI0 = (3.0 - math.sqrt(3.0)) / 6.0

SKEWED = ["gamma:0.75", "gamma:1", "gamma:2", "gamma:4", "mix:0.3:5",
          "mix:0.7:2"]
KURTIC = ["gamma:1", "gamma:3", "ep:1", "ep:4", "ep:0.7", "mix:0.3:5"]


def as_dict(pr):
    return {"gamma": pr.gamma, "beta": pr.beta, "kappa": pr.kappa,
            "nu": pr.nu, "omega": pr.omega, "eta": pr.eta}


class TestSpotValues:
    def test_symmetric_two_exponentials_skew_weight(self):
        table = asv_symmetric(["gamma:1", "gamma:1"], 1.0)
        assert table.offdiag[0, 1] == pytest.approx(0.75, abs=1e-12)
        assert offdiag_criterion(table, 0, 1) == pytest.approx(1.5, abs=1e-12)

    def test_deflation_exponential(self):
        table = asv_deflation(["gamma:1", "gamma:1"], 1.0)
        assert table.offdiag[0, 1] == pytest.approx(1.0, abs=1e-12)
        assert table.offdiag[1, 0] == pytest.approx(2.0, abs=1e-12)
        np.testing.assert_allclose(table.diag, 2.0, atol=1e-12)

    def test_diagonal_is_method_free(self):
        profiles = ["gamma:2", "ep:4", "mix:0.3:5"]
        want = [(moment_profile(s).kappa + 2) / 4 for s in profiles]
        for fn, alpha in [(asv_deflation, 0.3), (asv_symmetric, 0.9),
                          (asv_compound, 0.5), (asv_allcumulant, 0.0)]:
            np.testing.assert_allclose(fn(profiles, alpha).diag, want,
                                       atol=1e-14)


class TestCollapsedLimits:
    """alpha = 1 / alpha = 0 agree with hand-coded single-cumulant forms."""

    def test_deflation(self):
        for sk in SKEWED:
            pk = as_dict(moment_profile(sk))
            got = asv_deflation([sk, "gamma:2"], 1.0)
            np.testing.assert_allclose(got.offdiag[0, 1],
                                       defl_offdiag_skew_only(pk),
                                       rtol=1e-14)
        for ku in KURTIC:
            pk = as_dict(moment_profile(ku))
            got = asv_deflation([ku, "ep:4"], 0.0)
            np.testing.assert_allclose(got.offdiag[0, 1],
                                       defl_offdiag_kurt_only(pk),
                                       rtol=1e-14)
            # the l < k entry is the l-th component's formula plus one
            np.testing.assert_allclose(got.offdiag[1, 0],
                                       defl_offdiag_kurt_only(pk) + 1,
                                       rtol=1e-14)

    def test_symmetric(self):
        for sk in SKEWED:
            pk = as_dict(moment_profile(sk))
            pl = as_dict(moment_profile("gamma:2"))
            got = asv_symmetric([sk, "gamma:2"], 1.0)
            np.testing.assert_allclose(got.offdiag[0, 1],
                                       sym_offdiag_skew_only(pk, pl),
                                       rtol=1e-14)
        for ku in KURTIC:
            pk = as_dict(moment_profile(ku))
            pl = as_dict(moment_profile("gamma:1"))
            got = asv_symmetric([ku, "gamma:1"], 0.0)
            np.testing.assert_allclose(got.offdiag[0, 1],
                                       sym_offdiag_kurt_only(pk, pl),
                                       rtol=1e-14)

    def test_compound(self):
        others = ["ep:4", "mix:0.3:5"]
        rest = [as_dict(moment_profile(s)) for s in others]
        for sk in ("gamma:0.75", "gamma:4"):
            specs = [sk, "gamma:2"] + others
            pk = as_dict(moment_profile(sk))
            pl = as_dict(moment_profile("gamma:2"))
            got = asv_compound(specs, 1.0)
            np.testing.assert_allclose(got.offdiag[0, 1],
                                       comp_offdiag_skew_only(pk, pl, 4),
                                       rtol=1e-13)
            got0 = asv_compound(specs, 0.0)
            np.testing.assert_allclose(got0.offdiag[0, 1],
                                       comp_offdiag_kurt_only(pk, pl, rest),
                                       rtol=1e-13)

    def test_compound_exact_rational_value(self):
        # exponential against uniform, kurtosis weight, p = 2: the
        # collapsed expression reduces to the rational number 295/84
        exp_pr = moment_profile("gamma:1")
        uni = type(exp_pr)(gamma=0.0, beta=1.8, kappa=-1.2, nu=0.8,
                           omega=27.0 / 7.0, eta=0.0)
        table = asv_compound([exp_pr, uni], 0.0)
        np.testing.assert_allclose(table.offdiag[0, 1], 295.0 / 84.0,
                                   rtol=1e-14)

    def test_diag_matches_oracle(self):
        for s in SKEWED + KURTIC:
            pr = moment_profile(s)
            np.testing.assert_allclose(
                asv_deflation([s, "gamma:2"], 0.5).diag[0],
                diag_law(as_dict(pr)), rtol=1e-14)


class TestWeightEquivalence:
    def test_allcumulant_matches_symmetric_under_map(self):
        profiles = ["gamma:1", "gamma:2", "ep:4"]
        for aj in np.linspace(0.0, 1.0, 11):
            t_j = asv_allcumulant(profiles, aj)
            t_s = asv_symmetric(profiles, jade_weight_map(aj))
            np.testing.assert_allclose(t_j.offdiag, t_s.offdiag, atol=1e-13)
            np.testing.assert_allclose(t_j.diag, t_s.diag, atol=1e-14)

    def test_map_endpoints_and_monotonicity(self):
        assert jade_weight_map(0.0) == 0.0
        assert jade_weight_map(1.0) == 1.0
        grid = np.linspace(0, 1, 50)
        vals = [jade_weight_map(a) for a in grid]
        assert np.all(np.diff(vals) > 0)
        assert abs(jade_weight_map(1 / 3) - 0.4) < 1e-15


class TestDegeneracies:
    @pytest.mark.parametrize("table", [asv_symmetric, asv_deflation])
    def test_no_sources(self, table):
        with pytest.raises(ValueError, match=r"at least one source profile"):
            table([], 0.5)

    def test_zero_denominator_reports_components(self):
        with pytest.raises(ZeroDenominator) as info:
            asv_symmetric(["normal", "normal"], 1.0)
        assert info.value.components == (0, 1)
        with pytest.raises(ZeroDenominator):
            asv_deflation(["normal", "gamma:1"], 1.0)
        with pytest.raises(ZeroDenominator):
            asv_compound(["gamma:2", "gamma:2"], 0.5)
        with pytest.raises(ZeroDenominator):
            asv_allcumulant(["normal", "normal"], 0.3)

    def test_deflation_ignores_the_last_criterion(self):
        # no entry reads the last component's criterion, so its
        # vanishing is not an error
        table = asv_deflation(["gamma:1", "normal"], 1.0)
        assert np.all(np.isfinite(table.offdiag))
        assert table.offdiag[1, 0] == table.offdiag[0, 1] + 1.0

    @pytest.mark.parametrize("table, sources, alpha, pair, message", [
        (asv_symmetric, ["gamma:1", "normal", "normal"], 1.0, (1, 2),
         "symmetric criterion vanishes for pair (1, 2) at alpha=1.0"),
        (asv_compound, ["gamma:1", "gamma:2", "gamma:2"], 0.5, (1, 2),
         "compound eigenvalue gap vanishes for pair (1, 2) at alpha=0.5"),
        (asv_allcumulant, ["normal", "gamma:1", "normal"], 0.3, (0, 2),
         "all-cumulant criterion vanishes for pair (0, 2) at alpha=0.3"),
    ])
    def test_zero_denominator_messages(self, table, sources, alpha, pair,
                                       message):
        with pytest.raises(ZeroDenominator) as info:
            table(sources, alpha)
        assert info.value.components == pair
        assert str(info.value) == message

    def test_alpha_domain(self):
        # not a real number: a string, None or an array
        for bad in (-0.1, 1.0001, float("nan"), True, "0.5", None,
                    np.array([0.5])):
            with pytest.raises(InvalidParams):
                asv_symmetric(["gamma:1", "gamma:2"], bad)

    def test_compound_p_mismatch(self):
        with pytest.raises(InvalidParams):
            asv_compound(["gamma:1"], 0.5)

    def test_criterion_index_errors(self):
        table = asv_symmetric(["gamma:1", "gamma:2"], 0.5)
        with pytest.raises(IndexOutOfRange):
            offdiag_criterion(table, 0, 0)
        with pytest.raises(IndexOutOfRange):
            offdiag_criterion(table, 0, 2)


class TestClusterObjective:
    def test_poles_return_inf(self):
        # pi = 1/2 kills the skewness; the kurtosis root kills the excess
        assert cluster_objective(1.0, 0.5, 5.0) == math.inf
        assert cluster_objective(0.0, PI0, 5.0) == math.inf
        assert cluster_objective(0.0, 1 - PI0, 2.0) == math.inf
        assert math.isfinite(cluster_objective(0.5, 0.5, 5.0))
        assert math.isfinite(cluster_objective(0.5, PI0, 5.0))

    def test_underflowing_denominator_returns_inf(self):
        # a tiny shift leaves gamma ~ 1e-124: the skewness-only criterion
        # is nonzero, but its square underflows
        assert cluster_objective(1.0, 0.3, 1e-108) == math.inf
        with pytest.raises(ZeroDenominator):
            asv_deflation(["mix:0.3:1e-108", "gamma:2"], 1.0)

    def test_domain_errors(self):
        with pytest.raises(InvalidParams):
            cluster_objective(0.5, 0.0, 5.0)
        with pytest.raises(InvalidParams):
            cluster_objective(0.5, 1.0, 5.0)
        with pytest.raises(InvalidParams):
            cluster_objective(0.5, 0.3, 0.0)
        with pytest.raises(InvalidParams):
            cluster_objective(1.5, 0.3, 5.0)

    def test_optimal_alpha_symmetric_mixture_prefers_kurtosis(self):
        star, value = optimal_alpha(0.5, 5.0)
        assert star == 0.0
        assert value == pytest.approx(cluster_objective(0.0, 0.5, 5.0))

    def test_optimal_alpha_weight_flip_invariance(self):
        # reflection symmetry of the mixture leaves f(alpha) unchanged
        a1, f1 = optimal_alpha(0.3, 5.0, grid_tol=1e-2)
        a2, f2 = optimal_alpha(0.7, 5.0, grid_tol=1e-2)
        assert a1 == pytest.approx(a2, abs=1e-6)
        assert f1 == pytest.approx(f2, rel=1e-10)

    def test_optimal_alpha_beats_dense_grid(self):
        for pi, mu in [(0.3, 5.0), (0.1, 2.0), (PI0 + 1e-3, 4.0)]:
            star, value = optimal_alpha(pi, mu)
            grid = np.linspace(0, 1, 201)
            best = min(cluster_objective(a, pi, mu) for a in grid)
            assert value <= best + 1e-12 * abs(best)

    def test_grid_tol_domain(self):
        with pytest.raises(InvalidParams):
            optimal_alpha(0.3, 5.0, grid_tol=0.0)
        with pytest.raises(InvalidParams):
            optimal_alpha(0.3, 5.0, grid_tol=0.7)
        # finer steps gain nothing and build grids of over 1e6 points
        for tiny in (9e-7, 1e-300):
            with pytest.raises(InvalidParams, match=r"\[1e-6, 0\.5\]"):
                optimal_alpha(0.3, 5.0, grid_tol=tiny)


class TestStatCovarianceTable:
    def test_specs_and_a_non_profile(self):
        # spec strings read as their profiles; anything else is the
        # TypeError the variance tables raise for it
        V = stat_covariance_table("gamma:1", "ep:4", moment_profile("gamma:4"))
        W = stat_covariance_table(*map(moment_profile,
                                       ("gamma:1", "ep:4", "gamma:4")))
        assert V.tobytes() == W.tobytes()
        with pytest.raises(TypeError, match="expected a MomentProfile"):
            stat_covariance_table(1, "gamma:2", "gamma:3")
        with pytest.raises(TypeError, match="expected a MomentProfile"):
            asv_symmetric([1, "gamma:2"], 0.5)

    def test_symmetry_and_psd(self):
        V = stat_covariance_table(moment_profile("gamma:1"),
                                  moment_profile("ep:4"),
                                  moment_profile("gamma:4"))
        assert V.shape == (7, 7)
        np.testing.assert_allclose(V, V.T, atol=1e-14)
        assert np.linalg.eigvalsh(V).min() > -1e-10

    def test_against_monte_carlo(self):
        # the seven pair statistics on independent standardized sources:
        # centered third and second powers crossed with the partner,
        # third-party quadratic and bilinear forms, and the covariance.
        # The quadratic and bilinear third-party statistics use distinct
        # auxiliary components sharing one marginal law, hence the extra
        # independent column.
        reps, n = 80, 50_000
        pk, pl, pm = (moment_profile(s)
                      for s in ("gamma:1", "ep:4", "gamma:4"))
        V = stat_covariance_table(pk, pl, pm)
        rng = np.random.default_rng(77)
        stats = np.empty((reps, 7))
        for r in range(reps):
            zk = sample_source("gamma:1", n, rng)
            zl = sample_source("ep:4", n, rng)
            zm = sample_source("gamma:4", n, rng)
            zmp = sample_source("gamma:4", n, rng)
            stats[r] = [
                np.mean((zk**3 - pk.gamma) * zl),
                np.mean((zl**3 - pl.gamma) * zk),
                np.mean((zk**2 - 1.0) * zl),
                np.mean((zl**2 - 1.0) * zk),
                np.mean(zmp**2 * zk * zl),
                np.mean(zm * zk * zl),
                np.mean(zk * zl),
            ]
        emp = n * np.cov(stats.T, ddof=1)
        scale = np.sqrt(np.outer(np.diag(V), np.diag(V)) + V**2)
        err = np.abs(emp - V) / (scale * math.sqrt(2.0 / (reps - 1)))
        assert err.max() < 6.0, (err.max(), np.unravel_index(
            err.argmax(), err.shape))
