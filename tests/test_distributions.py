"""Source-family moment profiles and samplers.

Dual-route validation: every analytic moment sextet is recomputed by
adaptive quadrature of the standardized density (an entirely separate
derivation), and every sampler is checked against its own profile on a
large draw.
"""

import math
import re

import numpy as np
import pytest

from cumica.distributions import (MomentProfile, SourceSpec, moment_profile,
                                  sample_source)
from cumica.errors import InvalidSpec
from oracles import (ep_density_std, gamma_density_std, mixture_density_std,
                     normal_density, quad_profile)

PI0 = (3.0 - math.sqrt(3.0)) / 6.0  # kurtosis-vanishing mixture weight


def profile_dict(pr):
    return {"gamma": pr.gamma, "beta": pr.beta, "kappa": pr.kappa,
            "nu": pr.nu, "omega": pr.omega, "eta": pr.eta}


QUAD_CASES = [
    ("gamma:0.75", gamma_density_std(0.75), -math.sqrt(0.75), np.inf),
    ("gamma:1", gamma_density_std(1.0), -1.0, np.inf),
    ("gamma:2", gamma_density_std(2.0), -math.sqrt(2.0), np.inf),
    ("gamma:4", gamma_density_std(4.0), -2.0, np.inf),
    ("ep:0.7", ep_density_std(0.7), -np.inf, np.inf),
    ("ep:1", ep_density_std(1.0), -np.inf, np.inf),
    ("ep:4", ep_density_std(4.0), -np.inf, np.inf),
    ("mix:0.3:5", mixture_density_std(0.3, 5.0), -np.inf, np.inf),
    ("mix:0.7:2", mixture_density_std(0.7, 2.0), -np.inf, np.inf),
    ("mix:0.5:3", mixture_density_std(0.5, 3.0), -np.inf, np.inf),
    ("normal", normal_density, -np.inf, np.inf),
]


class TestMomentProfiles:
    @pytest.mark.parametrize("spec,pdf,lo,hi",
                             QUAD_CASES, ids=[c[0] for c in QUAD_CASES])
    def test_against_quadrature(self, spec, pdf, lo, hi):
        got = profile_dict(moment_profile(spec))
        want = quad_profile(pdf, lo, hi)
        for key in want:
            assert abs(got[key] - want[key]) < 1e-7, (key, got[key], want[key])

    def test_normal_exact(self):
        pr = moment_profile("normal")
        assert pr == MomentProfile(gamma=0.0, beta=3.0, kappa=0.0, nu=2.0,
                                   omega=15.0, eta=0.0)

    def test_gamma_closed_forms(self):
        for a in (0.5, 1.0, 3.0, 9.0):
            pr = moment_profile(f"gamma:{a}")
            np.testing.assert_allclose(pr.gamma, 2 / math.sqrt(a), rtol=1e-13)
            np.testing.assert_allclose(pr.kappa, 6 / a, rtol=1e-13)

    def test_ep_special_points(self):
        # alpha = 2 is the normal law; alpha = 1 the Laplace (kappa = 3)
        pr2 = moment_profile("ep:2")
        assert abs(pr2.kappa) < 1e-12 and abs(pr2.gamma) < 1e-15
        pr1 = moment_profile("ep:1")
        np.testing.assert_allclose(pr1.kappa, 3.0, rtol=1e-12)

    def test_ep_moment_overflow_guard(self):
        with pytest.raises(InvalidSpec):
            moment_profile("ep:0.004")

    @pytest.mark.parametrize("spec", ["gamma:1e-300", "gamma:1e-80",
                                      "gamma:1e300", "ep:0.008"])
    def test_unrepresentable_moments_name_the_source(self, spec):
        name = re.escape(str(SourceSpec.parse(spec)))
        with pytest.raises(InvalidSpec, match=name):
            moment_profile(spec)


class TestMixtureGeometry:
    def test_skewness_sign_tracks_weight(self):
        # weight pi sits on the zero-mean component, so with mu > 0 the
        # standardized third moment mu^3 pi (1-pi) (2 pi - 1) is positive
        # exactly when pi > 1/2
        assert moment_profile("mix:0.6:2").gamma > 0
        assert moment_profile("mix:0.4:2").gamma < 0
        assert abs(moment_profile("mix:0.5:7").gamma) < 1e-12

    def test_third_moment_closed_form(self):
        for pi, mu in [(0.3, 5.0), (0.8, 1.5), (0.55, 9.0)]:
            pr = moment_profile(f"mix:{pi}:{mu}")
            s2 = 1 + pi * (1 - pi) * mu * mu
            want = mu**3 * pi * (1 - pi) * (2 * pi - 1) / s2**1.5
            np.testing.assert_allclose(pr.gamma, want, rtol=1e-12)

    def test_third_moment_of_tiny_shift(self):
        # moments built from the cumulants do not cancel as mu -> 0
        pi = 0.3
        v = pi * (1 - pi)
        for mu in (1e-3, 1e-5, 1e-7, 1e-70):
            want = mu**3 * v * (2 * pi - 1) / (1 + mu * mu * v) ** 1.5
            assert moment_profile(f"mix:{pi}:{mu}").gamma == pytest.approx(
                want, rel=1e-12, abs=0.0)

    def test_kurtosis_closed_form(self):
        # the fourth cumulant of the standardized mixture agrees with
        # beta - 3 where that difference does not cancel
        for pi, mu in [(0.3, 5.0), (0.1, 2.0), (0.5, 1.0)]:
            pr = moment_profile(f"mix:{pi}:{mu}")
            v = pi * (1 - pi)
            want = mu**4 * v * (1 - 6 * v) / (1 + mu * mu * v) ** 2
            assert pr.kappa == pytest.approx(want, rel=1e-15)
            assert abs(pr.kappa - (pr.beta - 3.0)) <= 1e-15

    def test_kurtosis_of_tiny_shift_is_not_rounding_noise(self):
        # beta - 3 would give -4.4e-16 here, the rounding of beta
        pr = moment_profile("mix:0.3:1e-70")
        assert pr.kappa == pytest.approx(-5.46e-282, rel=1e-12, abs=0.0)

    def test_kurtosis_vanishes_at_pole_weight(self):
        for mu in (2.0, 5.0, 10.0):
            assert abs(moment_profile(f"mix:{PI0!r}:{mu}").kappa) < 1e-12
            assert abs(moment_profile(f"mix:{1 - PI0!r}:{mu}").kappa) < 1e-12

    def test_weight_flip_is_reflection(self):
        # swapping the component weights reflects the standardized law,
        # so odd shorthand moments flip and even ones are unchanged
        for pi, mu in [(0.2, 3.0), (0.45, 6.0)]:
            a = moment_profile(f"mix:{pi}:{mu}")
            b = moment_profile(f"mix:{1 - pi}:{mu}")
            np.testing.assert_allclose(
                [b.gamma, b.eta], [-a.gamma, -a.eta], atol=1e-12)
            np.testing.assert_allclose(
                [b.beta, b.kappa, b.nu, b.omega],
                [a.beta, a.kappa, a.nu, a.omega], atol=1e-12)


class TestSamplers:
    @pytest.mark.parametrize("spec", ["gamma:1", "gamma:4", "ep:1", "ep:4",
                                      "mix:0.3:5", "mix:0.7:2", "normal"])
    def test_sample_moments_match_profile(self, spec):
        rng = np.random.default_rng(20)
        z = sample_source(spec, 400_000, rng)
        pr = moment_profile(spec)
        assert abs(z.mean()) < 0.02
        assert abs(z.var() - 1.0) < 0.04
        assert abs(np.mean(z**3) - pr.gamma) < 0.12
        assert abs(np.mean(z**4) - pr.beta) < 0.5

    def test_mixture_sample_orientation(self):
        # with pi = 0.2 most mass follows the shifted component, so the
        # standardized draw is left-skewed for mu > 0
        rng = np.random.default_rng(21)
        z = sample_source("mix:0.2:4", 100_000, rng)
        assert np.mean(z**3) < -0.5

    def test_deterministic_given_seed(self):
        a = sample_source("gamma:2", 1000, np.random.default_rng(5))
        b = sample_source("gamma:2", 1000, np.random.default_rng(5))
        assert np.array_equal(a, b)

    def test_accepts_spec_objects(self):
        spec = SourceSpec.parse("ep:4")
        z = sample_source(spec, 100, np.random.default_rng(0))
        assert z.shape == (100,)


class TestSourceSpec:
    def test_str_parse_round_trip(self):
        for text in ["gamma:2", "ep:0.8", "mix:0.3:5", "normal"]:
            spec = SourceSpec.parse(text)
            assert SourceSpec.parse(str(spec)) == spec

    @pytest.mark.parametrize("bad", [
        "gamma:0", "gamma:-1", "gamma", "ep:0", "ep:-2", "mix:0:1",
        "mix:1:1", "mix:0.5:0", "mix:0.5", "normal:1", "cauchy:3", "",
        "gamma:abc", "mix:0.5:1:2", "ep", "ep:1:2", "gamma:nan", "ep:inf",
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(InvalidSpec):
            SourceSpec.parse(bad)

    def test_unknown_family_of_a_built_spec(self):
        # a spec built directly is checked as parse() checks it
        with pytest.raises(InvalidSpec, match=r"unknown source family"):
            SourceSpec("cauchy", (3.0,))

    @pytest.mark.parametrize("family,params,message", [
        ("gamma", (-1.0,), "gamma shape must be positive, got -1.0"),
        ("ep", (0.0,), "ep exponent must be positive, got 0.0"),
        ("normal", (3.0,), "normal takes no parameters"),
        ("mix", (0.5,), r"mix takes exactly two parameters \(pi, mu\)"),
        ("gamma", (math.inf,), "non-finite parameter in source spec "
                               "'gamma:inf'"),
        ("gamma", ("abc",), "non-numeric parameter"),
        ("gamma", 2.0, "non-numeric parameter"),
        # a string is not read character by character
        ("gamma", "2", "^source spec parameters must be a sequence, got "
                       "the string '2'$"),
        ("mix", "35", "got the string '35'$"),
    ])
    def test_a_built_spec_is_checked(self, family, params, message):
        # checked when built, before the moment formulas or the sampler
        # can see it
        with pytest.raises(InvalidSpec, match=message):
            SourceSpec(family, params)

    def test_a_built_spec_has_float_params(self):
        spec = SourceSpec("mix", [1 / 4, 5])
        assert spec.params == (0.25, 5.0)
        assert all(type(v) is float for v in spec.params)
        assert spec == SourceSpec.parse("mix:0.25:5")
        assert moment_profile(spec) == moment_profile("mix:0.25:5")
