"""Standardization and cumulant-statistic tests.

Ground truth: brute-force einsum moment tensors on small samples (exact
agreement expected) plus population values on large samples (statistical
agreement).  The fourth-cumulant slices are checked against a full
(p,p,p,p) cumulant tensor built independently from its textbook
definition.
"""

import numpy as np
import pytest

from cumica.cumulants import (_SourceMoments, compound_matrices, cum3_matrix,
                              cum3_stack, cum4_matrix, cum4_stack,
                              fobi_matrix, projection_cumulants, sample_cov,
                              standardize)
from cumica.distributions import sample_source
from cumica.errors import (IndexOutOfRange, NotPositiveDefinite, NotUnit,
                           SingularCustomWhitener)
from cumica.linalg import random_orthogonal


def small_sample(seed=0, n=300, p=3):
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(n, p)) ** 3 + 0.3 * rng.normal(size=(n, p))
    return standardize(raw).xst


def full_cum4_tensor(X):
    """Textbook fourth cumulant of zero-mean data, built the slow way."""
    n = X.shape[0]
    m4 = np.einsum("ra,rb,rc,rd->abcd", X, X, X, X) / n
    S = X.T @ X / n
    return (m4
            - np.einsum("ab,cd->abcd", S, S)
            - np.einsum("ac,bd->abcd", S, S)
            - np.einsum("ad,bc->abcd", S, S))


class TestStandardize:
    def test_zero_mean_identity_cov(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(500, 4)) @ rng.normal(size=(4, 4)) + [1, 2, 3, 4]
        st = standardize(X)
        np.testing.assert_allclose(st.xst.mean(axis=0), 0, atol=1e-12)
        np.testing.assert_allclose(sample_cov(st.xst), np.eye(4), atol=1e-12)
        np.testing.assert_allclose(st.xst, (X - st.mean) @ st.whitener.T,
                                   atol=1e-12)

    def test_symmetric_whitener_is_symmetric(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(400, 3)) @ rng.normal(size=(3, 3))
        G = standardize(X).whitener
        np.testing.assert_allclose(G, G.T, atol=1e-12)

    def test_custom_whitener_also_whitens(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(600, 3)) @ rng.normal(size=(3, 3))
        W0 = rng.normal(size=(3, 3)) + 2 * np.eye(3)
        st = standardize(X, whitener=W0)
        np.testing.assert_allclose(sample_cov(st.xst), np.eye(3), atol=1e-10)

    def test_custom_whitener_fixed_point(self):
        # a whitener that already works is returned essentially unchanged
        rng = np.random.default_rng(4)
        X = rng.normal(size=(500, 3)) @ rng.normal(size=(3, 3))
        G = standardize(X).whitener
        st2 = standardize(X, whitener=G)
        np.testing.assert_allclose(st2.whitener, G, atol=1e-10)

    def test_singular_custom_whitener(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(200, 3))
        W0 = np.ones((3, 3))  # rank one
        with pytest.raises(SingularCustomWhitener):
            standardize(X, whitener=W0)

    @pytest.mark.parametrize("n", [1, 3, 4])
    def test_too_few_observations_named(self, n):
        X = np.random.default_rng(6).normal(size=(n, 4))
        for whitener in ("symmetric", np.eye(4)):
            with pytest.raises(NotPositiveDefinite,
                               match=f"singular: {n} observations of 4 "
                                     f"variables"):
                standardize(X, whitener=whitener)

    def test_constant_column_named(self):
        X = np.random.default_rng(7).normal(size=(300, 3))
        X[:, 2] = 0.1  # its mean rounds, so centering leaves tiny noise
        for whitener in ("symmetric", np.eye(3), np.ones((3, 3)) + np.eye(3)):
            with pytest.raises(NotPositiveDefinite,
                               match="singular: column 2 is constant"):
                standardize(X, whitener=whitener)

    def test_other_rank_deficiency_keeps_eigenvalue_message(self):
        X = np.random.default_rng(8).normal(size=(300, 3))
        X[:, 2] = X[:, 0] - 2.0 * X[:, 1]
        with pytest.raises(NotPositiveDefinite, match="eigenvalue range"):
            standardize(X)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            standardize(np.zeros(10))
        with pytest.raises(ValueError):
            standardize(np.zeros((10, 2)), whitener="qr")
        with pytest.raises(ValueError):
            standardize(np.zeros((10, 2)) + np.random.default_rng(0).normal(
                size=(10, 2)), whitener=np.eye(3))


class TestProjectionCumulants:
    def test_matches_direct_moments(self):
        X = small_sample()
        rng = np.random.default_rng(6)
        for _ in range(25):
            u = rng.normal(size=3)
            u /= np.linalg.norm(u)
            h3, h4 = projection_cumulants(X, u)
            y = X @ u
            np.testing.assert_allclose(h3, np.mean(y**3), rtol=1e-12)
            np.testing.assert_allclose(h4, np.mean(y**4) - 3, rtol=1e-12)

    def test_rejects_non_unit(self):
        X = small_sample()
        with pytest.raises(NotUnit):
            projection_cumulants(X, np.array([1.0, 1.0, 0.0]))


class TestSourceMoments:
    """The moment kernel against moments written out here."""

    @staticmethod
    def rotations():
        rng = np.random.default_rng(15)
        yield np.eye(3)
        for _ in range(3):
            yield random_orthogonal(3, rng)
        yield random_orthogonal(3, rng)[1:2]  # one deflation-stage row

    def test_matches_written_out_moments(self):
        X = small_sample(seed=13)
        n = X.shape[0]
        for U in self.rotations():
            mom = _SourceMoments(X, U)
            Y = X @ U.T
            h3 = np.mean(Y**3, axis=0)
            m4 = np.mean(Y**4, axis=0)
            np.testing.assert_allclose(mom.h3, h3, rtol=1e-12)
            np.testing.assert_allclose(mom.m4, m4, rtol=1e-12)
            np.testing.assert_allclose(mom.h4, m4 - 3.0, rtol=1e-12)
            for alpha in (0.0, 0.3, 0.8, 1.0):
                obj = (alpha * np.sum(h3**2)
                       + (1.0 - alpha) * np.sum((m4 - 3.0)**2))
                np.testing.assert_allclose(mom.objective(alpha), obj,
                                           rtol=1e-12)
                T = np.array([
                    3.0 * alpha * h3[k] * (Y[:, k]**2 @ X) / n
                    + 4.0 * (1.0 - alpha) * (m4[k] - 3.0)
                    * (Y[:, k]**3 @ X) / n
                    for k in range(U.shape[0])])
                np.testing.assert_allclose(mom.gradient(alpha, X), T,
                                           rtol=1e-12)

    def test_gradient_is_half_the_euclidean_gradient(self):
        X = small_sample(seed=14)
        U = random_orthogonal(3, np.random.default_rng(16))
        G = 2.0 * _SourceMoments(X, U).gradient(0.6, X)
        eps = 1e-6
        for i in range(3):
            for j in range(3):
                E = np.zeros((3, 3))
                E[i, j] = eps
                fd = (_SourceMoments(X, U + E).objective(0.6)
                      - _SourceMoments(X, U - E).objective(0.6)) / (2 * eps)
                assert fd == pytest.approx(G[i, j], rel=1e-6, abs=1e-8)

    def test_projection_cumulants_read_the_kernel(self):
        X = small_sample(seed=17)
        for U in self.rotations():
            mom = _SourceMoments(X, U)
            for k, u in enumerate(U):
                h3, h4 = projection_cumulants(X, u)
                np.testing.assert_allclose(h3, mom.h3[k], rtol=1e-12)
                np.testing.assert_allclose(h4, mom.h4[k], rtol=1e-12)


class TestCumulantMatrices:
    def test_cum3_matches_bruteforce(self):
        X = small_sample(seed=7)
        T = np.einsum("ri,ra,rb->iab", X, X, X) / X.shape[0]
        for i in range(3):
            ref = (T[i] + T[i].T) / 2
            np.testing.assert_allclose(cum3_matrix(X, i), ref, atol=1e-12)

    def test_cum4_matches_full_tensor(self):
        X = small_sample(seed=8)
        K = full_cum4_tensor(X)
        for i in range(3):
            for j in range(3):
                ref = (K[i, j] + K[i, j].T) / 2
                np.testing.assert_allclose(cum4_matrix(X, i, j), ref,
                                           atol=1e-12)

    def test_stacks_match_single_slices(self):
        X = small_sample(seed=9)
        S3 = cum3_stack(X)
        for i in range(3):
            np.testing.assert_allclose(S3[i], cum3_matrix(X, i), atol=1e-13)
        S4, pairs = cum4_stack(X)
        assert pairs == [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]
        for m, (i, j) in enumerate(pairs):
            np.testing.assert_allclose(S4[m], cum4_matrix(X, i, j),
                                       atol=1e-13)

    def test_compound_is_index_sum(self):
        X = small_sample(seed=10)
        C3, C4 = compound_matrices(X)
        np.testing.assert_allclose(C3, sum(cum3_matrix(X, i)
                                           for i in range(3)), atol=1e-13)
        np.testing.assert_allclose(C4, sum(cum4_matrix(X, i, i)
                                           for i in range(3)), atol=1e-13)

    def test_fobi_identity(self):
        # on exactly standardized data: mean(||x||^2 xx^T) equals the
        # compound fourth-cumulant matrix plus (p + 2) I
        X = small_sample(seed=11)
        _, C4 = compound_matrices(X)
        np.testing.assert_allclose(fobi_matrix(X), C4 + 5 * np.eye(3),
                                   atol=1e-10)

    def test_population_values_on_independent_sources(self):
        # independent standardized gamma sources: cum3_matrix(i) is close
        # to gamma_i e_i e_i^T, cum4_matrix(i,i) to kappa_i e_i e_i^T
        rng = np.random.default_rng(12)
        n = 60_000
        shapes = [1.0, 4.0]
        Z = np.column_stack([sample_source(f"gamma:{a}", n, rng)
                             for a in shapes])
        X = standardize(Z).xst
        for i, a in enumerate(shapes):
            gamma, kappa = 2 / np.sqrt(a), 6 / a
            C3 = cum3_matrix(X, i)
            C4 = cum4_matrix(X, i, i)
            assert abs(C3[i, i] - gamma) < 0.15
            assert abs(C4[i, i] - kappa) < 0.5
            off = C3 - np.diag(np.diag(C3))
            assert np.abs(off).max() < 0.1

    def test_index_errors(self):
        X = small_sample()
        with pytest.raises(IndexOutOfRange):
            cum3_matrix(X, 3)
        with pytest.raises(IndexOutOfRange):
            cum4_matrix(X, 0, -1)
