"""Standardization and cumulant-statistic tests.

Ground truth: brute-force einsum moment tensors on small samples (exact
agreement expected) plus population values on large samples (statistical
agreement).  The fourth-cumulant slices are checked against a full
(p,p,p,p) cumulant tensor built independently from its textbook
definition.
"""

import itertools
import tracemalloc
import warnings
from functools import partial

import numpy as np
import pytest

from cumica import cumulants
from cumica.cumulants import (_BLOCK_ENTRIES, _cumulant_stacks,
                              _pair_moments, _row_sums, _RowMoments,
                              _TensorMoments, compound_matrices, cum3_stack,
                              cum4_stack, fobi_matrix, projection_cumulants,
                              sample_cov, standardize)
from cumica.distributions import sample_source
from cumica.errors import (NonFiniteInput, NotPositiveDefinite, NotUnit,
                           SingularCustomWhitener)
from cumica.linalg import inv_sqrt_sym, random_orthogonal
from oracles import cum3_matrix, cum4_matrix, standardize_rows

EPS = np.finfo(float).eps


def _gamma_sample(n=2000):
    """An (n, 3) sample of standardized gamma:1, gamma:2, gamma:4."""
    rng = np.random.default_rng(0)
    return np.column_stack([sample_source(f"gamma:{a}", n, rng)
                            for a in (1, 2, 4)])


def blocked_rows(p):
    """A row count spanning three full row blocks of p columns and part
    of a fourth."""
    return 3 * (_BLOCK_ENTRIES // p) + 11


def within_summation_error(got, terms, axis=0):
    """Whether ``got`` is the mean of ``terms`` along ``axis`` to within a
    regrouped sum's rounding: for n terms that grows as ``sqrt(n) eps``
    times their mean magnitude, here with a margin of 8, fixed before any
    blocked sum was measured."""
    n = terms.shape[axis]
    ref = terms.sum(axis=axis) / n
    scale = np.abs(terms).sum(axis=axis) / n
    return np.all(np.abs(got - ref) <= 8.0 * np.sqrt(n) * EPS * scale)


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

    def test_mean_is_numpy_mean(self):
        # far above numpy's 8192-element reduction buffer, in each layout
        rng = np.random.default_rng(31)
        for p in (1, 2, 3, 10):
            X = rng.gamma(2.0, size=(50_000, p)) * 10.0 + 3.0
            for data in (X, np.asfortranarray(X), X[::2]):
                assert np.array_equal(standardize(data).mean,
                                      data.mean(axis=0))

    @pytest.mark.parametrize("p", [4, 10])
    def test_blocks_give_the_loop_reference_bits(self, p):
        rng = np.random.default_rng(p)
        X = (rng.gamma(2.0, size=(blocked_rows(p), p))
             @ rng.normal(size=(p, p)) + 5.0)
        W0 = rng.normal(size=(p, p)) + 3.0 * np.eye(p)
        for whitener in ("symmetric", W0):
            st = standardize(X, whitener=whitener)
            mean, S, xst = standardize_rows(X, st.whitener)
            assert np.array_equal(st.mean, mean)
            assert np.array_equal(st.xst, xst)
            if isinstance(whitener, str):
                assert np.array_equal(st.whitener, inv_sqrt_sym(S))

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

    def test_custom_whitener_with_a_zero_row(self):
        X = np.random.default_rng(5).normal(size=(200, 3))
        W0 = np.eye(3)
        W0[1] = 0.0
        with pytest.raises(SingularCustomWhitener, match="nonpositive"):
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
        two = X.copy()
        two[:, 0] = -2.5  # the first constant column is the one named
        # equal in the two rows that screen for constant columns only
        tie = np.random.default_rng(9).normal(size=(300, 3))
        tie[1, 1] = tie[0, 1]
        for whitener in ("symmetric", np.eye(3), np.ones((3, 3)) + np.eye(3)):
            with pytest.raises(NotPositiveDefinite,
                               match="singular: column 2 is constant"):
                standardize(X, whitener=whitener)
            with pytest.raises(NotPositiveDefinite,
                               match="singular: column 0 is constant"):
                standardize(two, whitener=whitener)
            st = standardize(tie, whitener=whitener)
            np.testing.assert_allclose(sample_cov(st.xst), np.eye(3),
                                       atol=1e-12)

    def test_other_rank_deficiency_keeps_eigenvalue_message(self):
        X = np.random.default_rng(8).normal(size=(300, 3))
        X[:, 2] = X[:, 0] - 2.0 * X[:, 1]
        with pytest.raises(NotPositiveDefinite, match="eigenvalue range"):
            standardize(X)

    @pytest.mark.parametrize("scale, error, message", [
        (1e153, NonFiniteInput, r"overflows: the data reach \|x\| = "
                                r"\d\.\d{3}e\+153; rescale the data$"),
        (1e306, NonFiniteInput, r"overflows: .* = \d\.\d{3}e\+306;"),
        (1e-160, NotPositiveDefinite, r"is subnormal: the centered data "
                                      r"reach only \|x - mean\| = "
                                      r"\d\.\d{3}e-160; rescale the data$"),
        (1e-162, NotPositiveDefinite, r"is subnormal: .* = \d\.\d{3}e-162;"),
    ])
    def test_covariance_out_of_range_names_the_scale(self, scale, error,
                                                     message):
        # finite data whose covariance overflows, or underflows to where
        # a fit at 1e-160 was off by 2.5e-2 relative
        # positive, so at 1e306 the column sums of the mean overflow too
        X = np.abs(_gamma_sample()) * scale
        for whitener in ("symmetric", np.eye(3)):
            with warnings.catch_warnings(), pytest.raises(
                    error, match="^sample covariance " + message):
                warnings.simplefilter("error")  # none leaks
                standardize(X, whitener=whitener)

    @pytest.mark.parametrize("scale", [1e152, 1e-150])
    def test_covariance_in_range_whitens_at_any_scale(self, scale):
        X = _gamma_sample()
        ref = standardize(X)
        st = standardize(X * scale)
        np.testing.assert_allclose(st.whitener * scale, ref.whitener,
                                   rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(st.xst, ref.xst, rtol=1e-12, atol=1e-12)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            standardize(np.zeros(10))
        with pytest.raises(ValueError, match="at least one column"):
            standardize(np.zeros((1, 0)))
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
        for u in ([1.0, 1.0, 0.0], [np.nan, 0.0, 0.0], [np.inf, 0.0, 0.0]):
            with pytest.raises(NotUnit):
                projection_cumulants(X, np.array(u))

    def test_rejects_bad_shapes(self):
        X = small_sample()
        with pytest.raises(ValueError, match=r"u has length 2, expected 3"):
            projection_cumulants(X, [1.0, 0.0])
        with pytest.raises(ValueError, match=r"expected a 2-d data matrix"):
            projection_cumulants(X[:, 0], [1.0])


class TestSourceMoments:
    """The moment kernels against moments written out here."""

    @staticmethod
    def rotations():
        rng = np.random.default_rng(15)
        yield np.eye(3)
        for _ in range(3):
            yield random_orthogonal(3, rng)
        yield random_orthogonal(3, rng)[1:2]  # one deflation-stage row

    @staticmethod
    def kernels(X):
        """Both kernels of the sample X, as ``U -> kernel``."""
        return (partial(_RowMoments, X),
                partial(_TensorMoments, _pair_moments(X)[1:]))

    def test_matches_written_out_moments(self):
        X = small_sample(seed=13)
        n = X.shape[0]
        for kernel, U in itertools.product(self.kernels(X), self.rotations()):
            mom = kernel(U)
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
                np.testing.assert_allclose(mom.gradient(alpha), T,
                                           rtol=1e-12)

    @pytest.mark.parametrize("rows", [5, 1])
    def test_tensor_kernel_matches_data_kernel(self, rows):
        # p = 5 exercises more than one off-diagonal pair per row of M4
        X = small_sample(seed=19, n=999, p=5)
        tensors = _pair_moments(X)[1:]
        rng = np.random.default_rng(17)
        for _ in range(3):
            U = random_orthogonal(5, rng)[:rows]
            ref, mom = _RowMoments(X, U), _TensorMoments(tensors, U)
            for name in ("h3", "m4", "h4"):
                np.testing.assert_allclose(getattr(mom, name),
                                           getattr(ref, name), rtol=1e-12)
            for alpha in (0.0, 0.8, 1.0):
                np.testing.assert_allclose(mom.objective(alpha),
                                           ref.objective(alpha), rtol=1e-12)
                np.testing.assert_allclose(mom.gradient(alpha),
                                           ref.gradient(alpha), rtol=1e-12,
                                           atol=1e-12)

    def test_tensor_kernel_reads_a_stack_in_groups(self, monkeypatch):
        # groups of two rotations over a stack of five give the bits of
        # the whole stack read at once, and of each rotation alone
        X = small_sample(seed=23, n=999, p=5)
        tensors = _pair_moments(X)[1:]
        rng = np.random.default_rng(29)
        U = np.array([random_orthogonal(5, rng) for _ in range(5)])
        whole = _TensorMoments(tensors, U)
        monkeypatch.setattr(cumulants, "_GATHER_ENTRIES", 2 * 5 ** 3)
        grouped = _TensorMoments(tensors, U)
        for name in ("h3", "m4", "h4"):
            assert np.array_equal(getattr(grouped, name), getattr(whole, name))
        assert np.array_equal(grouped.gradient(0.8), whole.gradient(0.8))
        for i, U_i in enumerate(U):
            alone = _TensorMoments(tensors, U_i)
            assert np.array_equal(grouped.h3[i], alone.h3)
            assert np.array_equal(grouped.gradient(0.8)[i],
                                  alone.gradient(0.8))

    def test_tensors_are_the_pair_moments(self):
        X = small_sample(seed=21, n=500, p=4)
        M3, M4 = _pair_moments(X)[1:]
        n, p = X.shape
        iu, ju, idx, _ = cumulants._pairs(p)
        pairs = [(i, j) for i in range(p) for j in range(i, p)]
        Z = np.column_stack([X[:, i] * X[:, j] for i, j in pairs])
        np.testing.assert_allclose(M3, Z.T @ X / n, rtol=1e-13,
                                   atol=1e-13)
        np.testing.assert_allclose(M4, Z.T @ Z / n, rtol=1e-13)
        assert [(int(i), int(j)) for i, j in zip(iu, ju)] == pairs
        for a in range(p):
            for b in range(p):
                assert pairs[idx[a, b]] == (min(a, b), max(a, b))

    @pytest.mark.parametrize("p", [30, 50])
    def test_tensor_setup_memory_is_bounded(self, p):
        # the two accumulators, one product of each the size of its
        # accumulator, and one block of pair products; nothing of size n
        X = np.random.default_rng(p).normal(size=(3000, p))
        m = p * (p + 1) // 2
        bound = 8 * (2 * (m * m + m * p) + _BLOCK_ENTRIES) * 1.1
        tracemalloc.start()
        try:
            M4 = _pair_moments(X)[2]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert M4.nbytes == 8 * m * m
        assert peak <= bound, (f"tensor setup peak {peak / 1e6:.1f} MB, "
                               f"bound {bound / 1e6:.1f} MB")

    def test_gradient_is_half_the_euclidean_gradient(self):
        X = small_sample(seed=14)
        U = random_orthogonal(3, np.random.default_rng(16))
        G = 2.0 * _RowMoments(X, U).gradient(0.6)
        eps = 1e-6
        for i in range(3):
            for j in range(3):
                E = np.zeros((3, 3))
                E[i, j] = eps
                fd = (_RowMoments(X, U + E).objective(0.6)
                      - _RowMoments(X, U - E).objective(0.6)) / (2 * eps)
                assert fd == pytest.approx(G[i, j], rel=1e-6, abs=1e-8)

    def test_one_block_read_is_the_kernel_bits(self):
        # n p <= _BLOCK_ENTRIES: one block, and the operations on all of Y
        X = small_sample(seed=13)
        n = X.shape[0]
        for U in self.rotations():
            Y = X @ np.ascontiguousarray(U.T)
            Y2 = Y * Y
            Y3 = Y2 * Y
            ref = [np.einsum("ij,ij->j", Y2, Y) / n,
                   np.einsum("ij,ij->j", Y2, Y2) / n,
                   Y2.T @ X / n, Y3.T @ X / n]
            mom = _RowMoments(X, U)
            got = [mom.h3, mom.m4, mom.T3, mom.T4]
            # a stack's rotations read as they would alone
            stack = _RowMoments(X, np.stack([U, U]))
            got += [stack.h3[1], stack.m4[1], stack.T3[1], stack.T4[1]]
            # the end read gives the kernel's moments, then the high ones
            h3, m4, m6, m8 = _row_sums(X, U, high=True)
            got += [h3, m4]
            for a, b in zip(got, ref + ref + ref[:2]):
                assert np.array_equal(a, b)
            assert np.array_equal(mom.h4, mom.m4 - 3.0)
            assert np.array_equal(
                m6, np.einsum("ij,ij,ij->j", Y2, Y2, Y2) / n)
            assert np.array_equal(
                m8, np.einsum("ij,ij,ij,ij->j", Y2, Y2, Y2, Y2) / n)

    def test_blocked_read_matches_the_unblocked_moments(self):
        p = 5
        X = small_sample(seed=43, n=blocked_rows(p), p=p)
        U = random_orthogonal(p, np.random.default_rng(44))
        h3, m4, T3, T4 = _row_sums(X, U)
        end = _row_sums(X, U, high=True)
        assert np.array_equal(end[0], h3) and np.array_equal(end[1], m4)
        m6, m8 = end[2:]
        Y = X @ U.T
        for m, power in ((h3, 3), (m4, 4), (m6, 6), (m8, 8)):
            assert within_summation_error(m, Y ** power)
        for T, power in ((T3, 2), (T4, 3)):
            assert within_summation_error(
                T, Y[:, :, None] ** power * X[:, None, :])
        mom = _RowMoments(X, U)
        assert np.array_equal(mom.h3, h3) and np.array_equal(mom.m4, m4)
        assert np.array_equal(mom.h4, m4 - 3.0)

    def test_projection_cumulants_read_the_kernel(self):
        X = small_sample(seed=17)
        for U in self.rotations():
            mom = _RowMoments(X, U)
            for k, u in enumerate(U):
                h3, h4 = projection_cumulants(X, u)
                np.testing.assert_allclose(h3, mom.h3[k], rtol=1e-12)
                np.testing.assert_allclose(h4, mom.h4[k], rtol=1e-12)


class TestCumulantMatrices:
    @staticmethod
    def unblocked(X):
        """The FOBI scatter, C3 and C4 in one product each over all rows."""
        n = X.shape[0]
        S = X.T @ X / n
        F = (X * (X * X).sum(axis=1)[:, None]).T @ X / n
        C3 = (X * X.sum(axis=1)[:, None]).T @ X / n
        C4 = F - np.trace(S) * S - 2.0 * (S @ S)
        return F, (C3 + C3.T) / 2.0, (C4 + C4.T) / 2.0

    def test_one_block_scatters_are_the_unblocked_bits(self):
        X = small_sample(seed=37, n=1000, p=4)
        F, C3, C4 = self.unblocked(X)
        assert np.array_equal(fobi_matrix(X), F)
        got3, got4 = compound_matrices(X)
        assert np.array_equal(got3, C3) and np.array_equal(got4, C4)

    def test_blocked_scatters_match_the_unblocked_formulas(self):
        p = 6
        X = small_sample(seed=41, n=blocked_rows(p), p=p)
        F, C3, C4 = self.unblocked(X)
        r2 = (X * X).sum(axis=1)
        fobi_terms = X[:, :, None] * X[:, None, :] * r2[:, None, None]
        assert within_summation_error(fobi_matrix(X), fobi_terms)
        got3, got4 = compound_matrices(X)
        c3_terms = X[:, :, None] * X[:, None, :] * X.sum(axis=1)[:, None, None]
        assert within_summation_error(got3, c3_terms)
        # C4 differs from the unblocked one only through the FOBI scatter
        scale = np.abs(fobi_terms).mean(axis=0)
        assert np.all(np.abs(got4 - C4)
                      <= 8.0 * np.sqrt(len(X)) * EPS * scale)
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
        # independent standardized gamma sources: the third-cumulant
        # matrix i is close to gamma_i e_i e_i^T, the fourth-cumulant
        # matrix of the pair (i, i) to kappa_i e_i e_i^T
        rng = np.random.default_rng(12)
        n = 60_000
        shapes = [1.0, 4.0]
        Z = np.column_stack([sample_source(f"gamma:{a}", n, rng)
                             for a in shapes])
        X = standardize(Z).xst
        S3 = cum3_stack(X)
        S4, pairs = cum4_stack(X)
        for i, a in enumerate(shapes):
            gamma, kappa = 2 / np.sqrt(a), 6 / a
            C3 = S3[i]
            C4 = S4[pairs.index((i, i))]
            assert abs(C3[i, i] - gamma) < 0.15
            assert abs(C4[i, i] - kappa) < 0.5
            off = C3 - np.diag(np.diag(C3))
            assert np.abs(off).max() < 0.1


class TestRowBlockMemory:
    """The blocked steps hold the stated number of sample-sized arrays and
    a few row blocks of ``_BLOCK_ENTRIES`` floats, whatever n is; each
    allowance counts the blocks that can be live at once, plus one."""

    @pytest.mark.parametrize("step,copies,blocks", [
        (standardize, 1, 2),  # the centered copy; a block's product
        (fobi_matrix, 0, 2),  # a block's weighted copy
        (compound_matrices, 0, 2),
        # a block of Y and of Y^2 (then Y^3, in place), in each read
        (lambda X: _RowMoments(X, np.eye(X.shape[1])), 0, 3),
        (lambda X: _row_sums(X, np.eye(X.shape[1]), high=True), 0, 3),
        (lambda X: _RowMoments(X, np.eye(X.shape[1])).gradient(0.5), 0, 3),
        (lambda X: _RowMoments(X, np.stack([np.eye(X.shape[1])] * 3))
         .gradient(0.5), 0, 3)],
        ids=["standardize", "fobi_matrix", "compound_matrices", "read",
             "high_read", "kernel", "kernel_stack"])
    def test_peak_is_bounded(self, step, copies, blocks):
        X = np.random.default_rng(47).normal(size=(blocked_rows(10), 10))
        bound = copies * X.nbytes + blocks * 8 * _BLOCK_ENTRIES
        tracemalloc.start()
        try:
            step(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, (f"peak {peak / 1e6:.2f} MB, bound "
                               f"{bound / 1e6:.2f} MB")


def _rows_per_block(p):
    # the pair buffer holds a row of ones, the p columns and the m pairs
    return _BLOCK_ENTRIES // (1 + p + p * (p + 1) // 2)


class TestPairAccumulator:
    """The stacks are summed over row blocks of a fixed number of entries;
    they must not depend on where the block boundaries fall."""

    @pytest.mark.parametrize("p", [1, 2, 30])
    @pytest.mark.parametrize("blocks", ["below_one", "exactly_two",
                                        "two_plus_one"])
    def test_stacks_match_bruteforce_einsum(self, p, blocks):
        rows = _rows_per_block(p)
        n = {"below_one": max(p + 2, rows // 3), "exactly_two": 2 * rows,
             "two_plus_one": 2 * rows + 1}[blocks]
        rng = np.random.default_rng(p * 10 + len(blocks))
        X = standardize(rng.normal(size=(n, p)) ** 3
                        + 0.3 * rng.normal(size=(n, p))).xst
        T3 = np.einsum("ri,ra,rb->iab", X, X, X, optimize=True) / n
        S3 = cum3_stack(X)
        np.testing.assert_allclose(S3, T3, rtol=1e-12,
                                   atol=1e-12 * np.abs(T3).max())
        XX = np.einsum("ri,rj->rij", X, X)
        m4 = np.einsum("rij,rab->ijab", XX, XX, optimize=True) / n
        S = X.T @ X / n
        K = (m4 - np.einsum("ij,ab->ijab", S, S)
             - np.einsum("ai,bj->ijab", S, S)
             - np.einsum("aj,bi->ijab", S, S))
        S4, pairs = cum4_stack(X)
        assert pairs == [(i, j) for i in range(p) for j in range(i, p)]
        ref = np.stack([K[i, j] for i, j in pairs])
        np.testing.assert_allclose(S4, ref, rtol=1e-12,
                                   atol=1e-12 * np.abs(ref).max())

    @pytest.mark.parametrize("p", [2, 5])
    def test_slices_exactly_symmetric(self, p):
        X = small_sample(seed=13, n=2 * _rows_per_block(p) + 7, p=p)
        S3 = cum3_stack(X)
        S4, _ = cum4_stack(X)
        assert np.array_equal(S3, S3.transpose(0, 2, 1))
        assert np.array_equal(S4, S4.transpose(0, 2, 1))

    @pytest.mark.parametrize("third,fourth", [(True, True), (True, False),
                                              (False, True)])
    def test_one_pass_gives_the_stacks(self, third, fourth):
        # the stacks of one pass are bitwise those of the public calls
        X = small_sample(seed=15, n=2 * _rows_per_block(4) + 3, p=4)
        c3, c4, _ = _cumulant_stacks(X, third, fourth)
        assert (c3 is None) == (not third) and (c4 is None) == (not fourth)
        if third:
            assert np.array_equal(c3, cum3_stack(X))
        if fourth:
            assert np.array_equal(c4, cum4_stack(X)[0])

    @pytest.mark.parametrize("p", [3, 10])
    def test_covariance_comes_from_the_pair_sums(self, p):
        # the fourth-cumulant correction reads S from the pair pass, with
        # no Gram pass of its own; p = 10 spans three blocks
        X = small_sample(seed=16, n=10_000, p=p)
        S = cumulants._pair_moments(X)[0]
        ref = X.T @ X / len(X)
        assert np.array_equal(S, S.T)
        np.testing.assert_allclose(S, ref, rtol=0,
                                   atol=1e-14 * np.abs(ref).max())

    def test_cum4_stack_memory_is_bounded(self):
        # the n x p^2 pair-product matrix alone would be 144 MB here
        rng = np.random.default_rng(14)
        X = rng.normal(size=(20_000, 30))
        tracemalloc.start()
        try:
            cum4_stack(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32e6, f"cum4_stack peak {peak / 1e6:.1f} MB"
