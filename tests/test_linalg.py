"""Linear-algebra kernel tests.

Ground truth: numpy.linalg (eigh, svd), the Jacobi engine of
``joint_diagonalize`` as an independent eigensolver, and exact
invariants — orthogonal rotations conserve Frobenius mass, the polar
factor is the nearest orthogonal matrix, and a planted commuting family
is jointly diagonalizable to machine precision.
"""

import tracemalloc

import numpy as np
import pytest

import cumica.linalg
from cumica.cumulants import cum3_stack, cum4_stack, standardize
from cumica.errors import NonFiniteInput, NotPositiveDefinite, RankDeficient
from cumica.linalg import (EIG_FLOOR, inv_sqrt_sym, is_orthogonal,
                           joint_diagonalize, polar_orthogonal,
                           random_orthogonal, sym_eig)


def random_spd(rng, p, spread=3.0):
    A = rng.normal(size=(p, p))
    return A @ A.T + spread * np.eye(p)


class TestSymEig:
    def test_matches_numpy_eigh(self):
        rng = np.random.default_rng(7)
        for p in (2, 3, 5, 8):
            for _ in range(20):
                S = rng.normal(size=(p, p))
                S = (S + S.T) / 2
                vals, vecs = sym_eig(S)
                ref = np.linalg.eigvalsh(S)[::-1]
                np.testing.assert_allclose(vals, ref, atol=1e-10)
                # vectors reconstruct S and are orthonormal
                np.testing.assert_allclose(vecs @ np.diag(vals) @ vecs.T, S,
                                           atol=1e-10)
                assert is_orthogonal(vecs)

    def test_descending_order_and_sign_convention(self):
        rng = np.random.default_rng(8)
        S = random_spd(rng, 6)
        vals, vecs = sym_eig(S)
        assert np.all(np.diff(vals) <= 1e-12)
        for j in range(6):
            col = vecs[:, j]
            assert col[np.argmax(np.abs(col))] > 0

    def test_diagonal_input(self):
        vals, vecs = sym_eig(np.diag([3.0, 1.0, 2.0]))
        np.testing.assert_allclose(vals, [3.0, 2.0, 1.0], atol=1e-14)

    def test_rejects_nonsymmetric(self):
        with pytest.raises(Exception):
            sym_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("p", [10, 30, 50])
    def test_agrees_with_jacobi_engine(self, p):
        rng = np.random.default_rng(p)
        A = rng.normal(size=(p, p))
        S = (A + A.T) / 2
        vals, vecs = sym_eig(S)
        res = joint_diagonalize([S])
        order = np.argsort(-res.diagonals[0])
        ref_vecs = res.U.T[:, order]
        flip = ref_vecs[np.abs(ref_vecs).argmax(axis=0), np.arange(p)] < 0
        ref_vecs[:, flip] *= -1.0
        np.testing.assert_allclose(vals, res.diagonals[0][order], atol=1e-12)
        np.testing.assert_allclose(vecs, ref_vecs, atol=1e-8)

    def test_sign_convention_with_repeated_eigenvalue(self):
        rng = np.random.default_rng(17)
        Q = random_orthogonal(6, rng)
        S = Q @ np.diag([4.0, 4.0, 4.0, 1.0, 1.0, 0.5]) @ Q.T
        vals, vecs = sym_eig((S + S.T) / 2)
        np.testing.assert_allclose(vals, [4, 4, 4, 1, 1, 0.5], atol=1e-12)
        np.testing.assert_allclose(vecs @ np.diag(vals) @ vecs.T, S,
                                   atol=1e-12)
        assert is_orthogonal(vecs, tol=1e-13)
        assert (vecs[np.abs(vecs).argmax(axis=0), np.arange(6)] > 0).all()

    def test_rejects_non_finite(self):
        for bad in (np.nan, np.inf):
            S = np.eye(3)
            S[1, 1] = bad
            with pytest.raises(NonFiniteInput):
                sym_eig(S)
            with pytest.raises(NonFiniteInput):
                inv_sqrt_sym(S)
            with pytest.raises(NonFiniteInput):
                joint_diagonalize([S])


class TestInvSqrt:
    def test_whitening_identity(self):
        rng = np.random.default_rng(9)
        for p in (2, 4, 7):
            S = random_spd(rng, p)
            G = inv_sqrt_sym(S)
            np.testing.assert_allclose(G @ S @ G, np.eye(p), atol=1e-10)
            np.testing.assert_allclose(G, G.T, atol=1e-12)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            inv_sqrt_sym(np.diag([1.0, -0.5]))
        with pytest.raises(NotPositiveDefinite):
            inv_sqrt_sym(np.diag([1.0, 0.0]))


class TestPolar:
    def test_recovers_orthogonal_factor(self):
        rng = np.random.default_rng(10)
        for p in (2, 3, 6):
            for _ in range(10):
                Q = random_orthogonal(p, rng)
                P = random_spd(rng, p, spread=1.0)
                U = polar_orthogonal(Q @ P)
                np.testing.assert_allclose(U, Q, atol=1e-9)

    def test_nearest_orthogonal(self):
        # the polar factor minimizes ||T - U||_F over orthogonal U
        rng = np.random.default_rng(11)
        T = rng.normal(size=(4, 4))
        U = polar_orthogonal(T)
        assert is_orthogonal(U)
        d_star = np.linalg.norm(T - U)
        for _ in range(200):
            V = random_orthogonal(4, rng)
            assert d_star <= np.linalg.norm(T - V) + 1e-10

    def test_rejects_rank_deficient(self):
        T = np.outer([1.0, 2.0], [3.0, 4.0])
        with pytest.raises(RankDeficient):
            polar_orthogonal(T)

    def test_ill_conditioned_factor_is_orthogonal(self, monkeypatch):
        # condition number 1e10: the factor comes straight from the SVD,
        # with no eigensolve and no orthogonality polish
        def no_eigensolve(S):
            raise AssertionError("polar_orthogonal called sym_eig")
        monkeypatch.setattr(cumica.linalg, "sym_eig", no_eigensolve)
        rng = np.random.default_rng(21)
        Q1, Q2 = random_orthogonal(6, rng), random_orthogonal(6, rng)
        T = Q1 @ np.diag(np.logspace(0, -10, 6)) @ Q2.T
        U = polar_orthogonal(T)
        assert np.abs(U @ U.T - np.eye(6)).max() <= 1e-12
        np.testing.assert_allclose(U, Q1 @ Q2.T, atol=1e-8)

    def test_rank_threshold_on_singular_value_ratio(self):
        rng = np.random.default_rng(22)
        Q1, Q2 = random_orthogonal(6, rng), random_orthogonal(6, rng)

        def with_smallest(ratio):
            return Q1 @ np.diag([1.0, 0.7, 0.5, 0.3, 0.2, ratio]) @ Q2.T
        with pytest.raises(RankDeficient):
            polar_orthogonal(with_smallest(0.99 * EIG_FLOOR))
        assert is_orthogonal(polar_orthogonal(with_smallest(1.01 * EIG_FLOOR)))

    def test_rejects_non_finite(self):
        with pytest.raises(NonFiniteInput):
            polar_orthogonal(np.array([[1.0, np.nan], [0.0, 1.0]]))


class TestRandomOrthogonal:
    def test_orthogonal_and_deterministic(self):
        a = random_orthogonal(5, np.random.default_rng(3))
        b = random_orthogonal(5, np.random.default_rng(3))
        assert np.array_equal(a, b)
        assert is_orthogonal(a)

    def test_spread(self):
        # different draws differ
        rng = np.random.default_rng(4)
        a, b = random_orthogonal(4, rng), random_orthogonal(4, rng)
        assert np.abs(a - b).max() > 1e-3


def planted_stack(rng, p, m, noise=0.0):
    """m symmetric matrices sharing the eigenbasis V (rows unmix)."""
    V = random_orthogonal(p, rng)
    mats = []
    for _ in range(m):
        d = rng.uniform(1.0, 5.0, size=p)
        M = V.T @ np.diag(d) @ V
        if noise:
            E = rng.normal(size=(p, p)) * noise
            M = M + (E + E.T) / 2
        mats.append(M)
    return np.array(mats), V


class TestJointDiagonalize:
    def test_exact_commuting_family(self):
        rng = np.random.default_rng(12)
        for p in (2, 3, 5):
            mats, V = planted_stack(rng, p, 2 * p)
            res = joint_diagonalize(mats)
            assert res.converged
            # rows of U match rows of V up to signed permutation
            M = res.U @ V.T
            np.testing.assert_allclose(np.sort(np.abs(M).max(axis=1)),
                                       np.ones(p), atol=1e-9)
            np.testing.assert_allclose(np.abs(M) @ np.abs(M).T, np.eye(p),
                                       atol=1e-8)

    def test_offdiagonal_mass_vanishes(self):
        rng = np.random.default_rng(13)
        mats, _ = planted_stack(rng, 4, 6)
        res = joint_diagonalize(mats)
        rotated = np.array([res.U @ M @ res.U.T for M in mats])
        off = sum(np.sum(R**2) - np.sum(np.diag(R)**2) for R in rotated)
        assert off < 1e-18

    def test_mass_conservation_and_monotone_objective(self):
        rng = np.random.default_rng(14)
        mats, _ = planted_stack(rng, 4, 5, noise=0.05)
        w = rng.uniform(0.5, 2.0, size=5)
        res = joint_diagonalize(mats, weights=w)
        np.testing.assert_allclose(res.mass_history,
                                   res.mass_history[0], rtol=1e-12)
        assert np.all(np.diff(res.objective_history) >= -1e-10)

    def test_weighted_objective_value(self):
        rng = np.random.default_rng(15)
        mats, _ = planted_stack(rng, 3, 4, noise=0.1)
        w = np.array([2.0, 1.0, 0.5, 0.25])
        res = joint_diagonalize(mats, weights=w)
        obj = sum(wi * np.sum(np.diag(res.U @ M @ res.U.T) ** 2)
                  for wi, M in zip(w, mats))
        np.testing.assert_allclose(res.objective, obj, rtol=1e-12)

    def test_single_matrix_agrees_with_sym_eig(self):
        rng = np.random.default_rng(16)
        S = random_spd(rng, 4)
        res = joint_diagonalize(np.array([S]))
        d = np.diag(res.U @ S @ res.U.T)
        np.testing.assert_allclose(np.sort(d), np.sort(np.linalg.eigvalsh(S)),
                                   atol=1e-9)

    def test_rejects_bad_stack(self):
        with pytest.raises(ValueError):
            joint_diagonalize(np.zeros((0, 3, 3)))
        with pytest.raises(ValueError):
            joint_diagonalize(np.zeros((2, 3)))

    def test_weight_length_mismatch(self):
        mats = np.array([np.eye(3), np.eye(3)])
        with pytest.raises(ValueError):
            joint_diagonalize(mats, weights=[1.0])

    def test_rejects_non_symmetric_member(self):
        mats = np.array([np.eye(3)] * 3)
        mats[1, 0, 2] = 1.0
        with pytest.raises(ValueError, match=r"matrices\[1\] is not symmetric"):
            joint_diagonalize(mats)
        with pytest.raises(ValueError):
            joint_diagonalize(np.zeros((2, 3, 4)))

    def test_input_not_modified(self):
        rng = np.random.default_rng(17)
        mats, _ = planted_stack(rng, 4, 5, noise=0.05)
        before = mats.copy()
        res = joint_diagonalize(mats)
        assert res.sweeps > 0
        assert np.array_equal(mats, before)

    def test_one_copy_of_the_stack(self):
        # the p = 30 cumulant stack (495 matrices), passed as a list of
        # views the way all_cumulant passes it
        rng = np.random.default_rng(18)
        xst = standardize(rng.gamma(2.0, size=(20_000, 30))).xst
        mats = list(cum3_stack(xst)) + list(cum4_stack(xst)[0])
        stack_bytes = len(mats) * mats[0].nbytes
        tracemalloc.start()
        try:
            joint_diagonalize(mats, max_sweeps=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * stack_bytes, (peak, stack_bytes)
