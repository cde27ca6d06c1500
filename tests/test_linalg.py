"""Linear-algebra kernel tests.

Ground truth: numpy.linalg (eigh, svd), the Jacobi engine of
``joint_diagonalize`` as an independent eigensolver, and exact
invariants — orthogonal rotations conserve Frobenius mass, the polar
factor is the nearest orthogonal matrix, and a planted commuting family
is jointly diagonalizable to machine precision.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

import cumica.linalg
from cumica.cumulants import cum3_stack, cum4_stack, standardize
from cumica.errors import (CumicaError, InvalidParams, NonFiniteInput,
                           NotPositiveDefinite, RankDeficient)
from cumica.linalg import (EIG_FLOOR, inv_sqrt_sym, is_orthogonal,
                           joint_diagonalize, polar_orthogonal,
                           random_orthogonal, sym_eig)
from cumica.simulation import mdi


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
        # the message of a matrix alone, not of a stack's matrices[i]
        with pytest.raises(ValueError, match=r"^matrix is not symmetric "
                                             r"\(relative tol 1e-12\)$"):
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
        # off the diagonal with a finite mirror entry too, where the
        # asymmetry and the scale are both infinite
        for bad, at in itertools.product((np.nan, np.inf, -np.inf),
                                         ((1, 1), (0, 2))):
            S = np.eye(3)
            S[at] = bad
            for fn in (sym_eig, inv_sqrt_sym):
                with pytest.raises(NonFiniteInput,
                                   match=r"^matrix has non-finite entries$"):
                    fn(S)
            with pytest.raises(NonFiniteInput):
                joint_diagonalize([S])

    @pytest.mark.parametrize("fn", [sym_eig, inv_sqrt_sym, polar_orthogonal])
    def test_rejects_empty_matrix(self, fn):
        with pytest.raises(InvalidParams, match=r"must not be empty") as info:
            fn(np.zeros((0, 0)))
        assert isinstance(info.value, CumicaError)
        assert isinstance(info.value, ValueError)


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

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match=r"must be square"):
            polar_orthogonal(np.ones((2, 3)))


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

    def test_rejects_negative_weights(self):
        mats = np.array([np.eye(3), np.eye(3)])
        with pytest.raises(ValueError, match=r"weights must be nonnegative"):
            joint_diagonalize(mats, weights=[1.0, -0.5])

    @pytest.mark.parametrize("kwargs, message", [
        ({"weights": [np.nan, 1.0]}, "weights must be finite"),
        ({"weights": [np.inf, 1.0]}, "weights must be finite"),
        ({"tol": np.nan}, "tol must be a finite float"),
        ({"tol": "x"}, "tol must be a finite float"),
        ({"tol": True}, "tol must be a finite float"),
        ({"tol": 0.0}, "tol must be positive"),
        ({"max_sweeps": 0.5}, "max_sweeps must be a non-negative integer"),
        ({"max_sweeps": True}, "max_sweeps must be a non-negative integer"),
        ({"max_sweeps": -1}, "max_sweeps must be a non-negative integer"),
    ])
    def test_rejects_bad_controls(self, kwargs, message):
        # a NaN weight would make a NaN angle, which _jacobi counts as
        # below tol: U = I reported converged with a NaN objective
        mats = np.array([np.diag([1.0, 2.0, 3.0]), np.ones((3, 3))])
        with pytest.raises(InvalidParams, match=message):
            joint_diagonalize(mats, **kwargs)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("p", [2, 4])
    def test_overflowing_mass_raises_non_finite_input(self, p):
        # squares that overflow make the objective inf and every gain
        # NaN, so no sweep could stop; just below, the sweeps run as at
        # unit scale
        mats, _ = planted_stack(np.random.default_rng(17), p, 3, noise=0.3)
        with pytest.raises(NonFiniteInput, match=(
                r"^the weighted squared mass of the matrices overflows: "
                r"they reach \|a\| = \d\.\d{3}e\+160; rescale them$")):
            joint_diagonalize(mats * 1e160)
        big, unit = joint_diagonalize(mats * 1e150), joint_diagonalize(mats)
        assert big.converged and math.isfinite(big.objective)
        assert big.objective == pytest.approx(1e300 * unit.objective,
                                              rel=1e-12)
        np.testing.assert_allclose(big.U, unit.U, atol=1e-9)

    def test_rejects_a_member_of_another_shape(self):
        # the first matrix sets the shape the others are copied into
        with pytest.raises(ValueError, match=r"shape"):
            joint_diagonalize([np.eye(3), np.eye(2)])

    def test_a_scalar_stack_takes_no_rotation(self):
        # equal diagonals and no off-diagonal mass: every pair's gain is
        # zero, so every angle is zero
        res = joint_diagonalize([np.eye(3), np.diag([2.0, 2.0, 2.0])])
        assert res.converged and res.sweeps == 1
        assert np.array_equal(res.U, np.eye(3))

    def test_rejects_non_symmetric_member(self):
        mats = np.array([np.eye(3)] * 3)
        mats[1, 0, 2] = 1.0
        with pytest.raises(ValueError, match=r"matrices\[1\] is not symmetric"):
            joint_diagonalize(mats)
        with pytest.raises(ValueError):
            joint_diagonalize(np.zeros((2, 3, 4)))

    def test_symmetry_checked_per_matrix(self):
        # each matrix against its own scale, and the message names the
        # first offender, also past the first block of the stack check
        m = 2 * (cumica.linalg._CHECK_ENTRIES // 9) + 5
        mats = np.array([np.eye(3)] * m)
        mats[:, 0, 1], mats[:, 1, 0] = 1e6, 1e6 + 1e-7  # within 1e-12 * 1e6
        joint_diagonalize(mats, max_sweeps=1)
        bad = m - 3
        mats[bad] = np.eye(3)
        mats[bad, 0, 1] = 1e-7  # the same asymmetry at scale 1
        mats[bad + 1, 2, 2] = np.inf
        with pytest.raises(ValueError,
                           match=rf"^matrices\[{bad}\] is not symmetric"):
            joint_diagonalize(mats)
        mats[bad] = np.eye(3)
        with pytest.raises(NonFiniteInput,
                           match=rf"^matrices\[{bad + 1}\] has non-finite"):
            joint_diagonalize(mats)

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


def _same_result(a, b):
    """Two JointDiagResults agree to the bit, signs of zeros included."""
    return (a.U.tobytes() == b.U.tobytes() and a.sweeps == b.sweeps
            and a.converged == b.converged and a.objective == b.objective
            and a.objective_history.tobytes() == b.objective_history.tobytes()
            and a.mass_history.tobytes() == b.mass_history.tobytes()
            and a.diagonals.tobytes() == b.diagonals.tobytes())


class TestBatchedJacobi:
    """Several stacks rotate in one batch, each with its own angles,
    sweeps and convergence, and each ends as it would alone."""

    @staticmethod
    def batch(rng, p, m, noises):
        return [planted_stack(rng, p, m, noise)[0] for noise in noises]

    @pytest.mark.parametrize("p,m", [(3, 9), (5, 20), (8, 44)])
    def test_each_stack_ends_as_it_would_alone(self, p, m):
        # noise levels spread the sweep counts (4 to 58 here); a budget of
        # 5 stops the noisier stacks unconverged beside converged ones
        rng = np.random.default_rng(p)
        stacks = self.batch(rng, p, m, [0.0, 1e-3, 0.3, 1e-6, 3.0, 0.1])
        w = rng.uniform(0.5, 2.0, size=m)
        for max_sweeps in (100, 5):
            together = cumica.linalg._joint_diagonalize_stacks(
                stacks, w, 1e-10, max_sweeps)
            alone = [joint_diagonalize(S, weights=w, max_sweeps=max_sweeps)
                     for S in stacks]
            assert all(_same_result(a, b) for a, b in zip(together, alone))
            converged = [res.converged for res in together]
            if max_sweeps == 100:
                assert all(converged)
                assert len({res.sweeps for res in together}) >= 3
            else:
                assert any(converged) and not all(converged)

    def test_batch_order_does_not_matter(self):
        rng = np.random.default_rng(21)
        stacks = self.batch(rng, 4, 10, [0.2, 0.0, 0.05, 1e-4, 0.5])
        forward = cumica.linalg._joint_diagonalize_stacks(stacks, None,
                                                          1e-10, 100)
        backward = cumica.linalg._joint_diagonalize_stacks(stacks[::-1], None,
                                                           1e-10, 100)
        assert all(_same_result(a, b)
                   for a, b in zip(forward, backward[::-1]))

    def test_input_stacks_not_modified(self):
        rng = np.random.default_rng(22)
        stacks = self.batch(rng, 3, 6, [0.1, 0.2])
        before = [S.copy() for S in stacks]
        cumica.linalg._joint_diagonalize_stacks(stacks, None, 1e-10, 100)
        assert all(np.array_equal(S, B) for S, B in zip(stacks, before))


def _degenerate_stack(p, m, seed):
    """m matrices sharing the eigenbasis V, the first two eigenvalues
    equal in each: every rotation in that plane diagonalizes them."""
    rng = np.random.default_rng(seed)
    V = random_orthogonal(p, rng)
    mats = []
    for _ in range(m):
        d = rng.uniform(1.0, 5.0, size=p)
        d[1] = d[0]
        mats.append(V.T @ np.diag(d) @ V)
    return np.array(mats)


class TestJacobiOrder:
    """A sweep is a list of rounds of disjoint pairs: round-robin rounds
    for small stacks, the cyclic order a pair at a time for p <= 3 and
    for large stacks."""

    @staticmethod
    def pairs(rounds):
        return [list(zip(np.atleast_1d(k).tolist(), np.atleast_1d(l).tolist()))
                for k, l, _ in rounds]

    @pytest.mark.parametrize("p", range(2, 13))
    def test_every_pair_once_in_rounds_of_disjoint_pairs(self, p):
        every = list(itertools.combinations(range(p), 2))
        for m in (1, cumica.linalg._ROUND_ENTRIES // (p * p) + 1):
            rounds = self.pairs(cumica.linalg._rounds(p, m))
            swept = [pair for pairs in rounds for pair in pairs]
            assert sorted(swept) == every
            for pairs in rounds:
                assert all(k < l for k, l in pairs)
                used = [i for pair in pairs for i in pair]
                assert len(set(used)) == len(used)
        # round-robin: p - 1 rounds of p / 2 pairs, or p of (p - 1) / 2
        if p > 3:
            rounds = self.pairs(cumica.linalg._rounds(p, 1))
            assert len(rounds) == p - 1 + p % 2
            assert {len(pairs) for pairs in rounds} == {p // 2}

    @pytest.mark.parametrize("p", [2, 3])
    def test_small_p_sweeps_in_cyclic_order(self, p):
        for m in (1, 9, 10**6):
            rounds = cumica.linalg._rounds(p, m)
            assert [(k, l) for k, l, _ in rounds] == \
                list(itertools.combinations(range(p), 2))
            assert all(flat is None for _, _, flat in rounds)

    def test_order_follows_the_stack_size(self):
        # JADE's stack has p + p(p + 1)/2 matrices: round-robin rounds up
        # to p = 34, the cyclic order from p = 35
        def cyclic(p):
            return cumica.linalg._rounds(p, p + p * (p + 1) // 2)[0][2] is None
        assert not any(cyclic(p) for p in (4, 10, 30, 34))
        assert cyclic(35) and cyclic(50)
        assert not any(cumica.linalg._rounds(p, 2)[0][2] is None
                       for p in (4, 10, 50))

    @pytest.mark.parametrize("p,m,seed", [(5, 3, 19), (6, 2, 30), (5, 3, 28)])
    def test_a_sweep_that_gains_only_rounding_stops(self, p, m, seed):
        # the degenerate pair's closed-form angle stays large while the
        # objective no longer moves; the angle stop alone ran out of
        # these 100 sweeps
        res = joint_diagonalize(_degenerate_stack(p, m, seed), max_sweeps=100)
        assert res.converged and res.sweeps <= 10
        gains = np.diff(res.objective_history)
        assert gains[-1] <= 16 * math.ulp(res.objective)
        assert (gains[:-1] > 16 * math.ulp(res.objective)).all()
        mats = _degenerate_stack(p, m, seed)
        rotated = res.U @ mats @ res.U.T
        off = rotated - np.einsum("sii->si", rotated)[:, :, None] * np.eye(p)
        assert np.abs(off).max() < 1e-8

    @pytest.mark.parametrize("p", [3, 8])
    def test_a_stack_that_still_gains_keeps_sweeping(self, p):
        rng = np.random.default_rng(23)
        mats, _ = planted_stack(rng, p, 2 * p, noise=0.2)
        res = joint_diagonalize(mats)
        gains = np.diff(res.objective_history)
        assert res.converged and res.sweeps >= 4
        # every sweep but the last gained more than rounding
        assert (gains[:-1] > 16 * math.ulp(res.objective)).all()
        short = joint_diagonalize(mats, max_sweeps=res.sweeps - 1)
        assert not short.converged and short.sweeps == res.sweeps - 1

    @pytest.mark.parametrize("p", [3, 6])
    def test_a_sweep_below_tol_turns_nothing_and_stops(self, p):
        # beside a stack that still turns, one whose angles are all
        # nonzero but below tol turns by (c, s) = (1, 0), through _rotate
        # at p = 3 and _turn at p = 6: it keeps its bits, gains exactly
        # 0.0 and leaves after that one sweep, converged
        rng = np.random.default_rng(24)
        d = rng.uniform(1.0, 5.0, size=(4, p))
        E = rng.normal(size=(4, p, p))
        still = d[:, :, None] * np.eye(p) + 1e-14 * (E + E.transpose(0, 2, 1))
        turning, _ = planted_stack(rng, p, 4, noise=0.3)
        assert (cumica.linalg._rounds(p, 4)[0][2] is None) == (p == 3)
        angles = []
        for k, l in itertools.combinations(range(p), 2):
            h1 = still[:, k, k] - still[:, l, l]
            h2 = still[:, k, l] + still[:, l, k]
            angles.append(abs(cumica.linalg._optimal_angle(
                h1 @ h1, h1 @ h2, h2 @ h2)))
        assert 0.0 < min(angles) and max(angles) < 1e-10
        res, other = cumica.linalg._joint_diagonalize_stacks(
            [still, turning], None, 1e-10, 100)
        assert res.converged and res.sweeps == 1 and other.sweeps > 1
        assert res.objective_history[1] - res.objective_history[0] == 0.0
        assert res.diagonals.tobytes() == np.einsum("sii->si", still).tobytes()
        assert np.array_equal(res.U, np.eye(p))
        assert _same_result(res, joint_diagonalize(still))

    def test_round_robin_conserves_mass(self):
        # criterion 9's checks on stacks that take round-robin rounds
        rng = np.random.default_rng(5)
        worst_mdi = worst_drift = 0.0
        for _ in range(12):
            p = int(rng.integers(4, 13))
            m = int(rng.integers(1, 41))
            assert cumica.linalg._rounds(p, m)[0][2] is not None
            Q = random_orthogonal(p, rng)
            stack = np.stack([Q @ np.diag(rng.standard_normal(p)) @ Q.T
                              for _ in range(m)])
            res = joint_diagonalize(stack)
            assert res.converged
            worst_mdi = max(worst_mdi, mdi(res.U, Q))
            drift = np.abs(res.mass_history - res.mass_history[0]).max()
            worst_drift = max(worst_drift, drift / res.mass_history[0])
        assert worst_mdi <= 1e-8 and worst_drift <= 1e-10
