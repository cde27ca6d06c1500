"""Monte Carlo harness, performance index, and model-spec tests.

Ground truths: an exhaustive signed-permutation search for the distance
index, hand-constructed equivalence-class members that must score zero,
and bitwise agreement between serial and parallel experiment runs.
"""

import io
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import cumica.estimators
import cumica.simulation
from cumica.cumulants import _BLOCK_ENTRIES
from cumica.distributions import SourceSpec, moment_profile, sample_source
from cumica.errors import (AssumptionViolated, InvalidParams, InvalidSpec,
                           NotPositiveDefinite, SingularInput,
                           TooManyFailures)
from cumica.estimators import (SolverOptions, _all_cumulant_block,
                               all_cumulant)
from cumica.simulation import (ContourGrid, IcModelSpec, _max_assignment,
                               align_signed_permutation, canonical_method,
                               check_assumptions, contour_grid,
                               generate_ic_sample, mdi,
                               monte_carlo_experiment, read_config,
                               resolve_threads)
from oracles import mdi_bruteforce

GAMMA3 = IcModelSpec(sources=("gamma:1", "gamma:2", "gamma:4"))


class TestMdi:
    def test_matches_bruteforce(self):
        rng = np.random.default_rng(0)
        for _ in range(60):
            p = int(rng.integers(2, 5))
            W = rng.normal(size=(p, p))
            Om = rng.normal(size=(p, p))
            got, want = mdi(W, Om), mdi_bruteforce(W, Om)
            assert abs(got - want) < 1e-12
            assert 0.0 <= got <= 1.0 + 1e-12

    def test_zero_on_equivalence_class(self):
        rng = np.random.default_rng(1)
        Om = rng.normal(size=(3, 3)) + 2 * np.eye(3)
        P = np.array([[0.0, 2.5, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.7]])
        assert mdi(P @ np.linalg.inv(Om), Om) < 1e-12

    def test_identity_variants(self):
        assert mdi(np.eye(4), np.eye(4)) == 0.0
        assert mdi(np.eye(1), np.eye(1)) == 0.0
        # a maximally mixing W scores near one
        W = np.ones((3, 3)) + 1e-3 * np.eye(3)
        assert mdi(W, np.eye(3)) > 0.7

    def test_singular_input(self):
        with pytest.raises(SingularInput):
            mdi(np.zeros((2, 2)), np.eye(2))
        with pytest.raises(SingularInput):
            mdi(np.eye(2), np.outer([1.0, 2.0], [1.0, 2.0]))

    @pytest.mark.parametrize("scale", [1e155, 1e-160, 1e-170, 2.0**-600])
    def test_does_not_depend_on_the_scale_of_w(self, scale):
        # G * G of the raw gain overflows or underflows at these scales
        W = np.eye(3) + 0.02 * np.random.default_rng(3).normal(size=(3, 3))
        with np.errstate(all="raise"):
            got = mdi(scale * W, np.eye(3))
        assert got == pytest.approx(mdi(W, np.eye(3)), rel=1e-13, abs=0.0)
        if math.frexp(scale)[0] == 0.5:  # a power of two scales exactly
            assert got == mdi(W, np.eye(3))

    def test_non_finite_gain(self):
        # finite factors whose product overflows
        with np.errstate(over="ignore"), \
                pytest.raises(SingularInput, match=r"non-finite entries"):
            mdi(1e200 * np.eye(2), 1e200 * np.eye(2))

    @pytest.mark.parametrize("W,Omega", [
        (np.ones((2, 3)), np.eye(3)), (np.eye(2), np.eye(3)),
        (np.eye(3), np.ones((3, 2)))])
    def test_rejects_non_square_or_unequal(self, W, Omega):
        with pytest.raises(ValueError, match=r"two square matrices"):
            mdi(W, Omega)


class TestAlignment:
    def test_recovers_signed_permutation(self):
        rng = np.random.default_rng(2)
        base = rng.normal(size=(4, 4)) + 4 * np.eye(4)
        perm = np.zeros((4, 4))
        for i, j in enumerate((2, 0, 3, 1)):
            perm[i, j] = (-1.0) ** i
        aligned = align_signed_permutation(perm @ base, target=base)
        np.testing.assert_allclose(aligned, base, atol=1e-12)

    def test_default_target_identity(self):
        W = np.array([[0.0, -1.0], [1.0, 0.0]])
        np.testing.assert_allclose(align_signed_permutation(W), np.eye(2),
                                   atol=1e-12)

    def test_rejects_non_finite_scores(self):
        with pytest.raises(ValueError):
            align_signed_permutation(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestMaxAssignment:
    @staticmethod
    def best_by_enumeration(S):
        p = len(S)
        return max(S[np.arange(p), list(c)].sum()
                   for c in itertools.permutations(range(p)))

    @pytest.mark.parametrize("p", range(1, 7))
    def test_bruteforce_optimum(self, p):
        rng = np.random.default_rng(p)
        for trial in range(40):
            if trial % 2:  # tied scores: several optimal matchings
                S = rng.integers(0, 3, size=(p, p)).astype(float)
            else:
                S = rng.normal(size=(p, p))
            rows, cols = _max_assignment(S)
            assert np.array_equal(rows, np.arange(p))
            assert sorted(cols) == list(range(p))
            got = S[rows, cols].sum()
            assert got == pytest.approx(self.best_by_enumeration(S),
                                        rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("p", (3, 10, 30, 50))
    def test_same_columns_as_scipy(self, p):
        from scipy.optimize import linear_sum_assignment
        rng = np.random.default_rng(100 + p)
        for trial in range(10):
            if trial % 2:  # ties are broken as scipy breaks them
                S = rng.integers(0, 3, size=(p, p)).astype(float)
            else:
                S = rng.random((p, p))
            rows, cols = _max_assignment(S)
            want_rows, want_cols = linear_sum_assignment(-S)
            assert np.array_equal(rows, want_rows)
            assert np.array_equal(cols, want_cols)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match=r"needs a square matrix"):
            _max_assignment(np.ones((2, 3)))

    def test_non_finite_scores_are_named(self):
        S = np.eye(3)
        S[1, 2] = np.nan
        S[2, 0] = np.inf
        with pytest.raises(ValueError, match=r"2 non-finite .*\(1, 2\)"):
            _max_assignment(S)

    def test_package_import_leaves_scipy_unloaded(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src,
                                             os.environ.get("PYTHONPATH")]))
        code = ("import sys, cumica, cumica.cli; print(sorted(m for m in "
                "sys.modules if m == 'scipy' or m.startswith('scipy.')))")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"


class TestIcModelSpec:
    def test_parses_source_strings(self):
        m = IcModelSpec(sources=("gamma:2", "ep:4"))
        assert m.p == 2
        assert [repr(pr.gamma) for pr in m.profiles()]

    def test_identity_and_random_mixing(self):
        m = IcModelSpec(sources=("gamma:1", "gamma:2"))
        np.testing.assert_array_equal(m.mixing_matrix(), np.eye(2))
        mr = IcModelSpec(sources=("gamma:1", "gamma:2"),
                         mixing=("random", 42))
        A = mr.mixing_matrix()
        assert np.array_equal(A, mr.mixing_matrix())
        assert np.linalg.cond(A) < 1e8

    @pytest.mark.parametrize("mixing", ["identity", ("random", 42),
                                        [[2.0, 1.0], [0.0, 1.0]]],
                             ids=["identity", "random", "given"])
    def test_mixing_matrix_is_a_copy(self, mixing):
        m = IcModelSpec(sources=("gamma:1", "gamma:2"), mixing=mixing)
        A = m.mixing_matrix()
        want = A.copy()
        A[:] = 0.0
        assert m.mixing_matrix().tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", [-1, "x", 1.5, None])
    def test_random_mixing_seed_validation(self, seed):
        with pytest.raises(InvalidSpec, match="non-negative integer"):
            IcModelSpec(sources=("gamma:1", "gamma:2"),
                        mixing=("random", seed))

    @pytest.mark.parametrize("kwargs, message", [
        ({"sources": ()}, "at least one source"),
        ({"sources": ("gamma:1",), "mixing": "random"},
         "unknown mixing: 'random'"),
        ({"sources": ("gamma:1", "gamma:2"), "shift": (1.0, 2.0, 3.0)},
         "shift must have length 2"),
    ], ids=["no-sources", "mixing-string", "shift-length"])
    def test_model_validation(self, kwargs, message):
        with pytest.raises(InvalidSpec, match=message):
            IcModelSpec(**kwargs)

    def test_given_matrix_validation(self):
        good = np.array([[2.0, 1.0], [0.0, 1.0]])
        m = IcModelSpec(sources=("gamma:1", "gamma:2"), mixing=good)
        np.testing.assert_array_equal(m.mixing_matrix(), good)
        with pytest.raises(InvalidSpec):
            IcModelSpec(sources=("gamma:1", "gamma:2"),
                        mixing=np.ones((2, 2)))
        with pytest.raises(InvalidSpec):
            IcModelSpec(sources=("gamma:1", "gamma:2"), mixing=np.eye(3))

    def test_generate_sample(self):
        m = IcModelSpec(sources=("gamma:1", "ep:4"), mixing=("random", 7),
                        shift=(1.0, -2.0))
        X, Om, Z = generate_ic_sample(m, 800, np.random.default_rng(3))
        np.testing.assert_allclose(X, Z @ Om.T + [1.0, -2.0], atol=1e-12)
        with pytest.raises(InvalidSpec):
            generate_ic_sample(m, 2, np.random.default_rng(0))

    @pytest.mark.parametrize("p,mixing,shift", [
        (10, ("random", 7), np.linspace(-2.0, 4.0, 10)),
        (3, "identity", None)])
    def test_sample_is_column_major_and_the_row_product(self, p, mixing,
                                                         shift):
        # each source drawn into its own column, X from (Omega Z^T)^T:
        # the bits of stacking the columns and mixing them row by row
        model = IcModelSpec(sources=[f"gamma:{a}" for a in range(1, p + 1)],
                            mixing=mixing, shift=shift)
        X, Om, Z = generate_ic_sample(model, 2500, np.random.default_rng(5))
        rng = np.random.default_rng(5)
        cols = np.column_stack([sample_source(s, 2500, rng)
                                for s in model.sources])
        want = cols @ Om.T
        if shift is not None:
            want = want + shift
        assert X.flags.f_contiguous and Z.flags.f_contiguous
        assert Z.tobytes() == cols.tobytes()
        assert X.tobytes() == want.tobytes()

    def test_a_source_sequence_is_the_identity_mixed_model(self):
        sources = ("gamma:1", SourceSpec.parse("ep:4"))
        got = generate_ic_sample(list(sources), 200,
                                 np.random.default_rng(4))
        want = generate_ic_sample(IcModelSpec(sources=sources), 200,
                                  np.random.default_rng(4))
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()
        np.testing.assert_array_equal(got[1], np.eye(2))

    @pytest.mark.parametrize("n", [100.5, 1e3, True, "100"])
    def test_sample_size_must_be_an_integer(self, n):
        with pytest.raises(InvalidSpec, match="n must be an integer"):
            generate_ic_sample(GAMMA3, n, np.random.default_rng(0))
        generate_ic_sample(GAMMA3, np.int64(100), np.random.default_rng(0))


class TestCheckAssumptions:
    def test_assumption_numbers(self):
        assert check_assumptions(GAMMA3, "deflation", 1.0) == 3
        assert check_assumptions(GAMMA3, "symmetric", 0.0) == 4
        assert check_assumptions(GAMMA3, "jade", 0.5) == 7
        assert check_assumptions(GAMMA3, "compound", 1.0) == 5
        assert check_assumptions(GAMMA3, "compound", 0.0) == 6
        assert check_assumptions(GAMMA3, "compound", 0.5) == 8
        assert check_assumptions(GAMMA3, "fobi", 0.0) == 6
        # fobi fixes alpha = 0 whatever weight is passed
        assert check_assumptions(GAMMA3, "fobi", 1.0) == 6

    @pytest.mark.parametrize("method", ["deflation", "symmetric", "jade",
                                        "all_cumulant", "compound"])
    def test_missing_weight_rejected(self, method):
        with pytest.raises(InvalidParams, match="needs a weight alpha"):
            check_assumptions(GAMMA3, method, None)

    def test_a_source_sequence(self):
        # spec strings, parsed specs and profiles, in a plain list
        mixed = ["gamma:1", SourceSpec.parse("gamma:2"),
                 moment_profile("gamma:4")]
        for method, alpha in [("jade", 0.5), ("compound", 0.0),
                              ("deflation", 1.0)]:
            assert (check_assumptions(mixed, method, alpha)
                    == check_assumptions(GAMMA3, method, alpha))
        with pytest.raises(AssumptionViolated) as info:
            check_assumptions(["normal", "ep:2"], "symmetric", 0.0)
        assert info.value.number == 4

    @pytest.mark.parametrize("model", [[1, 2], ["gamma:1", None]])
    def test_a_non_profile_entry_is_a_type_error(self, model):
        # as the variance tables reject it
        with pytest.raises(TypeError, match="expected a MomentProfile"):
            check_assumptions(model, "symmetric", 0.5)

    def test_fobi_needs_no_weight(self):
        assert check_assumptions(GAMMA3, "fobi", None) == 6

    def test_violations(self):
        two_sym = IcModelSpec(sources=("ep:1", "ep:4"))
        with pytest.raises(AssumptionViolated) as info:
            check_assumptions(two_sym, "symmetric", 1.0)
        assert info.value.number == 3
        two_normalish = IcModelSpec(sources=("normal", "ep:2"))
        with pytest.raises(AssumptionViolated) as info:
            check_assumptions(two_normalish, "symmetric", 0.0)
        assert info.value.number == 4
        dup = IcModelSpec(sources=("gamma:2", "gamma:2"))
        with pytest.raises(AssumptionViolated) as info:
            check_assumptions(dup, "compound", 0.5)
        assert info.value.number == 8
        # duplicated non-Gaussian sources are fine for the rotation
        # methods; only a second fully Gaussian component is fatal
        assert check_assumptions(dup, "jade", 0.5) == 7
        gauss2 = IcModelSpec(sources=("normal", "normal", "gamma:1"))
        with pytest.raises(AssumptionViolated) as info:
            check_assumptions(gauss2, "jade", 0.5)
        assert info.value.number == 7

    @pytest.mark.parametrize("sources, method, alpha, number, message", [
        (("ep:1", "ep:4"), "symmetric", 1.0, 3,
         "more than one source has zero skewness"),
        (("gamma:1", "normal", "ep:2"), "deflation", 0.0, 4,
         "more than one source has zero excess kurtosis"),
        (("normal", "gamma:1", "normal"), "jade", 0.5, 7,
         "more than one source has zero skewness and zero excess kurtosis"),
        (("ep:1", "ep:4"), "compound", 1.0, 5,
         "sources 0 and 1 have equal skewness"),
        (("gamma:1", "normal", "ep:2"), "compound", 0.0, 6,
         "sources 1 and 2 have equal excess kurtosis"),
        (("gamma:1", "gamma:2", "gamma:2"), "compound", 0.5, 8,
         "sources 1 and 2 have equal skewness and equal excess kurtosis"),
    ])
    def test_violation_messages(self, sources, method, alpha, number,
                                message):
        with pytest.raises(AssumptionViolated) as info:
            check_assumptions(IcModelSpec(sources=sources), method, alpha)
        assert info.value.number == number
        assert str(info.value) == f"assumption {number} violated: {message}"

    def test_canonical_method(self):
        assert canonical_method("JADE") == "all_cumulant"
        assert canonical_method("fobi") == "compound"
        assert canonical_method("symmetric") == "symmetric"
        with pytest.raises(InvalidSpec):
            canonical_method("fastica")


class TestMonteCarlo:
    def test_serial_parallel_bitwise_identical(self):
        kw = dict(model=GAMMA3, method="symmetric", alpha=0.8, n=1200,
                  replications=16, master_seed=7,
                  opts=SolverOptions(restarts=1))
        r1 = monte_carlo_experiment(**kw, threads=1)
        r2 = monte_carlo_experiment(**kw, threads=4)
        assert np.array_equal(r1.n_var, r2.n_var)
        assert r1.mdi_mean == r2.mdi_mean

    def test_result_fields(self):
        res = monte_carlo_experiment(GAMMA3, "jade", 0.8, 1500, 24,
                                     master_seed=3, threads=1)
        assert res.method == "all_cumulant"
        assert res.failures == 0
        assert res.n_var.shape == (3, 3) and res.asv.shape == (3, 3)
        # ballpark agreement at small n / few reps: right order of magnitude
        off = ~np.eye(3, dtype=bool)
        assert np.all(res.n_var[off] / res.asv[off] > 0.3)
        assert np.all(res.n_var[off] / res.asv[off] < 3.0)
        assert np.all(np.isfinite(res.rel_err))
        assert 0 < res.mdi_mean < 0.3
        assert res.mdi_median <= res.mdi_max

    def test_fobi_alias_forces_kurtosis_weight(self):
        spread = IcModelSpec(sources=("gamma:1", "gamma:8", "ep:4"))
        res = monte_carlo_experiment(spread, "fobi", 0.9, 1200, 8,
                                     master_seed=1, threads=1)
        assert res.method == "compound" and res.alpha == 0.0

    def test_assumption_gate(self):
        bad = IcModelSpec(sources=("ep:1", "ep:4"))
        with pytest.raises(AssumptionViolated):
            monte_carlo_experiment(bad, "symmetric", 1.0, 1000, 8)

    def test_programming_error_is_not_a_failure(self, monkeypatch):
        def broken(X, alpha, opts=None):
            raise TypeError("bug in an estimator")
        monkeypatch.setitem(cumica.simulation._ESTIMATORS, "symmetric",
                            broken)
        with pytest.raises(TypeError, match="bug in an estimator"):
            monte_carlo_experiment(GAMMA3, "symmetric", 0.8, 1000, 8,
                                   threads=1)

    def test_programming_error_in_a_jade_block_is_not_a_failure(
            self, monkeypatch):
        def broken(xst, alpha):
            raise TypeError("bug in the JADE preparation")
        monkeypatch.setattr(cumica.estimators, "_all_cumulant_matrices",
                            broken)
        with pytest.raises(TypeError, match="bug in the JADE preparation"):
            monte_carlo_experiment(GAMMA3, "jade", 0.8, 1000, 8, threads=1)

    def test_too_many_failures(self):
        starved = SolverOptions(max_iter=1, tol=1e-14, restarts=1)
        with pytest.raises(TooManyFailures):
            monte_carlo_experiment(GAMMA3, "symmetric", 0.8, 1000, 8,
                                   opts=starved, threads=1)

    def test_replication_floor(self):
        with pytest.raises(InvalidSpec):
            monte_carlo_experiment(GAMMA3, "symmetric", 0.8, 1000, 1)

    @pytest.mark.parametrize("reps", [8.5, 8.0, True])
    def test_replications_must_be_an_integer(self, reps):
        with pytest.raises(InvalidSpec,
                           match="replications must be an integer"):
            monte_carlo_experiment(GAMMA3, "symmetric", 0.8, 1000, reps,
                                   threads=1)

    def test_negative_master_seed(self):
        with pytest.raises(InvalidSpec, match="non-negative integer, got -1"):
            monte_carlo_experiment(GAMMA3, "symmetric", 0.8, 1000, 8,
                                   master_seed=-1, threads=1)

    def test_a_seed_sequence_can_be_reused(self):
        # each run spawns from its own copy of the caller's SeedSequence,
        # so a second run fits the same samples as the first
        seq = np.random.SeedSequence(5)
        runs = [monte_carlo_experiment(GAMMA3, "jade", 0.8, 1000, 4,
                                       master_seed=s, threads=1)
                for s in (seq, seq, 5)]
        assert seq.n_children_spawned == 0
        for res in runs[1:]:
            assert res.n_var.tobytes() == runs[0].n_var.tobytes()

    @pytest.mark.parametrize("seed", [5, np.random.SeedSequence(5)],
                             ids=["int", "SeedSequence"])
    def test_csv_comments_are_one_line_each(self, seed):
        res = monte_carlo_experiment(GAMMA3, "jade", 0.8, 1000, 4,
                                     master_seed=seed, threads=1)
        lines = res.to_csv().splitlines()
        header = lines.index("method,alpha,n,reps,k,l,n_var,asv,rel_err")
        assert header == 4
        assert all(line.startswith("# ") for line in lines[:header])
        # the seed as given, not as the run's spawning left it
        assert lines[0].endswith(
            " seed=5" if isinstance(seed, int)
            else " seed=SeedSequence(entropy=5, spawn_key=())")

    def test_csv_round_trip(self, tmp_path):
        res = monte_carlo_experiment(GAMMA3, "symmetric", 0.8, 1200, 8,
                                     master_seed=5,
                                     opts=SolverOptions(restarts=1),
                                     threads=1)
        text = res.to_csv()
        rows = [l.split(",") for l in text.splitlines()
                if l and not l.startswith("#")]
        assert rows[0] == ["method", "alpha", "n", "reps", "k", "l",
                           "n_var", "asv", "rel_err"]
        assert len(rows) == 1 + 9
        for row in rows[1:]:
            k, l = int(row[4]), int(row[5])
            assert float(row[6]) == res.n_var[k, l]  # repr round-trips
            assert float(row[7]) == res.asv[k, l]
        buf = io.StringIO()
        res.to_csv(buf)
        assert buf.getvalue() == text
        path = tmp_path / "mc.csv"
        assert res.to_csv(path) == text
        assert path.read_text() == text


def _jade_jobs(reps, seed, n=1000, method="all_cumulant"):
    """A Monte Carlo run's settings and its replications' seeds as
    monte_carlo_experiment makes them: JADE (or ``method``) at alpha 0.8
    on the identity-mixed GAMMA3, one spawned seed each."""
    return ((GAMMA3, method, 0.8, n, SolverOptions(restarts=1)),
            np.random.SeedSequence(seed).spawn(reps))


def _alone(run, child):
    """The outcome of a replication's sample fitted by all_cumulant
    alone."""
    model, _, alpha, n, opts = run
    X, omega, _ = generate_ic_sample(
        model, n, np.random.default_rng(child.spawn(2)[0]))
    est = all_cumulant(X, alpha, opts)
    return align_signed_permutation(est.W @ omega), mdi(est.W, omega)


class TestJadeBlocks:
    """JADE replications run in fixed blocks of eight through one batched
    joint diagonalization; each ends as all_cumulant ends alone."""

    def test_every_block_position_matches_a_fit_alone(self, monkeypatch):
        # 20 replications: two full blocks and one of four
        seen = []
        outcome = cumica.simulation._outcome

        def record(est, omega):
            seen.append(outcome(est, omega))
            return seen[-1]
        monkeypatch.setattr(cumica.simulation, "_outcome", record)
        res = monte_carlo_experiment(GAMMA3, "jade", 0.8, 1000, 20,
                                     master_seed=9,
                                     opts=SolverOptions(restarts=1),
                                     threads=1)
        assert res.failures == 0 and len(seen) == 20
        run, seqs = _jade_jobs(20, 9)
        for (status, _, aligned, score), child in zip(seen, seqs):
            alone, alone_score = _alone(run, child)
            assert status == "ok"
            assert aligned.tobytes() == alone.tobytes()
            assert score == alone_score

    def test_n_var_is_bitwise_equal_for_any_worker_count(self):
        kw = dict(model=GAMMA3, method="jade", alpha=0.8, n=1000,
                  replications=20, master_seed=11,
                  opts=SolverOptions(restarts=1))
        runs = [monte_carlo_experiment(**kw, threads=t) for t in (1, 2, 4)]
        assert runs[0].n_var.tobytes() == runs[1].n_var.tobytes()
        assert runs[0].n_var.tobytes() == runs[2].n_var.tobytes()
        assert runs[0].mdi_mean == runs[1].mdi_mean == runs[2].mdi_mean

    @pytest.mark.parametrize("method", ["jade", "symmetric"])
    def test_n_var_is_bitwise_equal_at_a_large_sample(self, method):
        # at n = 1e4 a replication's sample and pair buffer are large
        # enough to be mapped afresh, not carved from the heap, so their
        # alignment differs from the small runs' above
        kw = dict(model=GAMMA3, method=method, alpha=0.8, n=10_000,
                  replications=16, master_seed=5,
                  opts=SolverOptions(restarts=1))
        runs = [monte_carlo_experiment(**kw, threads=t) for t in (1, 2)]
        assert runs[0].n_var.tobytes() == runs[1].n_var.tobytes()
        assert runs[0].mdi_mean == runs[1].mdi_mean

    def test_a_block_holds_one_sample_at_a_time(self):
        # each draw makes a fresh sample; the block keeps the tensors and
        # matrices of each, not the samples
        X, _, _ = generate_ic_sample(GAMMA3, 200_000,
                                     np.random.default_rng(13))
        bound = 2 * X.nbytes + 3 * 8 * _BLOCK_ENTRIES
        tracemalloc.start()
        try:
            fits = _all_cumulant_block([lambda: (X.copy(), 0)] * 8, 0.8,
                                       SolverOptions(restarts=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(fit.converged for fit in fits)
        assert peak <= bound, (f"peak {peak / 1e6:.2f} MB, bound "
                               f"{bound / 1e6:.2f} MB")

    def test_a_failed_preparation_fails_only_its_replication(
            self, monkeypatch):
        good = cumica.simulation._run_block(*_jade_jobs(8, 12))
        standardize = cumica.estimators.standardize
        calls = []

        def third_fails(X, *args, **kwargs):
            calls.append(None)
            if len(calls) == 3:
                raise NotPositiveDefinite("singular sample")
            return standardize(X, *args, **kwargs)
        monkeypatch.setattr(cumica.estimators, "standardize", third_fails)
        bad = cumica.simulation._run_block(*_jade_jobs(8, 12))
        assert bad[2] == ("error", "NotPositiveDefinite", None, None)
        for i in (0, 1, 3, 4, 5, 6, 7):
            assert bad[i][0] == good[i][0] == "ok"
            assert bad[i][2].tobytes() == good[i][2].tobytes()
            assert bad[i][3] == good[i][3]


class TestFitBlocks:
    """A block of any other method runs through the loop that a JADE
    block's preparations run through, one fit at a time."""

    def test_a_failed_fit_fails_only_its_replication(self, monkeypatch):
        good = cumica.simulation._run_block(
            *_jade_jobs(8, 12, method="symmetric"))
        symmetric = cumica.simulation._ESTIMATORS["symmetric"]
        calls = []

        def third_fails(X, alpha, opts=None):
            calls.append(None)
            if len(calls) == 3:
                raise NotPositiveDefinite("singular sample")
            return symmetric(X, alpha, opts)
        monkeypatch.setitem(cumica.simulation._ESTIMATORS, "symmetric",
                            third_fails)
        bad = cumica.simulation._run_block(
            *_jade_jobs(8, 12, method="symmetric"))
        assert bad[2] == ("error", "NotPositiveDefinite", None, None)
        for i in (0, 1, 3, 4, 5, 6, 7):
            assert bad[i][0] == good[i][0] == "ok"
            assert bad[i][2].tobytes() == good[i][2].tobytes()
            assert bad[i][3] == good[i][3]

    def test_a_block_holds_one_sample_at_a_time(self):
        # a draw holds the sources beside the sample, and a fit the
        # sample beside its whitened copy and its row blocks: ~11.7 MB.
        # Holding all 8 reads ~45 MB, and keeping the previous sample
        # while the next is drawn ~14.4 MB (the JADE block test cannot
        # see that: its peak is the standardizing copy either way)
        run, seqs = _jade_jobs(8, 13, n=200_000, method="symmetric")
        bound = 2 * 200_000 * GAMMA3.p * 8 + 1.5 * 8 * _BLOCK_ENTRIES
        tracemalloc.start()
        try:
            outcomes = cumica.simulation._run_block(run, seqs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [status for status, *_ in outcomes] == ["ok"] * 8
        assert peak <= bound, (f"peak {peak / 1e6:.2f} MB, bound "
                               f"{bound / 1e6:.2f} MB")


class TestContour:
    @pytest.mark.parametrize("steps, message", [
        (2.5, "steps must be an integer, got 2.5"),
        (True, "steps must be an integer, got True"),
        (1, "steps must be >= 2, got 1"),
    ])
    def test_steps_must_be_an_integer_of_at_least_two(self, steps, message):
        with pytest.raises(InvalidSpec, match=message):
            contour_grid("gamma", (1.0, 4.0), "gamma", (1.0, 4.0),
                         "symmetric", 0.5, steps=steps)
        g = contour_grid("gamma", (1.0, 4.0), "gamma", (1.0, 4.0),
                         "symmetric", 0.5, steps=np.int64(3))
        assert g.values.shape == (3, 3)

    def test_identical_family_diagonal_is_nan(self):
        g = contour_grid("gamma", (0.5, 8.0), "gamma", (0.5, 8.0),
                         "compound", 0.0, steps=7)
        assert isinstance(g, ContourGrid)
        for i in range(7):
            assert math.isnan(g.values[i, i])
        off_ok = np.isfinite(g.values[~np.eye(7, dtype=bool)])
        assert off_ok.all()

    def test_symmetric_families_alpha_free_when_skewless(self):
        a = contour_grid("ep", (0.6, 4.0), "ep", (0.6, 4.0),
                         "symmetric", 0.0, steps=5)
        b = contour_grid("ep", (0.6, 4.0), "ep", (0.6, 4.0),
                         "symmetric", 0.5, steps=5)
        np.testing.assert_allclose(a.values, b.values, equal_nan=True,
                                   atol=1e-12)

    def test_jade_alias_and_csv(self):
        g = contour_grid("gamma", (1.0, 4.0), "ep", (0.8, 2.0),
                         "jade", 0.5, steps=4)
        assert g.method == "all_cumulant"
        text = g.to_csv()
        rows = [l.split(",") for l in text.splitlines()
                if l and not l.startswith("#")]
        assert len(rows) == 1 + 16
        for row in rows[1:]:
            i, j = int(row[4]), int(row[5])
            v = float(row[7])
            assert (math.isnan(v) and math.isnan(g.values[i, j])) \
                or v == g.values[i, j]
        # axes are recorded in comments
        assert any(l.startswith("# x:") for l in text.splitlines())

    def test_step_floor(self):
        with pytest.raises(InvalidSpec):
            contour_grid("gamma", (1, 2), "gamma", (3, 4), "symmetric",
                         0.5, steps=1)

    def test_fobi_alias_forces_zero_weight(self):
        a = contour_grid("gamma", (0.5, 8.0), "ep", (0.5, 4.0), "fobi",
                         0.5, steps=4)
        b = contour_grid("gamma", (0.5, 8.0), "ep", (0.5, 4.0), "compound",
                         0.0, steps=4)
        assert (a.method, a.alpha) == ("compound", 0.0)
        assert a.to_csv() == b.to_csv()

    def test_rejects_bad_weight_and_family(self):
        with pytest.raises(InvalidParams):
            contour_grid("gamma", (1, 2), "gamma", (3, 4), "symmetric", 1.5)
        for fx, fy in (("foo", "gamma"), ("gamma", "mix"), ("normal", "ep")):
            with pytest.raises(InvalidSpec):
                contour_grid(fx, (1, 2), fy, (3, 4), "symmetric", 0.5)

    def test_programming_error_propagates(self, monkeypatch):
        def broken(profiles, alpha):
            raise TypeError("bug in a variance table")
        monkeypatch.setitem(cumica.simulation._ASV_TABLES, "symmetric",
                            broken)
        with pytest.raises(TypeError, match="bug in a variance table"):
            contour_grid("gamma", (1, 2), "gamma", (3, 4), "symmetric", 0.5,
                         steps=2)

    def test_one_profile_per_row_and_column(self, monkeypatch):
        calls = []

        def counting(spec):
            calls.append(spec)
            return moment_profile(spec)
        monkeypatch.setattr(cumica.simulation, "moment_profile", counting)
        contour_grid("gamma", (1, 2), "ep", (3, 4), "symmetric", 0.5,
                     steps=40)
        assert len(calls) == 80

    def test_unrepresentable_cells_are_missing(self):
        # gamma:1e-300 has no float moments and gamma:1e-80 overflows the
        # variance formulas; both cells read NaN instead of failing the grid
        g = contour_grid("gamma", (1e-300, 1.0), "gamma", (1e-80, 2.0),
                         "deflation", 0.5, steps=2)
        assert np.isnan(g.values[0]).all() and np.isnan(g.values[:, 0]).all()
        assert np.isfinite(g.values[1, 1])


class TestConfigAndThreads:
    def test_read_config(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("# comment\nmethod = symmetric\n\n"
                        "alpha=0.8  # inline comment\nn = 1000\n")
        cfg = read_config(str(path))
        assert cfg == {"method": "symmetric", "alpha": "0.8", "n": "1000"}

    def test_read_config_rejects_bad_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("just words\n")
        with pytest.raises(InvalidSpec):
            read_config(str(path))

    def test_resolve_threads(self, monkeypatch):
        assert resolve_threads(3) == 3
        monkeypatch.setenv("CUMICA_THREADS", "2")
        assert resolve_threads(None) == 2
        monkeypatch.delenv("CUMICA_THREADS")
        assert resolve_threads(None) >= 1

    @pytest.mark.parametrize("threads", [0, -3])
    def test_resolve_threads_floor(self, threads):
        with pytest.raises(InvalidSpec,
                           match=f"threads must be >= 1, got {threads}"):
            resolve_threads(threads)

    @pytest.mark.parametrize("threads", [2.5, 2.0, True, "2"])
    def test_resolve_threads_rejects_non_integers(self, threads):
        with pytest.raises(InvalidSpec, match="threads must be an integer"):
            resolve_threads(threads)
        assert resolve_threads(np.int64(2)) == 2

    def test_bool_seed_rejected(self):
        with pytest.raises(InvalidSpec, match="non-negative integer, got True"):
            monte_carlo_experiment(GAMMA3, "symmetric", 0.8, 1000, 8,
                                   master_seed=True, threads=1)
        with pytest.raises(InvalidSpec, match="non-negative integer, got True"):
            IcModelSpec(sources=("gamma:1", "gamma:2"),
                        mixing=("random", True))

    def test_resolve_threads_rejects_non_integer_variable(self, monkeypatch):
        monkeypatch.setenv("CUMICA_THREADS", "abc")
        with pytest.raises(InvalidSpec, match="CUMICA_THREADS.*'abc'"):
            resolve_threads(None)
