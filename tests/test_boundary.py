"""Bad data, badly shaped matrices, bad counts, options and unknown names
are rejected at the boundary with ``InvalidParams``, a ``CumicaError``
that is also a ``ValueError``, bad generators, sample sizes and source
specs with ``InvalidSpec``, and data whose moments overflow with
``NonFiniteInput``, with no NumPy warning on the way (warnings are
errors here)."""

import numpy as np
import pytest

from cumica import (SolverOptions, align_signed_permutation, all_cumulant,
                    compound_cumulant, compound_matrices, cum3_stack,
                    cum4_stack, deflation_pp, fobi_matrix, generate_ic_sample,
                    inv_sqrt_sym, is_orthogonal, joint_diagonalize, mdi,
                    monte_carlo_experiment, polar_orthogonal,
                    projection_cumulants, random_orthogonal, sample_cov,
                    sample_source, standardize, sym_eig, symmetric_pp)
from cumica.asymptotics import asv_symmetric, optimal_alpha
from cumica.distributions import moment_profile
from cumica.errors import (InvalidParams, InvalidSpec, NonFiniteInput,
                           NotPositiveDefinite, SingularInput)
from cumica.simulation import IcModelSpec
from cumica.simulation import _max_assignment

GOOD = np.random.default_rng(0).normal(size=(50, 3))

ESTIMATORS = {fit.__name__: fit for fit in (deflation_pp, symmetric_pp,
                                             compound_cumulant, all_cumulant)}
DATA_FUNCTIONS = {
    "standardize": standardize,
    "sample_cov": sample_cov,
    "cum3_stack": cum3_stack,
    "cum4_stack": cum4_stack,
    "compound_matrices": compound_matrices,
    "fobi_matrix": fobi_matrix,
    "projection_cumulants": lambda X: projection_cumulants(X, [1.0, 0, 0]),
    **{name: lambda X, fit=fit: fit(X, 0.8)
       for name, fit in ESTIMATORS.items()},
}
BAD_DATA = {
    "complex": (GOOD + 1j, "real numbers, got dtype complex128"),
    "str": (GOOD.astype(str), "real numbers, got dtype <U"),
    "object": (GOOD.astype(object), "real numbers, got dtype object"),
    "1-d": (GOOD[:, 0], r"expected a 2-d data matrix .* shape \(50,\)"),
    "3-d": (GOOD[None], r"expected a 2-d data matrix .* shape \(1, 50, 3\)"),
    "no column": (GOOD[:, :0], "at least one column"),
    "no row": (GOOD[:0], r"at least one row, got shape \(0, 3\)"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", BAD_DATA)
@pytest.mark.parametrize("name", DATA_FUNCTIONS)
def test_bad_data_raises_invalid_params(name, case):
    X, match = BAD_DATA[case]
    if case == "no row" and (name == "standardize" or name in ESTIMATORS):
        # a fit needs more observations than variables, and says so
        with pytest.raises(NotPositiveDefinite, match="0 observations"):
            DATA_FUNCTIONS[name](X)
        return
    with pytest.raises(InvalidParams, match=match):
        DATA_FUNCTIONS[name](X)


MATRIX_FUNCTIONS = {
    "sym_eig": sym_eig,
    "inv_sqrt_sym": inv_sqrt_sym,
    "polar_orthogonal": polar_orthogonal,
    "is_orthogonal": is_orthogonal,
    "mdi-W": lambda A: mdi(A, np.eye(3)),
    "mdi-Omega": lambda A: mdi(np.eye(3), A),
    "align-W": align_signed_permutation,
    "align-target": lambda A: align_signed_permutation(np.eye(3), A),
    "joint_diagonalize-matrices": lambda A: joint_diagonalize([A]),
    "joint_diagonalize-weights": lambda A: joint_diagonalize(
        [np.eye(3)] * 3, weights=A[0]),
}
BAD_MATRICES = {
    "complex": (np.eye(3) + 1j, "real numbers, got dtype complex128"),
    "str": (np.array([["a"] * 3] * 3), "real numbers, got dtype <U1"),
    "numeric str": (np.eye(3).astype(str), "real numbers, got dtype <U"),
    "object": (np.eye(3).astype(object), "real numbers, got dtype object"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", BAD_MATRICES)
@pytest.mark.parametrize("name", MATRIX_FUNCTIONS)
def test_bad_matrices_raise_invalid_params(name, case):
    A, match = BAD_MATRICES[case]
    what = name.partition("-")[2] or "a matrix"
    with pytest.raises(InvalidParams, match=f"^expected {what} of {match}"):
        MATRIX_FUNCTIONS[name](A)


@pytest.mark.filterwarnings("error")
def test_a_non_finite_gain_raises_no_warning():
    with pytest.raises(SingularInput, match="gain matrix has non-finite"):
        mdi(np.eye(3), np.full((3, 3), np.inf))


RNG = np.random.default_rng(0)
BAD_COUNTS = {
    "n negative": (lambda: sample_source("gamma:2", -1, RNG), InvalidSpec,
                   r"^n must be >= 0, got -1$"),
    "n fractional": (lambda: sample_source("gamma:2", 2.5, RNG), InvalidSpec,
                     r"^n must be an integer, got 2\.5$"),
    "n bool": (lambda: sample_source("normal", True, RNG), InvalidSpec,
               r"^n must be an integer, got True$"),
    "p negative": (lambda: random_orthogonal(-1, RNG), InvalidParams,
                   r"^p must be >= 1, got -1$"),
    "p zero": (lambda: random_orthogonal(0, RNG), InvalidParams,
               r"^p must be >= 1, got 0$"),
    "p fractional": (lambda: random_orthogonal(2.5, RNG), InvalidParams,
                     r"^p must be an integer, got 2\.5$"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", BAD_COUNTS)
def test_bad_counts_are_named(case):
    call, error, match = BAD_COUNTS[case]
    with pytest.raises(error, match=match):
        call()


SPEC_USERS = {
    "moment_profile": moment_profile,
    "sample_source": lambda spec: sample_source(spec, 5, RNG),
    "IcModelSpec": lambda spec: IcModelSpec(sources=("gamma:2", spec)),
}
BAD_SPECS = {
    "None": (None, "NoneType"),
    "float": (2.0, "float"),
    "profile": (moment_profile("gamma:2"), "MomentProfile"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", BAD_SPECS)
@pytest.mark.parametrize("name", SPEC_USERS)
def test_bad_specs_raise_invalid_spec(name, case):
    spec, kind = BAD_SPECS[case]
    with pytest.raises(InvalidSpec, match=f"^expected a source spec or its "
                                          f"string, got {kind}$"):
        SPEC_USERS[name](spec)


def test_counts_at_their_floors():
    assert sample_source("gamma:2", 0, RNG).shape == (0,)
    assert random_orthogonal(1, RNG).shape == (1, 1)


OPTS_USERS = {
    **{name: lambda opts, fit=fit: fit(GOOD, 0.8, opts)
       for name, fit in ESTIMATORS.items()},
    "monte_carlo_experiment": lambda opts: monte_carlo_experiment(
        ("gamma:1", "gamma:4"), "symmetric", 0.8, 200, 2, opts=opts,
        threads=1),
}
BAD_OPTS = {
    "str": ("fast", "str 'fast'"),
    "dict": ({"tol": 1e-9}, r"dict \{'tol': 1e-09\}"),
    "empty dict": ({}, r"dict \{\}"),
    "class": (SolverOptions, "type <class"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", BAD_OPTS)
@pytest.mark.parametrize("name", OPTS_USERS)
def test_bad_options_raise_invalid_params(name, case):
    opts, match = BAD_OPTS[case]
    with pytest.raises(InvalidParams,
                       match=f"^opts must be a SolverOptions or None, got "
                             f"{match}"):
        OPTS_USERS[name](opts)


GENERATOR_USERS = {
    "sample_source": ("rng", lambda rng: sample_source("gamma:2", 5, rng)),
    "random_orthogonal": ("rng", lambda rng: random_orthogonal(3, rng)),
    "generate_ic_sample": ("stream", lambda rng: generate_ic_sample(
        ("gamma:1", "gamma:4"), 10, rng)),
}
BAD_GENERATORS = {
    "None": (None, "NoneType"),
    "int": (3, "int"),
    "RandomState": (np.random.RandomState(0), "RandomState"),
    "SeedSequence": (np.random.SeedSequence(0), "SeedSequence"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", BAD_GENERATORS)
@pytest.mark.parametrize("name", GENERATOR_USERS)
def test_bad_generators_raise_invalid_spec(name, case):
    arg, call = GENERATOR_USERS[name]
    rng, kind = BAD_GENERATORS[case]
    with pytest.raises(InvalidSpec, match=f"^{arg} must be a "
                                          f"numpy.random.Generator, got "
                                          f"{kind}$"):
        call(rng)


ASYMMETRIC = np.array([[1.0, 2.0], [0.0, 1.0]])
BAD_SHAPES = {
    "sym_eig": (lambda: sym_eig(np.ones((2, 3))), "must be square"),
    "inv_sqrt_sym": (lambda: inv_sqrt_sym(np.ones(3)), "must be square"),
    "polar_orthogonal": (lambda: polar_orthogonal(np.ones((3, 2))),
                         "must be square"),
    "sym_eig-asymmetric": (lambda: sym_eig(ASYMMETRIC),
                           "matrix is not symmetric"),
    "stack-shape": (lambda: joint_diagonalize(np.ones((2, 2, 3))),
                    "nonempty stack of square matrices"),
    "stack-asymmetric": (lambda: joint_diagonalize([np.eye(2), ASYMMETRIC]),
                         r"matrices\[1\] is not symmetric"),
    "weights-shape": (lambda: joint_diagonalize([np.eye(2)] * 2,
                                                weights=[1.0]),
                      r"expected 2 weights, got shape \(1,\)"),
    "stack-ragged": (lambda: joint_diagonalize([np.eye(2), np.eye(3)]),
                     r"^expected a nonempty stack of square matrices, got 2 "
                     r"of shape \(3, 3\)$"),
    "ragged": (lambda: mdi([[1.0, 0.0], [1.0]], np.eye(2)),
               "^expected W of real numbers, got sequences of unequal "
               "shapes$"),
    "mdi": (lambda: mdi(np.eye(2), np.eye(3)), "two square matrices"),
    "mdi-scalar": (lambda: mdi(3.0, np.eye(3)),
                   r"^expected W to be a 2-d array, got shape \(\)$"),
    "mdi-vector": (lambda: mdi(np.eye(3), np.ones(3)),
                   r"^expected Omega to be a 2-d array, got shape \(3,\)$"),
    "align-rectangular": (lambda: align_signed_permutation(np.ones((2, 3))),
                          r"^alignment needs a square W and a target of its "
                          r"size, got shapes \(2, 3\) and \(2, 2\)$"),
    "align-target": (lambda: align_signed_permutation(np.eye(3), np.eye(2)),
                     r"got shapes \(3, 3\) and \(2, 2\)$"),
    "assignment": (lambda: _max_assignment(np.ones((2, 3))),
                   "assignment needs a square matrix"),
    "whitener": (lambda: standardize(GOOD, whitener=np.eye(2)),
                 "whitener must be 3x3"),
    "direction": (lambda: projection_cumulants(GOOD, [1.0, 0.0]),
                  "u has length 2, expected 3"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", BAD_SHAPES)
def test_shape_errors_raise_invalid_params(case):
    call, match = BAD_SHAPES[case]
    with pytest.raises(InvalidParams, match=match):
        call()


BAD_NAMES = {
    "standardizer": (lambda: compound_cumulant(GOOD, 0.8, standardizer="jade"),
                     "unknown standardizer: 'jade'"),
    "whitener": (lambda: standardize(GOOD, whitener="pca"),
                 "unknown whitener: 'pca'"),
    "assignment-scores": (
        lambda: _max_assignment(np.array([[1.0, np.nan], [0.0, 1.0]])),
        r"assignment scores have 1 non-finite entries, first at \[\(0, 1\)\]"),
    "no-profiles": (lambda: asv_symmetric([], 0.8),
                    "need at least one source profile"),
    "profiles-None": (lambda: asv_symmetric(None, 0.5),
                      "^expected a sequence of moment profiles or source "
                      "specs, got NoneType$"),
    "profiles-str": (lambda: asv_symmetric("gamma:2", 0.5),
                     "^expected a sequence of moment profiles or source "
                     "specs, got str$"),
    "pi-str": (lambda: optimal_alpha("x", 2.0),
               "^mixing weight must be a real number, got 'x'$"),
    "pi-None": (lambda: optimal_alpha(None, 2.0),
                "^mixing weight must be a real number, got None$"),
    "mu-bool": (lambda: optimal_alpha(0.3, True),
                "^location shift must be a real number, got True$"),
    "grid_tol-str": (lambda: optimal_alpha(0.3, 2.0, grid_tol="x"),
                     "^grid_tol must be a real number, got 'x'$"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", BAD_NAMES)
def test_bad_names_and_values_raise_invalid_params(case):
    call, match = BAD_NAMES[case]
    with pytest.raises(InvalidParams, match=match):
        call()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", ["sample_cov", "cum3_stack", "cum4_stack",
                                  "compound_matrices", "fobi_matrix",
                                  "projection_cumulants"])
def test_overflowing_moments_raise_non_finite_input(name):
    fn = DATA_FUNCTIONS[name]
    with pytest.raises(NonFiniteInput,
                       match=r"^moments overflow: the data reach \|x\| = "
                             r"\d\.\d{3}e\+300; rescale the data$"):
        fn(GOOD * 1e300)
    bad = GOOD.copy()
    bad[7, 2] = np.inf
    with pytest.raises(NonFiniteInput, match=r"^data matrix has non-finite "
                                             r"entries \(1 in all, first at "
                                             r"row 7, column 2\)$"):
        fn(bad)
