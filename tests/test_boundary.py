"""Bad data, badly shaped matrices and unknown names are rejected at the
boundary with ``InvalidParams``, a ``CumicaError`` that is also a
``ValueError``, and data whose moments overflow with ``NonFiniteInput``,
with no NumPy warning on the way (warnings are errors here)."""

import numpy as np
import pytest

from cumica import (all_cumulant, compound_cumulant, compound_matrices,
                    cum3_stack, cum4_stack, deflation_pp, fobi_matrix,
                    inv_sqrt_sym, joint_diagonalize, mdi, polar_orthogonal,
                    projection_cumulants, sample_cov, standardize,
                    sym_eig, symmetric_pp)
from cumica.asymptotics import asv_symmetric
from cumica.errors import (InvalidParams, NonFiniteInput,
                           NotPositiveDefinite)
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
    "mdi": (lambda: mdi(np.eye(2), np.eye(3)), "two square matrices"),
    "assignment": (lambda: _max_assignment(np.ones((2, 3))),
                   "assignment needs a square matrix"),
    "whitener": (lambda: standardize(GOOD, whitener=np.eye(2)),
                 "whitener must be 3x3"),
    "direction": (lambda: projection_cumulants(GOOD, [1.0, 0.0]),
                  "u has length 2, expected 3"),
}


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
}


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
