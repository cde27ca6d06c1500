"""cumica: independent component analysis with joint third/fourth cumulants.

Four moment-based unmixing estimators (deflation and symmetric projection
pursuit, a compound cumulant-matrix diagonalizer, and an all-cumulant
rotation family), their analytic asymptotic variances, and a Monte Carlo
harness that checks one against the other.
"""

from .asymptotics import (AsvTable, ZetaTriple, asv_allcumulant,
                          asv_compound, asv_deflation, asv_symmetric,
                          cluster_objective, jade_weight_map,
                          offdiag_criterion, optimal_alpha,
                          stat_covariance_table, zeta_compound,
                          zeta_deflation, zeta_pairwise)
from .cumulants import (StandardizedSample, compound_matrices, cum3_matrix,
                        cum3_stack, cum4_matrix, cum4_stack, fobi_matrix,
                        projection_cumulants, sample_cov, standardize)
from .distributions import (MomentProfile, SourceSpec, moment_profile,
                            sample_source)
from .errors import (AssumptionViolated, CumicaError, CumicaWarning,
                     DegenerateObjective, IndexOutOfRange, InvalidParams,
                     InvalidSpec, NearDegenerateSpectrum, NonFiniteInput,
                     NotPositiveDefinite, NotUnit, RankDeficient,
                     SingularCustomWhitener, SingularInput, TooManyFailures,
                     ZeroDenominator)
from .estimators import (SolverOptions, UnmixingEstimate, all_cumulant,
                         compound_cumulant, deflation_pp, symmetric_pp)
from .linalg import (JointDiagResult, inv_sqrt_sym, is_orthogonal,
                     joint_diagonalize, polar_orthogonal, random_orthogonal,
                     sym_eig)
from .simulation import (ContourGrid, IcModelSpec, McResult,
                         align_signed_permutation, canonical_method,
                         check_assumptions, contour_grid, generate_ic_sample,
                         mdi, monte_carlo_experiment, read_config)

__version__ = "0.1.0"

__all__ = [
    "AssumptionViolated", "AsvTable", "ContourGrid", "CumicaError",
    "CumicaWarning", "DegenerateObjective", "IcModelSpec", "IndexOutOfRange",
    "InvalidParams", "InvalidSpec", "JointDiagResult", "McResult",
    "MomentProfile", "NearDegenerateSpectrum", "NonFiniteInput",
    "NotPositiveDefinite", "NotUnit", "RankDeficient",
    "SingularCustomWhitener", "SingularInput",
    "SolverOptions", "SourceSpec", "StandardizedSample", "TooManyFailures",
    "UnmixingEstimate", "ZeroDenominator", "ZetaTriple",
    "align_signed_permutation", "all_cumulant", "asv_allcumulant",
    "asv_compound", "asv_deflation", "asv_symmetric", "canonical_method",
    "check_assumptions", "cluster_objective", "compound_cumulant",
    "compound_matrices", "contour_grid", "cum3_matrix", "cum3_stack",
    "cum4_matrix", "cum4_stack", "deflation_pp", "fobi_matrix",
    "generate_ic_sample", "inv_sqrt_sym", "is_orthogonal",
    "jade_weight_map", "joint_diagonalize", "mdi", "moment_profile",
    "monte_carlo_experiment", "offdiag_criterion", "optimal_alpha",
    "polar_orthogonal", "projection_cumulants", "random_orthogonal",
    "read_config", "sample_cov", "sample_source", "standardize",
    "stat_covariance_table", "sym_eig", "symmetric_pp", "zeta_compound",
    "zeta_deflation", "zeta_pairwise",
]
