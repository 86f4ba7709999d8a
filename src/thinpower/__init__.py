"""Binomial thinning, Poisson entropy power, and inequality checking for
finite discrete distributions."""

from .entropy_functionals import (EntropyValue, entropy, entropy_power,
                                  l_functional, lambda_functional,
                                  poisson_entropy, poisson_entropy_derivative,
                                  rel_entropy_poisson, u_functional)
from .errors import (ConsistencyError, DomainError, IllConditionedError,
                     NotThinnableError, NumericError, ParameterError,
                     PreconditionError)
from .inequality_suite import (InequalityVerdict, SearchReport,
                               check_conjecture_tepi,
                               check_conjecture_v_superadd, check_dsub,
                               check_discepilike, check_epilike, check_hmon,
                               check_rtepi, check_teci, check_tepis,
                               random_ulc, search)
from .pmf_core import (DEFAULT_TOLERANCES, FamilySpec, FinitePmf,
                       ToleranceConfig, construct, is_ulc, mean, size_bias,
                       total_variation)
from .semigroup import (PathReport, default_t_grid, entropy_preserving_path,
                        evolve, isoperimetric_check, pde_residual)
from .transforms import convolve, inverse_thin, thin

__all__ = [
    "ConsistencyError", "DEFAULT_TOLERANCES", "DomainError", "EntropyValue",
    "FamilySpec", "FinitePmf", "IllConditionedError", "InequalityVerdict",
    "NotThinnableError", "NumericError", "ParameterError", "PathReport",
    "PreconditionError", "SearchReport", "ToleranceConfig",
    "check_conjecture_tepi", "check_conjecture_v_superadd", "check_dsub",
    "check_discepilike", "check_epilike", "check_hmon", "check_rtepi",
    "check_teci", "check_tepis", "construct", "convolve", "default_t_grid",
    "entropy", "entropy_power", "entropy_preserving_path", "evolve",
    "inverse_thin", "is_ulc", "isoperimetric_check", "l_functional",
    "lambda_functional", "mean", "pde_residual", "poisson_entropy",
    "poisson_entropy_derivative", "random_ulc", "rel_entropy_poisson",
    "search", "size_bias", "thin", "total_variation", "u_functional",
]

__version__ = "0.1.0"
