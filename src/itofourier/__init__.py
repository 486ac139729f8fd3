"""Mean-square approximation of iterated Ito stochastic integrals.

The package expands iterated Ito integrals of arbitrary multiplicity into
series of products of Gaussian basis-integral variables with coefficients
from multiple Fourier series over interchangeable orthonormal systems
(Legendre, trigonometric, Haar, Rademacher-Walsh), quantifies the
mean-square truncation error by the Parseval residual, and validates
approximations against a discretized pathwise oracle.  The expansion
contracts without listing pair partitions; ``partitions`` lists them for
acceptance criterion 1 and the benchmark's tracer.  One cap,
``errors.MAX_ENTRIES`` (10**8), bounds every tensor, table, quadrature
array, pool, path batch, simulation grid and sample, and one reader,
``errors.read_int``, reads every integer a caller passes.
"""

__version__ = "0.1.0"

from .basis import BasisSystem, Interval, breakpoints, eval_basis, integrate_basis, parse_basis
from .coefficients import (CoefficientTensor, coefficient_tensor, parseval_residual,
                           read_coefficient_table, write_coefficient_table)
from .errors import (ArityError, BasisIndexError, CapacityError, CompatibilityError,
                     ConfigError, DomainError, GridCompatibilityError, ItoFourierError,
                     NumericError, UnsupportedMultiplicityError)
from .expansion import ExpansionResult, truncated_expansion
from .kernel import IntegralSpec, Weight, constant_spec, eval_weight, kernel_l2_norm_sq
from .partitions import PairPartition, pair_partitions, partition_count
from .stochastic import (GaussianPool, WienerPath, brownian_path, gaussian_pool,
                         path_iterated_integral, path_seed, zeta_from_path)
from .validation import (moment_bound_2n, moment_check, ms_error_bound,
                         strong_error_estimate)

__all__ = [
    "ArityError", "BasisIndexError", "BasisSystem", "CapacityError",
    "CoefficientTensor", "CompatibilityError", "ConfigError", "DomainError",
    "ExpansionResult", "GaussianPool", "GridCompatibilityError", "IntegralSpec",
    "Interval", "ItoFourierError", "NumericError", "PairPartition",
    "UnsupportedMultiplicityError", "Weight", "WienerPath",
    "breakpoints", "brownian_path", "coefficient_tensor", "constant_spec",
    "eval_basis", "eval_weight", "gaussian_pool", "integrate_basis", "kernel_l2_norm_sq",
    "moment_bound_2n", "moment_check", "ms_error_bound", "pair_partitions", "parse_basis",
    "parseval_residual", "partition_count", "path_iterated_integral", "path_seed",
    "read_coefficient_table", "strong_error_estimate", "truncated_expansion",
    "write_coefficient_table", "zeta_from_path",
]
