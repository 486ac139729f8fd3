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
``errors.read_int``, reads every integer a caller passes.  Importing the
package runs numpy's OpenBLAS on one thread for the whole process.
"""

__version__ = "0.3.2"

import ctypes

from numpy._core import _multiarray_umath

from .basis import BasisSystem, Interval, breakpoints, eval_basis, integrate_basis, parse_basis
from .coefficients import (CoefficientTensor, coefficient_tensor, parseval_residual,
                           read_coefficient_table, write_coefficient_table)
from .errors import (ArityError, BasisIndexError, CapacityError, CompatibilityError,
                     ConfigError, DomainError, GridCompatibilityError, ItoFourierError,
                     NumericError, UnsupportedMultiplicityError)
from .expansion import ExpansionResult, truncated_expansion
from .kernel import IntegralSpec, Weight, constant_spec, eval_weight, kernel_l2_norm_sq
from .partitions import PairPartition, pair_partitions
from .stochastic import (GaussianPool, WienerPath, brownian_path, gaussian_pool,
                         path_iterated_integral, path_seed, zeta_from_path)
from .validation import (moment_bound_2n, moment_check, ms_error_bound,
                         strong_error_estimate)


def _openblas():
    """numpy's OpenBLAS and the name of its set_num_threads, looked up on a
    handle of numpy's core extension module, which on Linux also finds the
    symbols of the libraries it links; None where it finds no such symbol,
    as with another BLAS (MKL, Accelerate)."""
    lib = ctypes.CDLL(_multiarray_umath.__file__)
    for name in ("scipy_openblas_set_num_threads64_",  # the numpy >= 2.0 wheels
                 "openblas_set_num_threads64_", "openblas_set_num_threads"):
        if hasattr(lib, name):
            return lib, name
    return None


# One BLAS thread: a threaded sweep gains nothing, its idle worker spins on a
# CPU the path fill needs, and the bits of a contraction follow the thread count
if (_blas := _openblas()) is not None:
    _set_threads = getattr(*_blas)
    _set_threads.argtypes, _set_threads.restype = [ctypes.c_int], None
    _set_threads(1)

__all__ = [
    "ArityError", "BasisIndexError", "BasisSystem", "CapacityError",
    "CoefficientTensor", "CompatibilityError", "ConfigError", "DomainError",
    "ExpansionResult", "GaussianPool", "GridCompatibilityError", "IntegralSpec",
    "Interval", "ItoFourierError", "NumericError", "PairPartition",
    "UnsupportedMultiplicityError", "Weight", "WienerPath",
    "breakpoints", "brownian_path", "coefficient_tensor", "constant_spec",
    "eval_basis", "eval_weight", "gaussian_pool", "integrate_basis", "kernel_l2_norm_sq",
    "moment_bound_2n", "moment_check", "ms_error_bound", "pair_partitions", "parse_basis",
    "parseval_residual", "path_iterated_integral", "path_seed", "read_coefficient_table",
    "strong_error_estimate", "truncated_expansion", "write_coefficient_table", "zeta_from_path",
]
