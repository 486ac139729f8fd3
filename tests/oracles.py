"""Independent references that the library is checked against.

``explicit_expansion`` evaluates the bracket for k <= 7 from frozen
pair/singleton term tables, building the bracket tensor term by term; it
shares no enumeration or contraction code with ``truncated_expansion``.
``brute_expansion`` evaluates the bracket tuple by tuple, enumerating the
pair partitions inline.  ``hermite_reference`` gives the equal-weight,
equal-component integral in closed form, and ``eval_kernel`` the pointwise
ordered-simplex kernel.  ``gram_matrix`` gives the inner products of the
library's basis functions, evaluated by ``basis_rows`` and ``basis_matrix``
on ``panel_grid`` panels.  ``grid_sum_reference`` is the plain level loop of
the pathwise oracle, one factor array per level, that
``path_iterated_integral`` must match bit for bit.  ``stream`` builds one
Philox and one Generator per stream, keyed by the stream's coordinates
(``key``); ``path_seed_reference`` reads one word of the per-path seed
stream from a Philox made at that word's counter.  ``gaussian_pool_reference``,
``brownian_path_reference`` and ``sample_differences_reference`` draw
through them, the per-stream route that the library's re-keyed Philox and
its seed stream read a chunk at a time must match bit for bit.
``jumps`` lists every jump of the Haar or Walsh functions up to an index
in closed form.  ``exact_dyadic_coefficients`` gives Haar and Walsh
coefficient tensors in rational arithmetic, integrating cell by cell from
the definitions of the two systems, and ``exact_legendre_coefficients``
Legendre tensors, in the shifted Legendre polynomials.
``trigonometric_error_bound`` bounds the error of a trigonometric tensor
swept on a grid of equal panels, as README derives it.
``write_table_reference`` and ``read_table_reference`` write and read the
coefficient table format one row per call, the form that the block writer
and reader must match byte for byte and error for error.
``sum_squared_reference`` is one ``math.fsum`` over every square, the
correctly rounded sum that ``sum_squared`` must match bit for bit.
``kernel_l2_norm_sq_reference`` integrates the squared kernel level by
level on ``np.polynomial.Polynomial`` objects, the form that
``kernel_l2_norm_sq`` must match bit for bit.  ``exact_ms_reference`` is
the mean-square error of a truncated expansion for any component pattern,
a direct sum over the position permutations that keep the pattern.
"""
from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
from functools import cache, reduce

import numpy as np
from numpy.random import Generator, Philox

from itofourier.basis import (BasisSystem, Interval, basis_matrix, basis_rows, jump_depth,
                              parse_basis)
from itofourier.coefficients import (FORMAT_VERSION, CoefficientTensor, _column_header,
                                     _read_orders)
from itofourier.errors import ArityError, DomainError, UnsupportedMultiplicityError
from itofourier.expansion import ExpansionResult, _check_compatible, truncated_expansion
from itofourier.kernel import IntegralSpec, eval_weight, kernel_l2_norm_sq
from itofourier.quadrature import cumulative_matrix, gauss_rule, panel_grid
from itofourier.stochastic import (GaussianPool, WienerPath, path_iterated_integral,
                                   zeta_from_path)

# Frozen pair/singleton term tables for the explicit k <= 7 formulas; the
# r-pair terms enter with sign (-1)**r on top of the plain product term.
_EXPLICIT_TERMS: dict[int, tuple] = {
    1: (
    ),
    2: (
        (((1, 2),), ()),
    ),
    3: (
        (((1, 2),), (3,)), (((1, 3),), (2,)), (((2, 3),), (1,)),
    ),
    4: (
        (((1, 2),), (3, 4)), (((1, 2), (3, 4)), ()), (((1, 3),), (2, 4)), (((1, 3), (2, 4)), ()),
        (((1, 4),), (2, 3)), (((1, 4), (2, 3)), ()), (((2, 3),), (1, 4)), (((2, 4),), (1, 3)),
        (((3, 4),), (1, 2)),
    ),
    5: (
        (((1, 2),), (3, 4, 5)), (((1, 2), (3, 4)), (5,)), (((1, 2), (3, 5)), (4,)),
        (((1, 2), (4, 5)), (3,)), (((1, 3),), (2, 4, 5)), (((1, 3), (2, 4)), (5,)),
        (((1, 3), (2, 5)), (4,)), (((1, 3), (4, 5)), (2,)), (((1, 4),), (2, 3, 5)),
        (((1, 4), (2, 3)), (5,)), (((1, 4), (2, 5)), (3,)), (((1, 4), (3, 5)), (2,)),
        (((1, 5),), (2, 3, 4)), (((1, 5), (2, 3)), (4,)), (((1, 5), (2, 4)), (3,)),
        (((1, 5), (3, 4)), (2,)), (((2, 3),), (1, 4, 5)), (((2, 3), (4, 5)), (1,)),
        (((2, 4),), (1, 3, 5)), (((2, 4), (3, 5)), (1,)), (((2, 5),), (1, 3, 4)),
        (((2, 5), (3, 4)), (1,)), (((3, 4),), (1, 2, 5)), (((3, 5),), (1, 2, 4)),
        (((4, 5),), (1, 2, 3)),
    ),
    6: (
        (((1, 2),), (3, 4, 5, 6)), (((1, 2), (3, 4)), (5, 6)), (((1, 2), (3, 4), (5, 6)), ()),
        (((1, 2), (3, 5)), (4, 6)), (((1, 2), (3, 5), (4, 6)), ()), (((1, 2), (3, 6)), (4, 5)),
        (((1, 2), (3, 6), (4, 5)), ()), (((1, 2), (4, 5)), (3, 6)), (((1, 2), (4, 6)), (3, 5)),
        (((1, 2), (5, 6)), (3, 4)), (((1, 3),), (2, 4, 5, 6)), (((1, 3), (2, 4)), (5, 6)),
        (((1, 3), (2, 4), (5, 6)), ()), (((1, 3), (2, 5)), (4, 6)),
        (((1, 3), (2, 5), (4, 6)), ()), (((1, 3), (2, 6)), (4, 5)),
        (((1, 3), (2, 6), (4, 5)), ()), (((1, 3), (4, 5)), (2, 6)), (((1, 3), (4, 6)), (2, 5)),
        (((1, 3), (5, 6)), (2, 4)), (((1, 4),), (2, 3, 5, 6)), (((1, 4), (2, 3)), (5, 6)),
        (((1, 4), (2, 3), (5, 6)), ()), (((1, 4), (2, 5)), (3, 6)),
        (((1, 4), (2, 5), (3, 6)), ()), (((1, 4), (2, 6)), (3, 5)),
        (((1, 4), (2, 6), (3, 5)), ()), (((1, 4), (3, 5)), (2, 6)), (((1, 4), (3, 6)), (2, 5)),
        (((1, 4), (5, 6)), (2, 3)), (((1, 5),), (2, 3, 4, 6)), (((1, 5), (2, 3)), (4, 6)),
        (((1, 5), (2, 3), (4, 6)), ()), (((1, 5), (2, 4)), (3, 6)),
        (((1, 5), (2, 4), (3, 6)), ()), (((1, 5), (2, 6)), (3, 4)),
        (((1, 5), (2, 6), (3, 4)), ()), (((1, 5), (3, 4)), (2, 6)), (((1, 5), (3, 6)), (2, 4)),
        (((1, 5), (4, 6)), (2, 3)), (((1, 6),), (2, 3, 4, 5)), (((1, 6), (2, 3)), (4, 5)),
        (((1, 6), (2, 3), (4, 5)), ()), (((1, 6), (2, 4)), (3, 5)),
        (((1, 6), (2, 4), (3, 5)), ()), (((1, 6), (2, 5)), (3, 4)),
        (((1, 6), (2, 5), (3, 4)), ()), (((1, 6), (3, 4)), (2, 5)), (((1, 6), (3, 5)), (2, 4)),
        (((1, 6), (4, 5)), (2, 3)), (((2, 3),), (1, 4, 5, 6)), (((2, 3), (4, 5)), (1, 6)),
        (((2, 3), (4, 6)), (1, 5)), (((2, 3), (5, 6)), (1, 4)), (((2, 4),), (1, 3, 5, 6)),
        (((2, 4), (3, 5)), (1, 6)), (((2, 4), (3, 6)), (1, 5)), (((2, 4), (5, 6)), (1, 3)),
        (((2, 5),), (1, 3, 4, 6)), (((2, 5), (3, 4)), (1, 6)), (((2, 5), (3, 6)), (1, 4)),
        (((2, 5), (4, 6)), (1, 3)), (((2, 6),), (1, 3, 4, 5)), (((2, 6), (3, 4)), (1, 5)),
        (((2, 6), (3, 5)), (1, 4)), (((2, 6), (4, 5)), (1, 3)), (((3, 4),), (1, 2, 5, 6)),
        (((3, 4), (5, 6)), (1, 2)), (((3, 5),), (1, 2, 4, 6)), (((3, 5), (4, 6)), (1, 2)),
        (((3, 6),), (1, 2, 4, 5)), (((3, 6), (4, 5)), (1, 2)), (((4, 5),), (1, 2, 3, 6)),
        (((4, 6),), (1, 2, 3, 5)), (((5, 6),), (1, 2, 3, 4)),
    ),
    7: (
        (((1, 2),), (3, 4, 5, 6, 7)), (((1, 2), (3, 4)), (5, 6, 7)),
        (((1, 2), (3, 4), (5, 6)), (7,)), (((1, 2), (3, 4), (5, 7)), (6,)),
        (((1, 2), (3, 4), (6, 7)), (5,)), (((1, 2), (3, 5)), (4, 6, 7)),
        (((1, 2), (3, 5), (4, 6)), (7,)), (((1, 2), (3, 5), (4, 7)), (6,)),
        (((1, 2), (3, 5), (6, 7)), (4,)), (((1, 2), (3, 6)), (4, 5, 7)),
        (((1, 2), (3, 6), (4, 5)), (7,)), (((1, 2), (3, 6), (4, 7)), (5,)),
        (((1, 2), (3, 6), (5, 7)), (4,)), (((1, 2), (3, 7)), (4, 5, 6)),
        (((1, 2), (3, 7), (4, 5)), (6,)), (((1, 2), (3, 7), (4, 6)), (5,)),
        (((1, 2), (3, 7), (5, 6)), (4,)), (((1, 2), (4, 5)), (3, 6, 7)),
        (((1, 2), (4, 5), (6, 7)), (3,)), (((1, 2), (4, 6)), (3, 5, 7)),
        (((1, 2), (4, 6), (5, 7)), (3,)), (((1, 2), (4, 7)), (3, 5, 6)),
        (((1, 2), (4, 7), (5, 6)), (3,)), (((1, 2), (5, 6)), (3, 4, 7)),
        (((1, 2), (5, 7)), (3, 4, 6)), (((1, 2), (6, 7)), (3, 4, 5)),
        (((1, 3),), (2, 4, 5, 6, 7)), (((1, 3), (2, 4)), (5, 6, 7)),
        (((1, 3), (2, 4), (5, 6)), (7,)), (((1, 3), (2, 4), (5, 7)), (6,)),
        (((1, 3), (2, 4), (6, 7)), (5,)), (((1, 3), (2, 5)), (4, 6, 7)),
        (((1, 3), (2, 5), (4, 6)), (7,)), (((1, 3), (2, 5), (4, 7)), (6,)),
        (((1, 3), (2, 5), (6, 7)), (4,)), (((1, 3), (2, 6)), (4, 5, 7)),
        (((1, 3), (2, 6), (4, 5)), (7,)), (((1, 3), (2, 6), (4, 7)), (5,)),
        (((1, 3), (2, 6), (5, 7)), (4,)), (((1, 3), (2, 7)), (4, 5, 6)),
        (((1, 3), (2, 7), (4, 5)), (6,)), (((1, 3), (2, 7), (4, 6)), (5,)),
        (((1, 3), (2, 7), (5, 6)), (4,)), (((1, 3), (4, 5)), (2, 6, 7)),
        (((1, 3), (4, 5), (6, 7)), (2,)), (((1, 3), (4, 6)), (2, 5, 7)),
        (((1, 3), (4, 6), (5, 7)), (2,)), (((1, 3), (4, 7)), (2, 5, 6)),
        (((1, 3), (4, 7), (5, 6)), (2,)), (((1, 3), (5, 6)), (2, 4, 7)),
        (((1, 3), (5, 7)), (2, 4, 6)), (((1, 3), (6, 7)), (2, 4, 5)),
        (((1, 4),), (2, 3, 5, 6, 7)), (((1, 4), (2, 3)), (5, 6, 7)),
        (((1, 4), (2, 3), (5, 6)), (7,)), (((1, 4), (2, 3), (5, 7)), (6,)),
        (((1, 4), (2, 3), (6, 7)), (5,)), (((1, 4), (2, 5)), (3, 6, 7)),
        (((1, 4), (2, 5), (3, 6)), (7,)), (((1, 4), (2, 5), (3, 7)), (6,)),
        (((1, 4), (2, 5), (6, 7)), (3,)), (((1, 4), (2, 6)), (3, 5, 7)),
        (((1, 4), (2, 6), (3, 5)), (7,)), (((1, 4), (2, 6), (3, 7)), (5,)),
        (((1, 4), (2, 6), (5, 7)), (3,)), (((1, 4), (2, 7)), (3, 5, 6)),
        (((1, 4), (2, 7), (3, 5)), (6,)), (((1, 4), (2, 7), (3, 6)), (5,)),
        (((1, 4), (2, 7), (5, 6)), (3,)), (((1, 4), (3, 5)), (2, 6, 7)),
        (((1, 4), (3, 5), (6, 7)), (2,)), (((1, 4), (3, 6)), (2, 5, 7)),
        (((1, 4), (3, 6), (5, 7)), (2,)), (((1, 4), (3, 7)), (2, 5, 6)),
        (((1, 4), (3, 7), (5, 6)), (2,)), (((1, 4), (5, 6)), (2, 3, 7)),
        (((1, 4), (5, 7)), (2, 3, 6)), (((1, 4), (6, 7)), (2, 3, 5)),
        (((1, 5),), (2, 3, 4, 6, 7)), (((1, 5), (2, 3)), (4, 6, 7)),
        (((1, 5), (2, 3), (4, 6)), (7,)), (((1, 5), (2, 3), (4, 7)), (6,)),
        (((1, 5), (2, 3), (6, 7)), (4,)), (((1, 5), (2, 4)), (3, 6, 7)),
        (((1, 5), (2, 4), (3, 6)), (7,)), (((1, 5), (2, 4), (3, 7)), (6,)),
        (((1, 5), (2, 4), (6, 7)), (3,)), (((1, 5), (2, 6)), (3, 4, 7)),
        (((1, 5), (2, 6), (3, 4)), (7,)), (((1, 5), (2, 6), (3, 7)), (4,)),
        (((1, 5), (2, 6), (4, 7)), (3,)), (((1, 5), (2, 7)), (3, 4, 6)),
        (((1, 5), (2, 7), (3, 4)), (6,)), (((1, 5), (2, 7), (3, 6)), (4,)),
        (((1, 5), (2, 7), (4, 6)), (3,)), (((1, 5), (3, 4)), (2, 6, 7)),
        (((1, 5), (3, 4), (6, 7)), (2,)), (((1, 5), (3, 6)), (2, 4, 7)),
        (((1, 5), (3, 6), (4, 7)), (2,)), (((1, 5), (3, 7)), (2, 4, 6)),
        (((1, 5), (3, 7), (4, 6)), (2,)), (((1, 5), (4, 6)), (2, 3, 7)),
        (((1, 5), (4, 7)), (2, 3, 6)), (((1, 5), (6, 7)), (2, 3, 4)),
        (((1, 6),), (2, 3, 4, 5, 7)), (((1, 6), (2, 3)), (4, 5, 7)),
        (((1, 6), (2, 3), (4, 5)), (7,)), (((1, 6), (2, 3), (4, 7)), (5,)),
        (((1, 6), (2, 3), (5, 7)), (4,)), (((1, 6), (2, 4)), (3, 5, 7)),
        (((1, 6), (2, 4), (3, 5)), (7,)), (((1, 6), (2, 4), (3, 7)), (5,)),
        (((1, 6), (2, 4), (5, 7)), (3,)), (((1, 6), (2, 5)), (3, 4, 7)),
        (((1, 6), (2, 5), (3, 4)), (7,)), (((1, 6), (2, 5), (3, 7)), (4,)),
        (((1, 6), (2, 5), (4, 7)), (3,)), (((1, 6), (2, 7)), (3, 4, 5)),
        (((1, 6), (2, 7), (3, 4)), (5,)), (((1, 6), (2, 7), (3, 5)), (4,)),
        (((1, 6), (2, 7), (4, 5)), (3,)), (((1, 6), (3, 4)), (2, 5, 7)),
        (((1, 6), (3, 4), (5, 7)), (2,)), (((1, 6), (3, 5)), (2, 4, 7)),
        (((1, 6), (3, 5), (4, 7)), (2,)), (((1, 6), (3, 7)), (2, 4, 5)),
        (((1, 6), (3, 7), (4, 5)), (2,)), (((1, 6), (4, 5)), (2, 3, 7)),
        (((1, 6), (4, 7)), (2, 3, 5)), (((1, 6), (5, 7)), (2, 3, 4)),
        (((1, 7),), (2, 3, 4, 5, 6)), (((1, 7), (2, 3)), (4, 5, 6)),
        (((1, 7), (2, 3), (4, 5)), (6,)), (((1, 7), (2, 3), (4, 6)), (5,)),
        (((1, 7), (2, 3), (5, 6)), (4,)), (((1, 7), (2, 4)), (3, 5, 6)),
        (((1, 7), (2, 4), (3, 5)), (6,)), (((1, 7), (2, 4), (3, 6)), (5,)),
        (((1, 7), (2, 4), (5, 6)), (3,)), (((1, 7), (2, 5)), (3, 4, 6)),
        (((1, 7), (2, 5), (3, 4)), (6,)), (((1, 7), (2, 5), (3, 6)), (4,)),
        (((1, 7), (2, 5), (4, 6)), (3,)), (((1, 7), (2, 6)), (3, 4, 5)),
        (((1, 7), (2, 6), (3, 4)), (5,)), (((1, 7), (2, 6), (3, 5)), (4,)),
        (((1, 7), (2, 6), (4, 5)), (3,)), (((1, 7), (3, 4)), (2, 5, 6)),
        (((1, 7), (3, 4), (5, 6)), (2,)), (((1, 7), (3, 5)), (2, 4, 6)),
        (((1, 7), (3, 5), (4, 6)), (2,)), (((1, 7), (3, 6)), (2, 4, 5)),
        (((1, 7), (3, 6), (4, 5)), (2,)), (((1, 7), (4, 5)), (2, 3, 6)),
        (((1, 7), (4, 6)), (2, 3, 5)), (((1, 7), (5, 6)), (2, 3, 4)),
        (((2, 3),), (1, 4, 5, 6, 7)), (((2, 3), (4, 5)), (1, 6, 7)),
        (((2, 3), (4, 5), (6, 7)), (1,)), (((2, 3), (4, 6)), (1, 5, 7)),
        (((2, 3), (4, 6), (5, 7)), (1,)), (((2, 3), (4, 7)), (1, 5, 6)),
        (((2, 3), (4, 7), (5, 6)), (1,)), (((2, 3), (5, 6)), (1, 4, 7)),
        (((2, 3), (5, 7)), (1, 4, 6)), (((2, 3), (6, 7)), (1, 4, 5)),
        (((2, 4),), (1, 3, 5, 6, 7)), (((2, 4), (3, 5)), (1, 6, 7)),
        (((2, 4), (3, 5), (6, 7)), (1,)), (((2, 4), (3, 6)), (1, 5, 7)),
        (((2, 4), (3, 6), (5, 7)), (1,)), (((2, 4), (3, 7)), (1, 5, 6)),
        (((2, 4), (3, 7), (5, 6)), (1,)), (((2, 4), (5, 6)), (1, 3, 7)),
        (((2, 4), (5, 7)), (1, 3, 6)), (((2, 4), (6, 7)), (1, 3, 5)),
        (((2, 5),), (1, 3, 4, 6, 7)), (((2, 5), (3, 4)), (1, 6, 7)),
        (((2, 5), (3, 4), (6, 7)), (1,)), (((2, 5), (3, 6)), (1, 4, 7)),
        (((2, 5), (3, 6), (4, 7)), (1,)), (((2, 5), (3, 7)), (1, 4, 6)),
        (((2, 5), (3, 7), (4, 6)), (1,)), (((2, 5), (4, 6)), (1, 3, 7)),
        (((2, 5), (4, 7)), (1, 3, 6)), (((2, 5), (6, 7)), (1, 3, 4)),
        (((2, 6),), (1, 3, 4, 5, 7)), (((2, 6), (3, 4)), (1, 5, 7)),
        (((2, 6), (3, 4), (5, 7)), (1,)), (((2, 6), (3, 5)), (1, 4, 7)),
        (((2, 6), (3, 5), (4, 7)), (1,)), (((2, 6), (3, 7)), (1, 4, 5)),
        (((2, 6), (3, 7), (4, 5)), (1,)), (((2, 6), (4, 5)), (1, 3, 7)),
        (((2, 6), (4, 7)), (1, 3, 5)), (((2, 6), (5, 7)), (1, 3, 4)),
        (((2, 7),), (1, 3, 4, 5, 6)), (((2, 7), (3, 4)), (1, 5, 6)),
        (((2, 7), (3, 4), (5, 6)), (1,)), (((2, 7), (3, 5)), (1, 4, 6)),
        (((2, 7), (3, 5), (4, 6)), (1,)), (((2, 7), (3, 6)), (1, 4, 5)),
        (((2, 7), (3, 6), (4, 5)), (1,)), (((2, 7), (4, 5)), (1, 3, 6)),
        (((2, 7), (4, 6)), (1, 3, 5)), (((2, 7), (5, 6)), (1, 3, 4)),
        (((3, 4),), (1, 2, 5, 6, 7)), (((3, 4), (5, 6)), (1, 2, 7)),
        (((3, 4), (5, 7)), (1, 2, 6)), (((3, 4), (6, 7)), (1, 2, 5)),
        (((3, 5),), (1, 2, 4, 6, 7)), (((3, 5), (4, 6)), (1, 2, 7)),
        (((3, 5), (4, 7)), (1, 2, 6)), (((3, 5), (6, 7)), (1, 2, 4)),
        (((3, 6),), (1, 2, 4, 5, 7)), (((3, 6), (4, 5)), (1, 2, 7)),
        (((3, 6), (4, 7)), (1, 2, 5)), (((3, 6), (5, 7)), (1, 2, 4)),
        (((3, 7),), (1, 2, 4, 5, 6)), (((3, 7), (4, 5)), (1, 2, 6)),
        (((3, 7), (4, 6)), (1, 2, 5)), (((3, 7), (5, 6)), (1, 2, 4)),
        (((4, 5),), (1, 2, 3, 6, 7)), (((4, 5), (6, 7)), (1, 2, 3)),
        (((4, 6),), (1, 2, 3, 5, 7)), (((4, 6), (5, 7)), (1, 2, 3)),
        (((4, 7),), (1, 2, 3, 5, 6)), (((4, 7), (5, 6)), (1, 2, 3)),
        (((5, 6),), (1, 2, 3, 4, 7)), (((5, 7),), (1, 2, 3, 4, 6)), (((6, 7),), (1, 2, 3, 4, 5)),
    ),
}



def explicit_expansion(tensor: CoefficientTensor, pool: GaussianPool) -> ExpansionResult:
    """Hard-coded k <= 7 formulas evaluated via an explicit bracket tensor.

    The bracket starts as the outer product of the pooled rows; every frozen
    term whose component indicators hold adds its signed singleton product
    on the diagonal slice where the paired basis indices agree.  The value
    is the full contraction of the coefficient tensor with the bracket.
    """
    spec = tensor.spec
    k = spec.k
    if k > 7:
        raise UnsupportedMultiplicityError(
            f"explicit formulas cover k <= 7, got k = {k}")
    _check_compatible(tensor, pool)
    shape = tensor.values.shape
    idx = spec.indices
    zeta = [pool.values[idx[level], :n] for level, n in enumerate(shape)]
    bracket = reduce(np.multiply.outer, zeta).reshape(shape).copy()
    for pairs, singles in _EXPLICIT_TERMS[k]:
        if not all(idx[a - 1] == idx[b - 1] and idx[a - 1] != 0 for a, b in pairs):
            continue
        sign = -1.0 if len(pairs) % 2 else 1.0
        ndim = len(pairs) + len(singles)
        index: list[np.ndarray] = [np.empty(0, dtype=int)] * k
        for s, (a, b) in enumerate(pairs):
            d = min(shape[a - 1], shape[b - 1])
            diag = np.arange(d).reshape((1,) * s + (d,) + (1,) * (ndim - s - 1))
            index[a - 1] = diag
            index[b - 1] = diag
        term = np.full((1,) * ndim, sign)
        for w, q in enumerate(singles):
            pos = len(pairs) + w
            axis_shape = (1,) * pos + (shape[q - 1],) + (1,) * (ndim - pos - 1)
            index[q - 1] = np.arange(shape[q - 1]).reshape(axis_shape)
            term = term * zeta[q - 1].reshape(axis_shape)
        bracket[tuple(index)] += np.broadcast_to(
            term, np.broadcast_shapes(*(ix.shape for ix in index)))
    labels = list(range(k))
    value = float(np.einsum(tensor.values, labels, bracket, labels, []))
    return ExpansionResult(value=value,
                           terms_evaluated=int(np.prod(shape)),
                           orders=tensor.orders)


def brute_expansion(tensor, pool):
    """Self-contained oracle: literal tuple-by-tuple bracket evaluation with
    partitions enumerated inline via combinations + recursive matching."""
    spec = tensor.spec
    k, idx = spec.k, spec.indices

    def matchings(elems):
        if not elems:
            yield ()
            return
        head, rest = elems[0], elems[1:]
        for i in range(len(rest)):
            for tail in matchings(rest[:i] + rest[i + 1:]):
                yield ((head, rest[i]),) + tail

    corrections = []
    universe = tuple(range(k))
    for r in range(1, k // 2 + 1):
        for paired in itertools.combinations(universe, 2 * r):
            singles = tuple(x for x in universe if x not in paired)
            for pairs in matchings(paired):
                corrections.append((r, pairs, singles))

    total = 0.0
    for jt in np.ndindex(tensor.values.shape):
        bracket = 1.0
        for level in range(k):
            bracket *= pool.values[idx[level], jt[level]]
        for r, pairs, singles in corrections:
            ok = all(idx[a] == idx[b] != 0 and jt[a] == jt[b] for a, b in pairs)
            if not ok:
                continue
            term = (-1.0) ** r
            for q in singles:
                term *= pool.values[idx[q], jt[q]]
            bracket += term
        total += float(tensor.values[jt]) * bracket
    return total


def hermite_reference(k: int, delta: float, variance: float) -> float:
    """Closed-form equal-weight, equal-component integral value.

    delta is the (possibly truncated) weighted Wiener integral and variance
    the corresponding quadratic mass; k ranges over 1..7.
    """
    if not 1 <= k <= 7:
        raise UnsupportedMultiplicityError(f"reference polynomials cover k in 1..7, got {k}")
    if variance < 0.0:
        raise DomainError("variance must be >= 0")
    d, v = float(delta), float(variance)
    if k == 1:
        poly = d
    elif k == 2:
        poly = d**2 - v
    elif k == 3:
        poly = d**3 - 3 * d * v
    elif k == 4:
        poly = d**4 - 6 * d**2 * v + 3 * v**2
    elif k == 5:
        poly = d**5 - 10 * d**3 * v + 15 * d * v**2
    elif k == 6:
        poly = d**6 - 15 * d**4 * v + 45 * d**2 * v**2 - 15 * v**3
    else:
        poly = d**7 - 21 * d**5 * v + 105 * d**3 * v**2 - 105 * d * v**3
    return poly / math.factorial(k)


def eval_kernel(spec: IntegralSpec, point) -> float:
    """Kernel value at a point of [t, T]^k: product of weights if the
    coordinates are strictly increasing, zero otherwise (k = 1 has no
    ordering constraint)."""
    pt = [float(x) for x in point]
    if len(pt) != spec.k:
        raise ArityError(f"kernel point needs {spec.k} coordinates, got {len(pt)}")
    for x in pt:
        if x < spec.iv.t or x > spec.iv.T:
            raise DomainError(f"kernel coordinate {x} outside [{spec.iv.t}, {spec.iv.T}]")
    if any(a >= b for a, b in zip(pt[:-1], pt[1:])):
        return 0.0
    out = 1.0
    for w, x in zip(spec.weights, pt):
        out *= eval_weight(w, x, spec.iv)
    return out


def _gram_piecewise_constant(system: BasisSystem, p: int, iv: Interval) -> np.ndarray:
    """Gram matrix for Haar/Walsh via exact sign patterns.

    Every product phi_i phi_j is constant on the unified dyadic grid, so each
    entry is (amplitude product) * (signed panel count) * (panel width).  The
    amplitude product is an exact power of two on the diagonal and the signed
    count cancels exactly off it, giving a bitwise-exact identity.
    """
    panels = 1 << jump_depth(system, p)
    mids = (np.arange(panels) + 0.5) / panels
    j = np.arange(p + 1)
    signs = np.sign(basis_rows(system, j, mids, Interval(0.0, 1.0)))
    counts = signs @ signs.T
    if system is BasisSystem.HAAR:
        # level floor(log2 j), and 0 for the constant
        levels = np.maximum(np.frexp(j)[1] - 1, 0)
        half_sum = np.add.outer(levels, levels)
        amp = np.where(half_sum % 2 == 0, 1.0, math.sqrt(2.0)) * 2.0 ** (half_sum // 2)
    else:
        amp = np.ones_like(counts)
    width = iv.length / panels
    return amp * counts * width / iv.length


def gram_matrix(system: BasisSystem, p: int, iv: Interval) -> np.ndarray:
    """Matrix of inner products <phi_i, phi_j> for i, j = 0..p.

    Piecewise-constant systems reduce to exact dyadic panel sums; the other
    systems use composite Gauss panels with enough nodes for the product
    degree (Legendre) or enough panels per period (trigonometric).  p is read
    as the library reads a basis index, and p < 0 is refused rather than
    giving an empty matrix that every identity bound would pass.
    """
    if p < 0:
        raise DomainError("gram_matrix requires p >= 0")
    if system in (BasisSystem.HAAR, BasisSystem.WALSH):
        return _gram_piecewise_constant(system, p, iv)
    if system is BasisSystem.LEGENDRE:
        # product degree up to 2p; n nodes integrate degree 2n-1 exactly
        grid = panel_grid([iv.t, iv.T], max(16, p + 1))
    else:
        r_max = (p + 1) // 2
        grid = panel_grid(np.linspace(iv.t, iv.T, max(2, 4 * r_max + 2) + 1), 24)
    phi = basis_matrix(system, p, grid.nodes_x.ravel(), iv)
    return (phi * grid.weights.ravel()) @ phi.T


def grid_sum_reference(spec: IntegralSpec, path: WienerPath):
    """The ordered grid sum of ``path_iterated_integral`` by the plain
    recursion: every level builds its factor psi_l(tau) dW (a full dt array
    for a time component) and multiplies it into the shifted prefix sum."""
    iv = spec.iv
    left = iv.t + np.arange(path.N) * path.dt
    batch = path.increments.shape[:-2]
    running = None
    for level in range(spec.k):
        i_l = spec.indices[level]
        dw = (np.full(batch + (path.N,), path.dt) if i_l == 0
              else path.increments[..., i_l - 1, :])
        factor = np.asarray(eval_weight(spec.weights[level], left, iv)) * dw
        if running is None:
            running = factor
        else:
            prefix = np.empty(running.shape)
            prefix[..., 0] = 0.0
            np.cumsum(running[..., :-1], axis=-1, out=prefix[..., 1:])
            running = factor * prefix
    return np.sum(running, axis=-1) if batch else float(np.sum(running))


# The stream layout: domain 0 for pool rows, 1 for path components and 2
# for the per-path seeds of a run
POOL_DOMAIN, PATH_DOMAIN, SEED_DOMAIN = 0, 1, 2


def key(seed: int, domain: int, index: int) -> int:
    """The 128-bit Philox key of the stream (seed, domain, index), index
    below 2**62: the seed in the low word, domain * 2**62 + index above."""
    return seed + ((domain << 62 | index) << 64)


def stream(seed: int, domain: int, index: int) -> Generator:
    """The stream of (seed, domain, index): Philox at counter 0 under its key."""
    return Generator(Philox(key=key(seed, domain, index)))


def path_seed_reference(seed: int, path_index: int) -> int:
    """Word path_index of the per-path seed stream of seed: word
    path_index % 4 of the block that Philox at counter path_index // 4
    makes next."""
    bit_gen = Philox(key=key(seed, SEED_DOMAIN, 0), counter=path_index // 4)
    return int(bit_gen.random_raw(4)[path_index % 4])


def gaussian_pool_reference(iv: Interval, m: int, jmax: int, seed: int) -> np.ndarray:
    """The values of gaussian_pool(iv, basis, m, jmax, seed), row by row."""
    values = np.zeros((m + 1, jmax + 1))
    values[0, 0] = math.sqrt(iv.length)
    for i in range(1, m + 1):
        values[i] = stream(seed, POOL_DOMAIN, i).standard_normal(jmax + 1)
    return values


def brownian_path_reference(iv: Interval, m: int, N: int, seeds) -> np.ndarray:
    """The increments of brownian_path(iv, m, N, seeds) for a sequence of
    seeds, component stream by component stream."""
    increments = np.empty((len(seeds), m, N))
    for b, seed in enumerate(seeds):
        for i in range(1, m + 1):
            stream(seed, PATH_DOMAIN, i).standard_normal(out=increments[b, i - 1])
    increments *= math.sqrt(iv.length / N)
    return increments


def sample_differences_reference(spec: IntegralSpec, tensor: CoefficientTensor,
                                 n_paths: int, n_steps: int, seed: int,
                                 chunk: int) -> np.ndarray:
    """The differences of sample_differences in chunks of chunk paths, each
    path drawn from its path_seed_reference seed."""
    diffs = np.empty(n_paths)
    for start in range(0, n_paths, chunk):
        stop = min(start + chunk, n_paths)
        seeds = [path_seed_reference(seed, i) for i in range(start, stop)]
        path = WienerPath(iv=spec.iv, m=spec.max_index, N=n_steps,
                          increments=brownian_path_reference(spec.iv, spec.max_index,
                                                             n_steps, seeds))
        approx = truncated_expansion(tensor, zeta_from_path(path, tensor.basis,
                                                            max(tensor.orders))).value
        diffs[start:stop] = path_iterated_integral(spec, path) - approx
    return diffs


def jumps(system: BasisSystem, jmax: int, iv: Interval) -> list[float]:
    """Every interior jump point of phi_0..phi_jmax, ascending, in closed form.

    With D = jump_depth(system, jmax), Walsh jumps at every t + i (T - t) / 2**D
    (the single factor r_D, index 2**D - 1, already does).  The complete Haar
    levels below D - 1 jump at the even i; the wavelets 2**(D-1)..jmax of
    level D - 1 add their midpoints, the odd i < 2 (jmax - 2**(D-1) + 1).
    """
    depth = jump_depth(system, jmax)
    i = np.arange(1, 1 << depth)
    if system is BasisSystem.HAAR:
        i = i[(i % 2 == 0) | (i < 2 * jmax + 2 - (1 << depth))]
    return (iv.t + i / 2.0**depth * iv.length).tolist()


def _dyadic_signs(system: BasisSystem, j: int, depth: int) -> tuple[list[int], int]:
    """The sign of phi_j on each of the 2**depth dyadic cells of [t, T] and
    its squared amplitude times (T - t), from the definitions: Haar j >= 1 is
    +-2**(n/2) on the halves of its level-n interval; Walsh j is the product
    of the Rademacher factors r_m(u) = (-1)**floor(2**m u) of its subset,
    subsets in blocks of increasing largest factor M (j in [2**(M-1),
    2**M - 1]) and lexicographic as ascending tuples within a block."""
    cells = range(1 << depth)
    if j == 0:
        return [1 for _ in cells], 1
    if system is BasisSystem.HAAR:
        n = j.bit_length() - 1
        pos = j - (1 << n) + 1
        half = {2 * pos - 2: 1, 2 * pos - 1: -1}
        return [half.get(c >> (depth - n - 1), 0) for c in cells], 2**n
    top = j.bit_length()
    subsets = sorted(rest + (top,) for r in range(top)
                     for rest in itertools.combinations(range(1, top), r))
    factors = subsets[j - (1 << (top - 1))]
    return [(-1) ** sum(c >> (depth - m) for m in factors) for c in cells], 1


def _poly_mul(a: list, b: list) -> list:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for p, x in enumerate(a):
        for q, y in enumerate(b):
            out[p + q] += x * y
    return out


def _poly_at(a: list, x: Fraction) -> Fraction:
    return sum(c * x**p for p, c in enumerate(a))


def _sqrt(x: Fraction) -> Fraction:
    """sqrt(x) for x >= 0, to a relative 2**-200."""
    scale = 2**200
    return Fraction(math.isqrt(x.numerator * x.denominator * scale**2),
                    x.denominator * scale)


def exact_dyadic_coefficients(spec: IntegralSpec, system: BasisSystem, orders,
                              absolute: bool = False) -> np.ndarray:
    """The Haar or Walsh coefficient tensor of spec up to the orders, each
    entry the float nearest its exact value (to a relative 2**-200 first).
    With absolute, every weight coefficient and basis value is taken by its
    magnitude: each entry then bounds every term summed for it, which is
    the scale of its rounding error.

    In s - t, the weights are polynomials with the floats' exact rational
    coefficients and each phi_j is a sign per dyadic cell times its
    amplitude.  Level by level, the running integral is one polynomial per
    cell: the integral of the level's integrand from the cell's left edge,
    times the cell's sign, plus the signed totals of the cells before it.
    The product of the amplitudes over (T - t)**(k/2) is the square root of
    a rational.
    """
    length = Fraction(spec.iv.T) - Fraction(spec.iv.t)
    depth = max(orders).bit_length()
    edges = [length * c / (1 << depth) for c in range((1 << depth) + 1)]
    weights = [[Fraction(abs(c) if absolute else c) for c in w.coeffs] for w in spec.weights]
    values = np.empty([p + 1 for p in orders])

    def descend(level, running, total, index, amp_sq):
        if level == spec.k:
            values[index] = float(total * _sqrt(amp_sq / length**spec.k))
            return
        antis, wholes = [], []
        for c, poly in enumerate(running):
            integrand = _poly_mul(poly, weights[level])
            anti = [Fraction(0)] + [a / (p + 1) for p, a in enumerate(integrand)]
            anti[0] = -_poly_at(anti, edges[c])
            antis.append(anti)
            wholes.append(_poly_at(anti, edges[c + 1]))
        for j in range(orders[level] + 1):
            signs, amp = _dyadic_signs(system, j, depth)
            signs = [abs(sign) for sign in signs] if absolute else signs
            acc, nxt = Fraction(0), []
            for anti, whole, sign in zip(antis, wholes, signs):
                nxt.append([acc + sign * anti[0]] + [sign * a for a in anti[1:]])
                acc += sign * whole
            descend(level + 1, nxt, acc, index + (j,), amp_sq * amp)

    descend(0, [[Fraction(1)]] * (1 << depth), None, (), Fraction(1))
    return values


def exact_legendre_coefficients(spec: IntegralSpec, orders) -> np.ndarray:
    """The Legendre coefficient tensor of spec up to the orders, each entry
    the float nearest its exact value (to a relative 2**-200 first).

    In v = s - t, phi_j is sqrt((2 j + 1) / (T - t)) times P_j(2 v / (T - t) - 1),
    a polynomial with rational coefficients by the three-term recurrence, and
    the weights have the floats' exact rational coefficients.  Level by level
    the running integral is one polynomial in v; the last level is summed
    against the moments int_0^(T - t) v**q P_j dv.  The product of the scales
    is the square root of a rational.
    """
    length = Fraction(spec.iv.T) - Fraction(spec.iv.t)
    x = [Fraction(-1), 2 / length]
    legendre = [[Fraction(1)], x]
    for m in range(1, max(orders)):
        a = [(2 * m + 1) * c for c in _poly_mul(x, legendre[m])]
        b = legendre[m - 1] + [Fraction(0)] * (len(a) - len(legendre[m - 1]))
        legendre.append([(p - m * q) / (m + 1) for p, q in zip(a, b)])
    weights = [[Fraction(c) for c in w.coeffs] for w in spec.weights]
    values = np.empty([p + 1 for p in orders])

    @cache
    def moment(j, q):
        return sum(c * length ** (q + r + 1) / (q + r + 1) for r, c in enumerate(legendre[j]))

    def descend(level, running, index, scale_sq):
        integrand = _poly_mul(running, weights[level])
        for j in range(orders[level] + 1):
            sq = scale_sq * (2 * j + 1) / length
            if level == spec.k - 1:
                total = sum(c * moment(j, q) for q, c in enumerate(integrand))
                values[index + (j,)] = float(total * _sqrt(sq))
            else:
                product = _poly_mul(integrand, legendre[j])
                anti = [Fraction(0)] + [c / (q + 1) for q, c in enumerate(product)]
                descend(level + 1, anti, index + (j,), sq)

    descend(0, [Fraction(1)], (), Fraction(1))
    return values


# The trigonometric error bound's constants.  Rounding is modelled as
# independent errors of at most UNIT_ROUNDOFF with mean zero (Higham and Mary,
# SIAM J. Sci. Comput. 41, 2019): their effect on a coefficient exceeds
# ROUNDING_LAMBDA u times the root sum of its squared sensitivities with
# probability at most 2 exp(-ROUNDING_LAMBDA**2 / 2), about 4e-22 (Hoeffding).
# numpy's Gauss rule, against 40-digit arithmetic for 16 <= n <= 48 and
# n = 56, 64, 80, 96: the nodes within 0.75 u, and sum |w^ - w| and every row
# sum of |K^ - K| (K the cumulative matrix) within 5.6 n u; the bound takes
# RULE_ERROR n u.
UNIT_ROUNDOFF = 2.0**-53
ROUNDING_LAMBDA = 10.0
RULE_ERROR = 8.0


def trigonometric_error_bound(spec: IntegralSpec, orders, grid) -> float:
    """A bound on the largest error, against exact arithmetic, of the
    trigonometric coefficients that ``coefficients._sweep`` computes on grid,
    a grid of equal panels: the truncation of the quadrature, the error of
    the Gauss rule itself, and rounding.  README, "Numerical notes", derives
    each term.

    Every term is carried to the coefficients by the sweep on magnitudes:
    level l integrates g[l] = amp |psi_l| st[l] with |K| in place of K, where
    amp = sqrt(2 / (T - t)) bounds |phi_j|, and scale, the final Gauss sum,
    bounds every coefficient's sum of |terms|.  D[l] is the derivative of
    scale in g[l] and E[l] in st[l], so an error e injected into st[l]
    reaches a coefficient as at most <E[l], |e|>.
    """
    u = UNIT_ROUNDOFF
    iv, k, n, panels = spec.iv, spec.k, grid.nodes, grid.n_panels
    length = iv.length
    x_ref, w_ref = gauss_rule(n)
    abs_k = np.abs(cumulative_matrix(n))
    kappa = float(abs_k.sum(axis=1).max())
    half = grid.half[:, None]
    v = grid.nodes_x - iv.t
    amp = math.sqrt(2.0 / length)
    omega = [2.0 * math.pi * ((p + 1) // 2) / length for p in orders]
    polys = [np.polynomial.Polynomial(w.coeffs) for w in spec.weights]
    mag = [np.abs(p(v)) for p in polys]
    slope = [np.abs(p.deriv()(v)) for p in polys]
    majorant = [np.polynomial.Polynomial(np.abs(w.coeffs))(v) for w in spec.weights]

    def cum(g):
        per = grid.half * (g @ w_ref)
        return half * (g @ abs_k.T) + (np.cumsum(per) - per)[:, None]

    def cum_t(lam):
        tot = lam.sum(axis=1)
        return half * (lam @ abs_k + (tot.sum() - np.cumsum(tot))[:, None] * w_ref)

    st, g = [np.ones_like(v)], []
    for level in range(k):
        g.append(amp * mag[level] * st[level])
        if level < k - 1:
            st.append(cum(g[level]))
    scale = float(np.sum(grid.weights * g[-1]))
    D = [grid.weights]
    for level in range(k - 1, 0, -1):
        D.insert(0, cum_t(amp * mag[level] * D[0]))
    E = [None] + [amp * mag[level] * D[level] for level in range(1, k)]
    share = [d * gl / scale for d, gl in zip(D, g)]
    # relative change of scale per unit shift of a node, summed over the levels
    shift = sum(D[l] * amp * st[l] * (omega[l] * mag[l] + slope[l]) for l in range(k)) / scale
    peak = [gl.max(axis=1) for gl in g]

    # truncation, each level minimised over the ellipse parameter rho, in logs
    h2 = length / (2 * panels)
    cheb = [np.abs(p.convert(domain=[0.0, length], kind=np.polynomial.Chebyshev).coef)
            for p in polys]
    log_real = np.cumsum([0.0] + [math.log(amp * c.sum() * length / (l + 1))
                                  for l, c in enumerate(cheb)])
    rho = np.geomspace(1.01, 1e4, 400)
    a_rho, b_rho = (rho + 1 / rho) / 2, (rho - 1 / rho) / 2
    r = a_rho / panels
    log_rho_w = np.log(1 + r + np.sqrt(2 * r + r * r))
    log_gauss = math.log(64 / 15) - 2 * (n - 1) * np.log(rho) - np.log(rho**2 - 1)
    log_interp = math.log(2 * (kappa + 2)) - (n - 1) * np.log(rho) - np.log(rho - 1)
    log_state = np.zeros_like(rho)
    truncation = 0.0
    for level, c in enumerate(cheb):
        nz = np.flatnonzero(c)
        log_psi = np.logaddexp.reduce(np.log(c[nz])[:, None] + nz[:, None] * log_rho_w, axis=0)
        log_m = math.log(amp) + log_psi + omega[level] * h2 * b_rho + log_state
        if level == k - 1:
            truncation += math.exp(np.min(log_m + math.log(length / 2) + log_gauss))
        else:
            per_rho = log_m + np.logaddexp(math.log(length / 2) + log_gauss,
                                           math.log(h2) + log_interp)
            truncation += math.exp(np.min(per_rho)) * float(E[level + 1].sum())
            log_state = np.logaddexp(log_real[level + 1], math.log(h2) + np.log(a_rho) + log_m)

    # the Gauss rule's own weights and cumulative matrix
    beta = RULE_ERROR * n * u
    rule = float(np.sum(grid.half * beta * peak[-1]))
    for level in range(k - 1):
        offsets = grid.half * beta * peak[level]
        injected = half * beta * peak[level][:, None] + (np.cumsum(offsets) - offsets)[:, None]
        rule += float(np.sum(E[level + 1] * injected))

    # rounding shared by every node: pi, 2 pi r, T - t and amp; the rule's nodes
    inexact_length = Fraction(iv.T) - Fraction(iv.t) != Fraction(length)
    shared = u * scale * (sum((1.35 + inexact_length) * omega[l] * float(np.sum(share[l] * v))
                              for l in range(k)) + 4 * k + float(np.sum(shift * half)))

    # independent roundings: the sweep's operations, N at most along any term
    ops = (k - 1) * (n + panels + 3) + panels * n + 3
    # per node: its position, x - t, the phase, sin or cos (4 ulp), amp times
    # it, and Horner's 2 d steps (each within the majorant of psi)
    node = float(np.sum(shift**2 * (grid.nodes_x**2 + (half * x_ref) ** 2 + v**2)))
    node += sum(float(np.sum(share[l] ** 2 * (2 * (omega[l] * v) ** 2 + 65)
                             + 2 * spec.weights[l].degree
                             * (D[l] * amp * st[l] * majorant[l] / scale) ** 2))
                for l in range(k))
    # per panel: its midpoint moves the nodes and the window of the
    # antiderivative, its half-width the nodes and the weights
    window = np.zeros(panels)
    for level in range(1, k):
        after = E[level].sum(axis=1) / scale
        window += 2 * peak[level - 1] * (after.sum() - np.cumsum(after) + after)
    mid = np.abs(grid.nodes_x.mean(axis=1))
    by_mid = mid * (shift.sum(axis=1) + window)
    by_half = grid.half * (np.abs(shift * x_ref).sum(axis=1) + window) + sum(
        sh.sum(axis=1) for sh in share)
    panel = float(np.sum(by_mid**2 + by_half**2))
    rounding = shared + ROUNDING_LAMBDA * u * scale * math.sqrt(ops + node + panel)
    return truncation + rule + rounding


def _row_prefixes(orders):
    """The index columns "j_1,...,j_k," of every table row, j_1 fastest, one
    f-string per row."""
    inner = [""]
    for p in orders[:-1]:
        inner = [f"{head}{j}," for j in range(p + 1) for head in inner]
    return (f"{head}{j}," for j in range(orders[-1] + 1) for head in inner)


def _row_values(rows, orders):
    for prefix, row in itertools.zip_longest(_row_prefixes(orders), rows):
        if row is None:
            raise DomainError(f"coefficient table ends before row '{prefix}...'")
        try:
            value = float(row[len(prefix):]) if prefix and row.startswith(prefix) else math.nan
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise DomainError(f"bad coefficient row: {row!r}")
        yield value


def write_table_reference(path, tensor: CoefficientTensor) -> None:
    """The coefficient table written one row and one write per tuple."""
    header = {"format_version": FORMAT_VERSION, "spec": tensor.spec.to_json(),
              "basis": tensor.basis.value, "orders": list(tensor.orders)}
    values = tensor.values.ravel(order="F").tolist()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        fh.write(_column_header(tensor.spec.k) + "\n")
        for prefix, v in zip(_row_prefixes(tensor.orders), values):
            fh.write(f"{prefix}{v:.17g}\n")


def read_table_reference(path) -> CoefficientTensor:
    """The coefficient table read and checked one row at a time."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            header = json.loads(fh.readline())
        except ValueError as exc:
            raise DomainError(f"coefficient table header is not valid JSON: {exc}") from exc
        if not isinstance(header, dict):
            raise DomainError("coefficient table header must be a JSON object")
        for field in ("format_version", "spec", "basis", "orders"):
            if field not in header:
                raise DomainError(f"coefficient table header missing {field!r}")
        if header["format_version"] != FORMAT_VERSION:
            raise DomainError(f"unsupported table format version {header['format_version']!r}")
        spec = IntegralSpec.from_json(header["spec"])
        basis = parse_basis(header["basis"])
        try:
            orders = _read_orders(spec, header["orders"])
        except DomainError as exc:
            raise DomainError(f"coefficient table {exc}") from None
        if (columns := fh.readline().strip()) != _column_header(spec.k):
            raise DomainError(f"coefficient table line 2 must be the column header "
                              f"{_column_header(spec.k)!r}, got {columns!r}")
        rows = filter(None, map(str.strip, fh))
        values = np.fromiter(_row_values(rows, orders), dtype=float)
    values = np.ascontiguousarray(values.reshape([p + 1 for p in orders], order="F"))
    return CoefficientTensor(spec=spec, basis=basis, orders=orders, values=values)


def sum_squared_reference(tensor: CoefficientTensor) -> float:
    """The sum of the squared coefficients: one math.fsum over the squares,
    read 2**20 at a time."""
    flat = tensor.values.ravel()
    blocks = (flat[i:i + 2**20] for i in range(0, flat.size, 2**20))
    return math.fsum(itertools.chain.from_iterable((b * b).tolist() for b in blocks))


def kernel_l2_norm_sq_reference(spec: IntegralSpec) -> float:
    """The squared kernel norm: each level's squared weight times the level
    before, integrated from t, as np.polynomial.Polynomial objects."""
    poly = np.polynomial.Polynomial
    acc = poly([1.0])
    for w in spec.weights:
        acc = (poly(list(w.coeffs)) ** 2 * acc).integ()
    return float(acc(spec.iv.length))


def exact_ms_reference(tensor: CoefficientTensor) -> float:
    """E[(J - J_p)**2] of the truncated expansion of tensor, for any pattern
    of components: ||K||**2 - sum over sigma in G of <C, sigma C>, G the
    permutations of the k positions that keep the component pattern, each
    term one np.vdot of C and its axes permuted by sigma.  The orders must
    be equal within each group of equal components."""
    indices, values = tensor.spec.indices, tensor.values
    mass = 0.0
    for perm in itertools.permutations(range(tensor.spec.k)):
        if all(indices[p] == indices[a] for a, p in enumerate(perm)):
            permuted = np.transpose(values, perm)
            if permuted.shape != values.shape:
                raise ValueError("orders differ within a group of equal components")
            mass += float(np.vdot(values, permuted))
    return kernel_l2_norm_sq(tensor.spec) - mass
