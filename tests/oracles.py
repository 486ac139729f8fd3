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
``path_iterated_integral`` must match bit for bit.
"""
from __future__ import annotations

import itertools
import math
from functools import reduce

import numpy as np

from itofourier.basis import BasisSystem, Interval, basis_matrix, basis_rows, jump_depth
from itofourier.coefficients import CoefficientTensor
from itofourier.errors import ArityError, DomainError, UnsupportedMultiplicityError
from itofourier.expansion import ExpansionResult, _check_compatible
from itofourier.kernel import IntegralSpec, eval_weight
from itofourier.quadrature import panel_grid
from itofourier.stochastic import GaussianPool, WienerPath

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
