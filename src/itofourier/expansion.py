"""Truncated expansions of the iterated integral from coefficients and pools.

For every index tuple the coefficient multiplies the bracket of Theorem 1:
the product of pooled variables plus the sign-alternating pair-partition
corrections, where a pair must carry equal nonzero components and equal
basis indices.  That bracket is the Wick product of the pooled variables
under the covariance 1{i_a = i_b != 0, j_a = j_b}, so the expansion is
contracted by the Wick recursion

    :x_1 ... x_k: = x_k :x_1 ... x_{k-1}: - sum_a E[x_a x_k] :x_1 ..^a.. x_{k-1}:

one tensor axis at a time, without enumerating partitions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coefficients import CoefficientTensor
from .errors import CompatibilityError, UnsupportedMultiplicityError
from .stochastic import GaussianPool

MAX_MULTIPLICITY = 10


@dataclass(frozen=True)
class ExpansionResult:
    """Value of one truncated expansion (a float, or a (B,) array for a
    batch of pools) plus bookkeeping."""

    value: float | np.ndarray
    terms_evaluated: int
    orders: tuple[int, ...]


def _check_compatible(tensor: CoefficientTensor, pool: GaussianPool) -> None:
    spec = tensor.spec
    if pool.iv != spec.iv:
        raise CompatibilityError("pool and tensor live on different intervals")
    if pool.basis is not tensor.basis:
        raise CompatibilityError(
            f"pool basis {pool.basis.value} != tensor basis {tensor.basis.value}")
    if spec.max_index > pool.m:
        raise CompatibilityError(
            f"tensor uses component {spec.max_index} but pool has m = {pool.m}")
    if max(tensor.orders) > pool.jmax:
        raise CompatibilityError(
            f"tensor order {max(tensor.orders)} exceeds pool jmax = {pool.jmax}")


def _wick(values: np.ndarray, rows: list[np.ndarray], idx: tuple[int, ...]) -> np.ndarray:
    """Contraction of values with the Wick product of the pooled rows, one
    entry per pool.  rows[l] has shape (B, n_l); values gains the batch axis
    in front when its first axis is contracted."""
    if not rows:
        return values
    batched = values.ndim - len(rows)
    last = len(rows) - 1
    b, n = rows[last].shape
    if batched:
        # the middle size is spelled out: -1 is ambiguous in an empty batch
        middle = math.prod(values.shape[1:-1])
        head = np.matmul(values.reshape(b, middle, n), rows[last][:, :, None])
    else:
        head = rows[last] @ values.reshape(-1, n).T
    total = _wick(head.reshape((b,) + values.shape[batched:-1]), rows[:last], idx[:last])
    if idx[last] != 0:
        for a in range(last):
            if idx[a] == idx[last]:
                # E[x_a x_last] joins the axes on their common index range
                traced = values.trace(axis1=a + batched, axis2=last + batched)
                total -= _wick(traced, rows[:a] + rows[a + 1:last],
                               idx[:a] + idx[a + 1:last])
    return total


def truncated_expansion(tensor: CoefficientTensor, pool: GaussianPool) -> ExpansionResult:
    """The truncated expansion: the full contraction of the coefficient
    tensor with the bracket, by the Wick recursion over its axes, for one
    pool or for each pool of a batch.  The evaluation order is fixed, so the
    result is reproducible bit for bit."""
    spec = tensor.spec
    k = spec.k
    if k > MAX_MULTIPLICITY:
        raise UnsupportedMultiplicityError(
            f"multiplicity {k} exceeds supported cap {MAX_MULTIPLICITY}")
    _check_compatible(tensor, pool)
    pools = pool.values if pool.values.ndim == 3 else pool.values[None]
    rows = [pools[:, spec.indices[level], :n] for level, n in enumerate(tensor.values.shape)]
    value = _wick(tensor.values, rows, spec.indices)
    return ExpansionResult(value=value if pool.values.ndim == 3 else float(value[0]),
                           terms_evaluated=int(tensor.values.size),
                           orders=tensor.orders)
