"""Fourier coefficients of the ordered-simplex kernel, their Parseval residual
and their table format.

A coefficient for index tuple (j_1, ..., j_k) is the iterated integral

    int_t^T psi_k phi_{j_k}(t_k) int_t^{t_k} ... int_t^{t_2} psi_1 phi_{j_1}(t_1) dt_1 ... dt_k,

with j_1 attached to the innermost level.  It is evaluated on a shared
breakpoint-aligned panel grid: each level multiplies the running
antiderivative by its weight/basis factor and integrates again, which is
exact whenever the per-panel integrands are polynomials of degree below the
node count (always true for Legendre/Haar/Walsh with polynomial weights).
The trigonometric system gets oscillation-matched equal panels, confirmed
on grids that split each panel exactly in two.

Tensors are indexed ``values[j_1, ..., j_k]``; serialized rows iterate with
j_1 fastest-varying.  :func:`_row_prefixes` is the one statement of that row
order: the table writer and reader both walk it.  The error bounds built
on the residual live in :mod:`validation`, beside the pass rules they serve.
"""
from __future__ import annotations

import itertools
import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import errors
from .basis import BasisSystem, _check_index, basis_matrix, jumps, parse_basis
from .errors import CapacityError, DomainError, NumericError, read_ints
from .kernel import IntegralSpec, eval_weight, kernel_l2_norm_sq
from .quadrature import PanelGrid, panel_grid

# Gauss nodes per panel: the rule and the cumulative matrix cost O(n**3)
# time and O(n**2) memory; Legendre (1000, 1000) at k = 2 needs 2003
MAX_NODES = 4096
FORMAT_VERSION = "1"


@dataclass(frozen=True, eq=False)
class CoefficientTensor:
    """Dense coefficient array for one integral spec, basis, and truncation."""

    spec: IntegralSpec
    basis: BasisSystem
    orders: tuple[int, ...]
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "orders", _read_orders(self.spec, self.orders))
        shape = tuple(p + 1 for p in self.orders)
        if self.values.shape != shape:
            raise DomainError(f"values shape {self.values.shape} != {shape}")
        if not np.all(np.isfinite(self.values)):
            raise NumericError("coefficient tensor contains non-finite entries")


def _read_orders(spec: IntegralSpec, orders) -> tuple[int, ...]:
    """orders read as integers >= 0, one per level of spec, for at most
    errors.MAX_ENTRIES index tuples."""
    orders = read_ints("orders", orders, lo=0)
    if len(orders) != spec.k:
        raise DomainError(f"orders must have {spec.k} entries, got {len(orders)}")
    errors.require_fits("tensor", math.prod(p + 1 for p in orders))
    return orders


def _require_sweep_fits(basis: BasisSystem, orders, panels: int, nodes: int) -> None:
    """Hold the largest sweep array (earlier levels' index counts, or the
    largest level, times panels times nodes) to errors.MAX_ENTRIES."""
    sizes = [p + 1 for p in orders]
    errors.require_fits(f"{basis.value} quadrature array",
                        max(math.prod(sizes[:-1]), max(sizes)) * panels * nodes)


def _quad_plan(spec: IntegralSpec, basis: BasisSystem, orders) -> PanelGrid:
    """Panel grid + node count for iterated integrals up to the truncation
    orders.  Every order is held to the basis index cap (as basis_matrix
    holds it), the node count to MAX_NODES and the sweep on the grid to
    errors.MAX_ENTRIES before any rule or grid is built; for Haar/Walsh at most
    2 (jmax + 1) panels are counted, so no jump is placed beyond the cap."""
    for p in orders:
        _check_index(basis, p, "orders")
    iv = spec.iv
    degrees = [w.degree for w in spec.weights]
    k = spec.k
    if basis is BasisSystem.LEGENDRE:
        nodes, panels = max(16, sum(orders) + sum(degrees) + k + 1), 1
    elif basis is BasisSystem.TRIGONOMETRIC:
        periods = sum((p + 1) // 2 for p in orders)
        nodes, panels = max(24, sum(degrees) + k + 8), max(2, 2 * periods + 2)
    else:
        nodes, panels = max(16, sum(degrees) + k + 1), 2 * (max(orders) + 1)
    if nodes > MAX_NODES:
        raise CapacityError(f"{basis.value} quadrature for weight degrees {degrees} and "
                            f"orders {list(orders)} needs {nodes} nodes > cap {MAX_NODES}")
    _require_sweep_fits(basis, orders, panels, nodes)
    if basis in (BasisSystem.HAAR, BasisSystem.WALSH):
        return panel_grid([iv.t, *jumps(basis, max(orders), iv), iv.T], nodes)
    return panel_grid(np.linspace(iv.t, iv.T, panels + 1), nodes)


def _sweep(spec: IntegralSpec, basis: BasisSystem, orders, grid: PanelGrid) -> np.ndarray:
    """The coefficients of every index tuple up to the orders, in one pass
    over the grid; shape (orders[0] + 1, ..., orders[k-1] + 1)."""
    iv = spec.iv
    flat = grid.nodes_x.ravel()
    shape2 = grid.nodes_x.shape
    state = np.ones((1,) + shape2)
    k = spec.k
    for level in range(k):
        factor = basis_matrix(basis, orders[level], flat, iv).reshape((-1,) + shape2)
        factor = factor * np.asarray(eval_weight(spec.weights[level], flat, iv)).reshape(shape2)
        if level == k - 1:
            totals = np.tensordot(state, factor * grid.weights, axes=([1, 2], [1, 2]))
            return totals.reshape(tuple(p + 1 for p in orders))
        prod = state[:, None, :, :] * factor[None, :, :, :]
        state = grid.cumulative(prod).reshape((-1,) + shape2)
    raise AssertionError("unreachable")


def _coefficients(spec: IntegralSpec, basis: BasisSystem, orders) -> np.ndarray:
    """:func:`_sweep` on the planned grid; the trigonometric system is
    confirmed on grids that split each panel in two until they agree or the
    cap is hit."""
    grid = _quad_plan(spec, basis, orders)
    result = _sweep(spec, basis, orders, grid)
    if basis is not BasisSystem.TRIGONOMETRIC:
        return result
    iv, panels = spec.iv, grid.n_panels
    for _ in range(5):
        panels *= 2
        _require_sweep_fits(basis, orders, panels, grid.nodes)
        finer_grid = panel_grid(np.linspace(iv.t, iv.T, panels + 1), grid.nodes)
        finer = _sweep(spec, basis, orders, finer_grid)
        scale = max(1.0, float(np.max(np.abs(finer))))
        if float(np.max(np.abs(result - finer))) <= 1e-12 * scale:
            return finer
        result = finer
    raise NumericError("coefficient quadrature did not converge under panel refinement")


def coefficient_tensor(spec: IntegralSpec, basis: BasisSystem, orders) -> CoefficientTensor:
    """All coefficients up to the given truncation orders, computed in one
    shared-grid pass; the result does not depend on evaluation order."""
    orders_t = _read_orders(spec, orders)
    values = _coefficients(spec, basis, orders_t)
    values = np.ascontiguousarray(values)
    values.setflags(write=False)
    return CoefficientTensor(spec=spec, basis=basis, orders=orders_t, values=values)


def sum_squared(tensor: CoefficientTensor) -> float:
    """Exact-order-independent sum of squared coefficients: one math.fsum
    over blocks of 2**20 squares, so memory stays bounded at every size."""
    flat = tensor.values.ravel()
    blocks = (flat[i:i + 2**20] for i in range(0, flat.size, 2**20))
    return math.fsum(itertools.chain.from_iterable((b * b).tolist() for b in blocks))


def parseval_residual(spec: IntegralSpec, tensor: CoefficientTensor) -> float:
    """Squared L2 mass of the kernel not captured by the tensor.

    Tiny negative round-off is clamped to zero with a warning; a deficit
    beyond round-off scale indicates a tensor inconsistent with the spec and
    raises :class:`NumericError`.
    """
    if tensor.spec != spec:
        raise DomainError("tensor was built for a different integral spec")
    total = kernel_l2_norm_sq(spec)
    residual = total - sum_squared(tensor)
    if residual < 0.0:
        if -residual > 1e-10 * max(total, 1e-300):
            raise NumericError(
                f"coefficient mass exceeds kernel norm by {-residual:.3e}; tensor inconsistent")
        warnings.warn(f"clamping negative Parseval residual {residual:.3e} to 0",
                      RuntimeWarning, stacklevel=2)
        return 0.0
    return residual


def _row_prefixes(orders):
    """The index columns "j_1,...,j_k," of every table row, j_1 fastest.
    Levels 1..k-1 are listed once and paired lazily with level k, so a large
    table never holds every row at once."""
    inner = [""]
    for p in orders[:-1]:
        inner = [f"{head}{j}," for j in range(p + 1) for head in inner]
    return (f"{head}{j}," for j in range(orders[-1] + 1) for head in inner)


def _row_values(rows, orders):
    """The value of each row, checked against its index columns in order;
    a row out of place, missing, extra or with a non-finite value is named."""
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


def write_coefficient_table(path, tensor: CoefficientTensor) -> None:
    """Write the documented table format: one JSON header line, a CSV column
    header, then one row per tuple (j_1 fastest) with 17-significant-digit
    values (binary round-trip exact)."""
    header = {"format_version": FORMAT_VERSION, "spec": tensor.spec.to_json(),
              "basis": tensor.basis.value, "orders": list(tensor.orders)}
    values = tensor.values.ravel(order="F").tolist()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        fh.write(",".join(f"j{l + 1}" for l in range(tensor.spec.k)) + ",value\n")
        for prefix, v in zip(_row_prefixes(tensor.orders), values):
            fh.write(f"{prefix}{v:.17g}\n")


def read_coefficient_table(path) -> CoefficientTensor:
    """Read a table produced by :func:`write_coefficient_table`: rows must
    come in the order it writes them, blank lines aside."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            header = json.loads(fh.readline())
        except ValueError as exc:  # JSONDecodeError, or an integer over 4300 digits
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
        fh.readline()  # column header
        rows = filter(None, map(str.strip, fh))
        values = np.fromiter(_row_values(rows, orders), dtype=float)
    values = np.ascontiguousarray(values.reshape([p + 1 for p in orders], order="F"))
    values.setflags(write=False)
    return CoefficientTensor(spec=spec, basis=basis, orders=orders, values=values)
