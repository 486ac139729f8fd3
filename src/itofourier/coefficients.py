"""Fourier coefficients of the ordered-simplex kernel, their Parseval residual
and their table format.

A coefficient for index tuple (j_1, ..., j_k) is the iterated integral

    int_t^T psi_k phi_{j_k}(t_k) int_t^{t_k} ... int_t^{t_2} psi_1 phi_{j_1}(t_1) dt_1 ... dt_k,

with j_1 attached to the innermost level.  It is evaluated on a shared grid
of equal panels: each level multiplies the running antiderivative by its
weight/basis factor and integrates again, which is exact whenever the
per-panel integrands are polynomials of degree below the node count (always
true for Legendre and for Haar/Walsh on their dyadic cells, with polynomial
weights).  Trigonometric panels are short enough for the sum of all levels'
frequencies to turn by under an eighth of a period across half a panel, so
the plan meets an error bound stated in advance (README, "Numerical notes").

Tensors are indexed ``values[j_1, ..., j_k]``; serialized rows iterate with
j_1 fastest-varying.  :func:`_row_blocks` is the one statement of that row
order and :func:`_column_header` of the CSV header on line 2: the table
writer and reader both use them.  Both take half a block of rows at a time:
the writer formats each distinct value of it once, keyed by its bits so
that -0.0 keeps its sign, and fills a ``%s`` template with the texts; the
reader parses each distinct value text once.  The error bounds built on the
residual live in :mod:`validation`, beside the pass rules they serve.
"""
from __future__ import annotations

import itertools
import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import errors
from .basis import BasisSystem, _check_index, basis_matrix, jump_depth, parse_basis
from .errors import CapacityError, DomainError, NumericError, read_ints
from .kernel import IntegralSpec, eval_weight, kernel_l2_norm_sq
from .quadrature import PanelGrid, panel_grid

# Gauss nodes per panel: the rule and the cumulative matrix cost O(n**3)
# time and O(n**2) memory; Legendre (1000, 1000) at k = 2 needs 2003
MAX_NODES = 4096
FORMAT_VERSION = "1"
# table rows per block, about 100 kB of text.  The writer and the reader
# take half a block at a time: a half block's distinct texts, one Python
# string each, take up to 1.5 blocks when no value repeats, and the writer
# peaks at about 4 blocks, the reader at 6.5 beyond the tensor it returns
BLOCK_ROWS = 2**12
# squares per pass of sum_squared: 2**20 mantissa halves below 2**27 sum exactly
SUM_BLOCK = 2**20


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


def _quad_plan(spec: IntegralSpec, basis: BasisSystem, orders) -> PanelGrid:
    """Grid for iterated integrals up to the orders: equal panels (one for
    Legendre, four per period and four more for trigonometric, the
    2**jump_depth cells for Haar and Walsh) with one node count.  Orders are
    held to the basis index cap, nodes to MAX_NODES and the largest sweep
    array (earlier levels' index counts, or the largest level, times panels
    times nodes) to errors.MAX_ENTRIES before any rule or grid is built."""
    for p in orders:
        _check_index(basis, p, "orders")
    degrees = [w.degree for w in spec.weights]
    k = spec.k
    if basis is BasisSystem.LEGENDRE:
        nodes, panels = max(16, sum(orders) + sum(degrees) + k + 1), 1
    elif basis is BasisSystem.TRIGONOMETRIC:
        periods = sum((p + 1) // 2 for p in orders)
        nodes, panels = max(24, sum(degrees) + k + 8), 4 * periods + 4
    else:
        nodes, panels = sum(degrees) + k + 1, 2**jump_depth(basis, max(orders))
    if nodes > MAX_NODES:
        raise CapacityError(f"{basis.value} quadrature for weight degrees {degrees} and "
                            f"orders {list(orders)} needs {nodes} nodes > cap {MAX_NODES}")
    sizes = [p + 1 for p in orders]
    errors.require_fits(f"{basis.value} quadrature array",
                        max(math.prod(sizes[:-1]), max(sizes)) * panels * nodes)
    return panel_grid(np.linspace(spec.iv.t, spec.iv.T, panels + 1), nodes)


def _sweep(spec: IntegralSpec, basis: BasisSystem, orders, grid: PanelGrid) -> np.ndarray:
    """The coefficients of every index tuple up to the orders, in one pass
    over the grid; shape (orders[0] + 1, ..., orders[k-1] + 1)."""
    iv = spec.iv
    flat = grid.nodes_x.ravel()
    shape2 = grid.nodes_x.shape

    def factor(level):
        rows = basis_matrix(basis, orders[level], flat, iv).reshape((-1,) + shape2)
        return rows * np.asarray(eval_weight(spec.weights[level], flat, iv)).reshape(shape2)

    state = np.ones((1,) + shape2)
    for level in range(spec.k - 1):
        prod = state[:, None, :, :] * factor(level)[None, :, :, :]
        state = grid.cumulative(prod).reshape((-1,) + shape2)
    totals = np.tensordot(state, factor(spec.k - 1) * grid.weights, axes=([1, 2], [1, 2]))
    return totals.reshape(tuple(p + 1 for p in orders))


def coefficient_tensor(spec: IntegralSpec, basis: BasisSystem, orders) -> CoefficientTensor:
    """All coefficients up to the given truncation orders, computed in one
    shared-grid pass; the result does not depend on evaluation order."""
    orders_t = _read_orders(spec, orders)
    values = np.ascontiguousarray(_sweep(spec, basis, orders_t, _quad_plan(spec, basis, orders_t)))
    values.setflags(write=False)
    return CoefficientTensor(spec=spec, basis=basis, orders=orders_t, values=values)


def sum_squared(tensor: CoefficientTensor) -> float:
    """The sum of the squared coefficients, correctly rounded, as math.fsum
    rounds it; inf if a square overflows, OverflowError if the sum does.
    Each square is a 53-bit integer mantissa times 2**(e - 53); the
    mantissas' 27- and 26-bit halves are summed per exponent e over blocks
    of SUM_BLOCK squares, below 2**48 and so exact, and the total, a Python
    int times 2**-1126, is rounded once by int true division."""
    flat = tensor.values.ravel()
    halves = np.zeros((2, 2098), np.int64)  # frexp exponents -1073..1024
    for i in range(0, flat.size, SUM_BLOCK):
        square = np.square(flat[i:i + SUM_BLOCK])
        if not np.isfinite(square).all():
            return math.inf
        mantissa, exponent = np.frexp(square)
        low, high = np.modf(mantissa * 2.0**27)
        exponent += 1073
        for half, part in zip(halves, (high, low * 2.0**26)):
            half += np.bincount(exponent, weights=part, minlength=2098).astype(np.int64)
    used = np.flatnonzero(halves.any(axis=0))
    total = sum(((h << 26) + l) << e for e, h, l in zip(used.tolist(), *halves[:, used].tolist()))
    return total / (1 << 1126)


def parseval_residual(spec: IntegralSpec, tensor: CoefficientTensor) -> float:
    """Squared L2 mass of the kernel not captured by the tensor.

    Tiny negative round-off is clamped to zero with a warning; a deficit
    beyond round-off scale indicates a tensor inconsistent with the spec and
    raises :class:`NumericError`, as does a kernel norm or coefficient mass
    that overflows a float.
    """
    if tensor.spec != spec:
        raise DomainError("tensor was built for a different integral spec")
    with np.errstate(over="ignore"):
        total = kernel_l2_norm_sq(spec)
        try:
            mass = sum_squared(tensor)
        except OverflowError:  # the exact sum of finite squares
            mass = math.inf
    for name, value in (("kernel norm", total), ("coefficient mass", mass)):
        if not math.isfinite(value):
            raise NumericError(f"Parseval residual: the {name} is not finite ({value})")
    residual = total - mass
    if residual < 0.0:
        if -residual > 1e-10 * max(total, 1e-300):
            raise NumericError(
                f"coefficient mass exceeds kernel norm by {-residual:.3e}; tensor inconsistent")
        warnings.warn(f"clamping negative Parseval residual {residual:.3e} to 0",
                      RuntimeWarning, stacklevel=2)
        return 0.0
    return residual


def _column_header(k: int) -> str:
    """Line 2 of a table: the CSV column header "j1,...,jk,value"."""
    return ",".join(f"j{l + 1}" for l in range(k)) + ",value"


def _heads(sizes, start, stop) -> str:
    """The index columns "j_1,...,j_l," of rows start..stop-1 of a table
    whose levels have these sizes, j_1 fastest, each followed by a newline.
    The last level's indices are appended to the text of the earlier levels
    one slice at a time, and the first level's indices are one join."""
    *inner, _ = sizes
    n = math.prod(inner)
    if n == 1:
        zeros = "0," * len(inner)
        return zeros + f",\n{zeros}".join(map(str, range(start, stop))) + ",\n"
    full = None
    parts = []
    for j in range(start // n, (stop - 1) // n + 1):
        lo, hi = max(start - j * n, 0), min(stop - j * n, n)
        if hi - lo == n:
            text = full = full or _heads(inner, 0, n)
        else:
            text = _heads(inner, lo, hi)
        parts.append(text.replace("\n", f"{j},\n"))
    return "".join(parts)


def _row_blocks(orders):
    """(start, stop, index columns of rows start..stop-1) for every half
    block (BLOCK_ROWS // 2 table rows), j_1 fastest: the one statement of
    the row order, which never holds a large table at once."""
    sizes = [p + 1 for p in orders]
    total = math.prod(sizes)
    rows = max(BLOCK_ROWS // 2, 1)
    for start in range(0, total, rows):
        stop = min(start + rows, total)
        yield start, stop, _heads(sizes, start, stop)


def _row_values(heads, rows) -> np.ndarray:
    """The values of a run of rows, each distinct value text parsed once,
    checked against their index columns over the whole run at once; a run
    that fails a check is checked again row by row to name the first row out
    of place, missing, extra or not finite."""
    try:
        if len(rows) == len(heads):
            texts = list(map(str.removeprefix, rows, heads))
            # a row that starts with its head loses all of it, any other row
            # nothing: the rows lose the heads' length only if all start so
            if sum(map(len, rows)) - sum(map(len, texts)) == sum(map(len, heads)):
                distinct = dict.fromkeys(texts)
                parsed = dict(zip(distinct, map(float, distinct)))
                values = np.fromiter(map(parsed.__getitem__, texts), float, len(rows))
                if np.isfinite(values).all():
                    return values
    except ValueError:
        pass
    for head, row in itertools.zip_longest(heads, rows):
        if row is None:
            raise DomainError(f"coefficient table ends before row '{head}...'")
        try:
            value = float(row[len(head):]) if head and row.startswith(head) else math.nan
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise DomainError(f"bad coefficient row: {row!r}")


def write_coefficient_table(path, tensor: CoefficientTensor) -> None:
    """Write the documented table format: one JSON header line, a CSV column
    header, then one row per tuple (j_1 fastest) with 17-significant-digit
    values (binary round-trip exact), one half block of rows per write."""
    header = {"format_version": FORMAT_VERSION, "spec": tensor.spec.to_json(),
              "basis": tensor.basis.value, "orders": list(tensor.orders)}
    flat = tensor.values.T.flat  # j_1 fastest
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        fh.write(_column_header(tensor.spec.k) + "\n")
        for start, stop, heads in _row_blocks(tensor.orders):
            # distinct bits, not values: -0.0 == 0.0 but writes "-0"
            bits = np.asarray(flat[start:stop], float).view(np.int64)
            keys, inverse = np.unique(bits, return_inverse=True)
            texts = ("%.17g\n" * keys.size % tuple(keys.view(float).tolist())).split("\n")
            values = np.array(texts, object)[inverse].tolist()
            fh.write(heads.replace("\n", "%s\n") % tuple(values))


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
        if (columns := fh.readline().strip()) != _column_header(spec.k):
            raise DomainError(f"coefficient table line 2 must be the column header "
                              f"{_column_header(spec.k)!r}, got {columns!r}")
        rows = filter(None, map(str.strip, fh))
        values = np.empty(math.prod(p + 1 for p in orders))
        for start, stop, heads in _row_blocks(orders):
            values[start:stop] = _row_values(heads.splitlines(),
                                             list(itertools.islice(rows, stop - start)))
        _row_values((), list(itertools.islice(rows, 1)))  # no row past the last
    values = np.ascontiguousarray(values.reshape([p + 1 for p in orders], order="F"))
    values.setflags(write=False)
    return CoefficientTensor(spec=spec, basis=basis, orders=orders, values=values)
