"""Complete orthonormal systems of L2([t, T]) used by the expansion.

Four interchangeable systems are supported: scaled Legendre polynomials,
the trigonometric system, Haar wavelets, and Rademacher-Walsh functions.
One vectorised evaluator, :func:`basis_rows`, serves all of them:
:func:`eval_basis` and :func:`basis_matrix` return rows of it, so both agree
bit for bit.  The discontinuous systems (Haar, Walsh) evaluate
right-continuously at their jump points; :func:`breakpoints` exposes the
jumps of one function and :func:`jumps` those of phi_0..phi_jmax, so that
quadrature panels and simulation grids can be aligned with them.
Integrals are closed form: every system's phi_0 is constant, so phi_j
integrates to sqrt(T-t) for j = 0 and to zero otherwise.  Walsh factors are
capped at 20, which bounds a jump search at 2**20 dyadic points.

Index conventions
-----------------
Every system is addressed by a single flat index ``j >= 0``:

* Legendre: ``j`` is the polynomial degree.
* Trigonometric: ``j = 0`` is the constant, ``j = 2r-1`` the sine and
  ``j = 2r`` the cosine with ``r`` full periods.
* Haar: ``j = 0`` is the constant; ``j >= 1`` maps to level
  ``n = floor(log2(j))`` and in-level position ``j - 2**n + 1`` in
  ``1..2**n``, i.e. levels are enumerated in blocks of increasing ``n``.
* Walsh: ``j = 0`` is the constant; ``j >= 1`` maps to a nonempty set
  ``{m_1 < ... < m_q}`` of Rademacher factors.  Index blocks are ordered
  by increasing ``max m``, and within a block subsets are ordered
  lexicographically as ascending tuples.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import BasisIndexError, DomainError
from .quadrature import _legendre_rows, gauss_rule, panel_grid

# Index guards: Legendre recurrence is well behaved far beyond practical
# truncation orders; the Haar cap keeps 2**level arithmetic in range; the
# Walsh cap bounds the 2**factor dyadic points a jump search visits.
LEGENDRE_MAX_DEGREE = 1000
HAAR_MAX_LEVEL = 48
WALSH_MAX_FACTOR = 20


@dataclass(frozen=True)
class Interval:
    """Time interval [t, T] with t < T, both finite."""

    t: float
    T: float

    def __post_init__(self):
        t, big_t = float(self.t), float(self.T)
        if not (math.isfinite(t) and math.isfinite(big_t)):
            raise DomainError("interval endpoints must be finite")
        if not big_t > t:
            raise DomainError(f"interval requires T > t, got [{t}, {big_t}]")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "T", big_t)

    @property
    def length(self) -> float:
        return self.T - self.t


class BasisSystem(enum.Enum):
    LEGENDRE = "legendre"
    TRIGONOMETRIC = "trigonometric"
    HAAR = "haar"
    WALSH = "walsh"


_BASIS_ALIASES = {
    "legendre": BasisSystem.LEGENDRE,
    "trigonometric": BasisSystem.TRIGONOMETRIC,
    "haar": BasisSystem.HAAR,
    "walsh": BasisSystem.WALSH,
    "rademacher-walsh": BasisSystem.WALSH,
    "rademacher_walsh": BasisSystem.WALSH,
}


def parse_basis(name: str) -> BasisSystem:
    """Resolve a config/CLI basis name (case-insensitive)."""
    if not isinstance(name, str):
        raise DomainError(f"basis name must be a string, got {name!r}")
    try:
        return _BASIS_ALIASES[name.strip().lower()]
    except KeyError:
        known = ", ".join(sorted(set(_BASIS_ALIASES))) or ""
        raise DomainError(f"unknown basis {name!r}; expected one of: {known}") from None


def haar_unflatten(j: int) -> tuple[int, int]:
    """Map flat Haar index j >= 1 to (level n, in-level position 1..2**n)."""
    if j < 1:
        raise BasisIndexError("flat Haar index must be >= 1 for wavelet levels")
    n = j.bit_length() - 1
    if n > HAAR_MAX_LEVEL:
        raise BasisIndexError(f"Haar level {n} exceeds cap {HAAR_MAX_LEVEL}")
    return n, j - (1 << n) + 1


def walsh_subset(j: int) -> tuple[int, ...]:
    """Map flat Walsh index j >= 1 to its Rademacher factor set.

    Blocks of fixed ``M = max(subset)`` occupy ``j in [2**(M-1), 2**M - 1]``;
    within a block subsets are in lexicographic order of ascending tuples,
    which counts the other factors m < M down in binary: m is in the subset
    exactly when bit M - 1 - m of 2**M - 1 - j is set.
    """
    if j < 1:
        raise BasisIndexError("flat Walsh index must be >= 1 for non-constant functions")
    m_max = j.bit_length()
    if m_max > WALSH_MAX_FACTOR:
        raise BasisIndexError(f"Walsh factor {m_max} exceeds cap {WALSH_MAX_FACTOR}")
    rest = (1 << m_max) - 1 - j
    return tuple(m for m in range(1, m_max) if rest >> (m_max - 1 - m) & 1) + (m_max,)


def _check_index(system: BasisSystem, j: int) -> None:
    if j < 0:
        raise BasisIndexError(f"basis index must be >= 0, got {j}")
    if system is BasisSystem.LEGENDRE and j > LEGENDRE_MAX_DEGREE:
        raise BasisIndexError(f"Legendre degree {j} exceeds cap {LEGENDRE_MAX_DEGREE}")
    if system is BasisSystem.HAAR and j >= 1:
        haar_unflatten(j)
    if system is BasisSystem.WALSH and j >= 1:
        walsh_subset(j)


def _unit_coord(s: np.ndarray, iv: Interval) -> np.ndarray:
    u = (s - iv.t) / iv.length
    if np.any(u < -1e-12) or np.any(u > 1.0 + 1e-12):
        raise DomainError(f"point outside [{iv.t}, {iv.T}]")
    return np.clip(u, 0.0, 1.0)


def _walsh_mask(j, depth: int) -> np.ndarray:
    """Bit ``depth - m`` set for each Rademacher factor m of the Walsh
    function j (an index or an index array): the bits of 2**M - 1 - j moved
    above the bit of M, the bit length of j (see walsh_subset)."""
    j = np.asarray(j, dtype=np.int64)
    top = np.frexp(j)[1]
    return np.where(j > 0, ((2**top - 1 - j) << (depth + 1 - top)) | (1 << (depth - top)), 0)


def basis_rows(system: BasisSystem, j, s, iv: Interval) -> np.ndarray:
    """Values of the basis functions with the indices in the vector j at the
    points s, shape (len(j), len(s)): the one evaluator behind eval_basis and
    basis_matrix, so a single function and a matrix row agree bit for bit."""
    j = np.asarray(j, dtype=np.int64)
    _check_index(system, int(j.min()))
    _check_index(system, int(j.max()))
    u = _unit_coord(np.atleast_1d(np.asarray(s, dtype=float)), iv)
    root = math.sqrt(iv.length)
    if system is BasisSystem.LEGENDRE:
        scale = np.sqrt((2.0 * j + 1.0) / iv.length)
        return scale[:, None] * _legendre_rows(2.0 * u - 1.0, int(j.max()))[j]
    if system is BasisSystem.WALSH:
        # bit depth - m of floor(2**depth u) is the parity of floor(2**m u)
        depth = int(j.max()).bit_length()
        kind = np.int16 if depth < 16 else np.int32
        masks = _walsh_mask(j, depth).astype(kind)
        keys = np.floor(2.0**depth * u).astype(kind)
        odd = np.bitwise_count(masks[:, None] & keys) & 1
        return np.copysign(1.0 / root, -odd.view(np.int8))
    if system is BasisSystem.TRIGONOMETRIC:
        phase = 2.0 * math.pi * ((j[:, None] + 1) // 2) * u
        odd = j % 2 == 1
        amp = math.sqrt(2.0) / root
        rows = np.empty_like(phase)
        rows[odd] = amp * np.sin(phase[odd])
        rows[~odd] = amp * np.cos(phase[~odd])
    else:
        # Haar level floor(log2 j), exact below 2**53
        n = np.frexp(np.maximum(j, 1))[1][:, None].astype(np.int64) - 1
        pos = j[:, None] - 2**n + 1
        left = (pos - 1) / 2.0**n
        mid = left + 1.0 / 2.0 ** (n + 1)
        right = pos / 2.0**n
        amp = 2.0 ** (n / 2.0)
        rows = np.where((u >= left) & (u < mid), amp,
                        np.where((u >= mid) & (u < right), -amp, 0.0)) / root
    rows[j == 0] = 1.0 / root
    return rows


def eval_basis(system: BasisSystem, j: int, s, iv: Interval):
    """Evaluate the j-th basis function of the system at s in [t, T].

    Accepts a scalar or an ndarray of points; at jump points of Haar/Walsh
    the right-continuous value is returned.
    """
    _check_index(system, j)
    s_arr = np.asarray(s, dtype=float)
    vals = basis_rows(system, [j], s_arr.ravel(), iv)[0].reshape(s_arr.shape)
    return float(vals) if s_arr.ndim == 0 else vals


def basis_matrix(system: BasisSystem, jmax: int, s: np.ndarray, iv: Interval) -> np.ndarray:
    """Values of phi_0..phi_jmax over an array of points, shape (jmax+1, len(s))."""
    _check_index(system, jmax)
    return basis_rows(system, np.arange(jmax + 1), s, iv)


def breakpoints(system: BasisSystem, j: int, iv: Interval) -> list[float]:
    """Interior jump points of the j-th basis function, ascending.

    Continuous systems (Legendre, trigonometric) and the constant j = 0
    return an empty list.
    """
    _check_index(system, j)
    if system in (BasisSystem.LEGENDRE, BasisSystem.TRIGONOMETRIC) or j == 0:
        return []
    if system is BasisSystem.HAAR:
        n, pos = haar_unflatten(j)
        left = (pos - 1) / 2.0**n
        unit = np.array([left, left + 1.0 / 2.0 ** (n + 1), pos / 2.0**n])
        unit = unit[(unit > 0.0) & (unit < 1.0)]
    else:
        depth = j.bit_length()
        i = np.arange(1, 1 << depth)
        # at i / 2**depth the factors m >= depth - ctz(i) jump, i.e. those whose
        # mask bit is at or below the lowest set bit of i; the product jumps
        # where an odd number of them do
        low = i & -i
        flips = np.bitwise_count(_walsh_mask(j, depth) & (2 * low - 1))
        unit = i[flips % 2 == 1] / 2.0**depth
    return (iv.t + unit * iv.length).tolist()


def jumps(system: BasisSystem, jmax: int, iv: Interval) -> list[float]:
    """Every interior jump point of phi_0..phi_jmax, ascending: the cuts
    that quadrature panels and simulation grids are aligned with."""
    _check_index(system, jmax)
    if system in (BasisSystem.LEGENDRE, BasisSystem.TRIGONOMETRIC) or jmax == 0:
        return []
    if system is BasisSystem.HAAR:
        return sorted({b for i in range(1, jmax + 1) for b in breakpoints(system, i, iv)})
    # Walsh: the interior multiples of 2**-M, M the bit length of jmax, are
    # exactly the jumps of the single factor r_M, which is index 2**M - 1
    return breakpoints(system, (1 << jmax.bit_length()) - 1, iv)


def integrate_basis(system: BasisSystem, j: int, iv: Interval) -> float:
    """Integral of the j-th basis function over [t, T].

    Every system has the constant phi_0 = 1/sqrt(T-t), so orthonormality
    gives sqrt(T-t) for j = 0 and zero otherwise.
    """
    _check_index(system, j)
    return math.sqrt(iv.length) if j == 0 else 0.0


def _gram_piecewise_constant(system: BasisSystem, p: int, iv: Interval) -> np.ndarray:
    """Gram matrix for Haar/Walsh via exact sign patterns.

    Every product phi_i phi_j is constant on the unified dyadic grid, so each
    entry is (amplitude product) * (signed panel count) * (panel width).  The
    amplitude product is an exact power of two on the diagonal and the signed
    count cancels exactly off it, giving a bitwise-exact identity.
    """
    if system is BasisSystem.HAAR:
        levels = [0] + [haar_unflatten(j)[0] for j in range(1, p + 1)]
        depth = max(levels) + 1
    else:
        factors = [0] + [walsh_subset(j)[-1] for j in range(1, p + 1)]
        depth = max(factors)
    panels = 1 << depth
    mids = (np.arange(panels) + 0.5) / panels
    signs = np.sign(basis_rows(system, np.arange(p + 1), mids, Interval(0.0, 1.0)))
    counts = signs @ signs.T
    if system is BasisSystem.HAAR:
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
    degree (Legendre) or enough panels per period (trigonometric).
    """
    if p < 0:
        raise DomainError("gram_matrix requires p >= 0")
    _check_index(system, p)
    if system in (BasisSystem.HAAR, BasisSystem.WALSH):
        return _gram_piecewise_constant(system, p, iv)
    if system is BasisSystem.LEGENDRE:
        # product degree up to 2p; n nodes integrate degree 2n-1 exactly
        grid = panel_grid([iv.t, iv.T], max(16, p + 1))
    else:
        r_max = (p + 1) // 2
        grid = panel_grid(np.linspace(iv.t, iv.T, max(2, 4 * r_max + 2) + 1), 24)
    pts = grid.nodes_x.ravel()
    phi = basis_matrix(system, p, pts, iv)
    _, w = gauss_rule(grid.nodes)
    node_w = (grid.half[:, None] * w[None, :]).ravel()
    return (phi * node_w) @ phi.T
