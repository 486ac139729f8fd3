"""Complete orthonormal systems of L2([t, T]) used by the expansion.

Four interchangeable systems are supported: scaled Legendre polynomials,
the trigonometric system, Haar wavelets, and Rademacher-Walsh functions.
One vectorised evaluator, :func:`basis_rows`, serves all of them:
:func:`eval_basis` and :func:`basis_matrix` return rows of it, so both agree
bit for bit.  The discontinuous systems (Haar, Walsh) evaluate
right-continuously at their jump points.  Every jump of phi_0..phi_jmax is
a multiple of (T-t)/2**D, D = :func:`jump_depth` (the bit length of jmax),
so a simulation grid of N steps holds them all exactly when 2**D divides N;
:func:`jumps` lists them in closed form for quadrature panels, and
:func:`breakpoints` lists those of one function.
Integrals are closed form: every system's phi_0 is constant, so phi_j
integrates to sqrt(T-t) for j = 0 and to zero otherwise.  Walsh factors are
capped at 20, which bounds the jump grid at 2**20 dyadic points.

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
  lexicographically as ascending tuples (decoded by ``_walsh_mask``).
"""
from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import BasisIndexError, DomainError
from .quadrature import _legendre_rows

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


_PIECEWISE_CONSTANT = (BasisSystem.HAAR, BasisSystem.WALSH)

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


def _check_index(system: BasisSystem, j) -> int:
    """j as operator.index reads it (booleans refused), held to the system's range."""
    if isinstance(j, bool) or not hasattr(j, "__index__"):  # numpy bools have none
        raise BasisIndexError(f"basis index must be an integer, got {j!r}")
    j = operator.index(j)
    if j < 0:
        raise BasisIndexError(f"basis index must be >= 0, got {j}")
    if system is BasisSystem.LEGENDRE and j > LEGENDRE_MAX_DEGREE:
        raise BasisIndexError(f"Legendre degree {j} exceeds cap {LEGENDRE_MAX_DEGREE}")
    if system is BasisSystem.HAAR and j.bit_length() - 1 > HAAR_MAX_LEVEL:
        raise BasisIndexError(f"Haar level {j.bit_length() - 1} exceeds cap {HAAR_MAX_LEVEL}")
    if system is BasisSystem.WALSH and j.bit_length() > WALSH_MAX_FACTOR:
        raise BasisIndexError(f"Walsh factor {j.bit_length()} exceeds cap {WALSH_MAX_FACTOR}")
    return j


def _unit_coord(s: np.ndarray, iv: Interval) -> np.ndarray:
    u = (s - iv.t) / iv.length
    if np.any(u < -1e-12) or np.any(u > 1.0 + 1e-12):
        raise DomainError(f"point outside [{iv.t}, {iv.T}]")
    return np.clip(u, 0.0, 1.0)


def _walsh_mask(j, depth: int) -> np.ndarray:
    """Bit ``depth - m`` set for each Rademacher factor m of the Walsh
    function j (an index or an index array).

    Blocks of fixed ``M = max(subset)`` occupy ``j in [2**(M-1), 2**M - 1]``;
    within a block subsets are in lexicographic order of ascending tuples,
    which counts the other factors m < M down in binary: m is in the subset
    exactly when bit M - 1 - m of 2**M - 1 - j is set.  The mask is those
    bits moved above the bit of M, the bit length of j.
    """
    j = np.asarray(j, dtype=np.int64)
    top = np.frexp(j)[1]
    return np.where(j > 0, ((2**top - 1 - j) << (depth + 1 - top)) | (1 << (depth - top)), 0)


def basis_rows(system: BasisSystem, j, s, iv: Interval) -> np.ndarray:
    """Values of the basis functions with the indices in the vector j at the
    points s, shape (len(j), len(s)): the one evaluator behind eval_basis and
    basis_matrix, so a single function and a matrix row agree bit for bit."""
    j = np.asarray(j)
    _check_index(system, j.min())  # a float or bool array fails here, before the cast
    _check_index(system, j.max())
    j = j.astype(np.int64)
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
    j = _check_index(system, j)
    s_arr = np.asarray(s, dtype=float)
    vals = basis_rows(system, [j], s_arr.ravel(), iv)[0].reshape(s_arr.shape)
    return float(vals) if s_arr.ndim == 0 else vals


def basis_matrix(system: BasisSystem, jmax: int, s: np.ndarray, iv: Interval) -> np.ndarray:
    """Values of phi_0..phi_jmax over an array of points, shape (jmax+1, len(s))."""
    return basis_rows(system, np.arange(_check_index(system, jmax) + 1), s, iv)


def breakpoints(system: BasisSystem, j: int, iv: Interval) -> list[float]:
    """Interior jump points of the j-th basis function, ascending.

    Continuous systems (Legendre, trigonometric) and the constant j = 0
    return an empty list.
    """
    j = _check_index(system, j)
    if system not in _PIECEWISE_CONSTANT or j == 0:
        return []
    if system is BasisSystem.HAAR:
        n = j.bit_length() - 1
        pos = j - (1 << n) + 1
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


def jump_depth(system: BasisSystem, jmax: int) -> int:
    """The D for which every jump of phi_0..phi_jmax is a multiple of
    (T - t) / 2**D and (T - t) / 2**D is itself one of them: the bit length
    of jmax for Haar and Walsh, 0 for the continuous systems."""
    return _check_index(system, jmax).bit_length() if system in _PIECEWISE_CONSTANT else 0


def jumps(system: BasisSystem, jmax: int, iv: Interval) -> list[float]:
    """Every interior jump point of phi_0..phi_jmax, ascending: the cuts
    that quadrature panels are aligned with.

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


def integrate_basis(system: BasisSystem, j: int, iv: Interval) -> float:
    """Integral of the j-th basis function over [t, T].

    Every system has the constant phi_0 = 1/sqrt(T-t), so orthonormality
    gives sqrt(T-t) for j = 0 and zero otherwise.
    """
    return math.sqrt(iv.length) if _check_index(system, j) == 0 else 0.0
