"""Complete orthonormal systems of L2([t, T]) used by the expansion.

Four interchangeable systems are supported: scaled Legendre polynomials,
the trigonometric system, Haar wavelets, and Rademacher-Walsh functions.
One vectorised evaluator, :func:`basis_rows`, serves all of them:
:func:`eval_basis` and :func:`basis_matrix` return rows of it, so both agree
bit for bit.  The discontinuous systems (Haar, Walsh) evaluate
right-continuously at their jump points.  Every jump of phi_0..phi_jmax is
a multiple of (T-t)/2**D, D = :func:`jump_depth` (the bit length of jmax),
so a simulation grid of N steps holds them all exactly when 2**D divides N,
and each function is constant on the 2**D dyadic cells, which the
coefficient quadrature takes as panels.  A Haar row is read from the index
of the point's dyadic cell of its level, a Walsh row from the bits of the
point's cell; :func:`breakpoints` lists the jumps of one function, a Walsh
function's as the cells where its values on the 2**D cells change.
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
from dataclasses import dataclass

import numpy as np

from . import errors
from .errors import BasisIndexError, DomainError, read_int
from .quadrature import _legendre_rows

@dataclass(frozen=True)
class Interval:
    """Time interval [t, T] with t < T, both finite, and T - t finite."""

    t: float
    T: float

    def __post_init__(self):
        t, big_t = float(self.t), float(self.T)
        if not math.isfinite(big_t - t):  # so are t and T
            raise DomainError(f"interval endpoints and T - t must be finite, got [{t}, {big_t}]")
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


# Largest index of each system: the Legendre recurrence is well behaved far
# beyond practical truncation orders; Haar level 48 keeps 2**level arithmetic
# in range; Walsh factor 20 bounds the 2**20 dyadic points a jump search
# visits; trigonometric period counts stay exact in a float.
LEGENDRE_MAX_DEGREE = 1000
_MAX_INDEX = {BasisSystem.LEGENDRE: LEGENDRE_MAX_DEGREE, BasisSystem.TRIGONOMETRIC: 2**53 - 1,
              BasisSystem.HAAR: 2**49 - 1, BasisSystem.WALSH: 2**20 - 1}


def _check_index(system: BasisSystem, j, name: str = "j") -> int:
    """j read as an integer in [0, the system's largest index]."""
    return read_int(f"{name} ({system.value} basis index)", j, 0, _MAX_INDEX[system],
                    BasisIndexError)


def _unit_coord(s: np.ndarray, iv: Interval) -> np.ndarray:
    u = (s - iv.t) / iv.length
    if not np.all((u >= -1e-12) & (u <= 1.0 + 1e-12)):  # so a NaN fails
        raise DomainError(f"s: point outside [{iv.t}, {iv.T}]")
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
    j, s = np.asarray(j), np.atleast_1d(np.asarray(s, dtype=float))
    if j.ndim != 1 or not j.size:
        raise DomainError(f"j: basis indices must be a nonempty vector, got shape {j.shape}")
    if s.ndim != 1:
        raise DomainError(f"s: points must be a scalar or a vector, got shape {s.shape}")
    _check_index(system, j.min())  # a float or bool array fails here, before the cast
    _check_index(system, j.max())
    j = j.astype(np.int64)
    u = _unit_coord(s, iv)
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
        # Haar level n = floor(log2 j) is +amp on cell 2 (j - 2**n) of the 2**(n+1)
        # dyadic cells and -amp on the next (cell counts from it), exactly
        n = np.frexp(np.maximum(j, 1))[1][:, None].astype(np.int64) - 1
        cell = np.floor(u * 2.0 ** (n + 1)) - 2 * (j[:, None] - 2**n)
        amp = 2.0 ** (n / 2.0)
        rows = np.where(cell == 0, amp, np.where(cell == 1, -amp, 0.0)) / root
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
    jmax = _check_index(system, jmax, "jmax")
    errors.require_fits("basis matrix", (jmax + 1) * np.size(s), "values ((jmax + 1) len(s))")
    return basis_rows(system, np.arange(jmax + 1), s, iv)


def breakpoints(system: BasisSystem, j: int, iv: Interval) -> list[float]:
    """Interior jump points of the j-th basis function, ascending.

    Continuous systems (Legendre, trigonometric) and the constant j = 0
    return an empty list.
    """
    j = _check_index(system, j)
    if system not in _PIECEWISE_CONSTANT or j == 0:
        return []
    if system is BasisSystem.HAAR:
        # the ends of the two cells of level n + 1 where basis_rows is nonzero
        n = j.bit_length() - 1
        unit = (2 * (j - (1 << n)) + np.arange(3)) / 2.0 ** (n + 1)
        unit = unit[(unit > 0.0) & (unit < 1.0)]
    else:
        # the jumps are where the values on the 2**D dyadic cells change
        cells = 1 << j.bit_length()
        row = basis_rows(system, [j], (np.arange(cells) + 0.5) / cells, Interval(0.0, 1.0))[0]
        unit = (np.flatnonzero(np.diff(row)) + 1) / cells
    return (iv.t + unit * iv.length).tolist()


def jump_depth(system: BasisSystem, jmax: int) -> int:
    """The D for which every jump of phi_0..phi_jmax is a multiple of
    (T - t) / 2**D and (T - t) / 2**D is itself one of them: the bit length
    of jmax for Haar and Walsh, 0 for the continuous systems."""
    jmax = _check_index(system, jmax, "jmax")
    return jmax.bit_length() if system in _PIECEWISE_CONSTANT else 0


def integrate_basis(system: BasisSystem, j: int, iv: Interval) -> float:
    """Integral of the j-th basis function over [t, T].

    Every system has the constant phi_0 = 1/sqrt(T-t), so orthonormality
    gives sqrt(T-t) for j = 0 and zero otherwise.
    """
    return math.sqrt(iv.length) if _check_index(system, j) == 0 else 0.0
