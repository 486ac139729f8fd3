"""Weight functions, integral specifications, and the ordered-simplex kernel.

The target object is the iterated Ito integral of multiplicity k with
polynomial weights psi_l and component indices i_l (0 denotes the time
component).  Its kernel on the hypercube [t, T]^k is the product of the
weights on the ordered simplex t_1 < ... < t_k and zero elsewhere; the
squared L2 norm of that kernel is the total mass available to the Fourier
coefficients.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import errors
from .basis import Interval
from .errors import ArityError, DomainError, int_text, read_int, read_ints


def _named(name: str, convert, value):
    """convert(value), any failure raised as a DomainError naming the argument."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"{name}: {exc}") from None


@dataclass(frozen=True)
class Weight:
    """Polynomial weight psi(s) = sum_q coeffs[q] * (s - t)**q on [t, T]."""

    coeffs: tuple[float, ...]

    def __post_init__(self):
        if len(self.coeffs) == 0:
            raise DomainError("weight needs at least one polynomial coefficient")
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
        if not np.isfinite(self.coeffs).all():
            raise DomainError("poly: coefficients must be finite")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def to_json(self) -> dict:
        return {"poly": list(self.coeffs)}

    @classmethod
    def from_json(cls, obj) -> "Weight":
        if not isinstance(obj, dict) or set(obj) != {"poly"}:
            raise DomainError(f'weight JSON must be {{"poly": [...]}}, got {obj!r}')
        return cls(_named("poly", lambda poly: tuple(float(c) for c in poly), obj["poly"]))


CONSTANT_ONE = Weight((1.0,))


@dataclass(frozen=True)
class IntegralSpec:
    """An iterated Ito integral: interval, multiplicity, components, weights.

    indices[l] = 0 selects the d-tau component for level l+1; positive
    entries select Wiener components.
    """

    iv: Interval
    k: int
    indices: tuple[int, ...]
    weights: tuple[Weight, ...]

    def __post_init__(self):
        k = read_int("k", self.k, lo=1)
        # a pool's m + 1 rows fit errors.MAX_ENTRIES only for m < errors.MAX_ENTRIES
        indices = read_ints("indices", self.indices, 0, errors.MAX_ENTRIES - 1)
        if len(indices) != k or len(self.weights) != k:
            raise ArityError(f"need k = {int_text(k)} indices and weights, "
                             f"got {len(indices)}/{len(self.weights)}")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "weights", tuple(self.weights))

    @property
    def max_index(self) -> int:
        return max(self.indices)

    def to_json(self) -> dict:
        return {
            "t": self.iv.t,
            "T": self.iv.T,
            "k": self.k,
            "indices": list(self.indices),
            "weights": [w.to_json() for w in self.weights],
        }

    @classmethod
    def from_json(cls, obj) -> "IntegralSpec":
        required = {"t", "T", "k", "indices", "weights"}
        if not isinstance(obj, dict):
            raise DomainError("integral spec JSON must be an object")
        unknown = set(obj) - required
        if unknown:
            raise DomainError(f"unknown integral spec fields: {sorted(unknown)}")
        missing = required - set(obj)
        if missing:
            raise DomainError(f"integral spec missing fields: {sorted(missing)}")
        return cls(
            iv=Interval(_named("t", float, obj["t"]), _named("T", float, obj["T"])),
            k=obj["k"],
            indices=obj["indices"],
            weights=_named("weights", lambda ws: tuple(Weight.from_json(w) for w in ws),
                           obj["weights"]),
        )


def eval_weight(w: Weight, s, iv: Interval):
    """Horner evaluation of the weight polynomial at s in [t, T]."""
    s_arr = np.asarray(s, dtype=float)
    if not np.all((s_arr >= iv.t - 1e-12 * iv.length) & (s_arr <= iv.T + 1e-12 * iv.length)):
        raise DomainError(f"s: weight evaluated outside [{iv.t}, {iv.T}]")
    u = s_arr - iv.t
    acc = np.full_like(u, w.coeffs[-1])
    for c in reversed(w.coeffs[:-1]):
        acc = acc * u + c
    return float(acc) if acc.ndim == 0 else acc


def kernel_l2_norm_sq(spec: IntegralSpec) -> float:
    """Exact integral of the squared kernel over the hypercube.

    Squared polynomial weights integrate in closed form, so the iterated
    simplex integral is evaluated symbolically level by level.
    """
    P = np.polynomial.polynomial
    acc = np.ones(1)
    for w in spec.weights:
        acc = P.polyint(P.polymul(P.polypow(w.coeffs, 2), acc))
    return float(P.polyval(spec.iv.length, acc))


def constant_spec(iv: Interval, indices) -> IntegralSpec:
    """Spec with unit weights for the given component indices."""
    indices = read_ints("indices", indices)
    return IntegralSpec(iv=iv, k=len(indices), indices=indices,
                        weights=(CONSTANT_ONE,) * len(indices))
