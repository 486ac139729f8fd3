"""Exception types shared across the package, the one size cap that
CapacityError enforces, and the one reader of every integer a caller passes.

Each class also subclasses the closest builtin so callers can keep using
idiomatic ``except ValueError`` / ``except IndexError`` handlers.
"""
import numpy as np

# Entries one coefficient tensor or table, quadrature sweep array, basis
# matrix, batch of path increments or pools, expansion head or validation
# sample may hold; every check reads errors.MAX_ENTRIES when it runs
MAX_ENTRIES = 10**8


def int_text(n: int) -> str:
    """n in decimal, or past 256 bits by its bit length (str() refuses over 4300 digits)."""
    bits = abs(n).bit_length()
    return str(n) if bits <= 256 else f"{'-' if n < 0 else ''}<{bits}-bit integer>"


class ItoFourierError(Exception):
    """Base class for all package errors."""


class DomainError(ItoFourierError, ValueError):
    """An argument is outside its mathematical domain (e.g. s not in [t, T])."""


class BasisIndexError(ItoFourierError, IndexError):
    """Basis index j exceeds the representable range of the chosen system."""


class ArityError(ItoFourierError, ValueError):
    """A point or index tuple has the wrong number of entries."""


class NumericError(ItoFourierError, ArithmeticError):
    """A computed value overflowed a float or contradicts the mass of its kernel."""


class CapacityError(ItoFourierError, RuntimeError):
    """A configured size or overflow guard was exceeded."""


class CompatibilityError(ItoFourierError, ValueError):
    """Two objects (tensor/pool, spec/path, ...) do not refer to the same setup."""


class GridCompatibilityError(CompatibilityError):
    """A discretization grid misses required points (basis jumps off-grid)."""


class UnsupportedMultiplicityError(ItoFourierError, ValueError):
    """The requested integral multiplicity is outside the supported range."""


class ConfigError(ItoFourierError, ValueError):
    """A CLI config document is malformed; message carries the field path."""


def read_int(name: str, value, lo: int | None = None, hi: int | None = None,
             error: type[ItoFourierError] = DomainError) -> int:
    """value as an exact integer in [lo, hi] (an open end when None): an int,
    a numpy integer, an integral float or a decimal string.  Booleans (numpy's
    too), non-integral numbers and anything else raise error, and so does a
    value out of range; every message starts with name."""
    try:
        out = int(value)
        if isinstance(value, (bool, np.bool_)) or (not isinstance(value, str) and out != value):
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        raise error(f"{name}: expected an integer, got {value!r:.80}") from None
    if lo is not None and out < lo:
        raise error(f"{name} must be >= {int_text(lo)}, got {int_text(out)}")
    if hi is not None and out > hi:
        raise error(f"{name} must be <= {int_text(hi)}, got {int_text(out)}")
    return out


def read_ints(name: str, values, lo: int | None = None, hi: int | None = None,
              error: type[ItoFourierError] = DomainError) -> tuple[int, ...]:
    """values, a sequence other than a string, as a tuple of read_int reads."""
    if isinstance(values, str) or not hasattr(values, "__iter__"):
        raise error(f"{name}: expected a sequence of integers, got {values!r:.80}")
    return tuple(read_int(name, v, lo, hi, error) for v in values)


def require_fits(what: str, count: int, unit: str = "entries") -> None:
    """Raise CapacityError when count exceeds MAX_ENTRIES, read when called."""
    if count > MAX_ENTRIES:
        raise CapacityError(f"{what} would hold {int_text(count)} {unit} > cap {MAX_ENTRIES}")
