"""Exception types shared across the package, the one size cap that
CapacityError enforces, and how their messages name an integer.

Each class also subclasses the closest builtin so callers can keep using
idiomatic ``except ValueError`` / ``except IndexError`` handlers.
"""

# Entries one coefficient tensor or table, quadrature sweep array, batch of
# path increments, simulation grid or validation sample may hold; every check
# reads errors.MAX_ENTRIES when it runs, so lowering it lowers them all
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
    """A numerical procedure failed to converge or produced inconsistent values."""


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
