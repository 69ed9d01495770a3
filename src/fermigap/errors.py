"""Exception types shared across the package."""


class FermigapError(Exception):
    """Base class for package errors."""


class InputError(FermigapError):
    """Invalid or malformed input data."""


class CapacityError(FermigapError):
    """Request exceeds a hard size cap (e.g. 2^n spectrum enumeration)."""


class NumericalError(FermigapError):
    """A numerical routine failed or produced out-of-range values."""


class ConformanceError(FermigapError):
    """An independent check found a structural invariant broken."""
