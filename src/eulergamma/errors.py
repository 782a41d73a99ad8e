"""Exception types shared across the package, and the argument validators
that raise them."""

import math

# The message of a result past the double-precision range.
NOT_FINITE = "result not finite in double precision"


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class NonFiniteIntegrandError(ValueError):
    """The integrand returned NaN or infinity at an interior node."""


def number(value, name="parameter"):
    """``value`` as a float; DomainError where ``float()`` refuses it, for an
    integer past the double range, text that is no number or a value of
    another type (None, a list).  Every validator here converts through it."""
    try:
        return float(value)
    except OverflowError:
        raise DomainError(f"{name} must be finite") from None
    except (TypeError, ValueError):
        raise DomainError(f"{name} must be a number, got {value!r}") from None


def positive(value, name):
    """``value`` as a float; DomainError unless it is positive and finite."""
    value = number(value, name)
    if not (math.isfinite(value) and value > 0.0):
        raise DomainError(f"{name} must be positive and finite")
    return value


def nonnegative(value, name):
    """``value`` as a float; DomainError unless it is nonnegative and finite."""
    value = number(value, name)
    if not (math.isfinite(value) and value >= 0.0):
        raise DomainError(f"{name} must be nonnegative and finite")
    return value


def finite(value, name="parameter"):
    """``value`` as a float; DomainError unless it is finite."""
    value = number(value, name)
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite")
    return value


def integer(value, name="parameter", minimum=None, maximum=None):
    """``value`` as an int; DomainError unless it is a finite integer in
    [``minimum``, ``maximum``] (either bound may be None)."""
    as_float = finite(value, name)
    as_int = int(as_float)
    if as_int != as_float:
        raise DomainError(f"{name} must be an integer")
    if minimum is not None and as_int < minimum:
        raise DomainError(f"{name} must be >= {minimum}")
    if maximum is not None and as_int > maximum:
        raise DomainError(f"{name} must be <= {maximum}")
    return as_int
