"""Gamma and Beta function engines with a verifiable identity suite.

Closed-form evaluation (Lanczos) and integral evaluation (tanh-sinh
quadrature) of the gamma family, plus checks that certify the classical
product identities relating them.

The engines are imported with the package.  The identity layer
(``IDENTITIES``, the reports, the ``check_*`` functions, ``default_grid``,
``default_tolerance`` and ``run_suite``) is imported on first use of one of
its names, so a program that only evaluates never loads it, nor the
``dataclasses`` module it needs.
"""

from .beta import (
    beta_closed,
    beta_integral,
    euler_symbol,
    euler_symbol_closed,
)
from .errors import DomainError, NonFiniteIntegrandError
from .gamma import (
    factorial_interp,
    gamma_integral,
    gamma_log_integral,
    gamma_reference,
    log_gamma,
)
from .quadrature import IntegralEstimate, integrate_finite

__version__ = "0.1.0"

# benchmarks/perfbench/run.py:209 reads this name; it goes in the benchmark-only change.
BACKEND = "python"

__all__ = [
    "BACKEND",
    "DomainError",
    "IDENTITIES",
    "IdentityReport",
    "IntegralEstimate",
    "NonFiniteIntegrandError",
    "SuiteReport",
    "beta_closed",
    "beta_integral",
    "check_algebraic_interpolation",
    "check_duplication",
    "check_factorial_root",
    "check_gamma_fraction_product",
    "check_gamma_square_product",
    "check_gauss_multiplication",
    "check_log_integral_product",
    "check_reflection",
    "check_sine_multiple_angle",
    "check_sine_product",
    "check_symbol_bridge",
    "check_symbol_symmetry",
    "default_grid",
    "default_tolerance",
    "euler_symbol",
    "euler_symbol_closed",
    "factorial_interp",
    "gamma_integral",
    "gamma_log_integral",
    "gamma_reference",
    "integrate_finite",
    "log_gamma",
    "run_suite",
    "__version__",
]


def __getattr__(name):
    # Every public name not bound above belongs to the identity layer.  It is
    # bound here on first use, so this runs once per name.
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import identities

    value = globals()[name] = getattr(identities, name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
