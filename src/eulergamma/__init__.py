"""Gamma and Beta function engines with a verifiable identity suite.

Closed-form evaluation (Lanczos) and integral evaluation (tanh-sinh
quadrature) of the gamma family, plus checks that certify the classical
product identities relating them.
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
from .identities import (
    IDENTITIES,
    IdentityReport,
    SuiteReport,
    check_algebraic_interpolation,
    check_duplication,
    check_factorial_root,
    check_gamma_fraction_product,
    check_gamma_square_product,
    check_gauss_multiplication,
    check_log_integral_product,
    check_reflection,
    check_sine_multiple_angle,
    check_sine_product,
    check_symbol_bridge,
    check_symbol_symmetry,
    default_grid,
    default_tolerance,
    run_suite,
)
from .quadrature import (
    DEFAULT_CONFIG,
    IntegralEstimate,
    QuadratureConfig,
    integrate_finite,
)

__version__ = "0.1.0"

# benchmarks/perfbench/run.py:209 reads this name; it goes in the benchmark-only change.
BACKEND = "python"

__all__ = [
    "BACKEND",
    "DEFAULT_CONFIG",
    "DomainError",
    "IDENTITIES",
    "IdentityReport",
    "IntegralEstimate",
    "NonFiniteIntegrandError",
    "QuadratureConfig",
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
