"""Stable recovery of high-order mixed derivatives from noisy Legendre data.

Given (possibly noisy) Fourier-Legendre coefficients of a bivariate function
on [-1, 1]^2, the package recovers the mixed derivative of order (r, r) by
exact term-by-term differentiation of a truncated series over a hyperbolic
cross of indices, with the truncation level chosen from the noise level.

Quick start::

    from legdiff import MethodConfig, run
    from legdiff.experiments import F1
    from legdiff.coeffs import exact_coeffs

    config = MethodConfig(r=2, mu=5.5, delta=1e-6)
    field = exact_coeffs(F1, 31, 31, G=96)
    approx = run(field, config)
    values = approx.series.eval_grid([0.0], [0.0])
"""

from .basis import QuadratureRule, composite_gauss_rule, eval_phi_table, gauss_rule
from .coeffs import (
    BivariateFunction,
    CoeffField,
    exact_coeffs,
    load_csv,
    save_csv,
    smoothness_norm,
    trapezoid_coeffs,
)
from .derivative import DerivativeExpansion, phi_derivative_coeffs
from .experiments import (
    F1,
    F2,
    ExperimentPreset,
    ExperimentRow,
    SweepResult,
    builtin_function,
    convergence_sweep,
    get_preset,
    run_table,
    theoretical_exponent,
)
from .index import IndexDomain
from .method import (
    ApproxDerivative,
    ConfigError,
    MethodConfig,
    choose_n,
    run,
)
from .metrics import ErrorReport, error_report, l2_error, sup_error
from .noise import NoiseSpec, noise_vector, perturb

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "QuadratureRule",
    "gauss_rule",
    "composite_gauss_rule",
    "eval_phi_table",
    "CoeffField",
    "BivariateFunction",
    "exact_coeffs",
    "trapezoid_coeffs",
    "smoothness_norm",
    "save_csv",
    "load_csv",
    "phi_derivative_coeffs",
    "DerivativeExpansion",
    "IndexDomain",
    "NoiseSpec",
    "noise_vector",
    "perturb",
    "ConfigError",
    "MethodConfig",
    "ApproxDerivative",
    "choose_n",
    "run",
    "ErrorReport",
    "l2_error",
    "sup_error",
    "error_report",
    "F1",
    "F2",
    "ExperimentPreset",
    "ExperimentRow",
    "SweepResult",
    "builtin_function",
    "get_preset",
    "run_table",
    "convergence_sweep",
    "theoretical_exponent",
]
