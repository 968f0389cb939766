"""Approximation-error measurement in the square-mean and uniform metrics.

The square-mean error integrates (approx - reference)^2 over [-1, 1]^2 with
tensor Gauss panels split at the reference's breakpoints, so piecewise-smooth
references (whose derivative may have interior kinks) lose no accuracy.  The
uniform error is the maximum over a uniform tensor grid that includes the
boundary, where worst-case deviations concentrate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .basis import composite_gauss_rule
from .coeffs import BivariateFunction
from .method import ApproxDerivative

__all__ = ["ErrorReport", "l2_error", "sup_error", "error_report"]


@dataclass(frozen=True)
class ErrorReport:
    """Measured quality of one method run."""

    l2_error: float
    sup_error: float
    n_used: int
    information_count: int
    wall_time: float

    def validate(self) -> None:
        """Check ||g||_L2 <= 2 ||g||_C (the domain has area 4)."""
        if not self.l2_error <= 2.0 * self.sup_error * (1.0 + 1e-9) + 1e-300:
            raise ValueError(
                f"l2_error={self.l2_error} exceeds 2*sup_error={2 * self.sup_error}"
            )


def _max_series_degree(approx: ApproxDerivative) -> int:
    field = approx.series.field
    return max(field.k_max, field.j_max)


def l2_error(
    approx: ApproxDerivative, reference: BivariateFunction, G: int
) -> float:
    """Square-mean error ||approx - reference||_L2 over [-1, 1]^2.

    Requires G >= 2 * (max series degree) + 8 so the squared series is
    integrated essentially exactly.
    """
    needed = 2 * _max_series_degree(approx) + 8
    if G < needed:
        raise ValueError(f"quadrature order G={G} too small; need G >= {needed}")
    edges_t, edges_tau = reference.axis_edges()
    rule_t = composite_gauss_rule(G, edges_t)
    rule_tau = composite_gauss_rule(G, edges_tau)
    diff = approx.series.eval_grid(rule_t.nodes, rule_tau.nodes)
    diff -= reference.value(rule_t.nodes[:, None], rule_tau.nodes[None, :])
    quad = rule_t.weights @ (diff * diff) @ rule_tau.weights
    return float(np.sqrt(max(quad, 0.0)))


def sup_error(
    approx: ApproxDerivative, reference: BivariateFunction, m: int = 201
) -> float:
    """Uniform error max |approx - reference| over the m x m grid including +-1.

    m must be odd and >= 3 so that -1, 0, and 1 are all grid points.
    """
    if m < 3 or m % 2 == 0:
        raise ValueError(f"grid resolution m={m} must be odd and >= 3")
    grid = np.linspace(-1.0, 1.0, m)
    diff = approx.series.eval_grid(grid, grid)
    diff -= reference.value(grid[:, None], grid[None, :])
    return float(np.max(np.abs(diff)))


def error_report(
    approx: ApproxDerivative,
    reference: BivariateFunction,
    G: int = 96,
    m: int = 201,
) -> ErrorReport:
    """Both error metrics for one run, with timing."""
    start = time.perf_counter()
    l2 = l2_error(approx, reference, G)
    sup = sup_error(approx, reference, m)
    report = ErrorReport(
        l2_error=l2,
        sup_error=sup,
        n_used=approx.n_used,
        information_count=approx.information_count,
        wall_time=time.perf_counter() - start,
    )
    report.validate()
    return report
