"""Approximation-error measurement in the square-mean and uniform metrics.

The square-mean error integrates (approx - reference)^2 over [-1, 1]^2 with
tensor Gauss panels split at the reference's breakpoints, so piecewise-smooth
references (whose derivative may have interior kinks) lose no accuracy.  The
uniform error is the maximum over a uniform tensor grid that includes the
boundary, where worst-case deviations concentrate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._kernels import legendre_table
from .basis import QuadratureRule, composite_gauss_rule
from .coeffs import BivariateFunction
from .method import ApproxDerivative

__all__ = ["ErrorReport", "ErrorMeter", "l2_error", "sup_error", "error_report"]


@dataclass(frozen=True)
class ErrorReport:
    """Measured quality of one method run."""

    l2_error: float
    sup_error: float
    n_used: int
    information_count: int

    def validate(self) -> None:
        """Check ||g||_L2 <= 2 ||g||_C (the domain has area 4)."""
        if not self.l2_error <= 2.0 * self.sup_error * (1.0 + 1e-9) + 1e-300:
            raise ValueError(
                f"l2_error={self.l2_error} exceeds 2*sup_error={2 * self.sup_error}"
            )


class ErrorMeter:
    """Both error metrics against one reference on fixed grids, built once.

    The square-mean metric integrates with ``max(G, 2 * (series degree) + 8)``
    Gauss points per panel (split at the reference's breakpoints), enough to
    integrate the squared series essentially exactly, so ``G`` is a floor.
    The reference is evaluated once per such order and once on the m x m
    uniform grid, each on first use; the Legendre tables are built once per
    node set and series degree.  Each measured approximation then costs two
    table products and a reduction per metric, with the same arithmetic as
    evaluating from scratch.
    """

    def __init__(self, reference: BivariateFunction, G: int = 96, m: int = 201):
        if m < 3 or m % 2 == 0:
            raise ValueError(f"grid resolution m={m} must be odd and >= 3")
        self.reference = reference
        self.G = G
        self.m = m
        self._gauss_grids: dict[int, tuple[QuadratureRule, QuadratureRule, np.ndarray]] = {}
        self._tables: dict[tuple[object, int], np.ndarray] = {}

    def _gauss(self, G: int) -> tuple[QuadratureRule, QuadratureRule, np.ndarray]:
        if G not in self._gauss_grids:
            edges_t, edges_tau = self.reference.axis_edges()
            rule_t = composite_gauss_rule(G, edges_t)
            rule_tau = composite_gauss_rule(G, edges_tau)
            values = self.reference.value(rule_t.nodes[:, None], rule_tau.nodes[None, :])
            self._gauss_grids[G] = rule_t, rule_tau, values
        return self._gauss_grids[G]

    @cached_property
    def _uniform(self) -> tuple[np.ndarray, np.ndarray]:
        grid = np.linspace(-1.0, 1.0, self.m)
        return grid, self.reference.value(grid[:, None], grid[None, :])

    def _table(self, node_set: object, nodes: np.ndarray, degree: int) -> np.ndarray:
        key = (node_set, degree)
        if key not in self._tables:
            self._tables[key] = legendre_table(degree, nodes)
        return self._tables[key]

    def _diff(
        self,
        approx: ApproxDerivative,
        set_t: object,
        t: np.ndarray,
        set_tau: object,
        tau: np.ndarray,
        reference_values: np.ndarray,
    ) -> np.ndarray:
        """Series minus reference on the tensor grid t x tau, a fresh array.

        ``set_t``/``set_tau`` name the node sets, keying the cached tables.
        """
        coeffs = approx.series.coeffs
        table_t = self._table(set_t, t, coeffs.shape[0] - 1)
        table_tau = self._table(set_tau, tau, coeffs.shape[1] - 1)
        diff = table_t.T @ coeffs @ table_tau
        diff -= reference_values
        return diff

    def l2_error(self, approx: ApproxDerivative) -> float:
        """Square-mean error ||approx - reference||_L2 over [-1, 1]^2.

        Integrates with max(G, 2 * (max series degree) + 8) Gauss points per
        panel, so the squared series is integrated essentially exactly.
        """
        G = max(self.G, 2 * (max(approx.series.coeffs.shape) - 1) + 8)
        rule_t, rule_tau, values = self._gauss(G)
        diff = self._diff(
            approx, ("gauss_t", G), rule_t.nodes, ("gauss_tau", G), rule_tau.nodes, values
        )
        diff *= diff  # in place: no second grid-sized array
        quad = rule_t.weights @ diff @ rule_tau.weights
        return float(np.sqrt(max(quad, 0.0)))

    def sup_error(self, approx: ApproxDerivative) -> float:
        """Uniform error max |approx - reference| over the m x m grid including +-1."""
        grid, values = self._uniform
        diff = self._diff(approx, "uniform", grid, "uniform", grid, values)
        return float(np.max(np.abs(diff, out=diff)))

    def report(self, approx: ApproxDerivative) -> ErrorReport:
        """Both error metrics for one run."""
        report = ErrorReport(
            l2_error=self.l2_error(approx),
            sup_error=self.sup_error(approx),
            n_used=approx.n_used,
            information_count=approx.information_count,
        )
        report.validate()
        return report


def l2_error(
    approx: ApproxDerivative, reference: BivariateFunction, G: int
) -> float:
    """Square-mean error ||approx - reference||_L2 over [-1, 1]^2.

    G is a floor: the integration uses max(G, 2 * (max series degree) + 8)
    Gauss points per panel, so the squared series is integrated essentially
    exactly.
    """
    return ErrorMeter(reference, G=G).l2_error(approx)


def sup_error(
    approx: ApproxDerivative, reference: BivariateFunction, m: int = 201
) -> float:
    """Uniform error max |approx - reference| over the m x m grid including +-1.

    m must be odd and >= 3 so that -1, 0, and 1 are all grid points.
    """
    return ErrorMeter(reference, m=m).sup_error(approx)


def error_report(
    approx: ApproxDerivative,
    reference: BivariateFunction,
    G: int = 96,
    m: int = 201,
) -> ErrorReport:
    """Both error metrics for one run; G is a floor, as for :func:`l2_error`."""
    return ErrorMeter(reference, G=G, m=m).report(approx)
