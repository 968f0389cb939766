"""Approximation-error measurement in the square-mean and uniform metrics.

The square-mean error integrates (approx - reference)^2 over [-1, 1]^2 with
tensor Gauss panels split at the reference's breakpoints, so piecewise-smooth
references (whose derivative may have interior kinks) lose no accuracy.  The
uniform error is the maximum over a uniform tensor grid that includes the
boundary, where worst-case deviations concentrate.

Each :class:`ErrorMeter` keeps what it builds for its own runs.  Across
meters, including the ones inside :func:`l2_error`, :func:`sup_error` and
:func:`error_report`, the reference object keeps the latest Gauss grid and
the latest uniform grid it was measured on, with their Legendre tables, so
repeated calls at one size against a held reference build nothing twice.
The store is weak-keyed: it goes when the reference object goes.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

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


@dataclass
class _Grids:
    """The latest grids measured on for one reference; holds no reference to it.

    ``gauss`` is for the latest effective Gauss order and ``uniform`` for the
    latest uniform grid size: each a (G or m, grid, tables) triple or None,
    where grid is what :class:`ErrorMeter` builds for that order or size and
    tables maps (node set, degree) to the Legendre tables of the latest
    measurement on it.  So a held reference keeps one grid of each kind and
    at most four tables, whatever sizes it has been measured at.
    """

    gauss: tuple[int, tuple, dict[tuple[object, int], np.ndarray]] | None = None
    uniform: tuple[int, tuple, dict[tuple[object, int], np.ndarray]] | None = None


#: Reference object -> its latest grids; an entry goes when its reference does.
_GRIDS: weakref.WeakKeyDictionary[BivariateFunction, _Grids] = weakref.WeakKeyDictionary()


class ErrorMeter:
    """Both error metrics against one reference.

    The square-mean metric integrates with ``max(G, 2 * (series degree) + 8)``
    Gauss points per panel (split at the reference's breakpoints), enough to
    integrate the squared series essentially exactly, so ``G`` is a floor.
    The reference is evaluated once per such order and once on the m x m
    uniform grid, each on first use; the Legendre tables are built once per
    node set and series degree, and an axis whose panel edges equal the
    other's shares its rule and tables.  The meter keeps all of these for as
    long as it lives.  The latest Gauss grid and uniform grid, with their
    tables, are also kept with the reference object, where a later meter on
    the same object, such as the one inside each standalone metric call,
    picks them up; drop the object to release them (an F1 reference last
    measured at n = 2048 holds a 512 MiB Gauss grid and a 134 MB table).
    Each measured approximation then costs two table products and a
    reduction per metric, with the same arithmetic as evaluating from
    scratch.
    """

    def __init__(self, reference: BivariateFunction, G: int = 96, m: int = 201):
        if m < 3 or m % 2 == 0:
            raise ValueError(f"grid resolution m={m} must be odd and >= 3")
        self.reference = reference
        self.G = G
        self.m = m
        self._gauss_grids: dict[int, tuple] = {}
        self._uniform_grid: tuple[np.ndarray, np.ndarray] | None = None
        self._tables: dict[tuple[object, int], np.ndarray] = {}
        self._latest = _GRIDS.setdefault(reference, _Grids())

    def _adopt(self, kind: str, size: int) -> tuple | None:
        """The reference's latest grid of this kind if it has this size, else None.

        Its tables join the meter's.  A latest grid of another size is dropped
        first, so a standalone call never holds two grids of one kind.
        """
        latest = getattr(self._latest, kind)
        if latest is None or latest[0] != size:
            setattr(self._latest, kind, None)
            return None
        self._tables.update(latest[2])
        return latest[1]

    def _gauss(
        self, G: int
    ) -> tuple[object, QuadratureRule, object, QuadratureRule, np.ndarray]:
        if G not in self._gauss_grids:
            grid = self._adopt("gauss", G)
            if grid is None:
                edges_t, edges_tau = self.reference.axis_edges()
                rule_t = composite_gauss_rule(G, edges_t)
                rule_tau = (
                    rule_t if edges_tau == edges_t else composite_gauss_rule(G, edges_tau)
                )
                values = self.reference.value(rule_t.nodes[:, None], rule_tau.nodes[None, :])
                grid = (G, edges_t), rule_t, (G, edges_tau), rule_tau, values
            self._gauss_grids[G] = grid
        return self._gauss_grids[G]

    def _uniform(self) -> tuple[np.ndarray, np.ndarray]:
        if self._uniform_grid is None:
            grid = self._adopt("uniform", self.m)
            if grid is None:
                nodes = np.linspace(-1.0, 1.0, self.m)
                grid = nodes, self.reference.value(nodes[:, None], nodes[None, :])
            self._uniform_grid = grid
        return self._uniform_grid

    def _table(self, key: tuple[object, int], nodes: np.ndarray) -> np.ndarray:
        if key not in self._tables:
            self._tables[key] = legendre_table(key[1], nodes)
        return self._tables[key]

    def _diff(
        self,
        approx: ApproxDerivative,
        set_t: object,
        t: np.ndarray,
        set_tau: object,
        tau: np.ndarray,
        reference_values: np.ndarray,
    ) -> tuple[np.ndarray, dict[tuple[object, int], np.ndarray]]:
        """Series minus reference on the tensor grid t x tau, a fresh array.

        ``set_t``/``set_tau`` name the node sets, keying the tables; the
        tables used are returned with the difference.
        """
        coeffs = approx.series.coeffs
        key_t = (set_t, coeffs.shape[0] - 1)
        key_tau = (set_tau, coeffs.shape[1] - 1)
        table_t = self._table(key_t, t)
        table_tau = self._table(key_tau, tau)
        diff = table_t.T @ coeffs @ table_tau
        diff -= reference_values
        return diff, {key_t: table_t, key_tau: table_tau}

    def l2_error(self, approx: ApproxDerivative) -> float:
        """Square-mean error ||approx - reference||_L2 over [-1, 1]^2.

        Integrates with max(G, 2 * (max series degree) + 8) Gauss points per
        panel, so the squared series is integrated essentially exactly.
        """
        G = max(self.G, 2 * (max(approx.series.coeffs.shape) - 1) + 8)
        grid = self._gauss(G)
        set_t, rule_t, set_tau, rule_tau, values = grid
        diff, tables = self._diff(approx, set_t, rule_t.nodes, set_tau, rule_tau.nodes, values)
        self._latest.gauss = G, grid, tables
        diff *= diff  # in place: no second grid-sized array
        quad = rule_t.weights @ diff @ rule_tau.weights
        return float(np.sqrt(max(quad, 0.0)))

    def sup_error(self, approx: ApproxDerivative) -> float:
        """Uniform error max |approx - reference| over the m x m grid including +-1."""
        grid = self._uniform()
        nodes, values = grid
        diff, tables = self._diff(approx, self.m, nodes, self.m, nodes, values)
        self._latest.uniform = self.m, grid, tables
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
