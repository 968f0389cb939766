"""Approximation-error measurement in the square-mean and uniform metrics.

The square-mean error integrates (approx - reference)^2 over [-1, 1]^2 with
tensor Gauss panels split at the reference's breakpoints, so piecewise-smooth
references (whose derivative may have interior kinks) lose no accuracy.  The
uniform error is the maximum over a uniform tensor grid that includes the
boundary, where worst-case deviations concentrate.

:func:`l2_error`, :func:`sup_error` and :func:`error_report` keep their grids
with the reference object: its latest Gauss grid and latest uniform grid, each
with the Legendre tables of its latest measurement.  A grid is rebuilt only
when its size changes and a table only when the series degree does, so the
seeds of a table row evaluate the reference once per grid.  The store is
weak-keyed: drop the reference object to release its grids (an F1 reference
last measured at n = 2048 holds a 512 MiB Gauss grid and a 134 MB table).

A measurement reduces series minus reference one block of grid rows at a time
in one reused buffer of at most 2**18 entries (2 MiB), so next to the held grid
it allocates that block and the two factors of :func:`~legdiff.basis.grid_factors`,
never a second grid.  A grid of at most 2**18 entries (every grid the table
presets measure on, and the default 201 x 201 sup grid) is one block, reduced
with exactly the operations of a whole-grid product.
"""

from __future__ import annotations

import weakref
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

import numpy as np

from .basis import grid_factors, legendre_table
from .coeffs import MAX_DENSE_ENTRIES, BivariateFunction
from .method import ApproxDerivative, LegendreSeries2D

__all__ = ["ErrorReport", "l2_error", "sup_error", "error_report"]


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


#: Entries of the one row block a measurement fills at a time (2 MiB); grids
#: of at most this many entries are reduced in one block, exactly as a whole.
_BLOCK_ENTRIES = 2**18


@dataclass
class _Grid:
    """Reference values on the tensor grid t x tau, without the reference itself.

    ``size`` is the effective Gauss order or the uniform size m, and
    ``weights`` the Gauss weights per axis (None on the uniform grid).
    ``tau`` is ``t`` itself when both axes have the same nodes; they then
    share their tables.  ``tables`` maps (axis, degree) to the Legendre tables
    of the latest measurement on the grid, so it holds at most two.
    """

    size: int
    t: np.ndarray
    tau: np.ndarray
    values: np.ndarray
    weights: tuple[np.ndarray, np.ndarray] | None = None
    tables: dict[tuple[int, int], np.ndarray] = field(default_factory=dict)

    def diff_blocks(self, series: LegendreSeries2D) -> Iterator[tuple[slice, np.ndarray]]:
        """Series minus reference on this grid, one block of rows at a time.

        Yields ``(rows, block)`` with ``block`` = (series - values)[rows]; every
        block is a view of one reused buffer of at most :data:`_BLOCK_ENTRIES`
        entries (or one row), so it is overwritten by the next.
        """
        coeffs = series.coeffs
        keys = (0, coeffs.shape[0] - 1), (int(self.tau is not self.t), coeffs.shape[1] - 1)
        # Tables of other degrees go before the new ones are built.
        self.tables = {key: self.tables[key] for key in keys if key in self.tables}
        for key, nodes in zip(keys, (self.t, self.tau)):
            if key not in self.tables:
                self.tables[key] = legendre_table(key[1], nodes)
        left, right = grid_factors(
            self.tables[keys[0]], coeffs, self.tables[keys[1]], series.zero_corner
        )
        n_rows, n_cols = self.values.shape
        height = max(1, _BLOCK_ENTRIES // n_cols)
        buffer = np.empty((min(height, n_rows), n_cols))
        for start in range(0, n_rows, height):
            rows = slice(start, min(start + height, n_rows))
            block = np.matmul(left[rows], right, out=buffer[: rows.stop - start])
            block -= self.values[rows]
            yield rows, block


#: Reference object -> its latest grid of each kind ("gauss", "uniform"); an
#: entry goes when its reference does.
_GRIDS: weakref.WeakKeyDictionary[BivariateFunction, dict[str, _Grid]] = (
    weakref.WeakKeyDictionary()
)


def _grid(reference: BivariateFunction, kind: str, size: int, build: Callable) -> _Grid:
    """The reference's latest grid of this kind, built anew unless it has this size.

    The old grid is dropped first, so the store never holds two of a kind.
    """
    grids = _GRIDS.setdefault(reference, {})
    if kind not in grids or grids[kind].size != size:
        grids.pop(kind, None)
        grids[kind] = build(reference, size)
    return grids[kind]


def _gauss(reference: BivariateFunction, G: int) -> _Grid:
    rule_t, rule_tau = reference.gauss_rules(G)
    values = reference.value(rule_t.nodes[:, None], rule_tau.nodes[None, :])
    weights = rule_t.weights, rule_tau.weights
    return _Grid(G, rule_t.nodes, rule_tau.nodes, values, weights)


def _uniform(reference: BivariateFunction, m: int) -> _Grid:
    nodes = np.linspace(-1.0, 1.0, m)
    return _Grid(m, nodes, nodes, reference.value(nodes[:, None], nodes[None, :]))


def _check_m(m: int) -> None:
    if m < 3 or m % 2 == 0:
        raise ValueError(f"grid resolution m={m} must be odd and >= 3")
    if m * m > MAX_DENSE_ENTRIES:
        raise ValueError(
            f"grid resolution m={m} needs {m * m} points, over the limit of {MAX_DENSE_ENTRIES}"
        )


def l2_error(approx: ApproxDerivative, reference: BivariateFunction, G: int) -> float:
    """Square-mean error ||approx - reference||_L2 over [-1, 1]^2.

    G is a floor: the integration uses max(G, 2 * (max series degree) + 8)
    Gauss points per panel, so the squared series is integrated essentially
    exactly.
    """
    coeffs = approx.series.coeffs
    grid = _grid(reference, "gauss", max(G, 2 * (max(coeffs.shape) - 1) + 8), _gauss)
    weights_t, weights_tau = grid.weights
    column = np.zeros(grid.values.shape[1])
    for rows, block in grid.diff_blocks(approx.series):
        block *= block  # in place, in the reused buffer
        column += weights_t[rows] @ block
    quad = column @ weights_tau
    return float(np.sqrt(max(quad, 0.0)))


def sup_error(
    approx: ApproxDerivative, reference: BivariateFunction, m: int = 201
) -> float:
    """Uniform error max |approx - reference| over the m x m grid including +-1.

    m must be odd and >= 3 so that -1, 0, and 1 are all grid points, and m^2
    must not exceed :data:`~legdiff.coeffs.MAX_DENSE_ENTRIES` (m <= 2047).
    """
    _check_m(m)
    worst = -np.inf
    for _, block in _grid(reference, "uniform", m, _uniform).diff_blocks(approx.series):
        # np.maximum propagates a NaN block maximum, where Python's max() may drop it.
        worst = np.maximum(worst, np.abs(block, out=block).max())
    return float(worst)


def error_report(
    approx: ApproxDerivative,
    reference: BivariateFunction,
    G: int = 96,
    m: int = 201,
) -> ErrorReport:
    """Both error metrics for one run; G is a floor, as for :func:`l2_error`."""
    _check_m(m)  # before the reference is evaluated or L2 computed
    report = ErrorReport(
        l2_error=l2_error(approx, reference, G),
        sup_error=sup_error(approx, reference, m),
        n_used=approx.n_used,
        information_count=approx.information_count,
    )
    report.validate()
    return report
