"""Approximation-error measurement in the square-mean and uniform metrics.

The square-mean error integrates (approx - reference)^2 over [-1, 1]^2 with
tensor Gauss panels split at the reference's breakpoints, so piecewise-smooth
references (whose derivative may have interior kinks) lose no accuracy.  The
uniform error is the maximum over a uniform tensor grid that includes the
boundary, where worst-case deviations concentrate.

:func:`l2_error`, :func:`sup_error` and :func:`error_report` keep their grids
with the reference object: its latest Gauss grid and latest uniform grid.  A
grid is rebuilt only when its size changes, so the seeds of a table row
evaluate the reference once per grid.  The store is weak-keyed: drop the
reference object to release its grids.

A uniform grid, and a Gauss grid of at most 2**18 entries (every Gauss grid the
table presets measure on), holds the reference's values and, per axis (one
for both when they share nodes), the Legendre table of its latest
measurement; a table is rebuilt only when the series degree changes.  A
measurement reduces series minus reference one block of grid rows at a time
in one reused buffer of at most 2**18 entries (2 MiB), so
next to the held grid it allocates that block and the two factors of
:func:`~legdiff.basis.grid_factors`, never a second grid.  A grid of at most
2**18 entries (the default uniform grid too) is one block, reduced with
exactly the operations of a whole-grid product.

The square-mean error has two forms, chosen by that same block size:

- a Gauss grid of at most 2**18 entries sums the squared difference over the
  grid in its one block, as above;
- a larger one (on the cross, F1'' from n = 128 and F2'' from n = 256) works in
  coefficient space and holds only its rules.  The series is a finite sum in
  the basis phi_k phi_j, which the Gauss rule holds orthonormal up to
  rounding, so the squared error is ||C - B||^2 + tail: B is the reference's
  projection onto the series' index block, the one
  :func:`~legdiff.coeffs.exact_coeffs` makes, and tail the weighted square
  sum of the reference minus B's grid, which
  :func:`~legdiff.coeffs._tensor_projection` hands over with B.  Both
  depend on the reference and the degree only, so the grid keeps them for
  its latest coefficient shape, and each further seed costs one reduction
  over the K x J coefficients (0.1-0.3 ms at n = 300, against 5-9 ms for
  the grid sum); another shape at the same order is projected again on the
  same grid.  The first call per (reference, degree) evaluates the
  reference one row block at a time and never holds it whole: about 15-20
  ms at n = 300 with declared ``factors`` and 60-85 ms without (one BLAS
  thread, 2-vCPU Xeon).  With factors, the node values of B's grid are
  made, and their Legendre table released, before the row buffer, so the
  peak allocation (tracemalloc) is B with that table or with two row
  blocks: 5.1 MB at n = 300 and 40 MB for a side-998 series; without
  factors it is B, one Legendre table and a few row blocks, 10.5 MB at
  n = 300.  The whole Gauss grid would be 11.6 MB at n = 300 and 128 MB at
  side 998.  An F1'' reference last measured at n = 2048 holds a 32 MiB
  projection and the grid's rules, not the 512 MiB grid.

Both forms give the same number up to rounding and the orthonormality defect
T W T^T - I of the float64 tables and weights (about 2e-14 at degree 297,
which the grid sum carries); at n = 300 the coefficient form lies within
5e-17 relative of a long-double Gauss rule, where the grid sum lies
2.4-4.3e-13 away (seeds 0, 8, 9 and 26 of the benchmark's large cross).
The one-block form stays because ``perfbench/refs`` and the table tests pin
table1's and table2's bytes, which its grids measure; moving them to
coefficient space waits for a benchmark change that re-records them.
"""

from __future__ import annotations

import weakref
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

import numpy as np

from .basis import QuadratureRule, grid_factors, legendre_table
from .coeffs import (
    BivariateFunction,
    CoeffField,
    _BLOCK_ENTRIES,
    _check_entries,
    _gauss_order,
    _row_blocks,
    _tensor_projection,
)
from .index import _check_integer
from .method import ApproxDerivative

__all__ = ["ErrorReport", "l2_error", "sup_error", "error_report", "DEFAULT_G", "DEFAULT_M"]

#: What error_report measures with: the floor G on Gauss points per panel, the uniform grid size m.
DEFAULT_G = 96
DEFAULT_M = 201


@dataclass(frozen=True)
class ErrorReport:
    """Measured quality of one method run."""

    l2_error: float
    sup_error: float

    def validate(self) -> None:
        """Check that both errors are finite and ||g||_L2 <= 2 ||g||_C (area 4)."""
        for name, value in (("l2_error", self.l2_error), ("sup_error", self.sup_error)):
            if not np.isfinite(value):
                raise ValueError(f"{name}={value} is not finite on the measurement grid")
        if not self.l2_error <= 2.0 * self.sup_error * (1.0 + 1e-9) + 1e-300:
            raise ValueError(
                f"l2_error={self.l2_error} exceeds 2*sup_error={2 * self.sup_error}"
            )


@dataclass
class _Grid:
    """A tensor grid t x tau for one reference, without the reference itself.

    ``size`` is the effective Gauss order or the uniform size m, and
    ``rules`` the Gauss rules (t, tau) it was built from (None on the
    uniform grid).
    ``tau`` is ``t`` itself when both axes have the same nodes; they then
    share their tables.  ``values`` holds the reference on the grid when the
    grid is one row block (at most :data:`_BLOCK_ENTRIES` entries) or
    uniform; a larger Gauss grid holds None, and is measured in coefficient
    space from ``projection``, the reference's ``(B, tail)`` for the latest
    coefficient shape (see :meth:`projected`).  ``tables`` maps an axis (0
    for t, 1 for tau; 0 alone when they share nodes) to the Legendre table
    of the latest measurement from ``values``.
    """

    size: int
    t: np.ndarray
    tau: np.ndarray
    values: np.ndarray | None
    rules: tuple[QuadratureRule, QuadratureRule] | None = None
    tables: dict[int, np.ndarray] = field(default_factory=dict)
    projection: tuple[np.ndarray, float] | None = None

    def axis_tables(self, shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
        """The Legendre tables (t, tau) for a coefficient array of this shape, each
        axis's table built anew when its degree changes; shared nodes take the
        leading rows of one table (the recurrence runs row by row, so those
        rows are a smaller table's bytes)."""
        shared = self.tau is self.t
        wanted = {0: max(shape)} if shared else {0: shape[0], 1: shape[1]}
        for axis, rows in wanted.items():
            if len(self.tables.get(axis, ())) != rows:
                self.tables.pop(axis, None)  # dropped before the new one is built
                self.tables[axis] = legendre_table(rows - 1, (self.t, self.tau)[axis])
        return self.tables[0][: shape[0]], self.tables[int(not shared)][: shape[1]]

    def remainders(
        self,
        product: Callable[[slice, np.ndarray], np.ndarray],
        values: Callable[[slice], np.ndarray],
    ) -> Iterator[tuple[slice, np.ndarray]]:
        """A grid minus the reference, one block of rows at a time.

        ``product(rows, out)`` writes the grid's ``rows`` into ``out`` and
        returns it; ``values(rows)`` gives the reference on those rows.
        Yields ``(rows, block)``; every block is a view of one reused buffer,
        so it is overwritten by the next.
        """
        for rows, buffer in _row_blocks(self.t.size, self.tau.size):
            block = product(rows, buffer)
            block -= values(rows)
            yield rows, block

    def diff_blocks(self, series: CoeffField) -> Iterator[tuple[slice, np.ndarray]]:
        """Series minus the held values, one block of rows at a time."""
        table_t, table_tau = self.axis_tables(series.values.shape)
        left, right = grid_factors(table_t, series.values, table_tau, series.zero_corner)
        return self.remainders(
            lambda rows, out: np.matmul(left[rows], right, out=out), self.values.__getitem__
        )

    def square_sum(self, blocks: Iterator[tuple[slice, np.ndarray]]) -> float:
        """The weighted sum of the squared blocks of a Gauss grid (squared in place)."""
        rule_t, rule_tau = self.rules
        column = np.zeros(self.tau.size)
        for rows, block in blocks:
            block *= block  # in place, in the reused buffer
            column += rule_t.weights[rows] @ block
        return column @ rule_tau.weights

    def projected(
        self, shape: tuple[int, int], reference: BivariateFunction
    ) -> tuple[np.ndarray, float]:
        """The reference's projection B onto this index block and its remainder.

        B is :func:`~legdiff.coeffs._tensor_projection`'s on the grid's rules,
        and ``tail`` the weighted square sum of the reference F minus B's
        grid, which that projection hands over with B.  Both are kept for the
        latest shape; another shape is projected anew on the same grid.  F is
        evaluated one row block at a time, elementwise as the whole grid
        would be, and never held whole.
        """
        if self.projection is not None and self.projection[0].shape == shape:
            return self.projection
        self.projection = None  # dropped before the next is built
        projection, grid = _tensor_projection(reference, *self.rules, shape[0] - 1, shape[1] - 1)

        def values(rows: slice) -> np.ndarray:
            return reference.value(self.t[rows, None], self.tau[None, :])

        self.projection = projection, self.square_sum(self.remainders(grid(), values))
        return self.projection


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
    """The Gauss grid of order G, with the reference's values only when it is
    one row block; :meth:`_Grid.projected` evaluates a larger one by blocks."""
    rule_t, rule_tau = reference.gauss_rules(G)
    t, tau = rule_t.nodes, rule_tau.nodes
    values = None
    if t.size * tau.size <= _BLOCK_ENTRIES:
        values = reference.value(t[:, None], tau[None, :])
    return _Grid(G, t, tau, values, (rule_t, rule_tau))


def _uniform(reference: BivariateFunction, m: int) -> _Grid:
    nodes = np.linspace(-1.0, 1.0, m)
    return _Grid(m, nodes, nodes, reference.value(nodes[:, None], nodes[None, :]))


def _check_m(m: int) -> None:
    _check_integer("m", m)
    if m < 3 or m % 2 == 0:
        raise ValueError(f"grid resolution m={m} must be odd and >= 3")
    _check_entries(f"grid resolution m={m}", m, m, "evaluation grid")


def l2_error(approx: ApproxDerivative, reference: BivariateFunction, G: int) -> float:
    """Square-mean error ||approx - reference||_L2 over [-1, 1]^2.

    G is an integer floor: the integration uses max(G, 2 * (max series degree) + 8)
    Gauss points per panel, as :func:`~legdiff.coeffs._gauss_order` gives it, so
    the squared series is integrated essentially exactly.  A G that is no
    integer, or an order above 4102, the one a series of degree 2047 gets,
    raises ValueError before any rule is built.

    A Gauss grid of at most 2**18 entries is summed over; a larger one gives
    sqrt(sum((C - B)^2) + tail) from the projection B and remainder tail the
    grid keeps for the latest coefficient shape (see the module docstring).
    A reference that is NaN anywhere on the grid gives NaN either way.
    """
    coeffs = approx.series.values
    order = _gauss_order(G, max(coeffs.shape) - 1, 8)
    grid = _grid(reference, "gauss", order, _gauss)
    if grid.values is not None:
        quad = grid.square_sum(grid.diff_blocks(approx.series))
    else:
        projection, tail = grid.projected(coeffs.shape, reference)
        diff = coeffs - projection
        diff *= diff  # in place: no second coefficient array
        quad = np.sum(diff) + tail  # pairwise, and independent of BLAS threads
    return float(np.sqrt(quad))


def sup_error(
    approx: ApproxDerivative, reference: BivariateFunction, m: int = DEFAULT_M
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


def error_report(approx: ApproxDerivative, reference: BivariateFunction) -> ErrorReport:
    """Both error metrics for one run, with :data:`DEFAULT_G` and :data:`DEFAULT_M`."""
    report = ErrorReport(
        l2_error=l2_error(approx, reference, DEFAULT_G),
        sup_error=sup_error(approx, reference, DEFAULT_M),
    )
    report.validate()
    return report
