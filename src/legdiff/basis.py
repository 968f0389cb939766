"""Orthonormal Legendre polynomials and Gauss-Legendre quadrature on [-1, 1].

The working basis is phi_k(t) = sqrt(k + 1/2) * P_k(t) with P_k the classical
Legendre polynomial, so that integral(phi_k * phi_l) = delta_{kl} over [-1, 1].
Values come from the stable three-term recurrence

    P_{k+1}(t) = ((2k+1) t P_k(t) - k P_{k-1}(t)) / (k+1),

run in one place (:func:`_legendre_rows`) for the tables and the Gauss rule
alike.  Every series evaluation on a tensor grid is the product
``left @ right`` of the two factors :func:`grid_factors` makes from the axes'
tables (the error metrics and a projection's grid multiply them one block of
rows at a time).  The factors are dense,
``table_t.T @ coeffs`` and ``table_tau``, or, once the dense product needs at
least 2**22 multiply-adds and a given exactly zero corner of the coefficients
makes it cheaper, one low-rank pair past that corner (a derived
hyperbolic-cross series carries one).
A one-dimensional projection takes the table in blocks of degrees
(:func:`legendre_blocks`), whose products with a vector keep the whole
table's bytes under the rules stated there.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from .index import _check_integer

__all__ = [
    "DOMAIN_TOL",
    "QuadratureRule",
    "eval_phi_table",
    "gauss_rule",
    "composite_gauss_rule",
]

#: Points are accepted as inside [-1, 1] up to this absolute slack.
DOMAIN_TOL = 1e-12

_NEWTON_TOL = 1e-14
_NEWTON_MAX_ITER = 100


def _read_only(array: np.ndarray) -> np.ndarray:
    """A read-only view of ``array``; the data is not copied."""
    view = array.view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and positive weights of a quadrature rule on [-1, 1]."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        nodes = np.ascontiguousarray(self.nodes, dtype=np.float64)
        weights = np.ascontiguousarray(self.weights, dtype=np.float64)
        if nodes.ndim != 1 or weights.ndim != 1 or nodes.size != weights.size:
            raise ValueError("nodes and weights must be 1-D arrays of equal length")
        object.__setattr__(self, "nodes", _read_only(nodes))
        object.__setattr__(self, "weights", _read_only(weights))

    def __len__(self) -> int:
        return self.nodes.size

    def validate(self) -> None:
        """Check the rule invariants, raising ValueError on violation."""
        if not abs(self.weights.sum() - 2.0) < 1e-12:
            raise ValueError("weights must sum to 2")
        if not np.all(np.diff(self.nodes) > 0.0):
            raise ValueError("nodes must be strictly increasing")
        if not np.all(np.abs(self.nodes) < 1.0):
            raise ValueError("nodes must lie inside (-1, 1)")
        if not np.all(self.weights > 0.0):
            raise ValueError("weights must be positive")


def _orthonormal_scale(k_max: int) -> np.ndarray:
    """Row scaling sqrt(k + 1/2) turning P_k values into phi_k values."""
    return np.sqrt(np.arange(k_max + 1, dtype=np.float64) + 0.5)


def _legendre_rows(
    k_max: int, t: np.ndarray, rows: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Views (P_{k-1}(t), P_k(t)) for k = 0..k_max of the three rolling rows
    ``rows`` (3 x t.size), each valid until the next is drawn; the recurrence
    runs in place with the operations of the formula, in its order."""
    prev, cur, nxt = rows
    prev[:] = 0.0  # P_{-1}: the first step gives P_1 = t exactly
    cur[:] = 1.0
    for k in range(k_max + 1):
        yield prev, cur
        if k < k_max:
            np.multiply(t, 2 * k + 1, out=nxt)
            nxt *= cur
            prev *= k
            nxt -= prev
            nxt /= k + 1
            prev, cur, nxt = cur, nxt, prev


def legendre_blocks(k_max: int, t: np.ndarray, height: int) -> Iterator[tuple[slice, np.ndarray]]:
    """The rows of :func:`legendre_table` in consecutive blocks, as ``(degrees, block)``.

    Each block holds ``height`` rows but the last, which holds the rest; a
    lone last row joins the block before it.  ``block`` is the same memory
    for every block, and one allocation holds it and the three rolling rows
    of :func:`_legendre_rows`.  Each row is the rolling row P_k times
    sqrt(k + 1/2), so every block holds the bytes of its rows of the whole
    table.

    The blocks serve products ``block @ v`` with one BLAS thread, which keep
    the whole table's bytes given two facts of the BLAS build:

    - OpenBLAS's ``dgemv_t`` takes the matrix rows four at a time, so with
      ``height`` a multiple of 4 each row's product has the whole table's
      bits; other heights (1, 2, 3 or 5) regroup some rows' sums;
    - NumPy sends a one-row matrix times a vector to ``dot``, not ``gemv``,
      hence the lone-row fold.

    Both were measured with OpenBLAS 0.3.31 and NumPy 2.4; like every
    byte-for-byte output, the bytes are promised per BLAS build.
    """
    size = k_max + 1
    starts = list(range(0, size, height))
    if len(starts) > 1 and size - starts[-1] == 1:
        starts.pop()
    stops = starts[1:] + [size]
    rows = max(stop - start for start, stop in zip(starts, stops))
    buffer = np.empty((rows + 3, t.size), dtype=np.float64)
    block, recurrence = buffer[:rows], _legendre_rows(k_max, t, buffer[rows:])
    scale = _orthonormal_scale(k_max)
    for start, stop in zip(starts, stops):
        for k, (_, cur) in zip(range(start, stop), recurrence):
            np.multiply(cur, scale[k], out=block[k - start])
        yield slice(start, stop), block[: stop - start]


def legendre_table(k_max: int, t: np.ndarray) -> np.ndarray:
    """Values phi_k(t_i) for k = 0..k_max, shape (k_max+1, t.size), unchecked.

    ``t`` is a 1-D float64 array of nodes the package made itself; points from
    outside go through :func:`eval_phi_table`.  The table is the one block of
    :func:`legendre_blocks` of height k_max + 1.
    """
    ((_, table),) = legendre_blocks(k_max, t, k_max + 1)
    return table


#: Products needing fewer multiply-adds stay dense; see :func:`grid_factors`.
_FACTOR_MIN_MULADDS = 2**22


def grid_factors(
    table_t: np.ndarray, coeffs: np.ndarray, table_tau: np.ndarray, corner=None
) -> tuple[np.ndarray, np.ndarray]:
    """The two factors ``(left, right)`` whose product ``left @ right`` is the grid.

    The grid holds the series values on the tensor grid of the axes' Legendre
    tables; ``left`` has one row per ``t`` node and ``right`` one column per
    ``tau`` node, so any block of grid rows is ``left[rows] @ right``.  Two
    branches, chosen from the shapes and ``corner`` alone:

    - dense, ``(table_t.T @ coeffs, table_tau)``;
    - factorized, when ``corner`` = (a, b) names a zero corner
      ``coeffs[a:, b:] == 0`` (unchecked; a derived hyperbolic-cross series
      carries one, at n = 300 (22, 23) of a 298 x 298 array) whose count
      ``n_t*n_tau*(a+b) + n_t*(K-a)*b + a*J*n_tau`` is below the dense one.
      Then the factors are the rank-(a+b) pair
      ``L = [table_t[:a].T | table_t[a:].T @ coeffs[a:, :b]]`` and
      ``R = [coeffs[:a] @ table_tau ; table_tau[:b]]``.  The identity is exact;
      only the grouping of the rounding changes.

    Products under 2**22 multiply-adds stay dense.  Measured on derived cross
    series with one BLAS thread (2-vCPU Xeon, OpenBLAS 0.3.31, min of 41),
    the factorized branch, with the n^2 zero scan that then found the corner,
    lost below about 1M multiply-adds (n = 19 on 201 nodes: 41 against
    22-24 us), broke even around 1.3-1.9M (n = 31 on 201 nodes: 47 against
    50 us) and won from about 2M (n = 48 on 201 nodes: 54 against 76 us).
    Under 2**22 the dense product takes at most about 0.2 ms, and the pinned
    table and CLI outputs, whose products stay under 2M, keep their bytes.
    """
    n_t, n_tau = table_t.shape[1], table_tau.shape[1]
    K, J = coeffs.shape
    dense = n_t * K * J + n_t * J * n_tau
    if corner is not None and dense >= _FACTOR_MIN_MULADDS:
        a, b = corner
        if n_t * n_tau * (a + b) + n_t * (K - a) * b + a * J * n_tau < dense:
            left = np.concatenate((table_t[:a].T, table_t[a:].T @ coeffs[a:, :b]), axis=1)
            right = np.concatenate((coeffs[:a] @ table_tau, table_tau[:b]))
            return left, right
    return table_t.T @ coeffs, table_tau


def _check_in_domain(t: np.ndarray) -> None:
    """Reject any point not within DOMAIN_TOL of [-1, 1]; NaN is rejected too."""
    points = np.asarray(t, dtype=np.float64).ravel()
    size = np.abs(points)
    if not np.all(size <= 1.0 + DOMAIN_TOL):
        worst = float(points[int(np.argmax(size))])  # the first NaN, if any
        raise ValueError(f"point {worst!r} lies outside [-1, 1]")


def eval_phi_table(k_max: int, t: np.ndarray) -> np.ndarray:
    """Values phi_k(t_i), shape (k_max+1, len(t)), for points t in [-1, 1]."""
    _check_integer("k_max", k_max)
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    arr = np.ascontiguousarray(t, dtype=np.float64)
    _check_in_domain(arr)
    return legendre_table(k_max, arr)


def _legendre_value_and_derivative(G: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_G(x) and P_G'(x), the values from :func:`_legendre_rows`."""
    for p_prev, p_cur in _legendre_rows(G, x, np.empty((3, x.size))):
        pass
    # P_G'(x) = G * (x P_G(x) - P_{G-1}(x)) / (x^2 - 1); nodes never reach +-1
    deriv = G * (x * p_cur - p_prev) / (x * x - 1.0)
    return p_cur, deriv


#: Distinct orders whose rules :func:`gauss_rule` keeps: a run, table or sweep
#: level uses two (its coefficients' and its metrics'), and 64 rules of the
#: largest order :func:`~legdiff.coeffs._gauss_order` accepts, 4110, hold 4.2 MB.
_RULES_CACHED = 64


def gauss_rule(G: int) -> QuadratureRule:
    """G-point Gauss-Legendre rule on [-1, 1].

    Nodes are the roots of P_G, located from Chebyshev-angle initial guesses
    and polished by Newton iteration to 1e-14.  The latest
    :data:`_RULES_CACHED` orders' rules are kept; G is checked before the cache.
    """
    _check_integer("G", G)
    if G < 1:
        raise ValueError("G must be a positive integer")
    return _cached_gauss_rule(G)


@lru_cache(maxsize=_RULES_CACHED)
def _cached_gauss_rule(G: int) -> QuadratureRule:
    i = np.arange(G, dtype=np.float64)
    x = np.cos(np.pi * (i + 0.75) / (G + 0.5))
    for _ in range(_NEWTON_MAX_ITER):
        value, deriv = _legendre_value_and_derivative(G, x)
        dx = value / deriv
        x -= dx
        if np.max(np.abs(dx)) < _NEWTON_TOL:
            break
    else:
        raise RuntimeError(f"Newton iteration failed to converge for G={G}")
    _, deriv = _legendre_value_and_derivative(G, x)
    w = 2.0 / ((1.0 - x * x) * deriv * deriv)
    order = np.argsort(x)
    x = x[order]
    w = w[order]
    # the rule is symmetric; enforce it exactly
    x = 0.5 * (x - x[::-1])
    w = 0.5 * (w + w[::-1])
    return QuadratureRule(nodes=x, weights=w)


def composite_gauss_rule(G: int, edges: tuple[float, ...] = (-1.0, 1.0)) -> QuadratureRule:
    """G points of Gauss-Legendre quadrature on each panel between consecutive edges.

    ``edges`` must be strictly increasing and span exactly [-1, 1].  Splitting at
    interior breakpoints keeps Gauss accuracy for piecewise-smooth integrands.
    """
    edges_arr = np.asarray(edges, dtype=np.float64)
    if edges_arr.size < 2 or np.any(np.diff(edges_arr) <= 0.0):
        raise ValueError("edges must be strictly increasing")
    if abs(edges_arr[0] + 1.0) > DOMAIN_TOL or abs(edges_arr[-1] - 1.0) > DOMAIN_TOL:
        raise ValueError("edges must span [-1, 1]")
    base = gauss_rule(G)
    nodes = []
    weights = []
    for a, b in zip(edges_arr[:-1], edges_arr[1:]):
        half = 0.5 * (b - a)
        nodes.append(0.5 * (a + b) + half * base.nodes)
        weights.append(half * base.weights)
    return QuadratureRule(nodes=np.concatenate(nodes), weights=np.concatenate(weights))
