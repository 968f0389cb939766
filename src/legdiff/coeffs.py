"""Fourier-Legendre coefficient fields of bivariate functions on [-1, 1]^2.

A coefficient field is an array (k, j) -> <f, phi_k phi_j> with a mask of
stored entries; entries not stored are exactly zero.  Fields are produced
either by high-order Gauss quadrature ("exact" reference coefficients) or by
the composite trapezoid rule on a uniform grid, whose quadrature error acts
as data noise.

Both use one tensor projection.  A function that declares its separable form
(``BivariateFunction.factors``) is projected axis by axis, each axis's
Legendre table made one block of degrees of at most 2**18 entries (2 MiB) at
a time; any other is evaluated one row block of at most 2**18 entries at a
time and never held whole.  The error metrics take their reference's
projection B and B's grid rows from here, and measure in the same row blocks.
"""

from __future__ import annotations

import io
import math
import re
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from .basis import (
    QuadratureRule, _read_only, composite_gauss_rule, eval_phi_table, grid_factors,
    legendre_blocks, legendre_table,
)
from .index import IndexDomain, _check_integer, _check_s, pairs_mask

__all__ = [
    "MAX_DENSE_ENTRIES",
    "CoeffField",
    "BivariateFunction",
    "exact_coeffs",
    "trapezoid_coeffs",
    "smoothness_norm",
    "save_csv",
    "load_csv",
]

# Largest dense coefficient array a run or a coefficient file may need, in
# float64 entries: 2**22 entries is 32 MiB, and a run holds a few arrays of
# that size.  The error metrics hold no larger grid: a Gauss grid of at most
# 2**18 entries (a larger one is measured in coefficient space) or a uniform
# grid of at most 2047 x 2047.  The cross fits up to n = 2048 and the box up
# to n = 2047; with p = s and mu >= 4.6 the rule exceeds that only for
# delta < 1e-15.  Larger sizes are rejected before anything is allocated;
# :func:`_check_entries` words every such refusal for every module.  Two
# checks compare with the limit first: the trapezoid rule's node count (see
# :func:`_trapezoid_rule`) and :func:`_parse_rows`, which looks for a
# repeated index, named first by the scanner, before it refuses a file.
MAX_DENSE_ENTRIES = 2**22

#: Entries of the one row block a tensor projection or an error measurement
#: fills at a time (2 MiB), see :func:`_row_blocks`, and of the one block of
#: degrees a one-dimensional projection fills, see :func:`_degree_height`.
_BLOCK_ENTRIES = 2**18

#: Entries of the flattened stored mask :func:`save_csv` formats and writes at
#: a time; the CLI's grid and basis tables write this many values per block.
#: One block's rows are a few hundred KB of Python strings, where the whole
#: 201 x 201 benchmark file's were 10 MiB.  Blocks of 2**16 and 2**18 entries
#: raised the high-water of saving a 1024 x 1024 field by 14 and 58 MiB.
_WRITE_BLOCK = 2**12

#: Largest degree per axis of a square array within MAX_DENSE_ENTRIES (2047);
#: :func:`_gauss_order` refuses an order above the one this degree gets.
_MAX_DEGREE = math.isqrt(MAX_DENSE_ENTRIES) - 1


@dataclass(frozen=True, eq=False)
class CoeffField:
    """Coefficient array with a stored-entry mask, (k, j) -> <f, phi_k phi_j>,
    and the series sum c_{k,j} phi_k(t) phi_j(tau) it stands for.

    ``values`` (float64, C-contiguous) and ``stored`` (bool) are read-only,
    nonempty 2-D arrays of the same shape, a row per degree k and a column
    per degree j; entries that are not stored are exactly zero.  The
    row-major order of ``stored`` is the lexicographic (k, j) order, the
    canonical one for anything consuming entries sequentially (noise draws,
    CSV rows).  ``zero_corner`` (a, b), with ``values[a:, b:]`` all zero, is
    a corner grid evaluations may skip; no constructor argument sets it, only
    the method's derive loop (:func:`legdiff.method._derive`) on its derived fields
    (which store every entry), and every other field has None.
    """

    values: np.ndarray
    stored: np.ndarray
    zero_corner: tuple[int, int] | None = field(init=False, default=None)

    def __post_init__(self) -> None:
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        stored = np.asarray(self.stored, dtype=bool)
        if values.ndim != 2 or values.size == 0:
            raise ValueError("coefficient array must be 2-D and nonempty")
        if stored.shape != values.shape:
            raise ValueError(
                f"stored mask shape {stored.shape} differs from values {values.shape}"
            )
        object.__setattr__(self, "values", _read_only(values))
        object.__setattr__(self, "stored", _read_only(stored))

    @classmethod
    def from_dense(cls, array: np.ndarray) -> "CoeffField":
        """Field storing every entry of a dense coefficient array.

        A C-contiguous float64 array is wrapped, not copied, so it must not be
        modified afterwards.
        """
        array = np.asarray(array, dtype=np.float64)
        return cls(array, np.broadcast_to(np.True_, array.shape))

    @classmethod
    def _derived(cls, values: np.ndarray, stored: np.ndarray, zero_corner) -> "CoeffField":
        """A field the method's derive loop yields: ``stored`` its shared
        all-True mask, and the zero corner its map guarantees, unscanned."""
        derived = cls(values, stored)
        object.__setattr__(derived, "zero_corner", zero_corner)
        return derived

    def __len__(self) -> int:
        return int(np.count_nonzero(self.stored))

    def restrict(self, domain) -> "CoeffField":
        """Field storing exactly the pairs of ``domain`` (missing values become 0.0).

        ``domain`` is an :class:`IndexDomain` or an iterable of (k, j) pairs.
        Every requested pair is stored, so the result's stored entries are
        precisely the coefficients a consumer of ``domain`` reads.
        """
        mask = domain.mask() if isinstance(domain, IndexDomain) else pairs_mask(domain)
        values = np.zeros(mask.shape)
        rows = min(mask.shape[0], self.values.shape[0])
        cols = min(mask.shape[1], self.values.shape[1])
        np.copyto(values[:rows, :cols], self.values[:rows, :cols], where=mask[:rows, :cols])
        return CoeffField(values, mask)

    def eval_grid(self, t: np.ndarray, tau: np.ndarray) -> np.ndarray:
        """Series values on the tensor grid t x tau, shape (len(t), len(tau)), the
        product of :func:`~legdiff.basis.grid_factors`' pair; one table serves
        both axes when ``tau is t`` and the degrees agree."""
        K, J = self.values.shape
        table_t = eval_phi_table(K - 1, t)
        table_tau = table_t if tau is t and J == K else eval_phi_table(J - 1, tau)
        left, right = grid_factors(table_t, self.values, table_tau, self.zero_corner)
        return left @ right


@dataclass(frozen=True, eq=False)
class BivariateFunction:
    """A function on Q = [-1, 1]^2 given by a vectorized evaluation contract.

    ``value`` must accept broadcastable arrays (t, tau) and return values of
    the same broadcast shape.  ``d22`` optionally provides the exact mixed
    derivative of order (2, 2) under the same contract.  Breakpoints mark
    interior points where smoothness is lost along an axis; quadrature splits
    its panels there.  ``factors`` optionally declares the separable form
    value(t, tau) = scale * ft(t) * gtau(tau), enabling exact one-dimensional
    fast paths in the tensor-product quadratures.  When ``ft`` and ``gtau``
    are one callable and both axes share the quadrature rule and degree, the
    one-dimensional projection is computed once and used for both axes.
    A separable function should declare ``factors``, which take milliseconds:
    without them the projections evaluate it on the whole tensor grid, one
    row block at a time.  :func:`trapezoid_coeffs` at h = 8e-5 and degree 23
    (25,001 nodes per axis, one BLAS thread) then takes 3.4-4.3 s for
    exp(t tau), 5.1-6.0 s for (1 + t tau)^3, 3.8-4.1 s for (t^2 - 0.3) cos(2
    tau), and 24-25 s for F1, whose value evaluates its tau factor over every
    column of each row block; each peaks at 11-13 MiB.
    ``d22_factors`` declares the same separable form for ``d22``;
    :meth:`derivative_function` passes it on as the derivative's ``factors``,
    so the square-mean error measures against the derivative from
    one-dimensional projections (see :func:`legdiff.metrics.l2_error`).

    Equality and hashing go by identity, so any instance can key a cache (the
    error metrics keep their grids per reference object).
    """

    value: Callable[[np.ndarray, np.ndarray], np.ndarray]
    d22: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    t_breakpoints: tuple[float, ...] = ()
    tau_breakpoints: tuple[float, ...] = ()
    factors: tuple[Callable, Callable, float] | None = None
    name: str = ""
    d22_factors: tuple[Callable, Callable, float] | None = None

    def derivative_function(self) -> "BivariateFunction":
        """The exact (2, 2) derivative as a function, when known."""
        if self.d22 is None:
            raise ValueError(f"function {self.name!r} has no known (2,2) derivative")
        return BivariateFunction(
            value=self.d22,
            t_breakpoints=self.t_breakpoints,
            tau_breakpoints=self.tau_breakpoints,
            factors=self.d22_factors,
            name=f"{self.name}_d22" if self.name else "",
        )

    def axis_edges(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """Panel edges per axis: [-1, interior breakpoints, 1]."""
        def edges(breaks: tuple[float, ...]) -> tuple[float, ...]:
            interior = sorted(b for b in breaks if -1.0 < b < 1.0)
            return (-1.0, *interior, 1.0)

        return edges(self.t_breakpoints), edges(self.tau_breakpoints)

    def gauss_rules(self, G: int) -> tuple[QuadratureRule, QuadratureRule]:
        """Composite G-point Gauss rules (t, tau), split at the breakpoints.

        Axes with equal panel edges get one rule object, so callers can share
        work between them by testing ``rule_tau is rule_t``.
        """
        edges_t, edges_tau = self.axis_edges()
        rule_t = composite_gauss_rule(G, edges_t)
        rule_tau = rule_t if edges_tau == edges_t else composite_gauss_rule(G, edges_tau)
        return rule_t, rule_tau


def _check_entries(
    subject: str, rows: int, cols: int, kind: str, error: type[Exception] = ValueError
) -> None:
    """Refuse a rows x cols ``kind`` over :data:`MAX_DENSE_ENTRIES` with ``error``,
    before it is allocated: "<subject> needs a <rows>x<cols> <kind>, over the limit
    of ... entries".  Every dense array the package refuses by size is refused here."""
    if rows * cols > MAX_DENSE_ENTRIES:
        raise error(
            f"{subject} needs a {rows}x{cols} {kind}, "
            f"over the limit of {MAX_DENSE_ENTRIES} entries"
        )


def _gauss_order(G: int, degree: int, slack: int) -> int:
    """max(G, 2 * degree + slack), the Gauss order per panel for a series of
    ``degree``, G an integer floor; ValueError for a G that is no integer or an
    order above degree :data:`_MAX_DEGREE`'s, before any O(G^2) rule is built."""
    _check_integer("G", G)
    order = max(G, 2 * degree + slack)
    limit = 2 * _MAX_DEGREE + slack
    if order > limit:
        raise ValueError(f"quadrature order G={order} per panel is over the limit of {limit}")
    return order


def _check_degrees(k_max: int, j_max: int) -> None:
    """Refuse degree bounds that are no integers, negative, or whose array exceeds the limit."""
    _check_integer("k_max", k_max)
    _check_integer("j_max", j_max)
    if k_max < 0 or j_max < 0:
        raise ValueError("degree bounds must be nonnegative")
    _check_entries(
        f"degree pair ({k_max}, {j_max})", k_max + 1, j_max + 1, "coefficient array"
    )


def _table_chunks(k_max: int, size: int) -> Iterator[slice]:
    """Consecutive chunks of ``size`` nodes whose degree-``k_max`` table holds
    at most :data:`MAX_DENSE_ENTRIES` entries (32 MiB)."""
    chunk = MAX_DENSE_ENTRIES // (k_max + 1)
    for start in range(0, size, chunk):
        yield slice(start, start + chunk)


def _degree_height(size: int) -> int:
    """Rows of a :func:`legendre_blocks` block on ``size`` nodes: the largest
    multiple of 4 whose block, with a folded lone row, holds at most
    :data:`_BLOCK_ENTRIES` entries; 4 past 52,428 nodes, where none does."""
    return max(4, (_BLOCK_ENTRIES // size - 1) // 4 * 4)


def _projection(values: np.ndarray, rule: QuadratureRule, k_max: int) -> np.ndarray:
    """Quadrature projections c_k = sum_i w_i v_i phi_k(t_i) for k = 0..k_max.

    Summed over the nodes of each :func:`_table_chunks` chunk as the product
    of its Legendre table and w v, the table made and multiplied one block of
    :func:`_degree_height` degrees (at most 2 MiB) at a time and never held
    whole; such blocks keep the whole table's bits (see :func:`legendre_blocks`).
    """
    coeffs = np.zeros(k_max + 1, dtype=np.float64)
    part = np.empty(k_max + 1, dtype=np.float64)
    wv = rule.weights * values
    for chunk in _table_chunks(k_max, len(rule)):
        nodes = rule.nodes[chunk]
        for degrees, block in legendre_blocks(k_max, nodes, _degree_height(nodes.size)):
            np.matmul(block, wv[chunk], out=part[degrees])
        del block  # freed before the next chunk's buffer is made
        coeffs += part
    return coeffs


def _series_values(coeffs: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """The one-dimensional series sum_k c_k phi_k at the nodes, one
    :func:`_table_chunks` table at a time: ``coeffs @ table`` when one chunk
    covers the nodes."""
    k_max = coeffs.size - 1
    chunks = _table_chunks(k_max, nodes.size)
    return np.concatenate([coeffs @ legendre_table(k_max, nodes[chunk]) for chunk in chunks])


def _row_blocks(n_rows: int, n_cols: int) -> Iterator[tuple[slice, np.ndarray]]:
    """The row blocks of an n_rows x n_cols grid, as ``(rows, buffer)``: ``buffer``
    has the block's shape and at most :data:`_BLOCK_ENTRIES` entries (or one
    row), and is the same memory for every block."""
    height = max(1, _BLOCK_ENTRIES // n_cols)
    buffer = np.empty((min(height, n_rows), n_cols))
    for start in range(0, n_rows, height):
        rows = slice(start, min(start + height, n_rows))
        yield rows, buffer[: rows.stop - start]


def _factor_projections(
    f: BivariateFunction, rule_t: QuadratureRule, rule_tau: QuadratureRule, k_max: int, j_max: int
) -> tuple[np.ndarray, np.ndarray]:
    """The one-dimensional projections (a, b) of f's declared ``factors``; ``b is a``
    exactly when the axes share the factor, the rule object and the degree."""
    ft, gtau, _ = f.factors
    a = _projection(ft(rule_t.nodes), rule_t, k_max)
    if gtau is ft and rule_tau is rule_t and j_max == k_max:
        return a, a  # the same projection; computing it again gives the same bits
    return a, _projection(gtau(rule_tau.nodes), rule_tau, j_max)


def _axis_tables(
    rule_t: QuadratureRule, rule_tau: QuadratureRule, k_max: int, j_max: int
) -> tuple[np.ndarray, Callable[[slice], np.ndarray]]:
    """tau's Legendre table on all its nodes, and the function giving t's table
    of a row block: a view of tau's where the axes share the rule and the
    degree (the recurrence runs node by node, so a block's table has its bytes)."""
    table_tau = legendre_table(j_max, rule_tau.nodes)
    if rule_tau is rule_t and j_max == k_max:
        return table_tau, lambda rows: table_tau[:, rows]
    return table_tau, lambda rows: legendre_table(k_max, rule_t.nodes[rows])


def _tensor_projection(
    f: BivariateFunction, rule_t: QuadratureRule, rule_tau: QuadratureRule, k_max: int, j_max: int
) -> tuple[np.ndarray, Callable[[], Callable[[slice, np.ndarray], np.ndarray]]]:
    """``(B, grid)``: B the dense coefficients c_{k,j} of the tensor-product
    quadrature of f*phi_k*phi_j, and ``grid()`` the function ``(rows, out)``
    writing B's series values on the rules' grid ``rows`` into ``out``.

    For separable functions the tensor rule factorizes exactly: B is
    ``s outer(a, b)`` of the :func:`_factor_projections`, and its grid the
    rank-1 product of their :func:`_series_values` at the nodes, which
    ``grid()`` makes, so a caller wanting B alone never makes them, and a
    caller measuring makes them before its row buffer.
    Otherwise f is evaluated one :func:`_row_blocks` block at a time (the
    blocks the error metrics measure in, 2**18 entries) and never held whole:
    ``B += T_t(rows) (F W_tau T_tau^T) w_t(rows)``, and B's grid is the
    product of :func:`~legdiff.basis.grid_factors`' dense pair
    ``(T_t(rows)^T B, T_tau)``, both from the rules' :func:`_axis_tables`.
    """
    if f.factors is not None:
        a, b = _factor_projections(f, rule_t, rule_tau, k_max, j_max)
        scale = f.factors[2]
        coeffs = np.outer(a, b)
        coeffs *= scale  # in place: no second array of B's size

        def grid() -> Callable[[slice, np.ndarray], np.ndarray]:
            column = _series_values(a, rule_t.nodes)
            row = column if b is a else _series_values(b, rule_tau.nodes)
            column = scale * column[:, None]  # s a's values as a column, and b's as a row
            return lambda rows, out: np.multiply(column[rows], row, out=out)

        return coeffs, grid
    table_tau, table_t = _axis_tables(rule_t, rule_tau, k_max, j_max)
    t, tau = rule_t.nodes[:, None], rule_tau.nodes[None, :]
    coeffs = np.zeros((k_max + 1, j_max + 1))
    for rows, buffer in _row_blocks(t.size, tau.size):
        # Kept until the next block's values exist: freed first, their memory goes back
        # to the OS and faults in again per block (exp(t tau), N = 25,001: 8.3 s, not 3.6).
        values = f.value(t[rows], tau)
        part = np.multiply(values, rule_tau.weights, out=buffer) @ table_tau.T
        part *= rule_t.weights[rows, None]
        coeffs += table_t(rows) @ part

    def product(rows: slice, out: np.ndarray) -> np.ndarray:
        return np.matmul(*grid_factors(table_t(rows), coeffs, table_tau), out=out)

    return coeffs, lambda: product


def exact_coeffs(
    f: BivariateFunction, k_max: int, j_max: int, G: int | None = None
) -> CoeffField:
    """Reference coefficients via tensor Gauss quadrature per panel.

    The order per panel is max(G, 2 * max(k_max, j_max) + 16), as
    :func:`_gauss_order` gives it: G is an integer floor, and the degree-based
    order, which integrates f*phi_k*phi_j to reference quality, applies when it
    is larger or G is not given.  Degree bounds or a G that are no integers,
    negative bounds, an array over :data:`MAX_DENSE_ENTRIES` and an order
    above 4110 (degree 2047's) raise ValueError, all before any rule is built.
    """
    _check_degrees(k_max, j_max)
    G = _gauss_order(0 if G is None else G, max(k_max, j_max), 16)
    return CoeffField.from_dense(_tensor_projection(f, *f.gauss_rules(G), k_max, j_max)[0])


def _trapezoid_rule(h: float) -> QuadratureRule:
    """Composite trapezoid rule covering [-1, 1] with step h exactly."""
    if not (0.0 < h <= 0.1):
        raise ValueError(f"grid step h={h} must lie in (0, 0.1]")
    if 2.0 / h + 1.0 > MAX_DENSE_ENTRIES:  # before round(), which fails on inf
        raise ValueError(
            f"grid step h={h} needs {2.0 / h + 1.0:.4g} nodes, over the limit of "
            f"{MAX_DENSE_ENTRIES}"
        )
    steps = round(2.0 / h)
    if steps < 1 or abs(steps * h - 2.0) > 1e-9:
        raise ValueError(f"grid step h={h} does not tile [-1, 1] in whole steps")
    nodes = np.linspace(-1.0, 1.0, steps + 1)
    step = 2.0 / steps
    weights = np.full(steps + 1, step, dtype=np.float64)
    weights[0] = weights[-1] = 0.5 * step
    return QuadratureRule(nodes=nodes, weights=weights)


def trapezoid_coeffs(
    f: BivariateFunction, h: float, k_max: int, j_max: int
) -> CoeffField:
    """Coefficients via the composite tensor trapezoid rule with step h.

    The step must tile [-1, 1] into whole intervals of at most
    :data:`MAX_DENSE_ENTRIES` nodes and satisfy h <= 0.1; the degree bounds,
    nonnegative integers, must fit that limit too.  The rule's quadrature
    error is the implicit perturbation of the data.
    """
    _check_degrees(k_max, j_max)
    rule = _trapezoid_rule(h)
    return CoeffField.from_dense(_tensor_projection(f, rule, rule, k_max, j_max)[0])


def smoothness_norm(field: CoeffField, s: float, mu: float) -> float:
    """Mixed-smoothness norm (sum over entries of (kbar*jbar)^(s*mu) |c|^s)^(1/s).

    Here kbar = max(1, k).  The sum runs over the stored entries only, so the
    result is the truncated norm of the represented series.
    """
    _check_s(s)
    if not 0.0 < mu < math.inf:
        raise ValueError(f"mu={mu} must be positive and finite")
    ks, js = np.nonzero(field.values)  # unstored entries are exactly zero
    weight = (np.maximum(ks, 1) * np.maximum(js, 1)).astype(np.float64) ** (s * mu)
    terms = weight * np.abs(field.values[ks, js]) ** s
    return float(np.sum(terms)) ** (1.0 / s)


def save_csv(field: CoeffField, path: str | Path) -> None:
    """Write the field as newline-delimited "k,j,value" rows (17 significant digits).

    Rows come in lexicographic (k, j) order, one UTF-8 line each; a field with
    no stored entries gives an empty file.  They are formatted and written
    :data:`_WRITE_BLOCK` (4096) mask entries at a time, so beside the field
    the process holds a flattened copy of a broadcast mask (one byte per
    entry) and one block's strings (under 1 MiB), whatever the field's size.
    """
    stored = field.stored.reshape(-1)  # a view, or a copy of a broadcast mask
    values = field.values.reshape(-1)
    cols = field.stored.shape[1]
    with open(path, "w", encoding="utf-8") as handle:
        for start in range(0, stored.size, _WRITE_BLOCK):
            flat = np.flatnonzero(stored[start:start + _WRITE_BLOCK]) + start
            ks, js = np.divmod(flat, cols)
            handle.write("".join([
                f"{k},{j},{v:.17g}\n"
                for k, j, v in zip(ks.tolist(), js.tolist(), values[flat].tolist())
            ]))


def load_csv(path: str | Path) -> CoeffField:
    """Read a "k,j,value" coefficient file written by :func:`save_csv`.

    The file is UTF-8, with or without a byte-order mark.  A first line whose
    leading field is not an integer is treated as a header and skipped; blank
    lines are skipped.  Every other line must hold exactly three fields.
    Malformed lines, negative indices, non-finite values and duplicate (k, j)
    indices raise ValueError with the offending line number; so do indices
    whose dense array would exceed :data:`MAX_DENSE_ENTRIES`.
    """
    with open(path, "r", encoding="utf-8-sig") as handle:
        text = handle.read()
    field = _parse_rows(text)
    return field if field is not None else _scan_rows(text)


_CSV_ROW = np.dtype([("k", np.int64), ("j", np.int64), ("v", np.float64)])
# numpy strips these from a field as whitespace; Python's int() and float()
# reject them, so text holding one is left to the scanner.
_ASCII_SEPARATORS = ("\x1c", "\x1d", "\x1e", "\x1f")
# A line after the first that str.strip() empties but that is not empty:
# numpy reads it as a one-field row, the scanner skips it.
_WHITESPACE_LINE = re.compile(r"\n[^\S\n]+(?=\n|\Z)")


def _header_rows(text: str) -> int:
    """1 when line 1 is a header (its first field is not an integer), else 0."""
    try:
        int(text.partition("\n")[0].strip().split(",")[0])
    except ValueError:
        return 1
    return 0


def _parse_rows(text: str) -> CoeffField | None:
    """All rows in one vectorised pass, or None where the pass declines the text.

    It declines whatever it cannot take as is: a parse failure (including
    spellings such as ``1_0`` that :func:`_scan_rows` accepts), an ASCII
    separator character, a negative index, a non-finite value, a duplicate
    index, or no rows.  Indices over the size limit it refuses itself when no
    index repeats, as the scanner would after reading every line.
    """
    if any(separator in text for separator in _ASCII_SEPARATORS):
        return None
    if _header_rows(text):  # drop line 1, keeping its line break
        text = text[len(text.partition("\n")[0]):]
    text = _WHITESPACE_LINE.sub("\n", text)  # as the scanner, skip such lines
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an input without rows warns
            rows = np.loadtxt(
                io.StringIO(text), dtype=_CSV_ROW, delimiter=",", comments=None,
                ndmin=1,
            )
    except (ValueError, Warning):
        return None
    ks, js, vs = rows["k"], rows["j"], rows["v"]
    if ks.min() < 0 or js.min() < 0 or not np.isfinite(vs).all():
        return None
    shape = (int(ks.max()) + 1, int(js.max()) + 1)
    if shape[0] * shape[1] > MAX_DENSE_ENTRIES:
        order = np.lexsort((js, ks))
        if not ((np.diff(ks[order]) == 0) & (np.diff(js[order]) == 0)).any():
            _check_index_range(shape)
        return None  # a duplicate index comes first in line order
    field = _field_from_rows(shape, ks, js, vs)
    return field if len(field) == rows.size else None  # else a duplicate index


def _scan_rows(text: str) -> CoeffField:
    """Line-by-line reader: raises the first error in line order."""
    ks: list[int] = []
    js: list[int] = []
    vs: list[float] = []
    seen: set[tuple[int, int]] = set()
    header_rows = _header_rows(text)
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or lineno <= header_rows:
            continue
        try:
            k_text, j_text, v_text = line.split(",")  # exactly three fields
            k, j, v = int(k_text), int(j_text), float(v_text)
        except ValueError as exc:
            raise ValueError(f"parse error at line {lineno}: {line!r}") from exc
        if k < 0 or j < 0:
            raise ValueError(f"parse error at line {lineno}: negative index")
        if not math.isfinite(v):
            raise ValueError(f"parse error at line {lineno}: non-finite value {v!r}")
        if (k, j) in seen:
            raise ValueError(f"duplicate index ({k},{j}) at line {lineno}")
        seen.add((k, j))
        ks.append(k)
        js.append(j)
        vs.append(v)
    shape = (max(ks, default=0) + 1, max(js, default=0) + 1)
    _check_index_range(shape)
    return _field_from_rows(shape, ks, js, vs)


def _check_index_range(shape: tuple[int, int]) -> None:
    """Refuse a coefficient file whose indices need a dense array over the limit."""
    _check_entries(
        f"index range up to ({shape[0] - 1},{shape[1] - 1})", *shape, "coefficient array"
    )


def _field_from_rows(shape: tuple[int, int], ks, js, vs) -> CoeffField:
    values = np.zeros(shape)
    stored = np.zeros(shape, dtype=bool)
    values[ks, js] = vs
    stored[ks, js] = True
    return CoeffField(values, stored)
