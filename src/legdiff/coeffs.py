"""Fourier-Legendre coefficient fields of bivariate functions on [-1, 1]^2.

A coefficient field is an array (k, j) -> <f, phi_k phi_j> with a mask of
stored entries; entries not stored are exactly zero.  Fields are produced
either by high-order Gauss quadrature ("exact" reference coefficients) or by
the composite trapezoid rule on a uniform grid, whose quadrature error acts
as data noise.
"""

from __future__ import annotations

import io
import math
import re
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from .basis import QuadratureRule, composite_gauss_rule, eval_phi_table, legendre_table
from .index import IndexDomain, pairs_mask

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

_EVAL_CHUNK_ROWS = 256

# Largest dense coefficient array a run or a coefficient file may need, in
# float64 entries: 2**22 entries is 32 MiB, and a run holds a few arrays of
# that size (error metrics on a reference with interior breakpoints evaluate
# a grid just over 16 times the limit: 8196 x 8196, 16.02 times, for F1 at
# n = 2048).  The cross fits up to n = 2048 and the box up
# to n = 2047; with p = s and mu >= 4.6 the rule exceeds that only for
# delta < 1e-15.  Larger sizes are rejected before anything is allocated.
MAX_DENSE_ENTRIES = 2**22

#: Side of the largest square array within MAX_DENSE_ENTRIES (2048).
_MAX_SIDE = math.isqrt(MAX_DENSE_ENTRIES)

#: The Gauss order per panel :func:`exact_coeffs` gives degree _MAX_SIDE - 1
#: (4110); a larger order is refused before its O(G^2) rule is built.
_MAX_GAUSS_ORDER = 2 * (_MAX_SIDE - 1) + 16


def _read_only(array: np.ndarray) -> np.ndarray:
    """A read-only view of ``array``; the data is not copied."""
    view = array.view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True, eq=False)
class CoeffField:
    """Coefficient array with a stored-entry mask, (k, j) -> <f, phi_k phi_j>.

    ``values`` (float64) and ``stored`` (bool) are read-only arrays of the
    same shape (k_max + 1, j_max + 1); entries that are not stored are
    exactly zero.  The row-major order of ``stored`` is the lexicographic
    (k, j) order, the canonical one for anything consuming entries
    sequentially (noise draws, CSV rows).
    """

    values: np.ndarray
    stored: np.ndarray

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

    @property
    def k_max(self) -> int:
        return self.values.shape[0] - 1

    @property
    def j_max(self) -> int:
        return self.values.shape[1] - 1

    @classmethod
    def from_dense(cls, array: np.ndarray) -> "CoeffField":
        """Field storing every entry of a dense coefficient array.

        A C-contiguous float64 array is wrapped, not copied, so it must not be
        modified afterwards.
        """
        array = np.asarray(array, dtype=np.float64)
        return cls(array, np.broadcast_to(np.True_, array.shape))

    def items_sorted(self) -> list[tuple[tuple[int, int], float]]:
        """Stored entries in lexicographic (k, j) order."""
        ks, js = np.nonzero(self.stored)
        return list(zip(zip(ks.tolist(), js.tolist()), self.values[ks, js].tolist()))

    def __len__(self) -> int:
        return int(np.count_nonzero(self.stored))

    def restrict(self, domain) -> "CoeffField":
        """Field storing exactly the pairs of ``domain`` (missing values become 0.0).

        ``domain`` is an :class:`IndexDomain` or an iterable of (k, j) pairs.
        Every requested pair is stored, so the result's stored entries are
        precisely the coefficients a consumer of ``domain`` reads.
        """
        mask = domain.mask() if isinstance(domain, IndexDomain) else pairs_mask(domain)
        return CoeffField(self._masked_into(mask, np.zeros(mask.shape)), mask)

    def _masked_into(self, mask: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``out``, zero-filled and of ``mask``'s shape, with the entries at ``mask`` written in.

        The values :meth:`restrict` stores; :func:`legdiff.method.run_many`
        writes them into its stack of fields this way.
        """
        rows = min(mask.shape[0], self.values.shape[0])
        cols = min(mask.shape[1], self.values.shape[1])
        np.copyto(out[:rows, :cols], self.values[:rows, :cols], where=mask[:rows, :cols])
        return out


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


def _check_degrees(k_max: int, j_max: int) -> None:
    """Refuse degree bounds that are negative or whose array exceeds the limit."""
    if k_max < 0 or j_max < 0:
        raise ValueError("degree bounds must be nonnegative")
    if (k_max + 1) * (j_max + 1) > MAX_DENSE_ENTRIES:
        raise ValueError(
            f"degrees ({k_max}, {j_max}) need a {k_max + 1}x{j_max + 1} coefficient "
            f"array, over the limit of {MAX_DENSE_ENTRIES} entries"
        )


def _table_chunks(k_max: int, size: int) -> Iterator[slice]:
    """Consecutive chunks of ``size`` nodes whose degree-``k_max`` table holds
    at most :data:`MAX_DENSE_ENTRIES` entries (32 MiB)."""
    chunk = MAX_DENSE_ENTRIES // (k_max + 1)
    for start in range(0, size, chunk):
        yield slice(start, start + chunk)


def _projection(values: np.ndarray, rule: QuadratureRule, k_max: int) -> np.ndarray:
    """Quadrature projections c_k = sum_i w_i v_i phi_k(t_i) for k = 0..k_max,
    one :func:`_table_chunks` table at a time."""
    coeffs = np.zeros(k_max + 1, dtype=np.float64)
    wv = rule.weights * values
    for chunk in _table_chunks(k_max, len(rule)):
        coeffs += legendre_table(k_max, rule.nodes[chunk]) @ wv[chunk]
    return coeffs


def _series_values(coeffs: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """The one-dimensional series sum_k c_k phi_k at the nodes, one
    :func:`_table_chunks` table at a time: ``coeffs @ table`` when one chunk
    covers the nodes."""
    k_max = coeffs.size - 1
    chunks = _table_chunks(k_max, nodes.size)
    return np.concatenate([coeffs @ legendre_table(k_max, nodes[chunk]) for chunk in chunks])


def _tensor_projection(
    f: BivariateFunction,
    rule_t: QuadratureRule,
    rule_tau: QuadratureRule,
    k_max: int,
    j_max: int,
) -> np.ndarray:
    """Dense coefficients c_{k,j} of the tensor-product quadrature of f*phi_k*phi_j.

    For separable functions the tensor rule factorizes exactly into the product
    of one-dimensional projections; otherwise the full grid is traversed in
    row chunks, each with its own part of the t-axis table, so the tau-axis
    table is the only one held for every node.
    """
    if f.factors is not None:
        ft, gtau, scale = f.factors
        a = _projection(ft(rule_t.nodes), rule_t, k_max)
        if gtau is ft and rule_tau is rule_t and j_max == k_max:
            b = a  # the same projection; computing it again gives the same bits
        else:
            b = _projection(gtau(rule_tau.nodes), rule_tau, j_max)
        return scale * np.outer(a, b)
    table_tau = eval_phi_table(j_max, rule_tau.nodes) * rule_tau.weights[None, :]
    coeffs = np.zeros((k_max + 1, j_max + 1), dtype=np.float64)
    for start in range(0, rule_t.nodes.size, _EVAL_CHUNK_ROWS):
        rows = slice(start, start + _EVAL_CHUNK_ROWS)
        table_t = eval_phi_table(k_max, rule_t.nodes[rows]) * rule_t.weights[rows]
        block = f.value(rule_t.nodes[rows, None], rule_tau.nodes[None, :])
        coeffs += table_t @ block @ table_tau.T
    return coeffs


def exact_coeffs(
    f: BivariateFunction, k_max: int, j_max: int, G: int | None = None
) -> CoeffField:
    """Reference coefficients via tensor Gauss quadrature per panel.

    The order per panel is max(G, 2 * max(k_max, j_max) + 16): G is a floor,
    and the degree-based order, which integrates the products f*phi_k*phi_j
    to reference quality, applies when it is larger or G is not given.  An
    order above 4110 (the degree rule's at degree 2047) or a coefficient
    array over :data:`MAX_DENSE_ENTRIES` raises ValueError.
    """
    _check_degrees(k_max, j_max)
    floor = 2 * max(k_max, j_max) + 16
    G = floor if G is None else max(G, floor)
    if G > _MAX_GAUSS_ORDER:
        raise ValueError(
            f"quadrature order G={G} per panel is over the limit of {_MAX_GAUSS_ORDER}"
        )
    return CoeffField.from_dense(_tensor_projection(f, *f.gauss_rules(G), k_max, j_max))


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
    :data:`MAX_DENSE_ENTRIES` nodes and satisfy h <= 0.1; the coefficient
    array must fit that limit too.  The rule's quadrature error is the
    implicit perturbation of the data.
    """
    _check_degrees(k_max, j_max)
    rule = _trapezoid_rule(h)
    return CoeffField.from_dense(_tensor_projection(f, rule, rule, k_max, j_max))


def smoothness_norm(field: CoeffField, s: float, mu: float) -> float:
    """Mixed-smoothness norm (sum over entries of (kbar*jbar)^(s*mu) |c|^s)^(1/s).

    Here kbar = max(1, k).  The sum runs over the stored entries only, so the
    result is the truncated norm of the represented series.
    """
    if not 1.0 <= s < math.inf:
        raise ValueError(f"s={s} must satisfy 1 <= s < inf")
    if not 0.0 < mu < math.inf:
        raise ValueError(f"mu={mu} must be positive and finite")
    ks, js = np.nonzero(field.values)  # unstored entries are exactly zero
    weight = (np.maximum(ks, 1) * np.maximum(js, 1)).astype(np.float64) ** (s * mu)
    terms = weight * np.abs(field.values[ks, js]) ** s
    return float(np.sum(terms)) ** (1.0 / s)


def save_csv(field: CoeffField, path: str | Path) -> None:
    """Write the field as newline-delimited "k,j,value" rows (17 significant digits)."""
    lines = [f"{k},{j},{format(v, '.17g')}" for (k, j), v in field.items_sorted()]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


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
    separator character, a negative index, a non-finite value, an oversized
    or duplicate index, or no rows.
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
        return None
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
    if shape[0] * shape[1] > MAX_DENSE_ENTRIES:
        raise ValueError(
            f"indices up to ({shape[0] - 1},{shape[1] - 1}) need a "
            f"{shape[0]}x{shape[1]} coefficient array, over the limit of "
            f"{MAX_DENSE_ENTRIES} entries"
        )
    return _field_from_rows(shape, ks, js, vs)


def _field_from_rows(shape: tuple[int, int], ks, js, vs) -> CoeffField:
    values = np.zeros(shape)
    stored = np.zeros(shape, dtype=bool)
    values[ks, js] = vs
    stored[ks, js] = True
    return CoeffField(values, stored)
