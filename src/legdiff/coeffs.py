"""Fourier-Legendre coefficient fields of bivariate functions on [-1, 1]^2.

A coefficient field is a sparse map (k, j) -> <f, phi_k phi_j>; missing
entries are exactly zero.  Fields are produced either by high-order Gauss
quadrature ("exact" reference coefficients) or by the composite trapezoid
rule on a uniform grid, whose quadrature error acts as data noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from ._kernels import weighted_projection
from .basis import QuadratureRule, composite_gauss_rule, eval_phi_table

__all__ = [
    "CoeffField",
    "BivariateFunction",
    "exact_coeffs",
    "trapezoid_coeffs",
    "smoothness_norm",
    "save_csv",
    "load_csv",
]

_EVAL_CHUNK_ROWS = 256


@dataclass(frozen=True)
class CoeffField:
    """Sparse map (k, j) -> coefficient value with degree bounds.

    ``entries`` is treated as immutable after construction.  Iteration via
    :meth:`items_sorted` is always in lexicographic (k, j) order; that order
    is the canonical one for anything consuming entries sequentially (for
    example, noise draws).
    """

    entries: dict[tuple[int, int], float]
    k_max: int
    j_max: int

    def __post_init__(self) -> None:
        if self.k_max < 0 or self.j_max < 0:
            raise ValueError("degree bounds must be nonnegative")
        for (k, j) in self.entries:
            if not (0 <= k <= self.k_max and 0 <= j <= self.j_max):
                raise ValueError(
                    f"entry {(k, j)} outside bounds "
                    f"[0, {self.k_max}] x [0, {self.j_max}]"
                )

    @classmethod
    def empty(cls) -> "CoeffField":
        return cls(entries={}, k_max=0, j_max=0)

    @classmethod
    def from_entries(cls, entries: dict[tuple[int, int], float]) -> "CoeffField":
        """Field with bounds inferred from the entry indices."""
        if not entries:
            return cls.empty()
        k_max = max(k for k, _ in entries)
        j_max = max(j for _, j in entries)
        return cls(entries=dict(entries), k_max=k_max, j_max=j_max)

    @classmethod
    def from_dense(cls, array: np.ndarray) -> "CoeffField":
        """Field materializing every entry of a dense coefficient array."""
        array = np.asarray(array, dtype=np.float64)
        if array.ndim != 2 or array.size == 0:
            raise ValueError("dense coefficient array must be 2-D and nonempty")
        entries = {
            (k, j): float(array[k, j])
            for k in range(array.shape[0])
            for j in range(array.shape[1])
        }
        return cls(entries=entries, k_max=array.shape[0] - 1, j_max=array.shape[1] - 1)

    def value(self, k: int, j: int) -> float:
        """Stored value at (k, j); missing entries are exactly zero."""
        return self.entries.get((k, j), 0.0)

    def items_sorted(self) -> list[tuple[tuple[int, int], float]]:
        """Entries in lexicographic (k, j) order."""
        return sorted(self.entries.items())

    def __len__(self) -> int:
        return len(self.entries)

    def restrict(self, pairs) -> "CoeffField":
        """Field holding exactly the requested pairs (missing values become 0.0).

        Every requested pair is materialized, so the result's stored entries
        are precisely the coefficients a consumer of ``pairs`` reads.
        """
        pairs = list(pairs)
        if not pairs:
            return CoeffField.empty()
        entries = {(k, j): self.value(k, j) for k, j in pairs}
        return CoeffField.from_entries(entries)

    def to_dense(self) -> np.ndarray:
        """Dense (k_max+1, j_max+1) array of the field."""
        out = np.zeros((self.k_max + 1, self.j_max + 1), dtype=np.float64)
        for (k, j), v in self.entries.items():
            out[k, j] = v
        return out


@dataclass(frozen=True)
class BivariateFunction:
    """A function on Q = [-1, 1]^2 given by a vectorized evaluation contract.

    ``value`` must accept broadcastable arrays (t, tau) and return values of
    the same broadcast shape.  ``d22`` optionally provides the exact mixed
    derivative of order (2, 2) under the same contract.  Breakpoints mark
    interior points where smoothness is lost along an axis; quadrature splits
    its panels there.  ``factors`` optionally declares the separable form
    value(t, tau) = scale * ft(t) * gtau(tau), enabling exact one-dimensional
    fast paths in the tensor-product quadratures.
    """

    value: Callable[[np.ndarray, np.ndarray], np.ndarray]
    d22: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    t_breakpoints: tuple[float, ...] = ()
    tau_breakpoints: tuple[float, ...] = ()
    factors: tuple[Callable, Callable, float] | None = None
    name: str = ""

    def derivative_function(self) -> "BivariateFunction":
        """The exact (2, 2) derivative as a function, when known."""
        if self.d22 is None:
            raise ValueError(f"function {self.name!r} has no known (2,2) derivative")
        return BivariateFunction(
            value=self.d22,
            t_breakpoints=self.t_breakpoints,
            tau_breakpoints=self.tau_breakpoints,
            name=f"{self.name}_d22" if self.name else "",
        )

    def axis_edges(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """Panel edges per axis: [-1, interior breakpoints, 1]."""
        def edges(breaks: tuple[float, ...]) -> tuple[float, ...]:
            interior = sorted(b for b in breaks if -1.0 < b < 1.0)
            return (-1.0, *interior, 1.0)

        return edges(self.t_breakpoints), edges(self.tau_breakpoints)


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
    row chunks.
    """
    if f.factors is not None:
        ft, gtau, scale = f.factors
        a = weighted_projection(
            ft(rule_t.nodes), rule_t.weights, rule_t.nodes, k_max
        )
        b = weighted_projection(
            gtau(rule_tau.nodes), rule_tau.weights, rule_tau.nodes, j_max
        )
        return scale * np.outer(a, b)
    table_t = eval_phi_table(k_max, rule_t.nodes) * rule_t.weights[None, :]
    table_tau = eval_phi_table(j_max, rule_tau.nodes) * rule_tau.weights[None, :]
    coeffs = np.zeros((k_max + 1, j_max + 1), dtype=np.float64)
    for start in range(0, rule_t.nodes.size, _EVAL_CHUNK_ROWS):
        stop = start + _EVAL_CHUNK_ROWS
        block = f.value(rule_t.nodes[start:stop, None], rule_tau.nodes[None, :])
        coeffs += table_t[:, start:stop] @ block @ table_tau.T
    return coeffs


def exact_coeffs(
    f: BivariateFunction, k_max: int, j_max: int, G: int
) -> CoeffField:
    """Reference coefficients via tensor Gauss quadrature of order G per panel.

    Requires G >= max(k_max, j_max) + 1 so products f*phi_k*phi_j are
    integrated without aliasing; G >= 2*max degree + 16 is recommended for
    reference-quality values.
    """
    if k_max < 0 or j_max < 0:
        raise ValueError("degree bounds must be nonnegative")
    if G < max(k_max, j_max) + 1:
        raise ValueError(
            f"quadrature order G={G} too small for degrees "
            f"({k_max}, {j_max}); need G >= {max(k_max, j_max) + 1}"
        )
    edges_t, edges_tau = f.axis_edges()
    rule_t = composite_gauss_rule(G, edges_t)
    rule_tau = composite_gauss_rule(G, edges_tau)
    return CoeffField.from_dense(
        _tensor_projection(f, rule_t, rule_tau, k_max, j_max)
    )


def _trapezoid_rule(h: float) -> QuadratureRule:
    """Composite trapezoid rule covering [-1, 1] with step h exactly."""
    if not (0.0 < h <= 0.1):
        raise ValueError(f"grid step h={h} must lie in (0, 0.1]")
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

    The step must tile [-1, 1] into whole intervals and satisfy h <= 0.1.
    The rule's quadrature error is the implicit perturbation of the data.
    """
    if k_max < 0 or j_max < 0:
        raise ValueError("degree bounds must be nonnegative")
    rule = _trapezoid_rule(h)
    return CoeffField.from_dense(_tensor_projection(f, rule, rule, k_max, j_max))


def smoothness_norm(field: CoeffField, s: float, mu: float) -> float:
    """Mixed-smoothness norm (sum over entries of (kbar*jbar)^(s*mu) |c|^s)^(1/s).

    Here kbar = max(1, k).  The sum runs over the stored entries only, so the
    result is the truncated norm of the represented series.
    """
    if s < 1.0:
        raise ValueError("s must be >= 1")
    if mu <= 0.0:
        raise ValueError("mu must be positive")
    total = 0.0
    for (k, j), v in field.entries.items():
        if v == 0.0:
            continue
        kbar = max(1, k)
        jbar = max(1, j)
        total += (kbar * jbar) ** (s * mu) * abs(v) ** s
    return total ** (1.0 / s)


def save_csv(field: CoeffField, path: str | Path) -> None:
    """Write the field as newline-delimited "k,j,value" rows (17 significant digits)."""
    lines = [
        f"{k},{j},{format(v, '.17g')}" for (k, j), v in field.items_sorted()
    ]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def load_csv(path: str | Path) -> CoeffField:
    """Read a "k,j,value" coefficient file written by :func:`save_csv`.

    A first line whose leading field is non-numeric is treated as a header and
    skipped.  Malformed lines, non-finite values and duplicate (k, j) indices
    raise ValueError with the offending line number.
    """
    entries: dict[tuple[int, int], float] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line:
                continue
            parts = line.split(",")
            if lineno == 1:
                try:
                    int(parts[0])
                except ValueError:
                    continue  # header line
            try:
                k, j, v = int(parts[0]), int(parts[1]), float(parts[2])
            except (ValueError, IndexError) as exc:
                raise ValueError(f"parse error at line {lineno}: {line!r}") from exc
            if k < 0 or j < 0:
                raise ValueError(f"parse error at line {lineno}: negative index")
            if not math.isfinite(v):
                raise ValueError(f"parse error at line {lineno}: non-finite value {v!r}")
            if (k, j) in entries:
                raise ValueError(f"duplicate index ({k},{j}) at line {lineno}")
            entries[(k, j)] = v
    return CoeffField.from_entries(entries)
