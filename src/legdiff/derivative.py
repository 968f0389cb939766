"""Exact differentiation of Legendre series via the derivative-expansion step.

The derivative of an orthonormal Legendre polynomial expands over lower
degrees of opposite parity:

    phi_k'(t) = 2 sqrt(k + 1/2) * sum_{l < k, k+l odd} sqrt(l + 1/2) phi_l(t).

Applying the induced coefficient map r times per axis turns the coefficients
of a bivariate series into the coefficients of its mixed derivative of order
(r, r), exactly and in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import mueller_step_matrix
from .coeffs import CoeffField

__all__ = [
    "single_step_entry",
    "mueller_step",
    "differentiate_axis",
    "phi_derivative_coeffs",
    "phi_rr_closed_form",
    "DerivativeExpansion",
]


def single_step_entry(k: int, l: int) -> float:
    """Entry (k -> l) of the single derivative step: the weight of phi_l in phi_k'."""
    if l < k and (k + l) % 2 == 1:
        return 2.0 * math.sqrt(k + 0.5) * math.sqrt(l + 0.5)
    return 0.0


def mueller_step(a: np.ndarray) -> np.ndarray:
    """Coefficients of the derivative of sum_k a_k phi_k.

    Input covers degrees 0..K; output covers degrees 0..K-1.  Degree K must be
    at least 1 unless the input is identically zero (a constant differentiates
    to the empty series).
    """
    a = np.ascontiguousarray(a, dtype=np.float64)
    if a.ndim != 1:
        raise ValueError("coefficient input must be 1-D")
    if a.size <= 1:
        if a.size == 0 or np.any(a != 0.0):
            raise ValueError("cannot differentiate: input has no degree-1 content")
        return np.zeros(0, dtype=np.float64)
    return mueller_step_matrix(a[:, None])[:, 0]


def _apply_steps(matrix: np.ndarray, r: int) -> np.ndarray:
    """Apply r derivative steps along axis 0 of a dense coefficient matrix."""
    out = matrix
    for _ in range(r):
        if out.shape[0] <= 1:
            return np.zeros((0, out.shape[1]), dtype=np.float64)
        out = mueller_step_matrix(out)
    return out


def differentiate_axis(field: CoeffField, axis: str, r: int) -> CoeffField:
    """Differentiate a coefficient field r times along one axis.

    ``axis`` is ``"t"`` (first index) or ``"tau"`` (second index).  Degrees
    along the chosen axis shrink by r; the result is exact.
    """
    if r < 1:
        raise ValueError("derivative order r must be >= 1")
    if axis not in ("t", "tau"):
        raise ValueError(f"axis must be 't' or 'tau', got {axis!r}")
    if axis == "t":
        result = _apply_steps(field.values, r)
    else:
        result = _apply_steps(field.values.T, r).T
    if result.size == 0:
        return CoeffField.empty()
    return CoeffField.from_dense(result)


def phi_derivative_coeffs(k: int, r: int) -> np.ndarray:
    """Coefficients of phi_k^(r) over phi_0..phi_{k-r} (empty when r > k)."""
    if k < 0 or r < 0:
        raise ValueError("k and r must be nonnegative")
    unit = np.zeros(k + 1, dtype=np.float64)
    unit[k] = 1.0
    return _apply_steps(unit[:, None], r)[:, 0] if r > 0 else unit


def phi_rr_closed_form(r: int) -> float:
    """The constant value of phi_r^(r) as a multiple of phi_0.

    phi_r^(r)(t) = sqrt(r + 1/2) * 2^(1/2 - r) * (2r)!/r! * phi_0(t).
    """
    if r < 0:
        raise ValueError("r must be nonnegative")
    if r == 0:
        return 1.0
    return math.sqrt(r + 0.5) * 2.0 ** (0.5 - r) * math.factorial(2 * r) / math.factorial(r)


@dataclass(frozen=True)
class DerivativeExpansion:
    """The linear map taking degree-<=K coefficients to their r-th derivative's.

    The single step is strictly lower triangular in degree and obeys the
    parity rule: entry (k -> l) is nonzero only for l < k with k + l odd.
    """

    r: int
    max_degree: int

    def __post_init__(self) -> None:
        if self.r < 1:
            raise ValueError("derivative order r must be >= 1")
        if self.max_degree < 0:
            raise ValueError("max_degree must be nonnegative")

    def apply(self, a: np.ndarray) -> np.ndarray:
        """Map coefficients of degrees 0..max_degree to degrees 0..max_degree-r."""
        a = np.ascontiguousarray(a, dtype=np.float64)
        if a.shape != (self.max_degree + 1,):
            raise ValueError(
                f"expected {self.max_degree + 1} coefficients, got {a.shape}"
            )
        return _apply_steps(a[:, None], self.r)[:, 0]

    def matrix(self) -> np.ndarray:
        """Dense (max_degree+1-r) x (max_degree+1) matrix of the r-step map."""
        eye = np.eye(self.max_degree + 1, dtype=np.float64)
        return _apply_steps(eye, self.r)
