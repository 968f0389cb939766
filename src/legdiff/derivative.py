"""Exact differentiation of Legendre series via the derivative-expansion step.

The derivative of an orthonormal Legendre polynomial expands over lower
degrees of opposite parity:

    phi_k'(t) = 2 sqrt(k + 1/2) * sum_{l < k, k+l odd} sqrt(l + 1/2) phi_l(t).

Applying the induced coefficient map r times per axis turns the coefficients
of a bivariate series into the coefficients of its mixed derivative of order
(r, r), exactly and in closed form.  One step sums each parity class from the
top degree down, so it costs one pass over the coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import _orthonormal_scale

__all__ = [
    "single_step_entry",
    "phi_derivative_coeffs",
    "phi_rr_closed_form",
    "DerivativeExpansion",
]


def single_step_entry(k: int, l: int) -> float:
    """Entry (k -> l) of the single derivative step: the weight of phi_l in phi_k'."""
    if l < k and (k + l) % 2 == 1:
        return 2.0 * math.sqrt(k + 0.5) * math.sqrt(l + 0.5)
    return 0.0


def _step(a: np.ndarray) -> np.ndarray:
    """One derivative step along axis 0 of a 2-D float64 array of degrees 0..K.

    The result holds degrees 0..K-1, b_l = sum_k single_step_entry(k, l) a_k.
    """
    scale = _orthonormal_scale(a.shape[0] - 1)
    weighted = scale[:, None] * a
    # suffix[k] = weighted[k] + weighted[k+2] + ... (suffix sums by parity class)
    suffix = np.empty_like(weighted)
    for parity in (0, 1):
        rows = weighted[parity::2]
        suffix[parity::2] = np.cumsum(rows[::-1], axis=0)[::-1]
    # k > l with k+l odd means k runs over l+1, l+3, ...
    return 2.0 * scale[:-1, None] * suffix[1:]


def phi_derivative_coeffs(k: int, r: int) -> np.ndarray:
    """Coefficients of phi_k^(r) over phi_0..phi_{k-r} (empty when r > k)."""
    if k < 0 or r < 0:
        raise ValueError("k and r must be nonnegative")
    unit = np.zeros(k + 1, dtype=np.float64)
    unit[k] = 1.0
    return DerivativeExpansion(r, k).apply(unit) if r > 0 else unit


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
        """Map coefficients of degrees 0..max_degree to degrees 0..max_degree-r.

        The map acts along axis 0 of a 1-D or 2-D array, each column on its
        own; the result is empty along axis 0 when r > max_degree.  A result
        that is not finite in float64 raises ValueError.
        """
        a = np.ascontiguousarray(a, dtype=np.float64)
        if a.ndim not in (1, 2) or a.shape[0] != self.max_degree + 1:
            raise ValueError(
                f"expected {self.max_degree + 1} coefficients along axis 0 of a "
                f"1-D or 2-D array, got shape {a.shape}"
            )
        out = a if a.ndim == 2 else a[:, None]
        # Each step drops one degree, so after max_degree + 1 steps nothing is left.
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(min(self.r, self.max_degree + 1)):
                out = _step(out)
        if not np.isfinite(out).all():
            raise ValueError(
                f"the order r={self.r} derivative of degree-{self.max_degree} "
                "coefficients is not finite in float64"
            )
        return out if a.ndim == 2 else out[:, 0]

    def matrix(self) -> np.ndarray:
        """Dense (max_degree+1-r) x (max_degree+1) matrix of the r-step map."""
        return self.apply(np.eye(self.max_degree + 1, dtype=np.float64))
