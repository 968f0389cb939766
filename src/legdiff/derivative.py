"""Exact differentiation of Legendre series via the derivative-expansion step.

The derivative of an orthonormal Legendre polynomial expands over lower
degrees of opposite parity:

    phi_k'(t) = 2 sqrt(k + 1/2) * sum_{l < k, k+l odd} sqrt(l + 1/2) phi_l(t).

Applying the induced coefficient map r times per axis turns the coefficients
of a bivariate series into the coefficients of its mixed derivative of order
(r, r), exactly and in closed form.  One step sums each parity class from the
top degree down, so it costs one pass over the coefficients.

That pass is one ``cumsum``.  Taken from the top degree down, the rows pair
up as an array of shape (rows/2, 2, cols), and a cumsum along its first axis
sums each class in the order one cumsum per class would, so the floats are
the same.  An odd row count gets one pad row above the top degree, added
first in its class.  The pad is -0.0, the additive identity of every float:
x + -0.0 is x for every x, where +0.0 + -0.0 is +0.0, so a +0.0 pad would turn
a class that starts with -0.0 into +0.0, which ``np.array_equal`` does not
see.  A map call makes the two scale columns its steps multiply by once.

On both axes the map covers the array with two blocks outside a zero corner
``values[a:, b:]``, every entry zero: on a hyperbolic-cross array a, b are
about sqrt(r n) (:meth:`IndexDomain.zero_corner`); without one, as on the
box, a = b = side.  :meth:`DerivativeExpansion.apply_both` derives two
blocks along the first axis, the left block ``values[:, :b]`` (every row)
and the top block ``values[:a, b:]``.  Along the second axis it derives the
top a - r rows of that result, full width, and the remaining rows of the
left block, and writes both into one zero-filled output.  At n = 300 the
steps see 54,602 entries instead of 358,202.

The result is the dense map's, bit for bit.  Below a column's last nonzero
the dense cumsum adds only exact zeros, so starting it at the block's edge
gives the same floats.  The one exception is the sign of a zero: an input
-0.0 at a block edge can turn an exactly-zero result entry from +0.0 into
-0.0, or back.  The box has no block edge, so it keeps every byte.

The map never reads the corner, which the method's pipeline
(:func:`legdiff.method._derive`) zero-filled itself.  Finiteness is checked
on each region the map writes, never on the zero fill.

Every step acts on the last two axes, degree along axis -2, and any leading
axes are a stack of independent arrays: the method's pipeline derives a
chunk of seeds in one map call, and the one field :func:`legdiff.method.run`
takes as a stack of one.  The cumsum runs along the degree axis and the
scale multiplies act entry by entry, so a leading axis regroups no sum, and
each array of a stack gets the bytes it gets alone.  A 2-D array is a stack
of none.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import _orthonormal_scale
from .index import _check_integer, _check_order

__all__ = ["phi_derivative_coeffs", "DerivativeExpansion"]


def _step(a: np.ndarray, columns: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """One derivative step along axis -2 of a float64 array of degrees 0..K, K >= 0.

    The result holds degrees 0..K-1 along that axis,
    b_l = 2 sqrt(l + 1/2) * sum_{k > l, k+l odd} sqrt(k + 1/2) a_k,
    for each column of each array of the stack the leading axes index.
    ``columns`` are a map call's scale columns sqrt(k + 1/2) and 2 sqrt(k + 1/2)
    over its degrees, of which the step reads the first K + 1 and K rows.
    """
    *stack, rows, cols = a.shape
    scale, twice = columns
    half = (rows + 1) // 2
    # suffix[k] = weighted[k] + weighted[k+2] + ..., summed from the top
    # degree down: one cumsum down the rows taken in pairs from the top.  An
    # odd count gets a top pad row of -0.0 (see the module docstring).
    suffix = np.empty((*stack, 2 * half, cols))
    if rows % 2:
        suffix[..., rows, :] = -0.0
    np.multiply(scale[:rows], a, out=suffix[..., :rows, :])
    # a view: the rows top down (no -1 in the shape, which fails for 0 columns)
    pairs = suffix.reshape(*stack, half, 2, cols)[..., ::-1, ::-1, :]
    np.cumsum(pairs, axis=-3, out=pairs)
    # k > l with k+l odd means k runs over l+1, l+3, ...
    return twice[: rows - 1] * suffix[..., 1:rows, :]


def _steps(a: np.ndarray, r: int, columns: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """r derivative steps along axis -2 of an array of 2 or more axes, unchecked.

    Each step drops one degree, so after a.shape[-2] steps nothing is left.
    Pass ``a`` positionally: a ``*`` tuple would keep it alive past the first step.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(min(r, a.shape[-2])):
            a = _step(a, columns)
    return a


def phi_derivative_coeffs(k: int, r: int) -> np.ndarray:
    """Coefficients of phi_k^(r) over phi_0..phi_{k-r} (empty when r > k)."""
    _check_integer("k", k)
    _check_integer("r", r)
    if k < 0 or r < 0:
        raise ValueError("k and r must be nonnegative")
    unit = np.zeros(k + 1, dtype=np.float64)
    unit[k] = 1.0
    return DerivativeExpansion(r, k).apply(unit) if r > 0 else unit


@dataclass(frozen=True)
class DerivativeExpansion:
    """The linear map taking degree-<=K coefficients to their r-th derivative's.

    The single step is strictly lower triangular in degree and obeys the
    parity rule: entry (k -> l) is nonzero only for l < k with k + l odd.
    """

    r: int
    max_degree: int

    def __post_init__(self) -> None:
        _check_order(self.r)
        _check_integer("max_degree", self.max_degree)
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
        scale = _orthonormal_scale(self.max_degree)[:, None]
        out = self._checked(_steps(a if a.ndim == 2 else a[:, None], self.r, (scale, 2.0 * scale[:-1])))
        return out if a.ndim == 2 else out[:, 0]

    def apply_both(self, values: np.ndarray, corner: tuple[int, int] | None = None) -> np.ndarray:
        """The map on both trailing axes of square arrays, ``S_r values S_r^T``.

        ``values`` has shape (..., max_degree + 1, max_degree + 1); each array
        the leading axes index is mapped on its own, bit for bit as alone.
        The result is a fresh C-contiguous array of shape
        (..., max_degree + 1 - r, max_degree + 1 - r), empty when r exceeds
        max_degree.

        ``corner`` (a, b) is a zero corner ``values[..., a:, b:]`` the caller
        zero-filled itself, as :func:`legdiff.method._derive` does; the map never
        reads it (see the module docstring), and the result is the dense
        map's bit for bit, up to the sign of exact zeros.  A corner without
        r < a, b <= max_degree raises ValueError; None, the box's cover
        a = b = max_degree + 1, maps the whole array.  Each region the map
        writes, the first axis's blocks among them, is checked to be finite,
        or ValueError names max_degree; the rest is the zero fill.
        """
        r, side = self.r, self.max_degree + 1
        values = np.asarray(values, dtype=np.float64)
        if values.shape[-2:] != (side, side):
            raise ValueError(
                f"expected a {side} x {side} array on the last two axes, got shape {values.shape}"
            )
        a, b = (side, side) if corner is None else corner
        if corner is not None and not (r < a < side and r < b < side):
            raise ValueError(
                f"{corner} is not a zero corner of a {side} x {side} array "
                f"for a derivative of order {r}"
            )
        scale = _orthonormal_scale(self.max_degree)[:, None]
        columns = (scale, 2.0 * scale[:-1])
        left = self._checked(_steps(values[..., :b], r, columns))
        top = self._checked(_steps(values[..., :a, b:], r, columns))
        rows = max(side - r, 0)
        out = np.zeros((*values.shape[:-2], rows, rows))
        # The second axis steps the top a - r rows of both blocks, full width,
        # then the rest of the left block, each a temporary freed as it is written.
        out[..., : a - r, :] = self._checked(
            _steps(np.concatenate((left[..., : a - r, :], top), axis=-1).swapaxes(-1, -2), r, columns)
        ).swapaxes(-1, -2)
        out[..., a - r :, : b - r] = self._checked(
            _steps(left[..., a - r :, :].swapaxes(-1, -2), r, columns)
        ).swapaxes(-1, -2)
        return out

    def _checked(self, out: np.ndarray) -> np.ndarray:
        """``out``, or ValueError if it is not finite in float64."""
        if not np.isfinite(out).all():
            raise ValueError(
                f"the order r={self.r} derivative of degree-{self.max_degree} "
                "coefficients is not finite in float64"
            )
        return out

    def matrix(self) -> np.ndarray:
        """Dense (max_degree+1-r) x (max_degree+1) matrix of the r-step map."""
        return self.apply(np.eye(self.max_degree + 1, dtype=np.float64))
