"""NumPy kernels for the orthonormal Legendre basis.

All kernels work with the orthonormal Legendre polynomials
phi_k(t) = sqrt(k + 1/2) * P_k(t), built from the stable three-term recurrence
P_{k+1}(t) = ((2k+1) t P_k(t) - k P_{k-1}(t)) / (k+1).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "legendre_table",
    "weighted_projection",
    "mueller_step_matrix",
    "grid_product",
    "series_eval_grid",
    "series_eval_points",
]

_PROJECTION_CHUNK = 65536


def _orthonormal_scale(k_max: int) -> np.ndarray:
    """Row scaling sqrt(k + 1/2) turning P_k values into phi_k values."""
    return np.sqrt(np.arange(k_max + 1, dtype=np.float64) + 0.5)


def legendre_table(k_max: int, t: np.ndarray) -> np.ndarray:
    """Values phi_k(t_i) for k = 0..k_max, shape (k_max+1, t.size)."""
    t = np.ascontiguousarray(t, dtype=np.float64)
    table = np.empty((k_max + 1, t.size), dtype=np.float64)
    table[0] = 1.0
    if k_max >= 1:
        table[1] = t
    for k in range(1, k_max):
        table[k + 1] = ((2 * k + 1) * t * table[k] - k * table[k - 1]) / (k + 1)
    table *= _orthonormal_scale(k_max)[:, None]
    return table


def weighted_projection(
    values: np.ndarray, weights: np.ndarray, t: np.ndarray, k_max: int
) -> np.ndarray:
    """Quadrature projections c_k = sum_i w_i v_i phi_k(t_i) for k = 0..k_max."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    weights = np.ascontiguousarray(weights, dtype=np.float64)
    t = np.ascontiguousarray(t, dtype=np.float64)
    coeffs = np.zeros(k_max + 1, dtype=np.float64)
    wv = weights * values
    for start in range(0, t.size, _PROJECTION_CHUNK):
        stop = start + _PROJECTION_CHUNK
        coeffs += legendre_table(k_max, t[start:stop]) @ wv[start:stop]
    return coeffs


def mueller_step_matrix(coeffs: np.ndarray) -> np.ndarray:
    """One exact derivative step along axis 0 of a dense coefficient matrix.

    Input rows are degrees 0..K; output rows are degrees 0..K-1 with
    b_l = 2 sqrt(l+1/2) * sum_{k > l, k+l odd} sqrt(k+1/2) a_k.
    """
    coeffs = np.ascontiguousarray(coeffs, dtype=np.float64)
    n_deg, n_col = coeffs.shape
    if n_deg <= 1:
        return np.zeros((0, n_col), dtype=np.float64)
    scale = _orthonormal_scale(n_deg - 1)
    weighted = scale[:, None] * coeffs
    # suffix[k] = weighted[k] + weighted[k+2] + ... (suffix sums by parity class)
    suffix = np.empty_like(weighted)
    for parity in (0, 1):
        rows = weighted[parity::2]
        suffix[parity::2] = np.cumsum(rows[::-1], axis=0)[::-1]
    # k > l with k+l odd means k runs over l+1, l+3, ...
    return 2.0 * scale[: n_deg - 1, None] * suffix[1:]


def grid_product(
    table_t: np.ndarray, coeffs: np.ndarray, table_tau: np.ndarray
) -> np.ndarray:
    """Series values on a tensor grid from its axes' Legendre tables, a fresh array.

    Every grid evaluation goes through here, so the product order is fixed in
    this one place.
    """
    return table_t.T @ coeffs @ table_tau


def series_eval_grid(coeffs: np.ndarray, t: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """Series values on the tensor grid t x tau, shape (t.size, tau.size)."""
    coeffs = np.ascontiguousarray(coeffs, dtype=np.float64)
    table_t = legendre_table(coeffs.shape[0] - 1, t)
    table_tau = legendre_table(coeffs.shape[1] - 1, tau)
    return grid_product(table_t, coeffs, table_tau)


def series_eval_points(
    coeffs: np.ndarray, t: np.ndarray, tau: np.ndarray
) -> np.ndarray:
    """Series values at paired points (t_i, tau_i), shape (t.size,)."""
    coeffs = np.ascontiguousarray(coeffs, dtype=np.float64)
    table_t = legendre_table(coeffs.shape[0] - 1, t)
    table_tau = legendre_table(coeffs.shape[1] - 1, tau)
    return np.einsum("ki,kj,ji->i", table_t, coeffs, table_tau, optimize=True)
