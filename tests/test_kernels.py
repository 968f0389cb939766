"""NumPy kernels against independent oracles: numpy.polynomial.legendre and
the dense single-step derivative matrix."""

import numpy as np
import numpy.polynomial.legendre as npleg

from legdiff._kernels import (
    legendre_table,
    mueller_step_matrix,
    series_eval_grid,
    series_eval_points,
    weighted_projection,
)
from legdiff.derivative import single_step_entry


def _random_inputs(seed):
    rng = np.random.default_rng(seed)
    coeffs = rng.normal(size=(rng.integers(2, 12), rng.integers(2, 12)))
    t = rng.uniform(-1.0, 1.0, size=rng.integers(1, 40))
    tau = rng.uniform(-1.0, 1.0, size=rng.integers(1, 40))
    return coeffs, t, tau


class TestNumpyKernels:
    def test_legendre_table_matches_oracle(self):
        t = np.linspace(-1.0, 1.0, 33)
        table = legendre_table(20, t)
        for k in range(21):
            basis = np.zeros(k + 1)
            basis[k] = np.sqrt(k + 0.5)
            np.testing.assert_allclose(
                table[k], npleg.legval(t, basis), rtol=1e-12, atol=1e-13
            )

    def test_weighted_projection_matches_matmul(self):
        rng = np.random.default_rng(0)
        t = rng.uniform(-1.0, 1.0, 57)
        w = rng.uniform(0.1, 1.0, 57)
        v = rng.normal(size=57)
        direct = legendre_table(9, t) @ (w * v)
        np.testing.assert_allclose(
            weighted_projection(v, w, t, 9), direct, rtol=1e-13
        )

    def test_mueller_step_matches_dense_entry_matrix(self):
        rng = np.random.default_rng(1)
        coeffs = rng.normal(size=(9, 4))
        dense = np.array(
            [[single_step_entry(k, l) for k in range(9)] for l in range(8)]
        )
        np.testing.assert_allclose(
            mueller_step_matrix(coeffs), dense @ coeffs, rtol=1e-12, atol=1e-12
        )

    def test_mueller_step_degenerate_shapes(self):
        assert mueller_step_matrix(np.ones((1, 3))).shape == (0, 3)

    def test_series_eval_grid_matches_einsum(self):
        coeffs, t, tau = _random_inputs(2)
        table_t = legendre_table(coeffs.shape[0] - 1, t)
        table_tau = legendre_table(coeffs.shape[1] - 1, tau)
        expected = np.einsum("ki,kj,jm->im", table_t, coeffs, table_tau)
        np.testing.assert_allclose(
            series_eval_grid(coeffs, t, tau), expected, rtol=1e-12, atol=1e-13
        )

    def test_series_eval_points_matches_loop(self):
        coeffs, t, _ = _random_inputs(3)
        tau = np.random.default_rng(4).uniform(-1.0, 1.0, size=t.size)
        expected = np.array(
            [
                sum(
                    coeffs[k, j]
                    * legendre_table(k, np.array([t[i]]))[k, 0]
                    * legendre_table(j, np.array([tau[i]]))[j, 0]
                    for k in range(coeffs.shape[0])
                    for j in range(coeffs.shape[1])
                )
                for i in range(t.size)
            ]
        )
        np.testing.assert_allclose(
            series_eval_points(coeffs, t, tau), expected, rtol=1e-11, atol=1e-12
        )

