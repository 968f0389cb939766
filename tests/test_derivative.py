"""The derivative-expansion step and its r-fold composition."""

import math
import time
import warnings

import numpy as np
import numpy.polynomial.legendre as npleg
import pytest

from legdiff.basis import _orthonormal_scale, eval_phi_table
from legdiff.derivative import DerivativeExpansion, _step, phi_derivative_coeffs

from oracles import from_entries, phi_rr_closed_form, single_step_entry


def _step_up_to(a, K):
    """One step on ``a`` with the scale columns a map call of top degree K makes."""
    scale = _orthonormal_scale(K)[:, None]
    return _step(a, (scale, 2.0 * scale[:-1]))


def _two_cumsum_step(a):
    """One derivative step with one suffix cumsum per parity class."""
    scale = _orthonormal_scale(a.shape[0] - 1)
    weighted = scale[:, None] * a
    suffix = np.empty_like(weighted)
    for parity in (0, 1):
        rows = weighted[parity::2]
        suffix[parity::2] = np.cumsum(rows[::-1], axis=0)[::-1]
    return 2.0 * scale[:-1, None] * suffix[1:]


class TestSingleStepEntry:
    def test_entry_1_to_0(self):
        assert single_step_entry(1, 0) == pytest.approx(math.sqrt(3), rel=1e-15)

    def test_zero_when_parity_even(self):
        for k in range(51):
            for l in range(51):
                if (k + l) % 2 == 0 or l >= k:
                    assert single_step_entry(k, l) == 0.0

    def test_value_formula(self):
        for k, l in [(5, 2), (9, 0), (12, 7)]:
            assert single_step_entry(k, l) == pytest.approx(
                2 * math.sqrt(k + 0.5) * math.sqrt(l + 0.5), rel=1e-15
            )


def _apply(r: int, a) -> np.ndarray:
    """DerivativeExpansion(r, K).apply on 1-D ``a`` and on a 2-D array of its columns.

    The 2-D input holds ``a`` and ``2a``; both columns must come out bit for
    bit as the 1-D result (and twice it: scaling by 2 is exact).
    """
    a = np.asarray(a, dtype=np.float64)
    expansion = DerivativeExpansion(r, a.shape[0] - 1)
    one = expansion.apply(a)
    two = expansion.apply(np.column_stack([a, 2.0 * a]))
    assert two.shape == (one.shape[0], 2)
    np.testing.assert_array_equal(two[:, 0], one)
    np.testing.assert_array_equal(two[:, 1], 2.0 * one)
    return one


def _along_tau(r: int, c: np.ndarray) -> np.ndarray:
    """r steps along the second index of a 2-D coefficient array."""
    return DerivativeExpansion(r, c.shape[1] - 1).apply(c.T).T


class TestMuellerStep:
    """One derivative step: DerivativeExpansion with r = 1."""

    def test_unit_degree_1(self):
        out = _apply(1, [0.0, 1.0])
        np.testing.assert_allclose(out, [math.sqrt(3)], rtol=1e-15)

    def test_unit_degree_2(self):
        out = _apply(1, [0.0, 0.0, 1.0])
        np.testing.assert_allclose(out, [0.0, math.sqrt(15)], rtol=1e-15, atol=0)

    def test_unit_degree_3(self):
        out = _apply(1, [0.0, 0.0, 0.0, 1.0])
        np.testing.assert_allclose(
            out, [math.sqrt(7), 0.0, math.sqrt(35)], rtol=1e-15, atol=0
        )

    def test_zero_constant_gives_empty(self):
        assert _apply(1, [0.0]).shape == (0,)
        # A constant with content differentiates to the empty series too.
        assert _apply(1, [3.0]).shape == (0,)
        assert DerivativeExpansion(1, 0).apply(np.ones((1, 4))).shape == (0, 4)

    def test_rejects_three_dimensional_input(self):
        expansion = DerivativeExpansion(1, 1)
        with pytest.raises(ValueError):
            expansion.apply(np.zeros((2, 2, 2)))
        with pytest.raises(ValueError):
            expansion.apply(np.float64(1.0))

    def test_matches_dense_single_step_matrix(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal(40)
        dense = np.array(
            [[single_step_entry(k, l) for k in range(40)] for l in range(39)]
        )
        np.testing.assert_allclose(_apply(1, a), dense @ a, rtol=1e-13, atol=1e-13)
        m = rng.standard_normal((40, 3))
        np.testing.assert_allclose(
            DerivativeExpansion(1, 39).apply(m), dense @ m, rtol=1e-13, atol=1e-13
        )

    def test_mueller_step_matches_dense_entry_matrix(self):
        rng = np.random.default_rng(1)
        coeffs = rng.normal(size=(9, 4))
        dense = np.array(
            [[single_step_entry(k, l) for k in range(9)] for l in range(8)]
        )
        np.testing.assert_allclose(
            _step_up_to(coeffs, 8), dense @ coeffs, rtol=1e-12, atol=1e-12
        )

    def test_mueller_step_degenerate_shapes(self):
        assert _step_up_to(np.ones((1, 3)), 0).shape == (0, 3)

    @pytest.mark.parametrize("rows", [1, 2, 3, 8, 9, 300, 301])
    @pytest.mark.parametrize("cols", [0, 1, 7])
    def test_step_keeps_the_bytes_of_the_two_cumsum_form(self, rows, cols):
        # Zeros of both signs, a top row of -0.0 among them: an odd count's
        # pad adds first to that row's class, and only a -0.0 pad keeps it -0.0.
        rng = np.random.default_rng(rows)
        a = rng.standard_normal((rows, cols))
        a[rng.random(a.shape) < 0.3] = -0.0
        a[rng.random(a.shape) < 0.1] = 0.0
        a[-1, :3] = -0.0
        a[:, 3:4] = -0.0
        for operand in (a, np.asfortranarray(a), a[:, ::2]):
            expected = _two_cumsum_step(operand).tobytes()
            # The columns of a map call on more degrees hold the same first rows.
            for K in (rows - 1, 400):
                step = _step_up_to(operand, K)
                assert step.shape == (rows - 1, operand.shape[1])
                assert step.tobytes() == expected


class TestDifferentiateAxis:
    """r steps along either axis of a 2-D coefficient array."""

    def test_phi2_twice_along_t(self):
        out = DerivativeExpansion(2, 2).apply(
            from_entries({(2, 0): 1.0}).values
        )
        assert out.shape == (1, 1)
        assert out[0, 0] == pytest.approx(3 * math.sqrt(5), rel=1e-14)
        assert _apply(2, [0.0, 0.0, 1.0])[0] == out[0, 0]

    def test_zero_field_stays_zero(self):
        field = from_entries({(5, 4): 0.0, (2, 2): 0.0})
        out = DerivativeExpansion(2, field.values.shape[0] - 1).apply(field.values)
        assert out.shape == (4, 5)
        np.testing.assert_array_equal(out, 0.0)

    def test_unit_rr_entry_both_axes(self):
        c = from_entries({(2, 2): 1.0}).values
        out = _along_tau(2, DerivativeExpansion(2, 2).apply(c))
        assert out.shape == (1, 1)
        assert out[0, 0] == pytest.approx(45.0, rel=1e-13)

    def test_linearity(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((8, 6))
        b = rng.standard_normal((8, 6))
        alpha, beta = 0.3, -1.7
        lhs = _along_tau(2, alpha * a + beta * b)
        rhs = alpha * _along_tau(2, a) + beta * _along_tau(2, b)
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-12)
        for column in range(6):
            np.testing.assert_allclose(
                _apply(2, alpha * a[:, column] + beta * b[:, column]),
                alpha * _apply(2, a[:, column]) + beta * _apply(2, b[:, column]),
                rtol=0, atol=1e-12,
            )

    def test_degrees_shrink_by_r(self):
        ones = np.ones((9, 7))
        assert DerivativeExpansion(3, 8).apply(ones).shape == (6, 7)
        assert _along_tau(3, ones).shape == (9, 4)
        assert _apply(3, np.ones(9)).shape == (6,)

    def test_rejects_bad_axis_and_order(self):
        for r in (0, -1):
            with pytest.raises(ValueError):
                DerivativeExpansion(r, 2)

    def test_constant_axis_collapses_to_empty(self):
        c = from_entries({(0, 3): 2.0}).values
        out = DerivativeExpansion(1, 0).apply(c)
        assert out.shape == (0, 4)
        assert _along_tau(4, c).shape == (1, 0)


class TestOracleEquivalence:
    def test_expansion_matches_symbolic_derivative(self):
        # Oracle: differentiate sqrt(k+1/2) P_k symbolically in the classical
        # Legendre basis and evaluate; compare on 33 Chebyshev-spaced points.
        pts = np.cos(np.pi * (np.arange(33) + 0.5) / 33)
        for k in range(21):
            for r in range(4):
                c = np.zeros(k + 1)
                c[k] = math.sqrt(k + 0.5)
                oracle = npleg.legval(pts, npleg.legder(c, r) if r else c)
                coeffs = phi_derivative_coeffs(k, r)
                if coeffs.size:
                    mine = coeffs @ eval_phi_table(coeffs.size - 1, pts)
                else:
                    mine = np.zeros_like(pts)
                scale = max(np.max(np.abs(oracle)), 1e-300)
                assert np.max(np.abs(mine - oracle)) / scale < 1e-8, (k, r)

    def test_closed_form_phi_r_r(self):
        expected = {1: math.sqrt(3), 2: 3 * math.sqrt(5), 3: 39.686269665968860}
        for r in (1, 2, 3):
            coeffs = phi_derivative_coeffs(r, r)
            assert coeffs.shape == (1,)
            assert abs(coeffs[0] - phi_rr_closed_form(r)) <= 1e-12 * max(1.0, coeffs[0])
            assert phi_rr_closed_form(r) == pytest.approx(expected[r], rel=1e-14)

    def test_derivative_order_above_degree_is_empty(self):
        assert phi_derivative_coeffs(0, 1).shape == (0,)
        assert phi_derivative_coeffs(3, 5).shape == (0,)


class TestDerivativeExpansion:
    def test_rejects_negative_degrees(self):
        with pytest.raises(ValueError, match="^k and r must be nonnegative$"):
            phi_derivative_coeffs(-1, 2)
        with pytest.raises(ValueError, match="^max_degree must be nonnegative$"):
            DerivativeExpansion(2, -1)

    def test_matrix_strictly_lower_triangular_with_parity(self):
        exp = DerivativeExpansion(r=1, max_degree=12)
        mat = exp.matrix()
        assert mat.shape == (12, 13)
        for l in range(12):
            for k in range(13):
                if k <= l or (k + l) % 2 == 0:
                    assert mat[l, k] == 0.0
                else:
                    assert mat[l, k] == pytest.approx(single_step_entry(k, l))

    def test_apply_equals_matrix_product(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal(15)
        exp = DerivativeExpansion(r=3, max_degree=14)
        np.testing.assert_allclose(exp.apply(a), exp.matrix() @ a, rtol=1e-13, atol=1e-13)

    def test_order_above_degree_gives_empty_map(self):
        expansion = DerivativeExpansion(r=3, max_degree=1)
        assert expansion.matrix().shape == (0, 2)
        assert expansion.apply(np.ones(2)).shape == (0,)
        assert expansion.apply(np.ones((2, 5))).shape == (0, 5)
        assert expansion.apply(np.empty((2, 0))).shape == (0, 0)
        assert expansion.apply_both(np.ones((2, 2))).shape == (0, 0)

    def test_no_columns_give_no_columns(self):
        assert DerivativeExpansion(2, 4).apply(np.empty((5, 0))).shape == (3, 0)
        assert DerivativeExpansion(1, 8).apply(np.empty((9, 0))).shape == (8, 0)

    def test_huge_order_stops_once_the_series_is_empty(self):
        start = time.perf_counter()
        expansion = DerivativeExpansion(10**18, 5)
        assert expansion.apply(np.ones(6)).shape == (0,)
        assert expansion.apply(np.ones((6, 3))).shape == (0, 3)
        assert time.perf_counter() - start < 1.0

    def test_overflow_raises_naming_order_and_degree(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="r=150 derivative of degree-400"):
                phi_derivative_coeffs(400, 150)
            with pytest.raises(ValueError, match="r=2 derivative of degree-3"):
                DerivativeExpansion(2, 3).apply(np.array([0.0, 0.0, 1e308, 1e308]))

    def test_phi_derivative_coeffs_are_matrix_columns(self):
        for r in (1, 2, 3):
            mat = DerivativeExpansion(r, 9).matrix()
            for k in range(10):
                column = phi_derivative_coeffs(k, r)
                np.testing.assert_array_equal(column, mat[: column.size, k])
                np.testing.assert_array_equal(mat[column.size :, k], 0.0)

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_apply_both_without_corner_is_the_dense_map(self, r):
        # The box's cover has no block edge, so even the signs of zeros are
        # the dense map's, compared as unsigned integers.
        rng = np.random.default_rng(4)
        values = rng.standard_normal((3, 90, 90))
        values[rng.random(values.shape) < 0.3] = -0.0
        values[1] = -0.0
        expansion = DerivativeExpansion(r, 89)
        stacked = expansion.apply_both(values)
        for array, derived in zip(values, stacked):
            dense = expansion.apply(expansion.apply(array).T).T
            assert np.array_equal(derived.view(np.uint64), dense.view(np.uint64))
        assert np.signbit(stacked[1]).all()

    @pytest.mark.parametrize("corner", [None, (30, 40)], ids=["dense", "blocks"])
    def test_leading_axes_are_a_stack_mapped_array_by_array(self, corner):
        rng = np.random.default_rng(7)
        values = rng.standard_normal((2, 3, 90, 90))
        values[..., 30:, 40:] = 0.0
        values[1, 2] = -0.0
        expansion = DerivativeExpansion(2, 89)

        def derive(v):
            return expansion.apply_both(v, corner)

        stacked = derive(values)
        assert stacked.shape == (2, 3, 88, 88) and stacked.flags.c_contiguous
        for index in np.ndindex(2, 3):
            alone = derive(values[index])
            assert stacked[index].view(np.uint64).tolist() == alone.view(np.uint64).tolist()
        assert np.signbit(stacked[1, 2]).all() == (corner is None)
        with pytest.raises(ValueError, match="90 x 90 array on the last two axes"):
            derive(values[..., :89])

    def test_apply_both_is_the_dense_map_on_a_zero_corner(self):
        values = np.zeros((90, 90))
        values[:30, :30] = np.random.default_rng(6).standard_normal((30, 30))
        values[29, 29] = -0.0  # a signed zero still counts as zero
        expansion = DerivativeExpansion(2, 89)
        dense = expansion.apply_both(values)
        for zero_corner in ((30, 30), (29, 29), (30, 89), (89, 29)):
            # Equal up to the sign of exact zeros (see the module docstring).
            assert np.array_equal(expansion.apply_both(values, zero_corner), dense)

    def test_apply_both_never_reads_the_corner(self):
        rng = np.random.default_rng(5)
        values = rng.standard_normal((90, 90))
        values[30:, 40:] = 0.0
        expansion = DerivativeExpansion(2, 89)
        expected = expansion.apply_both(values, (30, 40))
        values[30:, 40:] = rng.choice([np.nan, np.inf, -np.inf, 1e300], size=(60, 50))
        assert expansion.apply_both(values, (30, 40)).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("corner", [(2, 30), (30, 2), (90, 30), (30, 90)])
    def test_apply_both_rejects_a_corner_out_of_range(self, corner):
        with pytest.raises(ValueError, match="not a zero corner"):
            DerivativeExpansion(2, 89).apply_both(np.zeros((90, 90)), corner)

    def test_apply_both_checks_every_region_it_writes(self):
        expansion = DerivativeExpansion(2, 89)
        with pytest.raises(ValueError, match="90 x 90"):
            expansion.apply_both(np.zeros((90, 91)), (30, 30))
        # The first non-finite region is, in turn: the derived left block, the
        # derived top block, the result's top a - r rows, the rest of its left.
        for row, col, value in ((80, 3, 1e308), (3, 80, 1e308), (2, 80, 1e307), (89, 29, 3.5e298)):
            values = np.zeros((90, 90))
            values[row, col] = value
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="r=2 derivative of degree-89"):
                    expansion.apply_both(values, (30, 30))

    def test_apply_both_needs_a_square_array_of_its_degree(self):
        with pytest.raises(ValueError, match="90 x 90"):
            DerivativeExpansion(2, 89).apply_both(np.zeros((90, 91)))

    def test_shape_validation(self):
        exp = DerivativeExpansion(r=1, max_degree=4)
        with pytest.raises(ValueError):
            exp.apply(np.ones(4))
        with pytest.raises(ValueError):
            DerivativeExpansion(r=0, max_degree=4)
