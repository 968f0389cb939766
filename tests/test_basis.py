"""Orthonormal Legendre evaluation and Gauss-Legendre quadrature."""

import math
from unittest import mock

import numpy as np
import numpy.polynomial.legendre as npleg
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from legdiff import basis
from legdiff.basis import (
    QuadratureRule,
    composite_gauss_rule,
    eval_phi_table,
    gauss_rule,
    grid_factors,
    legendre_table,
)
from legdiff.coeffs import exact_coeffs
from legdiff.experiments import F1, F2
from legdiff.method import MethodConfig, run


class TestEvalPhi:
    def test_phi0_is_constant_inverse_sqrt2(self):
        row = eval_phi_table(0, [0.5])[:, 0]
        assert row.shape == (1,)
        assert row[0] == pytest.approx(0.7071067811865476, abs=1e-15)

    def test_phi1_at_one(self):
        row = eval_phi_table(1, [1.0])[:, 0]
        assert row[0] == pytest.approx(math.sqrt(0.5), abs=1e-15)
        assert row[1] == pytest.approx(1.2247448713915890, abs=1e-15)

    def test_phi5_matches_closed_form(self):
        t = 0.3
        p5 = (63 * t**5 - 70 * t**3 + 15 * t) / 8
        row = eval_phi_table(5, [t])[:, 0]
        assert row[5] == pytest.approx(math.sqrt(5.5) * p5, rel=1e-14)

    def test_rejects_point_outside_interval(self):
        with pytest.raises(ValueError):
            eval_phi_table(3, [1.1])
        with pytest.raises(ValueError):
            eval_phi_table(3, np.array([0.0, -1.0001]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_point(self, bad):
        with pytest.raises(ValueError, match="outside"):
            eval_phi_table(2, np.array([0.5, bad, 1.0]))
        with pytest.raises(ValueError, match="outside"):
            eval_phi_table(2, [bad])

    def test_tolerance_edge_is_accepted(self):
        eval_phi_table(2, np.array([-1.0 - 1e-12, 1.0 + 1e-12]))
        with pytest.raises(ValueError, match="outside"):
            eval_phi_table(2, np.array([1.0 + 2e-12]))

    def test_rejects_negative_degree(self):
        with pytest.raises(ValueError):
            eval_phi_table(-1, [0.0])

    def test_boundary_value_sqrt_k_plus_half(self):
        row = eval_phi_table(40, [1.0])[:, 0]
        expected = np.sqrt(np.arange(41) + 0.5)
        np.testing.assert_allclose(row, expected, rtol=0, atol=1e-12)

    def test_parity_symmetry(self):
        t = np.linspace(0.0, 1.0, 23)
        plus = eval_phi_table(30, t)
        minus = eval_phi_table(30, -t)
        signs = (-1.0) ** np.arange(31)
        np.testing.assert_allclose(minus, signs[:, None] * plus, rtol=0, atol=1e-12)

    def test_table_matches_row(self):
        t = np.array([-0.9, -0.2, 0.0, 0.4, 1.0])
        table = eval_phi_table(12, t)
        for i, ti in enumerate(t):
            np.testing.assert_allclose(table[:, i], eval_phi_table(12, [ti])[:, 0], rtol=0, atol=0)


class TestLegendreTable:
    def test_legendre_table_matches_oracle(self):
        t = np.linspace(-1.0, 1.0, 33)
        table = legendre_table(20, t)
        for k in range(21):
            basis = np.zeros(k + 1)
            basis[k] = np.sqrt(k + 0.5)
            np.testing.assert_allclose(
                table[k], npleg.legval(t, basis), rtol=1e-12, atol=1e-13
            )


def _legendre_table_formula(k_max, t):
    """The table as first written: each row from the formula's temporaries,
    then every row scaled at once."""
    table = np.empty((k_max + 1, t.size))
    table[0] = 1.0
    if k_max >= 1:
        table[1] = t
    for k in range(1, k_max):
        table[k + 1] = ((2 * k + 1) * t * table[k] - k * table[k - 1]) / (k + 1)
    table *= np.sqrt(np.arange(k_max + 1) + 0.5)[:, None]
    return table


_NODE_SETS = {
    "one node": np.array([0.3]),
    "signed zeros and ends": np.array([-1.0, -0.0, 0.0, 1.0]),
    "uniform 201": np.linspace(-1.0, 1.0, 201),
    "gauss 96 split at 0": composite_gauss_rule(96, (-1.0, 0.0, 1.0)).nodes,
}


class TestLegendreBlocks:
    """The in-place recurrence keeps the formula's bytes, whole or in blocks."""

    @pytest.mark.parametrize("name", list(_NODE_SETS))
    @pytest.mark.parametrize("k_max", [0, 1, 2, 5, 30, 297])
    def test_table_has_the_formula_bytes(self, name, k_max):
        t = _NODE_SETS[name]
        assert np.array_equal(legendre_table(k_max, t), _legendre_table_formula(k_max, t))

    @pytest.mark.parametrize("k_max", [0, 1, 4, 5, 8, 24, 31])
    @pytest.mark.parametrize("height", [1, 3, 4, 8])
    def test_blocks_hold_the_table_rows(self, k_max, height):
        t = _NODE_SETS["gauss 96 split at 0"]
        table = legendre_table(k_max, t)
        blocks = [(degrees, block.copy()) for degrees, block in basis.legendre_blocks(k_max, t, height)]
        stops = [degrees.stop for degrees, _ in blocks]
        assert [degrees.start for degrees, _ in blocks] == [0] + stops[:-1]
        assert stops[-1] == k_max + 1
        sizes = [degrees.stop - degrees.start for degrees, _ in blocks]
        assert sizes[:-1] == [height] * (len(sizes) - 1)
        # a lone last row joins the block before it
        assert sizes[-1] <= height + 1 and (sizes[-1] > 1 or k_max == 0)
        for degrees, block in blocks:
            assert np.array_equal(block, table[degrees])

    def test_blocks_share_one_buffer(self):
        t = np.linspace(-1.0, 1.0, 11)
        addresses = {
            block.__array_interface__["data"][0] for _, block in basis.legendre_blocks(40, t, 8)
        }
        assert len(addresses) == 1


class TestGaussRule:
    def test_cache_keeps_at_most_its_bound(self):
        for G in range(1, basis._RULES_CACHED + 10):
            gauss_rule(G)
        assert basis._cached_gauss_rule.cache_info().currsize == basis._RULES_CACHED
        assert basis._cached_gauss_rule.cache_info().maxsize == basis._RULES_CACHED

    def test_one_point_rule_is_midpoint(self):
        rule = gauss_rule(1)
        np.testing.assert_allclose(rule.nodes, [0.0], atol=1e-15)
        np.testing.assert_allclose(rule.weights, [2.0], atol=1e-15)

    def test_two_point_rule(self):
        rule = gauss_rule(2)
        np.testing.assert_allclose(
            rule.nodes, [-1 / math.sqrt(3), 1 / math.sqrt(3)], atol=1e-15
        )
        np.testing.assert_allclose(rule.weights, [1.0, 1.0], atol=1e-15)

    def test_degree_20_monomial_with_16_points(self):
        rule = gauss_rule(16)
        assert rule.weights @ rule.nodes**20 == pytest.approx(2 / 21, abs=1e-14)

    def test_rejects_nonpositive_order(self):
        with pytest.raises(ValueError):
            gauss_rule(0)

    @pytest.mark.parametrize("G", [3.0, 2.5, math.nan])
    def test_refuses_an_order_that_is_no_integer_past_the_cache(self, G):
        # 3.0 == 3 and hashes alike, so a cache read first would return the kept rule of 3.
        gauss_rule(3)
        for rule in (gauss_rule, composite_gauss_rule):
            with pytest.raises(ValueError, match=f"^G={G!r} must be an integer$"):
                rule(G)

    @pytest.mark.parametrize("G", [3, 7, 32, 64, 129])
    def test_matches_reference_gauss_nodes(self, G):
        rule = gauss_rule(G)
        ref_nodes, ref_weights = npleg.leggauss(G)
        np.testing.assert_allclose(rule.nodes, ref_nodes, rtol=0, atol=1e-12)
        np.testing.assert_allclose(rule.weights, ref_weights, rtol=0, atol=1e-12)

    def test_converges_at_order_512(self):
        rule = gauss_rule(512)
        assert len(rule) == 512
        rule.validate()

    @pytest.mark.parametrize("G", [2, 5, 8])
    def test_exact_on_polynomials_up_to_2G_minus_1(self, G):
        rule = gauss_rule(G)
        for m in range(2 * G):
            exact = 0.0 if m % 2 else 2.0 / (m + 1)
            assert rule.weights @ rule.nodes**m == pytest.approx(exact, abs=1e-13)

    def test_invariants(self):
        for G in (1, 2, 17, 64):
            rule = gauss_rule(G)
            rule.validate()
            assert np.sum(rule.weights) == pytest.approx(2.0, abs=1e-12)
            assert np.all(np.diff(rule.nodes) > 0) or G == 1
            assert np.all(rule.weights > 0)
            assert np.all(np.abs(rule.nodes) < 1)

    def test_orthonormality_with_64_points(self):
        rule = gauss_rule(64)
        table = eval_phi_table(40, rule.nodes)
        gram = (table * rule.weights) @ table.T
        assert np.max(np.abs(gram - np.eye(41))) < 1e-10


def _allocating_gauss_rule(G):
    """The Gauss rule as computed before the Newton step shared the table's
    in-place recurrence: a fresh array per step of the three-term formula."""

    def value_and_derivative(x):
        p_prev = np.ones_like(x)
        p_cur = x.copy()
        for k in range(1, G):
            p_next = ((2 * k + 1) * x * p_cur - k * p_prev) / (k + 1)
            p_prev = p_cur
            p_cur = p_next
        return p_cur, G * (x * p_cur - p_prev) / (x * x - 1.0)

    x = np.cos(np.pi * (np.arange(G, dtype=np.float64) + 0.75) / (G + 0.5))
    for _ in range(basis._NEWTON_MAX_ITER):
        value, deriv = value_and_derivative(x)
        dx = value / deriv
        x -= dx
        if np.max(np.abs(dx)) < basis._NEWTON_TOL:
            break
    _, deriv = value_and_derivative(x)
    w = 2.0 / ((1.0 - x * x) * deriv * deriv)
    order = np.argsort(x)
    x, w = x[order], w[order]
    return 0.5 * (x - x[::-1]), 0.5 * (w + w[::-1])


class TestOneRecurrence:
    # Every order up to 129, and larger ones up to the largest the metrics accept.
    @pytest.mark.parametrize("G", [*range(1, 130), 202, 416, 602, 614, 1040, 4102])
    def test_gauss_rule_has_the_allocating_loops_bytes(self, G):
        nodes, weights = _allocating_gauss_rule(G)
        rule = gauss_rule(G)
        assert np.array_equal(rule.nodes, nodes) and np.array_equal(rule.weights, weights)


class TestQuadratureRule:
    def test_rejects_nodes_and_weights_of_unequal_length(self):
        with pytest.raises(ValueError, match="equal length"):
            QuadratureRule(nodes=np.array([-0.5, 0.5]), weights=np.ones(3))

    @pytest.mark.parametrize(
        "nodes, weights, message",
        [
            ([-0.5, 0.5], [1.0, 0.5], "weights must sum to 2"),
            ([0.5, -0.5], [1.0, 1.0], "nodes must be strictly increasing"),
            ([-0.5, 1.0], [1.0, 1.0], "nodes must lie inside \\(-1, 1\\)"),
            ([-0.5, 0.5], [3.0, -1.0], "weights must be positive"),
        ],
    )
    def test_validate_names_the_broken_invariant(self, nodes, weights, message):
        rule = QuadratureRule(nodes=np.array(nodes), weights=np.array(weights))
        with pytest.raises(ValueError, match=f"^{message}$"):
            rule.validate()

    def test_arrays_read_only(self):
        rule = gauss_rule(4)
        with pytest.raises(ValueError):
            rule.nodes[0] = 0.0

    def test_callers_arrays_stay_writeable(self):
        # C-contiguous float64 arrays are held, not copied, through read-only views.
        nodes, weights = np.array([-0.5, 0.5]), np.array([1.0, 1.0])
        rule = QuadratureRule(nodes=nodes, weights=weights)
        assert nodes.flags.writeable and weights.flags.writeable
        assert not rule.nodes.flags.writeable and not rule.weights.flags.writeable
        assert np.shares_memory(rule.nodes, nodes) and np.shares_memory(rule.weights, weights)


class TestCompositeGaussRule:
    def test_single_panel_matches_plain_rule(self):
        plain = gauss_rule(12)
        comp = composite_gauss_rule(12)
        np.testing.assert_allclose(comp.nodes, plain.nodes, atol=1e-15)
        np.testing.assert_allclose(comp.weights, plain.weights, atol=1e-15)

    def test_split_rule_integrates_kinked_function(self):
        comp = composite_gauss_rule(24, edges=(-1.0, 0.0, 1.0))
        comp.validate()
        # integral of |t| over [-1, 1] is exactly 1; each panel sees a polynomial
        assert comp.weights @ np.abs(comp.nodes) == pytest.approx(1.0, abs=1e-14)

    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            composite_gauss_rule(8, edges=(-1.0, 0.5))
        with pytest.raises(ValueError):
            composite_gauss_rule(8, edges=(-1.0, 0.5, 0.2, 1.0))


def _cross_series(n: int):
    """The derived (r = 2) series of F1 on the hyperbolic cross at level n."""
    config = MethodConfig(r=2, mu=5.5, delta=0.0, n_override=n)
    return run(exact_coeffs(F1, n - 1, n - 1, G=2 * (n - 1) + 16), config).series


def _oracle(table_t, coeffs, table_tau) -> np.ndarray:
    """table_t.T @ coeffs @ table_tau in long double, from the same float64 inputs."""
    wide = [np.asarray(x, dtype=np.longdouble) for x in (table_t, coeffs, table_tau)]
    return wide[0].T @ wide[1] @ wide[2]


def _rounding_bound(table_t, coeffs, table_tau, split) -> np.ndarray:
    """Elementwise error bound eps * (max(K, J) + a + b) * |T_t|^T |B| |T_tau|.

    Rounding model: a float64 dot product of length m errs by at most
    m * u * (sum of |terms|), u = eps / 2.  The factorized entries chain a
    length max(K - a, J) product into a length a + b one, the dense ones a
    K- into a J-length one, so u * (max(K, J) + a + b) bounds both to first
    order; the factor 2 (eps = 2u) covers higher-order terms and the long
    double oracle's own rounding (eps 1.1e-19 where long double is 80-bit).
    """
    a, b = split or (0, 0)
    size = np.abs(table_t).T @ np.abs(coeffs) @ np.abs(table_tau)
    return np.finfo(np.float64).eps * (max(coeffs.shape) + a + b) * size


def _grid(table_t, coeffs, table_tau, corner=None) -> np.ndarray:
    """The grid product ``left @ right`` of :func:`grid_factors`' pair."""
    left, right = grid_factors(table_t, coeffs, table_tau, corner)
    return left @ right


class TestGridProduct:
    @pytest.fixture(scope="class")
    def cross_300(self):
        """B at n = 300 and the tables of the 1204-node Gauss grid its L2 error uses."""
        series = _cross_series(300)
        rule_t, rule_tau = F1.derivative_function().gauss_rules(2 * 297 + 8)
        degree = series.values.shape[0] - 1
        tables = legendre_table(degree, rule_t.nodes), legendre_table(degree, rule_tau.nodes)
        return series, *tables

    def test_cross_at_n300_matches_long_double_oracle(self, cross_300):
        series, table_t, table_tau = cross_300
        coeffs = series.values
        assert series.zero_corner == (22, 23)
        values = _grid(table_t, coeffs, table_tau, (22, 23))
        rows = np.r_[0:1204:29, 1203]  # both ends and a spread of interior nodes
        cols = np.r_[0:1204:31, 1203]
        sub_t, sub_tau = table_t[:, rows], table_tau[:, cols]
        error = np.abs(values[np.ix_(rows, cols)] - _oracle(sub_t, coeffs, sub_tau))
        assert np.all(error <= _rounding_bound(sub_t, coeffs, sub_tau, (22, 23)))

    def test_f2_r3_at_n100_matches_long_double_oracle(self):
        # The grid of `legdiff differentiate --builtin f2 --r 3 --n 100 --grid 201`.
        config = MethodConfig(r=3, mu=8.5, delta=0.0, n_override=100)
        series = run(exact_coeffs(F2, 99, 99), config).series
        coeffs, corner = series.values, series.zero_corner
        assert corner == (14, 15)
        table = legendre_table(coeffs.shape[0] - 1, np.linspace(-1.0, 1.0, 201))
        assert 201 * coeffs.size + 201 * coeffs.shape[1] * 201 >= 2**22  # factorized
        error = np.abs(_grid(table, coeffs, table, corner) - _oracle(table, coeffs, table))
        assert np.all(error <= _rounding_bound(table, coeffs, table, corner))

    @pytest.mark.parametrize(
        "n, nodes",
        [(31, 201), (200, 41), (300, 41)],  # table1's largest, cli_csv's, just under 2**22
    )
    def test_products_under_threshold_stay_dense(self, n, nodes):
        series = _cross_series(n)
        coeffs = series.values
        table = legendre_table(coeffs.shape[0] - 1, np.linspace(-1.0, 1.0, nodes))
        assert nodes * coeffs.size + nodes * coeffs.shape[1] * nodes < 2**22
        assert (
            _grid(table, coeffs, table, series.zero_corner).tobytes()
            == (table.T @ coeffs @ table).tobytes()
        )

    def test_corner_that_does_not_pay_stays_dense(self, cross_300):
        series, table_t, table_tau = cross_300
        coeffs = series.values
        K, J = coeffs.shape
        assert not coeffs[K - 1 :, J - 1 :].any()  # a zero corner, but too small to pay
        assert (
            _grid(table_t, coeffs, table_tau, (K - 1, J - 1)).tobytes()
            == (table_t.T @ coeffs @ table_tau).tobytes()
        )

    def test_box_stays_dense(self):
        rng = np.random.default_rng(5)
        coeffs = rng.standard_normal((60, 60))
        table = legendre_table(59, np.linspace(-1.0, 1.0, 301))
        assert _grid(table, coeffs, table).tobytes() == (table.T @ coeffs @ table).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(
        widths=st.lists(st.integers(0, 24), min_size=1, max_size=24),
        row=st.integers(0, 23),
        n_t=st.integers(1, 30),
        n_tau=st.integers(1, 30),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_staircases_match_oracle_at_any_size(self, widths, row, n_t, n_tau, seed):
        rng = np.random.default_rng(seed)
        widths = sorted(widths, reverse=True)
        K, J = len(widths), max(max(widths), 1)
        coeffs = np.where(rng.random((K, J)) < 0.8, rng.standard_normal((K, J)), 0.0)
        coeffs[np.arange(J)[None, :] >= np.array(widths)[:, None]] = -0.0
        a = row % K
        corner = a, widths[a]  # the widest row at or below a is row a
        assert not coeffs[corner[0] :, corner[1] :].any()
        table_t = legendre_table(K - 1, rng.uniform(-1.0, 1.0, n_t))
        table_tau = legendre_table(J - 1, rng.uniform(-1.0, 1.0, n_tau))
        with mock.patch.object(basis, "_FACTOR_MIN_MULADDS", 0):
            values = _grid(table_t, coeffs, table_tau, corner)
        dense = table_t.T @ coeffs @ table_tau
        muladds = n_t * n_tau * sum(corner) + n_t * (K - a) * widths[a] + a * J * n_tau
        if muladds >= n_t * K * J + n_t * J * n_tau:
            assert values.tobytes() == dense.tobytes()
            return
        error = np.abs(values - _oracle(table_t, coeffs, table_tau))
        assert np.all(error <= _rounding_bound(table_t, coeffs, table_tau, corner))
