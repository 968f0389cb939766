"""Orthonormal Legendre evaluation and Gauss-Legendre quadrature."""

import math

import numpy as np
import numpy.polynomial.legendre as npleg
import pytest

from legdiff.basis import (
    QuadratureRule,
    composite_gauss_rule,
    eval_phi_row,
    eval_phi_table,
    gauss_rule,
    legendre_table,
)


class TestEvalPhi:
    def test_phi0_is_constant_inverse_sqrt2(self):
        row = eval_phi_row(0, 0.5)
        assert row.shape == (1,)
        assert row[0] == pytest.approx(0.7071067811865476, abs=1e-15)

    def test_phi1_at_one(self):
        row = eval_phi_row(1, 1.0)
        assert row[0] == pytest.approx(math.sqrt(0.5), abs=1e-15)
        assert row[1] == pytest.approx(1.2247448713915890, abs=1e-15)

    def test_phi5_matches_closed_form(self):
        t = 0.3
        p5 = (63 * t**5 - 70 * t**3 + 15 * t) / 8
        row = eval_phi_row(5, t)
        assert row[5] == pytest.approx(math.sqrt(5.5) * p5, rel=1e-14)

    def test_rejects_point_outside_interval(self):
        with pytest.raises(ValueError):
            eval_phi_row(3, 1.1)
        with pytest.raises(ValueError):
            eval_phi_table(3, np.array([0.0, -1.0001]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_point(self, bad):
        with pytest.raises(ValueError, match="outside"):
            eval_phi_table(2, np.array([0.5, bad, 1.0]))
        with pytest.raises(ValueError, match="outside"):
            eval_phi_row(2, bad)

    def test_tolerance_edge_is_accepted(self):
        eval_phi_table(2, np.array([-1.0 - 1e-12, 1.0 + 1e-12]))
        with pytest.raises(ValueError, match="outside"):
            eval_phi_table(2, np.array([1.0 + 2e-12]))

    def test_rejects_negative_degree(self):
        with pytest.raises(ValueError):
            eval_phi_row(-1, 0.0)

    def test_boundary_value_sqrt_k_plus_half(self):
        row = eval_phi_row(40, 1.0)
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
            np.testing.assert_allclose(table[:, i], eval_phi_row(12, ti), rtol=0, atol=0)


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


class TestGaussRule:
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
        assert rule.integrate(rule.nodes**20) == pytest.approx(2 / 21, abs=1e-14)

    def test_rejects_nonpositive_order(self):
        with pytest.raises(ValueError):
            gauss_rule(0)

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
            assert rule.integrate(rule.nodes**m) == pytest.approx(exact, abs=1e-13)

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


class TestQuadratureRule:
    def test_integrate_shape_mismatch(self):
        rule = gauss_rule(4)
        with pytest.raises(ValueError):
            rule.integrate(np.ones(5))

    def test_validate_rejects_bad_weights(self):
        bad = QuadratureRule(nodes=np.array([-0.5, 0.5]), weights=np.array([1.0, 0.5]))
        with pytest.raises(ValueError):
            bad.validate()

    def test_arrays_read_only(self):
        rule = gauss_rule(4)
        with pytest.raises(ValueError):
            rule.nodes[0] = 0.0


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
        assert comp.integrate(np.abs(comp.nodes)) == pytest.approx(1.0, abs=1e-14)

    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            composite_gauss_rule(8, edges=(-1.0, 0.5))
        with pytest.raises(ValueError):
            composite_gauss_rule(8, edges=(-1.0, 0.5, 0.2, 1.0))
