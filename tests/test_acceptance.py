"""Pinned end-to-end targets for the whole pipeline.

Each test asserts a reference behavior with its tolerance written out
literally, so regressions are caught against fixed numbers rather than
against whatever the current build produces.

One test in this module is known-red and intentionally left failing, with
the measured evidence in its assertion message:

* ``test_gaussian_noise_medians_match_reference`` - the pinned reference
  medians for the raw-Gaussian-noise experiment are unreachable when the
  listed noise levels are applied literally to the coefficients; see the
  assertion message for the measured gap and the scaling that explains it.

``test_cross_error_within_factor_three_of_box`` compares the cross with the
box at an equal coefficient budget: each table3 row's box runs at the
largest level whose domain is no larger than the cross's (levels 6 / 8 / 11,
25 / 49 / 100 coefficients against the cross's 29 / 62 / 104). The measured
cross/box error ratios are 2.16 / 0.46 / 0.77. At the same level the box
holds 3-5x more coefficients and the ratios were 198 / 3.6 / 0.26, which
measures the box's extra coefficients, not the cross's efficiency.

Everything else must stay green.
"""

import math
import time
from dataclasses import replace

import numpy as np
import numpy.polynomial.legendre as npleg
import pytest

from legdiff.basis import eval_phi_table, gauss_rule
from legdiff.coeffs import BivariateFunction, exact_coeffs
from legdiff.derivative import phi_derivative_coeffs
from legdiff.experiments import F2, convergence_sweep, get_preset, run_table
from legdiff.index import IndexDomain
from legdiff.method import MethodConfig, run
from legdiff.metrics import l2_error
from legdiff.noise import NoiseSpec, noise_vector

from oracles import from_entries

# --------------------------------------------------------------------------
# Shared expensive runs (computed once per module)
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def table3_cross():
    start = time.perf_counter()
    rows = run_table(get_preset("table3"))
    return rows, time.perf_counter() - start


@pytest.fixture(scope="module")
def table3_box():
    rows = run_table(get_preset("table3"), domain_shape="box")
    return rows


# Box levels whose domains are the largest no larger than the cross domains
# of table3's rows (cross levels 11 / 18 / 25).
EQUAL_BUDGET_BOX_NS = (6, 8, 11)


@pytest.fixture(scope="module")
def table3_box_equal_budget():
    preset = replace(get_preset("table3"), ns=EQUAL_BUDGET_BOX_NS)
    return run_table(preset, domain_shape="box")


@pytest.fixture(scope="module")
def table2_rows():
    start = time.perf_counter()
    rows = run_table(get_preset("table2"))
    return rows, time.perf_counter() - start


@pytest.fixture(scope="module")
def rate_sweep():
    preset_deltas = tuple(float(d) for d in np.geomspace(1e-5, 1e-9, 5))
    return convergence_sweep(
        F2,
        mu=6.0,
        s=2.0,
        p=2.0,
        deltas=preset_deltas,
        seeds=10,
        noise_kind="projected",
    )


# --------------------------------------------------------------------------
# 1. Deterministic reproduction of the F2 trapezoid-noise reference rows
# --------------------------------------------------------------------------


class TestTable3Reproduction:
    L2_TARGETS = (3.8e-5, 1e-6, 1.53e-7)
    SUP_TARGETS = (1.85e-4, 6.37e-6, 8.17e-7)

    def test_l2_within_factor_five(self, table3_cross):
        rows, _ = table3_cross
        assert len(rows) == 3
        for row, target in zip(rows, self.L2_TARGETS):
            assert target / 5.0 <= row.l2_error <= target * 5.0, (
                f"delta={row.delta}: l2={row.l2_error} vs pinned {target}"
            )

    def test_sup_within_factor_five(self, table3_cross):
        rows, _ = table3_cross
        for row, target in zip(rows, self.SUP_TARGETS):
            assert target / 5.0 <= row.sup_error <= target * 5.0, (
                f"delta={row.delta}: sup={row.sup_error} vs pinned {target}"
            )

    def test_runtime_under_two_minutes(self, table3_cross):
        _, elapsed = table3_cross
        assert elapsed < 120.0


# --------------------------------------------------------------------------
# 2. Deterministic reproduction of the F1 trapezoid-noise reference rows
# --------------------------------------------------------------------------


class TestTable2Reproduction:
    L2_TARGETS = (4.8e-5, 3.2e-5, 6.6e-6)
    SUP_TARGETS = (7.53e-4, 4.9e-4, 2.53e-5)

    def test_errors_within_one_order(self, table2_rows):
        rows, _ = table2_rows
        assert len(rows) == 3
        for row, l2_t, sup_t in zip(rows, self.L2_TARGETS, self.SUP_TARGETS):
            assert l2_t / 10.0 <= row.l2_error <= l2_t * 10.0, (
                f"delta={row.delta}: l2={row.l2_error} vs pinned {l2_t}"
            )
            assert sup_t / 10.0 <= row.sup_error <= sup_t * 10.0, (
                f"delta={row.delta}: sup={row.sup_error} vs pinned {sup_t}"
            )

    def test_runtime_under_five_minutes(self, table2_rows):
        _, elapsed = table2_rows
        assert elapsed < 300.0


# --------------------------------------------------------------------------
# 3. Stochastic Gaussian-noise reference rows (known red - see module docstring)
# --------------------------------------------------------------------------


class TestTable1Reproduction:
    L2_TARGETS = (1.1e-4, 2.73e-5, 6.7e-6)

    def test_gaussian_noise_medians_match_reference(self):
        rows = run_table(get_preset("table1"), seeds=20)
        medians = [row.l2_error for row in rows if row.seed == "median"]
        assert len(medians) == 3
        for median, target in zip(medians, self.L2_TARGETS):
            assert target / 10.0 <= median <= target * 10.0, (
                f"median l2={median:.3e} vs pinned {target:.1e} "
                f"(all medians: {[f'{m:.3e}' for m in medians]}). "
                "Raw Gaussian noise of size delta on each consumed coefficient "
                "is amplified by differentiation weights of order 2e5 at these "
                "truncation levels, while the derivative being recovered has "
                "L2 size about 1e-4; the pinned medians are therefore about "
                "three orders of magnitude below what delta-sized coefficient "
                "noise allows. Scaling the noise by the function's 1/754 "
                "normalization instead reproduces the pinned medians to "
                "within a factor of about 2.8, which suggests the reference "
                "rows were produced with noise applied before normalization."
            )

    def test_noiseless_errors_lie_below_the_pins(self):
        """Without noise the method's error at each row (4.046e-5, 2.645e-5,
        2.909e-6) lies below its pin: the truncation part agrees with the pins,
        which narrows the known-red failure above down to the noise model.  It
        rules no noise model in."""
        preset = get_preset("table1")
        degree = max(preset.ns) - 1
        base = exact_coeffs(preset.function, degree, degree, G=preset.coeff_G)
        reference = preset.function.derivative_function()
        errors = []
        for delta, n in zip(preset.deltas, preset.ns):
            config = MethodConfig(
                r=preset.r, mu=preset.mu, delta=delta, s=preset.s, p=preset.p, n_override=n
            )
            approx = run(base.restrict(config.domain()), config)
            errors.append(l2_error(approx, reference, preset.metric_G))
        assert all(e < t for e, t in zip(errors, self.L2_TARGETS)), (errors, self.L2_TARGETS)


# --------------------------------------------------------------------------
# 4. Orthonormality of the basis under the bundled Gauss rule
# --------------------------------------------------------------------------


class TestOrthonormality:
    def test_gram_matrix_within_1e10(self):
        start = time.perf_counter()
        rule = gauss_rule(64)
        table = eval_phi_table(40, rule.nodes)
        gram = (table * rule.weights) @ table.T
        deviation = np.max(np.abs(gram - np.eye(41)))
        elapsed = time.perf_counter() - start
        assert deviation < 1e-10
        assert elapsed < 5.0


# --------------------------------------------------------------------------
# 5. Derivative expansions against an independent polynomial oracle
# --------------------------------------------------------------------------


class TestDerivativeOracle:
    def test_expansions_match_symbolic_differentiation(self):
        # 33 Chebyshev-spaced points cover the domain with boundary emphasis.
        points = np.cos(np.pi * np.arange(33) / 32.0)
        for k in range(21):
            for r in range(4):
                basis = np.zeros(k + 1)
                basis[k] = math.sqrt(k + 0.5)
                oracle = npleg.legval(points, npleg.legder(basis, r)) if r <= k else (
                    np.zeros_like(points)
                )
                coeffs = phi_derivative_coeffs(k, r)
                if coeffs.size == 0:
                    ours = np.zeros_like(points)
                else:
                    ours = coeffs @ eval_phi_table(coeffs.size - 1, points)
                scale = max(np.max(np.abs(oracle)), 1.0)
                assert np.max(np.abs(ours - oracle)) / scale < 1e-8, (k, r)

    def test_own_order_derivative_closed_form(self):
        # phi_r^(r) is the constant sqrt(r+1/2) * (2r)! / (2^r r!), i.e. the
        # phi_0 coefficient sqrt(r+1/2) * 2^(1/2-r) * (2r)!/r!.
        for r in (1, 2, 3):
            expected = (
                math.sqrt(r + 0.5)
                * 2.0 ** (0.5 - r)
                * math.factorial(2 * r)
                / math.factorial(r)
            )
            coeffs = phi_derivative_coeffs(r, r)
            assert coeffs.size == 1
            assert abs(coeffs[0] - expected) <= 1e-12 * expected


# --------------------------------------------------------------------------
# 6. Exact recovery for polynomials the truncation can represent
# --------------------------------------------------------------------------


class TestPolynomialExactness:
    def test_degree_eight_polynomial_recovered_to_1e8(self):
        rng = np.random.default_rng(2024)
        legcoef = rng.uniform(-1.0, 1.0, size=(9, 9))
        poly = BivariateFunction(
            value=lambda t, tau: npleg.legval2d(
                *np.broadcast_arrays(t, tau), legcoef
            ),
            d22=lambda t, tau: npleg.legval2d(
                *np.broadcast_arrays(t, tau),
                npleg.legder(npleg.legder(legcoef, 2, axis=0), 2, axis=1),
            ),
            name="poly8",
        )
        field = exact_coeffs(poly, 10, 10, G=36)
        cfg = MethodConfig(
            r=2, mu=6.0, delta=0.0, n_override=10, domain_shape="box"
        )
        approx = run(field, cfg)
        points = rng.uniform(-1.0, 1.0, size=(25, 2))
        ours = approx.series.eval_points(points[:, 0], points[:, 1])
        oracle = poly.d22(points[:, 0], points[:, 1])
        assert np.max(np.abs(ours - oracle)) < 1e-8


# --------------------------------------------------------------------------
# 7. Error-vs-noise rate against the predicted exponent
# --------------------------------------------------------------------------


class TestConvergenceRate:
    def test_fitted_slope_near_one_third(self, rate_sweep):
        assert rate_sweep.theoretical_exponent == pytest.approx(1.0 / 3.0)
        assert abs(rate_sweep.fitted_slope - 1.0 / 3.0) <= 0.3, (
            f"fitted slope {rate_sweep.fitted_slope} strays more than 0.3 "
            f"from the predicted exponent 1/3"
        )


# --------------------------------------------------------------------------
# 8. Information efficiency of the cross against the box
# --------------------------------------------------------------------------


class TestInformationEfficiency:
    def test_cross_uses_strictly_fewer_coefficients(self, table3_cross, table3_box):
        for n in range(5, 61):
            assert (
                IndexDomain.cross(2, n).cardinality()
                < IndexDomain.box(2, n).cardinality()
            ), n
        rows, _ = table3_cross
        for cross_row, box_row in zip(rows, table3_box):
            assert cross_row.card < box_row.card

    def test_cross_error_within_factor_three_of_box(
        self, table3_cross, table3_box_equal_budget
    ):
        rows, _ = table3_cross
        assert len(table3_box_equal_budget) == len(rows)
        for cross_row, box_row in zip(rows, table3_box_equal_budget):
            # Equal budget: the box is the largest one within the cross's card.
            assert box_row.card <= cross_row.card, (cross_row.n, box_row.n)
            assert (
                IndexDomain.box(2, box_row.n + 1).cardinality() > cross_row.card
            ), (cross_row.n, box_row.n)
            ratio = cross_row.l2_error / box_row.l2_error
            assert ratio <= 3.0, (
                f"delta={cross_row.delta}: cross l2={cross_row.l2_error:.3e} "
                f"on {cross_row.card} coefficients is {ratio:.2f}x the box "
                f"l2={box_row.l2_error:.3e} on {box_row.card} coefficients "
                "(limit 3x at equal budget)."
            )


# --------------------------------------------------------------------------
# 9. Projected noise lands exactly on the requested norm
# --------------------------------------------------------------------------


class TestProjectedNoiseContract:
    def test_norm_equals_delta_on_random_fields(self):
        rng = np.random.default_rng(99)
        for trial in range(100):
            k_max = int(rng.integers(2, 12))
            j_max = int(rng.integers(2, 12))
            count = int(rng.integers(1, (k_max + 1) * (j_max + 1)))
            pairs = {
                (int(rng.integers(0, k_max + 1)), int(rng.integers(0, j_max + 1)))
                for _ in range(count)
            }
            field = from_entries(
                {kj: float(rng.normal()) * 10.0 ** rng.integers(-6, 3) for kj in pairs}
            )
            delta = float(10.0 ** rng.uniform(-8.0, -0.5))
            for p in (1.0, 2.0, math.inf):
                spec = NoiseSpec(kind="projected", delta=delta, p=p, seed=trial)
                xi = noise_vector(field, spec)
                if math.isinf(p):
                    norm = float(np.max(np.abs(xi)))
                else:
                    norm = float(np.sum(np.abs(xi) ** p) ** (1.0 / p))
                assert abs(norm - delta) <= 1e-12 * delta, (trial, p, norm, delta)
