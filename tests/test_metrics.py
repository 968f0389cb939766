"""Square-mean and uniform error metrics."""

import dataclasses
import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from legdiff import basis, coeffs, metrics
from legdiff.basis import composite_gauss_rule, grid_factors, legendre_table
from legdiff.coeffs import BivariateFunction, CoeffField, exact_coeffs
from legdiff.experiments import F1, F2, ExperimentPreset, run_table
from legdiff.method import ApproxDerivative, MethodConfig, run
from legdiff.metrics import ErrorReport, error_report, l2_error, sup_error
from legdiff.noise import NoiseSpec, perturb

from oracles import from_entries


def _constant_reference(c):
    return BivariateFunction(
        value=lambda t, tau: np.broadcast_arrays(np.full_like(np.asarray(t, float), c), tau)[0],
        name=f"const_{c}",
    )


def _phi22_approx():
    """phi_2 phi_2 differentiated twice per axis: the constant 22.5."""
    field = from_entries({(2, 2): 1.0})
    cfg = MethodConfig(r=2, mu=6.0, delta=0.0, n_override=3, domain_shape="box")
    return run(field, cfg)


def _zero_approx():
    cfg = MethodConfig(r=2, mu=6.0, delta=0.0, n_override=3, domain_shape="box")
    return run(from_entries({}), cfg)


class TestL2Error:
    def test_identity_is_zero(self):
        approx = _phi22_approx()
        err = l2_error(approx, _constant_reference(22.5), G=32)
        assert err <= 1e-13

    def test_zero_approx_vs_constant(self):
        # ||c||_L2 over a domain of area 4 is 2|c|.
        err = l2_error(_zero_approx(), _constant_reference(-1.5), G=16)
        assert err == pytest.approx(3.0, rel=1e-13)

    def test_order_below_floor_is_raised_to_the_floor(self):
        """An order below the floor is not refused: it is raised to the floor."""
        field = from_entries({(k, k): 1.0 for k in range(2, 8)})
        cfg = MethodConfig(r=2, mu=6.0, delta=0.0, n_override=8, domain_shape="box")
        approx = run(field, cfg)
        # The mask materializes the full Box(2, 8), so the differentiated
        # series has degree 8 - 2 = 6 regardless of sparsity: the floor is 20.
        reference = BivariateFunction(
            value=lambda t, tau: np.cos(2.0 * t) * np.sin(1.0 + tau), name="smooth"
        )
        assert l2_error(approx, reference, G=19) == l2_error(approx, reference, G=20)

    def test_stable_under_quadrature_refinement(self):
        fn = BivariateFunction(
            value=lambda t, tau: np.cos(2.0 * t) * np.sin(1.0 + tau),
            name="smooth",
        )
        field = exact_coeffs(fn, k_max=9, j_max=9, G=24)
        cfg = MethodConfig(r=2, mu=6.0, delta=0.0, n_override=9, domain_shape="box")
        approx = run(field, cfg)
        a = l2_error(approx, _constant_reference(0.0), G=96)
        b = l2_error(approx, _constant_reference(0.0), G=112)
        assert a == pytest.approx(b, rel=1e-10)

    def test_respects_reference_breakpoints(self):
        # Against the constant 22.5, the reference |t| leaves the cross term
        # -45|t| in the squared difference; only panels split at the kink
        # integrate it exactly:
        # integral of (22.5 - |t|)^2 over the square = 2025 - 90 + 4/3.
        fn = BivariateFunction(
            value=lambda t, tau: np.abs(t) + 0.0 * tau,
            t_breakpoints=(0.0,),
            name="abs_t",
        )
        err = l2_error(_phi22_approx(), fn, G=24)
        assert err == pytest.approx(np.sqrt(2025.0 - 90.0 + 4.0 / 3.0), rel=1e-13)

    def test_zero_approx_vs_kinked_reference(self):
        fn = BivariateFunction(
            value=lambda t, tau: np.abs(t) + 0.0 * tau,
            t_breakpoints=(0.0,),
            name="abs_t",
        )
        err = l2_error(_zero_approx(), fn, G=24)
        assert err == pytest.approx(np.sqrt(4.0 / 3.0), rel=1e-13)


class TestSupError:
    def test_identity_is_zero(self):
        approx = _phi22_approx()
        assert sup_error(approx, _constant_reference(22.5), m=21) <= 1e-13

    def test_zero_approx_vs_constant(self):
        assert sup_error(_zero_approx(), _constant_reference(-1.5), m=11) == pytest.approx(1.5)

    @pytest.mark.parametrize("m", [2, 1, 0, -3, 4, 100])
    def test_rejects_even_or_tiny_grid(self, m):
        with pytest.raises(ValueError):
            sup_error(_zero_approx(), _constant_reference(1.0), m=m)

    def test_grid_includes_boundary_and_center(self):
        # A reference peaking only at t=tau=1 must be seen by the grid.
        fn = BivariateFunction(
            value=lambda t, tau: np.where((t >= 1.0) & (tau >= 1.0), 5.0, 0.0),
            name="corner_spike",
        )
        assert sup_error(_zero_approx(), fn, m=3) == pytest.approx(5.0)

    def test_stable_under_grid_refinement(self):
        fn = BivariateFunction(
            value=lambda t, tau: np.cos(2.0 * t) * np.sin(1.0 + tau),
            name="smooth",
        )
        field = exact_coeffs(fn, k_max=9, j_max=9, G=24)
        cfg = MethodConfig(r=2, mu=6.0, delta=0.0, n_override=9, domain_shape="box")
        approx = run(field, cfg)
        a = sup_error(approx, _constant_reference(0.0), m=201)
        b = sup_error(approx, _constant_reference(0.0), m=401)
        assert a == pytest.approx(b, rel=0.1)


class TestErrorReport:
    def test_report_fields_and_invariant(self):
        approx = _phi22_approx()
        report = error_report(approx, _constant_reference(20.0))
        # approx - reference = 2.5 everywhere: L2 norm 5, sup norm 2.5.
        assert report.l2_error == pytest.approx(5.0, rel=1e-13)
        assert report.sup_error == pytest.approx(2.5, rel=1e-13)
        assert [f.name for f in dataclasses.fields(report)] == ["l2_error", "sup_error"]

    def test_l2_bounded_by_twice_sup(self):
        rng = np.random.default_rng(9)
        fn = BivariateFunction(
            value=lambda t, tau: np.exp(-t * t) * np.cos(3.0 * tau),
            name="bump",
        )
        field = exact_coeffs(fn, k_max=7, j_max=7, G=24)
        cfg = MethodConfig(r=2, mu=6.0, delta=0.0, n_override=7, domain_shape="box")
        approx = run(field, cfg)
        report = error_report(approx, _constant_reference(rng.normal()))
        assert report.l2_error <= 2.0 * report.sup_error * (1.0 + 1e-9)

    def test_validate_rejects_inconsistent_report(self):
        bad = ErrorReport(l2_error=10.0, sup_error=1.0)
        with pytest.raises(ValueError, match=r"l2_error=10.0 exceeds 2\*sup_error=2.0"):
            bad.validate()

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["l2_error", "sup_error"])
    def test_validate_names_the_non_finite_error(self, name, value):
        # NaN fails every comparison, so the inequality alone would blame it.
        errors = {"l2_error": 1.0, "sup_error": 1.0, name: value}
        bad = ErrorReport(**errors)
        with pytest.raises(ValueError, match=rf"^{name}={value} is not finite"):
            bad.validate()

    def test_nan_reference_is_reported_as_not_finite(self):
        reference = BivariateFunction(
            value=lambda t, tau: np.where(t > 0.5, np.nan, 22.5) + 0.0 * tau
        )
        with pytest.raises(ValueError, match=r"^l2_error=nan is not finite"):
            error_report(_phi22_approx(), reference)


def _scratch_l2(approx, reference, G):
    """The square-mean error evaluated from scratch by the series itself."""
    edges_t, edges_tau = reference.axis_edges()
    rule_t = composite_gauss_rule(G, edges_t)
    rule_tau = composite_gauss_rule(G, edges_tau)
    diff = approx.series.eval_grid(rule_t.nodes, rule_tau.nodes)
    diff -= reference.value(rule_t.nodes[:, None], rule_tau.nodes[None, :])
    return float(np.sqrt(max(rule_t.weights @ (diff * diff) @ rule_tau.weights, 0.0)))


def _scratch_sup(approx, reference, m):
    grid = np.linspace(-1.0, 1.0, m)
    diff = approx.series.eval_grid(grid, grid)
    diff -= reference.value(grid[:, None], grid[None, :])
    return float(np.max(np.abs(diff)))


def _noisy_approx(function, shape, n, seed):
    cfg = MethodConfig(r=2, mu=6.0, delta=1e-6, n_override=n, domain_shape=shape)
    degree = n if shape == "box" else n - 1
    field = exact_coeffs(function, degree, degree, G=2 * degree + 16)
    field = perturb(
        field.restrict(cfg.domain()), NoiseSpec(kind="gaussian", delta=1e-6, seed=seed)
    )
    return run(field, cfg)


class TestHeldReference:
    @pytest.mark.parametrize("shape", ["cross", "box"])
    @pytest.mark.parametrize("function", [F1, F2], ids=["f1", "f2"])
    def test_repeated_calls_are_bit_identical(self, function, shape):
        # One held reference across several n, revisiting a degree after
        # others, gives exactly the from-scratch values, at error_report's G and m.
        reference = function.derivative_function()
        G, m = metrics.DEFAULT_G, metrics.DEFAULT_M
        for seed, n in enumerate((5, 12, 9, 5, 16)):
            approx = _noisy_approx(function, shape, n, seed)
            l2 = l2_error(approx, reference, G)
            sup = sup_error(approx, reference, m)
            assert l2 == _scratch_l2(approx, reference, G)
            assert sup == _scratch_sup(approx, reference, m)
            report = error_report(approx, reference)
            assert (report.l2_error, report.sup_error) == (l2, sup)

    def test_order_below_floor_rebuilds_the_grid_per_order_change(self):
        """G is a floor: each call measures on a Gauss grid of the effective order."""
        calls = []

        def value(t, tau):
            calls.append(np.broadcast_shapes(np.shape(t), np.shape(tau)))
            return np.cos(t) * np.sin(tau)

        reference = BivariateFunction(value=value, t_breakpoints=(0.0,), name="counted")
        fresh = BivariateFunction(value=_smooth, t_breakpoints=(0.0,), name="fresh")
        small = _noisy_approx(F2, "box", 5, 0)  # derived degree 3: floor 14, G = 19
        large = _noisy_approx(F2, "box", 8, 0)  # derived degree 6: floor 20
        for approx, G in ((small, 19), (large, 20), (small, 19), (large, 20)):
            l2 = l2_error(approx, reference, G=19)
            assert l2 == l2_error(approx, reference, G=G) == _scratch_l2(approx, fresh, G)
        # Each order change evaluates the reference again; a call at the
        # latest effective order reuses its grid.
        assert calls == [(38, 19), (40, 20)] * 2

    @pytest.mark.parametrize("function", [F1, F2], ids=["f1", "f2"])
    def test_raising_the_order_above_the_floor_moves_little(self, function):
        reference = function.derivative_function()
        approx = _noisy_approx(function, "cross", 31, 3)
        base = l2_error(approx, reference, G=96)
        assert l2_error(approx, reference, G=192) == pytest.approx(base, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("m", [2, 1, 0, -3, 4, 100])
    def test_rejects_even_or_tiny_grid(self, m):
        calls = []
        reference = _counted_reference(calls, t_breakpoints=(0.0,))
        approx = _zero_approx()
        with pytest.raises(ValueError, match="odd and >= 3"):
            sup_error(approx, reference, m=m)
        # Refused before the reference is evaluated.
        assert calls == []
        assert reference not in metrics._GRIDS

    @pytest.mark.parametrize("m", [201.0, math.nan, "201"])
    def test_rejects_grid_size_that_is_no_integer_before_any_grid(self, m):
        calls = []
        reference = _counted_reference(calls)
        with pytest.raises(ValueError, match=f"m={m!r} must be an integer"):
            sup_error(_zero_approx(), reference, m=m)
        assert calls == [] and reference not in metrics._GRIDS

    @pytest.mark.parametrize("G", [96.0, math.nan, "96"])
    def test_rejects_order_that_is_no_integer_before_any_rule(self, G, monkeypatch):
        def no_rule(order):
            raise AssertionError("no Gauss rule may be built")

        monkeypatch.setattr(basis, "gauss_rule", no_rule)
        calls = []
        reference = _counted_reference(calls)
        with pytest.raises(ValueError, match=f"G={G!r} must be an integer"):
            l2_error(_zero_approx(), reference, G)
        assert calls == [] and reference not in metrics._GRIDS

    @pytest.mark.parametrize("m", [2049, 100001])
    def test_rejects_oversized_grid_before_allocating(self, m):
        def value(t, tau):
            raise AssertionError("the reference must not be evaluated")

        reference = BivariateFunction(value=value, name="untouchable")
        approx = _zero_approx()
        with pytest.raises(ValueError, match="over the limit"):
            sup_error(approx, reference, m=m)
        assert reference not in metrics._GRIDS

    def test_grid_bound_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(coeffs, "MAX_DENSE_ENTRIES", 49)
        assert sup_error(_zero_approx(), _constant_reference(1.0), m=7) == pytest.approx(1.0)
        with pytest.raises(ValueError, match="over the limit"):
            sup_error(_zero_approx(), _constant_reference(1.0), m=9)

    @pytest.mark.parametrize("G", [4103, 10**6])
    def test_rejects_gauss_order_over_the_limit_before_any_rule(self, G, monkeypatch):
        def value(t, tau):
            raise AssertionError("the reference must not be evaluated")

        def no_rule(order):
            raise AssertionError("no Gauss rule may be built")

        monkeypatch.setattr(basis, "gauss_rule", no_rule)
        reference = BivariateFunction(value=value, name="untouchable")
        approx = _zero_approx()
        message = f"order G={G} per panel is over the limit of 4102"
        with pytest.raises(ValueError, match=message):
            l2_error(approx, reference, G)
        # A series of degree 2048 gets the degree rule's order 4104 at any G.
        wide = dataclasses.replace(approx, series=CoeffField.from_dense(np.zeros((1, 2049))))
        with pytest.raises(ValueError, match="order G=4104 per panel is over the limit"):
            l2_error(wide, reference, 16)
        with pytest.raises(ValueError, match="order G=4104 per panel is over the limit"):
            error_report(wide, reference)
        assert reference not in metrics._GRIDS

    def test_gauss_order_bound_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(coeffs, "_MAX_DEGREE", 6)  # Gauss order limit 2*6 + 8
        assert l2_error(_zero_approx(), _constant_reference(1.0), G=20) == pytest.approx(2.0)
        with pytest.raises(ValueError, match="over the limit of 20"):
            l2_error(_zero_approx(), _constant_reference(1.0), G=21)

    def test_reference_evaluated_once_per_grid(self):
        calls = []
        reference = _counted_reference(calls, t_breakpoints=(0.0,))
        for seed, n in enumerate((4, 6, 4)):
            error_report(_noisy_approx(F2, "cross", n, seed), reference)
        # DEFAULT_G = 96 per panel on two t-panels, and DEFAULT_M = 201.
        assert calls == [(192, 96), (201, 201)]


def _smooth(t, tau):
    return np.cos(t) * np.sin(tau)


def _counted_reference(calls, **fields):
    """A smooth reference that records the grid shape of every evaluation."""

    def value(t, tau):
        calls.append(np.broadcast_shapes(np.shape(t), np.shape(tau)))
        return _smooth(t, tau)

    return BivariateFunction(value=value, name="counted", **fields)


class _UnhashableCallable:
    """A callable reference value that cannot be hashed."""

    __hash__ = None

    def __call__(self, t, tau):
        return _smooth(t, tau)


class TestGridStore:
    def test_held_reference_is_evaluated_once_per_grid(self):
        calls = []
        reference = _counted_reference(calls, t_breakpoints=(0.0,))
        G, m = metrics.DEFAULT_G, metrics.DEFAULT_M
        for seed, n in enumerate((4, 6, 4, 6)):
            approx = _noisy_approx(F2, "cross", n, seed)
            l2 = l2_error(approx, reference, G)
            sup = sup_error(approx, reference, m)
            report = error_report(approx, reference)
            assert (report.l2_error, report.sup_error) == (l2, sup)
            # Another object, new each time, builds everything from scratch.
            fresh = BivariateFunction(value=_smooth, t_breakpoints=(0.0,), name="fresh")
            assert l2 == l2_error(approx, fresh, G) == _scratch_l2(approx, fresh, G)
            assert sup == sup_error(approx, fresh, m) == _scratch_sup(approx, fresh, m)
        assert calls == [(2 * G, G), (m, m)]

    def test_store_keeps_only_the_latest_grids(self, monkeypatch):
        """Standalone calls over several sizes keep one grid of each kind."""
        calls = []
        reference = _counted_reference(calls, t_breakpoints=(0.0,))
        held = []

        def recording_rule(G, edges):
            # While a new Gauss grid is built, the store holds no other.
            held.append(metrics._GRIDS[reference].get("gauss"))
            return composite_gauss_rule(G, edges)

        approxs = [_noisy_approx(F2, "box", n, 0) for n in (5, 8, 11)]
        # The metrics take their Gauss rules from BivariateFunction.gauss_rules.
        monkeypatch.setattr(coeffs, "composite_gauss_rule", recording_rule)
        fresh = BivariateFunction(value=_smooth, t_breakpoints=(0.0,), name="fresh")
        earlier = []
        # Derived degrees 3, 6 and 9: Gauss orders 14, 20 and 26 above the floor 8.
        for approx, order, m in zip(approxs, (14, 20, 26), (5, 7, 9)):
            assert l2_error(approx, reference, G=8) == _scratch_l2(approx, fresh, order)
            assert sup_error(approx, reference, m=m) == _scratch_sup(approx, fresh, m)
            grids = metrics._GRIDS[reference]
            earlier.append(weakref.ref(grids["gauss"].values))
            earlier.append(weakref.ref(grids["uniform"].values))
        assert calls == [(28, 14), (5, 5), (40, 20), (7, 7), (52, 26), (9, 9)]
        grids = metrics._GRIDS[reference]
        assert sorted(grids) == ["gauss", "uniform"]
        assert (grids["gauss"].size, grids["uniform"].size) == (26, 9)
        # One table per axis node set, of the degree measured last (9), and no other.
        assert [table.shape for table in grids["gauss"].tables.values()] == [(10, 52), (10, 26)]
        assert [table.shape for table in grids["uniform"].tables.values()] == [(10, 9)]
        assert [alive() is None for alive in earlier] == [True] * 4 + [False] * 2
        # A size measured before is built again.
        l2_error(approxs[0], reference, G=8)
        assert calls[-1] == (28, 14)
        assert grids["gauss"].size == 14
        assert held == [None] * 8  # four grids, two rules each

    def test_held_reference_at_rising_orders_holds_only_its_latest_grid(self, monkeypatch):
        """A held reference at rising Gauss orders keeps only its latest grid and tables."""
        values, tables = [], []

        def tracked_value(t, tau):
            result = _smooth(t, tau)
            values.append(weakref.ref(result))
            return result

        def tracked_table(degree, nodes):
            result = legendre_table(degree, nodes)
            tables.append(weakref.ref(result))
            return result

        legendre_table = metrics.legendre_table
        monkeypatch.setattr(metrics, "legendre_table", tracked_table)
        reference = BivariateFunction(value=tracked_value, t_breakpoints=(0.0,), name="tracked")
        # Derived degrees 3, 6 and 9: Gauss orders 14, 20 and 26 above the floor 8.
        for n in (5, 8, 11):
            l2_error(_noisy_approx(F2, "box", n, 0), reference, G=8)
        gc.collect()
        assert [alive() is not None for alive in values] == [False, False, True]
        # Two tables per grid: the axes have different panel edges.
        assert [alive() is not None for alive in tables] == [False] * 4 + [True] * 2
        assert metrics._GRIDS[reference]["gauss"].size == 26  # the reference is held

    def test_store_goes_with_its_reference(self):
        gc.collect()
        before = len(metrics._GRIDS)
        reference = BivariateFunction(value=_smooth, name="transient")
        error_report(_phi22_approx(), reference)
        assert len(metrics._GRIDS) == before + 1
        alive = weakref.ref(reference)
        del reference
        gc.collect()
        assert alive() is None
        assert len(metrics._GRIDS) == before

    def test_run_table_keeps_no_grids(self):
        preset = ExperimentPreset(
            function=F1,
            deltas=(1e-4,), ns=(4,), hs=None, mu=5.5,
        )
        gc.collect()
        before = len(metrics._GRIDS)
        assert len(run_table(preset, seeds=2)) == 3
        gc.collect()
        assert len(metrics._GRIDS) == before

    @pytest.mark.parametrize(
        "reference",
        [
            BivariateFunction(value=_smooth, t_breakpoints=[0.0], tau_breakpoints=[-0.5, 0.5]),
            BivariateFunction(value=_UnhashableCallable(), t_breakpoints=(0.0,)),
        ],
        ids=["list_breakpoints", "unhashable_callable"],
    )
    def test_unhashable_fields_still_key_the_store(self, reference):
        approx = _noisy_approx(F2, "cross", 6, 1)
        report = error_report(approx, reference)
        assert report.l2_error == _scratch_l2(approx, reference, metrics.DEFAULT_G)
        assert report.sup_error == _scratch_sup(approx, reference, metrics.DEFAULT_M)
        assert reference in metrics._GRIDS

    @pytest.mark.parametrize(
        ("tau_breakpoints", "sizes"),
        [((0.0,), [48]), ((), [48, 24])],
        ids=["equal_edges", "unequal_edges"],
    )
    def test_gauss_tables_per_distinct_node_set(self, monkeypatch, tau_breakpoints, sizes):
        built = []

        def counting_table(degree, nodes):
            built.append((degree, nodes.size))
            return legendre_table(degree, nodes)

        legendre_table = metrics.legendre_table
        monkeypatch.setattr(metrics, "legendre_table", counting_table)
        reference = BivariateFunction(
            value=_smooth, t_breakpoints=(0.0,), tau_breakpoints=tau_breakpoints
        )
        small = _noisy_approx(F2, "box", 5, 0)  # derived degree 3
        large = _noisy_approx(F2, "box", 7, 0)  # derived degree 5
        for approx in (small, large, small, large):
            assert l2_error(approx, reference, G=24) == _scratch_l2(approx, reference, 24)
        # One Gauss grid throughout; its tables follow the latest degree.
        assert built == ([(3, size) for size in sizes] + [(5, size) for size in sizes]) * 2


def test_grid_products_receive_the_derived_corner(monkeypatch):
    # n = 300, r = 2: the domain's corner (24, 25) less r on each axis.
    config = MethodConfig(r=2, mu=5.5, delta=0.0, n_override=300)
    field = CoeffField.from_dense(np.random.default_rng(4).standard_normal((300, 300)))
    approx = run(field, config)
    corners = []

    def spy(table_t, coeffs, table_tau, corner=None):
        corners.append(corner)
        return grid_factors(table_t, coeffs, table_tau, corner)

    # Every grid product takes its factors from grid_factors, imported by name.
    for module in (coeffs, metrics):
        monkeypatch.setattr(module, "grid_factors", spy)
    reference = F1.derivative_function()
    # On its 1204-node Gauss grid the L2 error is taken in coefficient space:
    # neither the first call nor a warm one makes a grid product.
    assert l2_error(approx, reference, G=96) == l2_error(approx, reference, G=96)
    assert corners == []
    sup_error(approx, reference, m=401)
    grid = np.linspace(-1.0, 1.0, 401)
    approx.series.eval_grid(grid, grid)
    assert corners == [(22, 23)] * 2


def _unblocked_diff(series, t, tau, values):
    """Series minus reference from one whole-grid product, and the bound E on
    each product entry's rounding: E = eps * (max(K, J) + a + b) *
    |T_t|^T |C| |T_tau|, the rounding model of ``test_basis._rounding_bound``.
    """
    coeffs, corner = series.values, series.zero_corner
    table_t = legendre_table(coeffs.shape[0] - 1, t)
    table_tau = legendre_table(coeffs.shape[1] - 1, tau)
    left, right = grid_factors(table_t, coeffs, table_tau, corner)
    diff = left @ right - values
    a, b = corner or (0, 0)
    size = np.abs(table_t).T @ np.abs(coeffs) @ np.abs(table_tau)
    return diff, np.finfo(np.float64).eps * (max(coeffs.shape) + a + b) * size


@pytest.fixture(scope="module")
def cross_300():
    """F1's derived cross series at n = 300 and a held reference, both grids warm."""
    approx = _noisy_approx(F1, "cross", 300, 0)
    reference = F1.derivative_function()
    l2_error(approx, reference, G=96)
    sup_error(approx, reference)
    return approx, reference


class TestRowBlocks:
    """The metrics reduce the grid in row blocks of at most _BLOCK_ENTRIES entries."""

    def test_blocks_match_the_unblocked_product(self, cross_300):
        """Both metrics stay within the rounding of one whole-grid product.

        Each entry of either evaluation errs from the exact grid by at most
        E + eps |diff| (product, then subtraction of the reference), so the two
        differ by at most D = 2 (E + eps |diff|), and so do their sup errors.

        On this multi-block Gauss grid the L2 error is taken in coefficient
        space, as ||C - B||^2 + tail with B = T_t W_t F W_tau T_tau^T and tail
        the weighted square sum of F minus B's grid.  In exact arithmetic on
        the float64 tables T, weights W and values F, it differs from the grid
        sum sum w_t w_tau (T_t^T C T_tau - F)^2 by the orthonormality defect
        of those tables and weights: the grid sum is larger by q(C) - q(B), where
        q(X) = <X, Dl X> + <X, X Dr> + <X, Dl X Dr> and Dl, Dr are
        T W T^T - I per axis (here one matrix, the axes sharing their nodes).
        The rounding on each side:

        - the grid sum: sum w_t w_tau |d1^2 - d2^2| <= sum w_t w_tau
          D (2 |diff| + D) against the exact sum, plus the weighted sums of
          nonnegative terms, N_t + N_tau + 2 roundings deep, each erring by at
          most (N_t + N_tau + 2) * eps / 2 relative;
        - q: T W T^T is taken in long double, erring by at most
          (N + 2) eps_ld |T| W |T|^T, then rounded to float64 (eps |D|), and q
          is evaluated in float64 in at most 2K + 4 roundings per term, so
          it errs by at most qa(C, E) + qa(B, |D| + E) + (2K + 4) eps
          qa(C, |D| + E), where qa(X, A) is q with |X| and A for both defects;
        - B: the metric projects F1''s declared factors u, v (F rounds
          s u v twice), through an N-term sum per axis and two roundings on
          the outer product and the scale s: (N_t + N_tau + 10) eps s
          (|T_t| W_t |u|)(|T_tau| W_tau |v|)^T bounds the error, EB;
        - ||C - B||^2 by sum EB (2 |C - B| + EB) for B, and by
          (K + J + 3) eps of itself for the subtraction, the square and the
          pairwise np.sum over K x J terms (no deeper than K + J);
        - the tail, a nonnegative sum, by itself plus the exact tail, which is
          at most sum w_t w_tau (|B's grid - F| + its E)^2.
        """
        approx, reference = cross_300
        eps = np.finfo(np.float64).eps
        eps_ld = float(np.finfo(np.longdouble).eps)
        rule_t, rule_tau = reference.gauss_rules(2 * 297 + 8)  # the effective order
        t, tau = rule_t.nodes, rule_tau.nodes
        weights = rule_t.weights
        assert t.size == tau.size == 1204 and rule_tau is rule_t
        assert t.size > metrics._BLOCK_ENTRIES // tau.size  # several blocks
        values = reference.value(t[:, None], tau[None, :])
        diff, bound = _unblocked_diff(approx.series, t, tau, values)
        quad = weights @ (diff * diff) @ weights
        spread = 2.0 * (bound + eps * np.abs(diff))
        quad_bound = weights @ (spread * (2.0 * np.abs(diff) + spread)) @ weights
        quad_bound += (t.size + tau.size + 2) * eps * quad

        coeffs = approx.series.values
        K, J = coeffs.shape
        assert K == J
        projection, tail = metrics._GRIDS[reference]["gauss"].projection
        table = legendre_table(K - 1, t)
        table_ld = table.astype(np.longdouble)
        defect = ((table_ld * weights) @ table_ld.T - np.eye(K, dtype=np.longdouble))
        defect = defect.astype(np.float64)
        gram = (np.abs(table) * weights) @ np.abs(table).T
        error = (t.size + 2) * eps_ld * gram + eps * np.abs(defect)

        def q(x, d):
            return np.sum(x * (d @ x)) + np.sum(x * (x @ d)) + np.sum(x * (d @ x @ d))

        def qa(x, a):
            return q(np.abs(x), a)

        shift = q(coeffs, defect) - q(projection, defect)
        size = np.abs(defect) + error
        shift_bound = (
            qa(coeffs, error) + qa(projection, size) + (2 * K + 4) * eps * qa(coeffs, size)
        )
        ft, gtau, scale = reference.factors
        row = np.abs(table) @ (weights * np.abs(ft(t)))
        error_b = (t.size + tau.size + 10) * eps * scale * np.outer(
            row, np.abs(table) @ (weights * np.abs(gtau(tau)))
        )
        residual = np.abs(coeffs - projection)
        coeff_bound = np.sum(error_b * (2.0 * residual + error_b))
        coeff_bound += (K + J + 3) * eps * np.sum(residual * residual)
        tail_diff, tail_error = _unblocked_diff(CoeffField.from_dense(projection), t, tau, values)
        tail_size = np.abs(tail_diff) + tail_error + eps * np.abs(values)
        coeff_bound += tail + weights @ (tail_size * tail_size) @ weights

        l2 = l2_error(approx, reference, G=96)
        assert abs(l2 * l2 - (quad - shift)) <= quad_bound + shift_bound + coeff_bound

        grid = np.linspace(-1.0, 1.0, 1001)
        assert grid.size > metrics._BLOCK_ENTRIES // grid.size  # several blocks
        values = reference.value(grid[:, None], grid[None, :])
        diff, bound = _unblocked_diff(approx.series, grid, grid, values)
        spread = 2.0 * (bound + eps * np.abs(diff))
        assert abs(sup_error(approx, reference, m=1001) - np.max(np.abs(diff))) <= np.max(spread)

    def test_nan_past_the_first_block_propagates(self):
        def value(t, tau):
            return np.where(t > 0.9, np.nan, 1.0) + 0.0 * tau

        reference = BivariateFunction(value=value, t_breakpoints=(0.0,), tau_breakpoints=(0.0,))
        approx = _phi22_approx()
        G, m = 602, 1001
        for t in reference.gauss_rules(G)[0].nodes, np.linspace(-1.0, 1.0, m):
            first = metrics._BLOCK_ENTRIES // t.size  # rows of the first block
            assert first < t.size and t[first] < 0.9  # the NaN rows come later
        assert np.isnan(l2_error(approx, reference, G=G))
        assert np.isnan(sup_error(approx, reference, m=m))

    def test_measurement_allocates_less_than_half_a_grid(self, cross_300):
        approx, reference = cross_300
        grid = metrics._GRIDS[reference]["gauss"]
        assert (grid.t.size, grid.tau.size) == (1204, 1204)
        grid_bytes = grid.t.size * grid.tau.size * grid.t.itemsize
        tracemalloc.start()
        try:
            l2_error(approx, reference, G=96)
            sup_error(approx, reference)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < grid_bytes / 2


def _nan_above(t, cut=0.9):
    return np.where(np.asarray(t) > cut, np.nan, 1.0)


class TestRecordedErrors:
    """Coefficient-space square-mean errors equal the floats recorded, with one
    BLAS thread, before the tensor projection handed the metrics B's grid.

    The large cross's setting (n = 300, mu = 5.5, delta = 1e-10, order 602),
    with and without F1''s declared factors, and F2'' without them at
    n = 130, whose own order (262, one row block) is raised to 600 so that
    it is measured in coefficient space.  Each holds with two threads too.
    """

    @pytest.mark.parametrize(
        "function, n, seed, G, declared, recorded",
        [
            (F1, 300, 0, 602, True, 1.600686587737463),
            (F1, 300, 31, 602, True, 1.1485055948366896),
            (F1, 300, 0, 602, False, 1.600686587737463),
            (F2, 130, 0, 600, False, 0.03457295759177155),
        ],
        ids=["f1_n300_seed0", "f1_n300_seed31", "f1_n300_seed0_general", "f2_n130_general"],
    )
    def test_l2_error_keeps_its_bytes(self, function, n, seed, G, declared, recorded):
        config = MethodConfig(r=2, mu=5.5, delta=1e-10, n_override=n)
        base = exact_coeffs(function, n - 1, n - 1, G=2 * (n - 1) + 16).restrict(config.domain())
        approx = run(perturb(base, NoiseSpec(kind="gaussian", delta=1e-10, seed=seed)), config)
        reference = function.derivative_function()
        if not declared:
            reference = dataclasses.replace(reference, factors=None)
        assert l2_error(approx, reference, G) == recorded
        grid = metrics._GRIDS[reference]["gauss"]
        assert grid.values is None and grid.projection is not None


class TestCoefficientSpace:
    """On a Gauss grid of several row blocks, l2_error is ||C - B||^2 + tail."""

    def test_gate_is_the_block_size(self):
        # A 512 x 512 grid is one block (2**18 entries) and keeps the grid
        # sum bit for bit; 514 x 514 is measured in coefficient space.
        reference = BivariateFunction(value=_smooth, name="smooth")
        approx = _noisy_approx(F2, "box", 8, 0)
        grid_sum = l2_error(approx, reference, G=512)
        grid = metrics._GRIDS[reference]["gauss"]
        assert grid.values.size == metrics._BLOCK_ENTRIES and grid.projection is None
        assert grid_sum == _scratch_l2(approx, reference, 512)
        coefficient = l2_error(approx, reference, G=514)
        assert metrics._GRIDS[reference]["gauss"].projection is not None
        assert coefficient == pytest.approx(grid_sum, rel=1e-13, abs=0.0)

    def test_projection_is_kept_for_the_latest_shape(self):
        calls = []

        def factor(t):
            calls.append(np.size(t))
            return np.cos(t)

        reference = BivariateFunction(
            value=lambda t, tau: np.cos(t) * np.cos(tau), factors=(factor, factor, 1.0)
        )
        small = _noisy_approx(F2, "box", 5, 0)  # derived degree 3
        large = _noisy_approx(F2, "box", 8, 0)  # derived degree 6
        for approx in (small, small, large, large, small):
            l2_error(approx, reference, G=600)
        # One 600 x 600 grid; a 1-D projection per new shape, shared by the axes.
        assert calls == [600] * 3
        assert metrics._GRIDS[reference]["gauss"].projection[0].shape == (4, 4)

    def test_general_path_agrees_with_declared_factors(self, cross_300):
        """F1'' with and without its declared factors, at n = 300.

        Both forms compute fl(||C - B||^2) + tail.  Each B errs from the exact
        T_t W_t F W_tau T_tau^T by at most EB = (N_t + N_tau + 10) eps s
        (|T_t| W_t |u|)(|T_tau| W_tau |v|)^T: the general one through its
        N_tau-term products, its row blocks' sums (rows plus blocks at most
        N_t + 1 deep) and the weights; the factored one through the N-term
        projections, the outer product and the scale, and by F rounding
        s u v twice.  So the two squared errors differ by at most
        sum 2 EB (2 |C - B_f| + 2 EB) + (K + J + 3) eps (R_f + R_g) plus both
        nonnegative tails, R the two sums of squares.
        """
        approx, factored = cross_300
        general = dataclasses.replace(factored, factors=None)
        coeffs = approx.series.values
        K, J = coeffs.shape
        l2_f = l2_error(approx, factored, G=96)
        l2_g = l2_error(approx, general, G=96)
        grid_f = metrics._GRIDS[factored]["gauss"]
        grid_g = metrics._GRIDS[general]["gauss"]
        (b_f, tail_f), (b_g, tail_g) = grid_f.projection, grid_g.projection
        eps = np.finfo(np.float64).eps
        ft, gtau, scale = factored.factors
        weights_t, weights_tau = (rule.weights for rule in grid_f.rules)
        table_t = np.abs(legendre_table(K - 1, grid_f.t))
        table_tau = np.abs(legendre_table(J - 1, grid_f.tau))
        error_b = (grid_f.t.size + grid_f.tau.size + 10) * eps * scale * np.outer(
            table_t @ (weights_t * np.abs(ft(grid_f.t))),
            table_tau @ (weights_tau * np.abs(gtau(grid_f.tau))),
        )
        r_f, r_g = np.sum((coeffs - b_f) ** 2), np.sum((coeffs - b_g) ** 2)
        bound = np.sum(2 * error_b * (2 * np.abs(coeffs - b_f) + 2 * error_b))
        bound += (K + J + 3) * eps * (r_f + r_g) + tail_f + tail_g
        assert abs(l2_f**2 - l2_g**2) <= bound

    @pytest.mark.parametrize("tau_breakpoints", [None, ()], ids=["shared_axes", "two_axes"])
    def test_general_projection_is_the_coefficient_projection(self, cross_300, tau_breakpoints):
        """Without factors, B is coeffs._tensor_projection of the grid's own rules."""
        approx, held = cross_300
        reference = dataclasses.replace(held, factors=None)
        if tau_breakpoints is not None:
            reference = dataclasses.replace(reference, tau_breakpoints=tau_breakpoints)
        l2_error(approx, reference, G=96)
        grid = metrics._GRIDS[reference]["gauss"]
        assert (grid.rules[1] is grid.rules[0]) == (tau_breakpoints is None)
        K, J = approx.series.values.shape
        expected, _ = coeffs._tensor_projection(reference, *grid.rules, K - 1, J - 1)
        assert np.array_equal(grid.projection[0], expected)

    @pytest.mark.parametrize("declared", [False, True], ids=["general", "factors"])
    def test_nan_reference_gives_nan(self, declared):
        factors = (_nan_above, lambda tau: np.ones_like(np.asarray(tau)), 1.0) if declared else None
        reference = BivariateFunction(
            value=lambda t, tau: _nan_above(t) + 0.0 * tau,
            t_breakpoints=(0.0,), tau_breakpoints=(0.0,), factors=factors,
        )
        assert np.isnan(l2_error(_phi22_approx(), reference, G=602))
        grid = metrics._GRIDS[reference]["gauss"]
        assert grid.t.size * grid.tau.size > metrics._BLOCK_ENTRIES

    def test_projection_frees_the_grid_until_another_shape(self, cross_300):
        """A multi-block Gauss grid never holds the reference's values or
        tables, only (B, tail) once built; a second shape at the same order
        is projected again on the same grid."""
        approx, _ = cross_300
        reference = F1.derivative_function()
        first = l2_error(approx, reference, G=96)
        grid = metrics._GRIDS[reference]["gauss"]
        assert grid.values is None and grid.tables == {}
        assert l2_error(approx, reference, G=96) == first  # warm: from (B, tail)
        assert metrics._GRIDS[reference]["gauss"] is grid
        narrow = ApproxDerivative(CoeffField.from_dense(approx.series.values[:, :200]), approx.config)
        assert narrow.series.values.shape == (298, 200)  # order 602 all the same
        again = l2_error(narrow, reference, G=96)
        assert metrics._GRIDS[reference]["gauss"] is grid
        assert grid.projection[0].shape == (298, 200)
        assert grid.values is None and grid.tables == {}
        assert again == l2_error(narrow, F1.derivative_function(), G=96)
        assert l2_error(approx, reference, G=96) == first

    @pytest.mark.parametrize("declared, passes", [(True, 1), (False, 2)], ids=["factors", "general"])
    def test_reference_is_evaluated_in_row_blocks(self, cross_300, declared, passes):
        """On a multi-block grid the reference is called on row blocks of at
        most _BLOCK_ENTRIES entries, each row once per pass: the tail pass
        with declared factors, the projection and tail passes without."""
        approx, held = cross_300
        calls = []

        def value(t, tau):
            calls.append((t.copy(), tau.copy()))
            return held.value(t, tau)

        reference = dataclasses.replace(
            held, value=value, factors=held.factors if declared else None
        )
        first = l2_error(approx, reference, G=96)
        grid = metrics._GRIDS[reference]["gauss"]
        assert grid.t.size * grid.tau.size > metrics._BLOCK_ENTRIES
        for t, tau in calls:
            assert t.shape[1] == 1 and np.array_equal(tau, grid.tau[None, :])
            assert t.size * tau.size <= metrics._BLOCK_ENTRIES
        rows = np.concatenate([t[:, 0] for t, _ in calls])
        assert np.array_equal(rows, np.tile(grid.t, passes))
        count = len(calls)
        assert l2_error(approx, reference, G=96) == first
        assert len(calls) == count  # a warm call evaluates nothing

    @pytest.mark.parametrize(
        "side, declared, tau_breakpoints",
        [(None, True, None), (None, False, None), (None, False, ()), (998, True, None)],
        ids=["n300_factors", "n300_general", "n300_general_two_axes", "side998_factors"],
    )
    def test_first_call_memory_is_bounded_by_shapes(self, cross_300, side, declared, tau_breakpoints):
        """The first l2_error on a multi-block grid allocates, at its peak, at
        most, from the shapes (and, with both axes alike, less than the
        grid's own bytes):

        - B (K x J), and for a reference without factors one more array of
          B's shape, the product each row block adds into B;
        - with factors, one Legendre table of K x min(N_t, chunk) entries,
          chunk the nodes of coeffs._table_chunks (at most 2**22 entries): the
          chunk table of a declared factor's projection and node values;
        - without them, tau's all-node table (J x N_tau) and one row block's
          t-table (K x height, height the block's rows), with the block's
          projected part or left factor (height x J); the t-axis never has an
          all-node table, which the two-axes case, with tau's breakpoints
          dropped so that t and tau differ, would show;
        - three _BLOCK_ENTRIES blocks (the reused buffer, the reference's
          values on a row block and one temporary of their evaluation);
        - 64 vectors of the longest axis, an allowance for the Gauss rule,
          a factor's values and the temporaries of their evaluation, the
          projections, node values and sums.
        """
        approx, _ = cross_300
        if side is not None:  # a synthetic series: only its shape matters
            synthetic = np.random.default_rng(7).standard_normal((side, side))
            approx = dataclasses.replace(approx, series=CoeffField.from_dense(synthetic))
        reference = F1.derivative_function()
        if not declared:
            reference = dataclasses.replace(reference, factors=None)
        if tau_breakpoints is not None:
            reference = dataclasses.replace(reference, tau_breakpoints=tau_breakpoints)
        K, J = approx.series.values.shape
        tracemalloc.start()
        try:
            l2_error(approx, reference, G=96)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        grid = metrics._GRIDS[reference]["gauss"]
        n_t, n_tau = grid.t.size, grid.tau.size
        assert n_t * n_tau > metrics._BLOCK_ENTRIES and grid.values is None
        assert (grid.tau is grid.t) == (tau_breakpoints is None)
        if declared:
            chunk = min(n_t, next(coeffs._table_chunks(K - 1, n_t)).stop)
            assert K * chunk <= 2**22
            tables = K * chunk
        else:
            height = metrics._BLOCK_ENTRIES // n_tau
            tables = J * n_tau + K * height + height * J
        itemsize = 8
        bound = itemsize * (
            (1 if declared else 2) * K * J
            + tables
            + 3 * metrics._BLOCK_ENTRIES
            + 64 * max(n_t, n_tau)
        )
        assert peak <= bound, (peak, bound)
        if tau_breakpoints is None:  # the two-axes grid has half the nodes on tau
            assert peak < itemsize * n_t * n_tau

    def test_first_call_builds_node_values_before_the_row_buffer(self, cross_300):
        """With declared factors, the first l2_error at n = 300 makes B's node
        values, and releases their K x N Legendre table, before the row
        buffer exists, so at its peak it holds at most:

        - B (K x J);
        - the reused row buffer and the reference's values on one row block,
          each (_BLOCK_ENTRIES // N) x N entries;
        - 32 vectors over the N nodes, an allowance for the Gauss rule, the
          node values and the temporaries of the reference's factor on tau.

        That is less than B, the buffer and the table together, which the
        first call held when it made the node values after the buffer.
        """
        approx, _ = cross_300
        reference = F1.derivative_function()
        K, J = approx.series.values.shape
        tracemalloc.start()
        try:
            l2_error(approx, reference, G=96)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        grid = metrics._GRIDS[reference]["gauss"]
        n = grid.t.size
        assert grid.tau is grid.t and grid.values is None
        block = metrics._BLOCK_ENTRIES // n * n
        itemsize = 8
        bound = itemsize * (K * J + 2 * block + 32 * n)
        assert bound < itemsize * (K * J + block + K * n)
        assert peak <= bound, (peak, bound)

    def test_warm_call_allocates_one_coefficient_array(self, cross_300):
        approx, reference = cross_300
        l2_error(approx, reference, G=96)  # warm
        coeffs = approx.series.values
        tracemalloc.start()
        try:
            l2_error(approx, reference, G=96)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # C - B and nothing of the grid's size: two coefficient arrays at most.
        assert peak <= 2 * coeffs.size * coeffs.itemsize
