"""Square-mean and uniform error metrics."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from legdiff import basis, coeffs, metrics
from legdiff.basis import composite_gauss_rule, grid_factors, grid_product, legendre_table
from legdiff.coeffs import BivariateFunction, CoeffField, exact_coeffs
from legdiff.experiments import F1, F2, ExperimentPreset, run_table
from legdiff.method import MethodConfig, run
from legdiff.metrics import ErrorReport, error_report, l2_error, sup_error
from legdiff.noise import NoiseSpec, perturb


def _constant_reference(c):
    return BivariateFunction(
        value=lambda t, tau: np.broadcast_arrays(np.full_like(np.asarray(t, float), c), tau)[0],
        name=f"const_{c}",
    )


def _phi22_approx():
    """phi_2 phi_2 differentiated twice per axis: the constant 22.5."""
    field = CoeffField.from_entries({(2, 2): 1.0})
    cfg = MethodConfig(r=2, mu=6.0, delta=0.0, n_override=3, domain_shape="box")
    return run(field, cfg)


def _zero_approx():
    cfg = MethodConfig(r=2, mu=6.0, delta=0.0, n_override=3, domain_shape="box")
    return run(CoeffField.from_entries({}), cfg)


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
        field = CoeffField.from_entries({(k, k): 1.0 for k in range(2, 8)})
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
        report = error_report(approx, _constant_reference(20.0), G=32, m=21)
        # approx - reference = 2.5 everywhere: L2 norm 5, sup norm 2.5.
        assert report.l2_error == pytest.approx(5.0, rel=1e-13)
        assert report.sup_error == pytest.approx(2.5, rel=1e-13)
        assert report.n_used == 3
        assert report.information_count == 4

    def test_l2_bounded_by_twice_sup(self):
        rng = np.random.default_rng(9)
        fn = BivariateFunction(
            value=lambda t, tau: np.exp(-t * t) * np.cos(3.0 * tau),
            name="bump",
        )
        field = exact_coeffs(fn, k_max=7, j_max=7, G=24)
        cfg = MethodConfig(r=2, mu=6.0, delta=0.0, n_override=7, domain_shape="box")
        approx = run(field, cfg)
        report = error_report(approx, _constant_reference(rng.normal()), G=64, m=51)
        assert report.l2_error <= 2.0 * report.sup_error * (1.0 + 1e-9)

    def test_validate_rejects_inconsistent_report(self):
        bad = ErrorReport(l2_error=10.0, sup_error=1.0, n_used=3, information_count=4)
        with pytest.raises(ValueError):
            bad.validate()


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
        # others, gives exactly the from-scratch values.
        reference = function.derivative_function()
        for seed, n in enumerate((5, 12, 9, 5, 16)):
            approx = _noisy_approx(function, shape, n, seed)
            l2 = l2_error(approx, reference, G=40)
            sup = sup_error(approx, reference, m=51)
            assert l2 == _scratch_l2(approx, reference, 40)
            assert sup == _scratch_sup(approx, reference, 51)
            report = error_report(approx, reference, G=40, m=51)
            assert (report.l2_error, report.sup_error) == (l2, sup)
            assert (report.n_used, report.information_count) == (
                approx.n_used, approx.information_count,
            )

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
        with pytest.raises(ValueError, match="odd and >= 3"):
            error_report(approx, reference, G=16, m=m)
        # Refused before the reference is evaluated or the L2 error computed.
        assert calls == []
        assert reference not in metrics._GRIDS

    @pytest.mark.parametrize("m", [2049, 100001])
    def test_rejects_oversized_grid_before_allocating(self, m):
        def value(t, tau):
            raise AssertionError("the reference must not be evaluated")

        reference = BivariateFunction(value=value, name="untouchable")
        approx = _zero_approx()
        with pytest.raises(ValueError, match="over the limit"):
            sup_error(approx, reference, m=m)
        with pytest.raises(ValueError, match="over the limit"):
            error_report(approx, reference, G=16, m=m)
        assert reference not in metrics._GRIDS

    def test_grid_bound_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(metrics, "MAX_DENSE_ENTRIES", 49)
        assert sup_error(_zero_approx(), _constant_reference(1.0), m=7) == pytest.approx(1.0)
        with pytest.raises(ValueError, match="over the limit"):
            sup_error(_zero_approx(), _constant_reference(1.0), m=9)

    def test_reference_evaluated_once_per_grid(self):
        calls = []
        reference = _counted_reference(calls, t_breakpoints=(0.0,))
        for seed, n in enumerate((4, 6, 4)):
            error_report(_noisy_approx(F2, "cross", n, seed), reference, G=24, m=11)
        assert calls == [(48, 24), (11, 11)]


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
        for seed, n in enumerate((4, 6, 4, 6)):
            approx = _noisy_approx(F2, "cross", n, seed)
            l2 = l2_error(approx, reference, G=24)
            sup = sup_error(approx, reference, m=11)
            report = error_report(approx, reference, G=24, m=11)
            assert (report.l2_error, report.sup_error) == (l2, sup)
            # Another object, new each time, builds everything from scratch.
            fresh = BivariateFunction(value=_smooth, t_breakpoints=(0.0,), name="fresh")
            assert l2 == l2_error(approx, fresh, G=24) == _scratch_l2(approx, fresh, 24)
            assert sup == sup_error(approx, fresh, m=11) == _scratch_sup(approx, fresh, 11)
        assert calls == [(48, 24), (11, 11)]

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
        assert len(grids["gauss"].tables) == 2 and len(grids["uniform"].tables) == 1
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
        error_report(_phi22_approx(), reference, G=16, m=5)
        assert len(metrics._GRIDS) == before + 1
        alive = weakref.ref(reference)
        del reference
        gc.collect()
        assert alive() is None
        assert len(metrics._GRIDS) == before

    def test_run_table_keeps_no_grids(self):
        preset = ExperimentPreset(
            name="tiny", function=F1, noise="gaussian",
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
        report = error_report(approx, reference, G=24, m=11)
        assert report.l2_error == _scratch_l2(approx, reference, 24)
        assert report.sup_error == _scratch_sup(approx, reference, 11)
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

    # The metrics call grid_factors directly, eval_grid through grid_product.
    monkeypatch.setattr(metrics, "grid_factors", spy)
    monkeypatch.setattr(basis, "grid_factors", spy)
    reference = F1.derivative_function()
    l2_error(approx, reference, G=96)
    sup_error(approx, reference, m=401)
    grid = np.linspace(-1.0, 1.0, 401)
    approx.series.eval_grid(grid, grid)
    assert corners == [(22, 23)] * 3


def _unblocked_diff(approx, t, tau, values):
    """Series minus reference from one whole-grid product, and the bound E on
    each product entry's rounding: E = eps * (max(K, J) + a + b) *
    |T_t|^T |C| |T_tau|, the rounding model of ``test_basis._rounding_bound``.
    """
    coeffs, corner = approx.series.coeffs, approx.series.zero_corner
    table_t = legendre_table(coeffs.shape[0] - 1, t)
    table_tau = legendre_table(coeffs.shape[1] - 1, tau)
    diff = grid_product(table_t, coeffs, table_tau, corner) - values
    a, b = corner or (0, 0)
    size = np.abs(table_t).T @ np.abs(coeffs) @ np.abs(table_tau)
    return diff, np.finfo(np.float64).eps * (max(coeffs.shape) + a + b) * size


class TestRowBlocks:
    """The metrics reduce the grid in row blocks of at most _BLOCK_ENTRIES entries."""

    @pytest.fixture(scope="class")
    def cross_300(self):
        """F1's derived cross series at n = 300 and a held reference, both grids warm."""
        approx = _noisy_approx(F1, "cross", 300, 0)
        reference = F1.derivative_function()
        l2_error(approx, reference, G=96)
        sup_error(approx, reference)
        return approx, reference

    def test_blocks_match_the_unblocked_product(self, cross_300):
        """Both metrics stay within the rounding of one whole-grid product.

        Each entry of either evaluation errs from the exact grid by at most
        E + eps |diff| (product, then subtraction of the reference), so the two
        differ by at most D = 2 (E + eps |diff|), and so do their sup errors.
        For the squared L2 error, sum w_t w_tau |d1^2 - d2^2| <= sum w_t w_tau
        D (2 |diff| + D); both sides then add their weighted sums of
        nonnegative terms, N_t + N_tau + 2 roundings deep, each erring by at
        most (N_t + N_tau + 2) * eps / 2 relative.
        """
        approx, reference = cross_300
        eps = np.finfo(np.float64).eps
        rule_t, rule_tau = reference.gauss_rules(2 * 297 + 8)  # the effective order
        t, tau = rule_t.nodes, rule_tau.nodes
        assert t.size == tau.size == 1204
        assert t.size > metrics._BLOCK_ENTRIES // tau.size  # several blocks
        values = reference.value(t[:, None], tau[None, :])
        diff, bound = _unblocked_diff(approx, t, tau, values)
        quad = rule_t.weights @ (diff * diff) @ rule_tau.weights
        spread = 2.0 * (bound + eps * np.abs(diff))
        quad_bound = rule_t.weights @ (spread * (2.0 * np.abs(diff) + spread)) @ rule_tau.weights
        quad_bound += (t.size + tau.size + 2) * eps * quad
        l2 = l2_error(approx, reference, G=96)
        assert abs(l2 * l2 - quad) <= quad_bound

        grid = np.linspace(-1.0, 1.0, 1001)
        assert grid.size > metrics._BLOCK_ENTRIES // grid.size  # several blocks
        values = reference.value(grid[:, None], grid[None, :])
        diff, bound = _unblocked_diff(approx, grid, grid, values)
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
        held = metrics._GRIDS[reference]["gauss"].values
        assert held.shape == (1204, 1204)
        grid_bytes = held.size * held.itemsize
        tracemalloc.start()
        try:
            l2_error(approx, reference, G=96)
            sup_error(approx, reference)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < grid_bytes / 2
