"""Parameter-choice rule, method configuration, and the truncation method itself."""

import math
import warnings

import numpy as np
import pytest

from legdiff import derivative
from legdiff.basis import legendre_table
from legdiff.coeffs import MAX_DENSE_ENTRIES, CoeffField
from legdiff.derivative import DerivativeExpansion
from legdiff.index import IndexDomain
from legdiff.method import (
    ApproxDerivative,
    ConfigError,
    LegendreSeries2D,
    MethodConfig,
    choose_n,
    evaluate,
    run,
)
from legdiff.noise import NoiseSpec, perturb

from oracles import from_entries


class TestChooseN:
    def test_reference_example_with_constant(self):
        # (1/1e-6)^(1/6) = 10 exactly; the constant 1.1 pushes the ceiling to 11.
        assert choose_n(1e-6, 6.0, p=2.0, s=2.0, rule_constant=1.1) == 11

    def test_reference_example_unit_constant(self):
        assert choose_n(1e-6, 6.0, p=2.0, s=2.0, rule_constant=1.0) == 10

    def test_log_factor_drops_out_when_p_equals_s(self):
        # 1/p - 1/s = 0 kills the log term regardless of its base value.
        assert choose_n(1e-6, 6.0, p=3.0, s=3.0) == 10
        assert choose_n(1e-6, 6.0, p=2.0, s=2.0) == choose_n(1e-6, 6.0, p=7.0, s=7.0)

    def test_pinned_target_level(self):
        assert choose_n(1e-7, 5.5, p=2.0, s=2.0, r=2) == 19

    def test_monotone_in_delta(self):
        levels = [choose_n(d, 5.5, r=2) for d in (1e-4, 1e-6, 1e-8, 1e-10)]
        assert levels == sorted(levels)
        assert levels[0] < levels[-1]

    @pytest.mark.parametrize("delta", [0.0, 1.0, -1e-3, 2.0])
    def test_rejects_delta_outside_open_interval(self, delta):
        with pytest.raises(ConfigError):
            choose_n(delta, 6.0)

    def test_rejects_nonpositive_rule_exponent(self):
        # mu - 1/p + 1/s = 0.1 - 1 + 0.5 < 0: the rule has no meaning there.
        with pytest.raises(ConfigError):
            choose_n(1e-6, 0.1, p=1.0, s=2.0)

    @pytest.mark.parametrize("constant", [-1.0, 0.0, math.nan, math.inf])
    def test_rejects_nonpositive_rule_constant(self, constant):
        with pytest.raises(ConfigError, match="rule constant"):
            choose_n(1e-6, 5.5, rule_constant=constant)

    @pytest.mark.parametrize("mu", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_mu(self, mu):
        with pytest.raises(ConfigError, match="must be finite"):
            choose_n(1e-6, mu)

    def test_floor_at_r_plus_two(self):
        # Large delta would give a tiny level; the floor keeps n usable.
        assert choose_n(0.5, 6.0, r=2) == 4
        assert choose_n(0.5, 6.0, r=5) == 7

    def test_infinite_p_drops_its_reciprocal(self):
        finite = choose_n(1e-5, 6.0, p=1e12, s=2.0)
        assert choose_n(1e-5, 6.0, p=math.inf, s=2.0) == finite


class TestMethodConfig:
    def test_valid_config_roundtrip(self):
        cfg = MethodConfig(r=2, mu=5.5, delta=1e-7)
        assert cfg.resolve_n() == 19
        assert cfg.domain().cardinality() == IndexDomain.cross(2, 19).cardinality()

    def test_rejects_r_below_one(self):
        with pytest.raises(ConfigError):
            MethodConfig(r=0, mu=5.5, delta=1e-7)

    def test_rejects_infinite_s(self):
        with pytest.raises(ConfigError):
            MethodConfig(r=2, mu=5.5, delta=1e-7, s=math.inf)

    def test_rejects_s_below_one(self):
        with pytest.raises(ConfigError):
            MethodConfig(r=2, mu=5.5, delta=1e-7, s=0.5)

    def test_rejects_p_below_one(self):
        with pytest.raises(ConfigError):
            MethodConfig(r=2, mu=5.5, delta=1e-7, p=0.5)

    def test_rejects_unknown_domain_shape(self):
        with pytest.raises(ConfigError):
            MethodConfig(r=2, mu=5.5, delta=1e-7, domain_shape="disk")

    @pytest.mark.parametrize("constant", [0.0, math.nan, math.inf])
    @pytest.mark.parametrize("n_override", [None, 11])
    def test_rejects_nonpositive_rule_constant(self, constant, n_override):
        # With n given nothing reads the constant, so the config must check it.
        with pytest.raises(ConfigError, match="rule constant"):
            MethodConfig(r=2, mu=5.5, delta=1e-7, n_override=n_override, rule_constant=constant)

    @pytest.mark.parametrize("mu", [math.inf, math.nan])
    @pytest.mark.parametrize("n_override", [None, 11])
    def test_rejects_non_finite_mu(self, mu, n_override):
        with pytest.raises(ConfigError, match=f"mu={mu} must be finite"):
            MethodConfig(r=2, mu=mu, delta=1e-6, n_override=n_override)

    def test_rejects_smoothness_at_or_below_bound(self):
        # r=2, s=2 requires mu > 4 - 1/2 + 1/2 = 4; equality must fail too.
        with pytest.raises(ConfigError, match="2r - 1/s \\+ 1/2"):
            MethodConfig(r=2, mu=4.0, delta=1e-7, s=2.0)
        with pytest.raises(ConfigError):
            MethodConfig(r=2, mu=3.9, delta=1e-7, s=2.0)
        MethodConfig(r=2, mu=4.0 + 1e-9, delta=1e-7, s=2.0)

    def test_rejects_override_not_exceeding_r(self):
        with pytest.raises(ConfigError):
            MethodConfig(r=2, mu=5.5, delta=1e-7, n_override=2)

    def test_zero_delta_requires_override(self):
        with pytest.raises(ConfigError):
            MethodConfig(r=2, mu=5.5, delta=0.0)
        cfg = MethodConfig(r=2, mu=5.5, delta=0.0, n_override=12)
        assert cfg.resolve_n() == 12

    def test_override_wins_over_rule(self):
        cfg = MethodConfig(r=2, mu=5.5, delta=1e-7, n_override=6)
        assert cfg.resolve_n() == 6

    def test_sup_hypothesis_flag(self):
        # r=2, s=2: the uniform-norm condition is mu > 5.
        assert not MethodConfig(r=2, mu=5.0, delta=1e-6).satisfies_sup_hypothesis
        assert MethodConfig(r=2, mu=5.5, delta=1e-6).satisfies_sup_hypothesis

    def test_dense_size_limit_at_the_boundary(self):
        # The cross at level n needs an n x n array, the box (n+1) x (n+1).
        assert MAX_DENSE_ENTRIES == 2048 * 2048
        MethodConfig(r=2, mu=5.5, delta=0.0, n_override=1000)
        MethodConfig(r=2, mu=5.5, delta=0.0, n_override=2048)
        MethodConfig(r=2, mu=5.5, delta=0.0, n_override=2047, domain_shape="box")
        with pytest.raises(ConfigError, match="over the limit"):
            MethodConfig(r=2, mu=5.5, delta=0.0, n_override=2049)
        with pytest.raises(ConfigError, match="over the limit"):
            MethodConfig(r=2, mu=5.5, delta=0.0, n_override=2048, domain_shape="box")

    def test_rule_level_over_limit_rejected(self):
        with pytest.raises(ConfigError, match="over the limit"):
            MethodConfig(r=2, mu=4.01, delta=1e-300)

    def test_non_finite_rule_level_rejected(self):
        with pytest.raises(ConfigError, match="non-finite"):
            choose_n(1e-6, 5.5, r=2, rule_constant=1e308)

    def test_box_domain_selected(self):
        cfg = MethodConfig(r=2, mu=6.0, delta=1e-6, domain_shape="box", n_override=5)
        assert cfg.domain().members() == IndexDomain.box(2, 5).members()


class TestRun:
    def test_phi2_phi2_recovers_constant_second_mixed_derivative(self):
        # f = phi_2(t) phi_2(tau): f^(2,2) = 45 phi_0 phi_0 = 22.5 everywhere.
        field = from_entries({(2, 2): 1.0})
        cfg = MethodConfig(r=2, mu=6.0, delta=0.0, n_override=3, domain_shape="box")
        approx = run(field, cfg)
        out = approx.series.coeffs
        assert out[0, 0] == pytest.approx(45.0, rel=1e-14)
        grid = np.linspace(-1.0, 1.0, 9)
        values = approx.series.eval_grid(grid, grid)
        np.testing.assert_allclose(values, 22.5, rtol=1e-13)

    def test_evaluate_at_single_point(self):
        field = from_entries({(2, 2): 1.0})
        cfg = MethodConfig(r=2, mu=6.0, delta=0.0, n_override=3, domain_shape="box")
        approx = run(field, cfg)
        vals = evaluate(approx, [(0.3, -0.7)])
        assert vals.shape == (1,)
        assert vals[0] == pytest.approx(22.5, rel=1e-13)

    def test_zero_field_gives_zero_everywhere(self):
        cfg = MethodConfig(r=2, mu=5.5, delta=0.0, n_override=7)
        approx = run(from_entries({}), cfg)
        grid = np.linspace(-1.0, 1.0, 11)
        np.testing.assert_array_equal(approx.series.eval_grid(grid, grid), 0.0)

    def test_metadata_echoes_level_and_cardinality(self):
        field = from_entries({(2, 2): 1.0, (2, 4): 0.5})
        cfg = MethodConfig(r=2, mu=5.5, delta=0.0, n_override=5)
        approx = run(field, cfg)
        assert approx.n_used == 5
        assert approx.information_count == IndexDomain.cross(2, 5).cardinality()
        # Entries outside the domain and stored zeros inside it do not change
        # the count: it is the domain's, as restrict stores it, on both shapes.
        field = from_entries(
            {(0, 0): 2.0, (1, 3): 1.0, (2, 2): 1.0, (3, 3): 0.0, (4, 4): 0.0, (9, 9): 3.0}
        )
        for shape, count in (("cross", 6), ("box", 16)):
            cfg = MethodConfig(r=2, mu=5.5, delta=0.0, n_override=5, domain_shape=shape)
            approx = run(field, cfg)
            assert approx.information_count == count == len(field.restrict(cfg.domain()))

    def test_cross_degree_bound_after_differentiation(self):
        # Cross members reach degree n-1; r derivatives lower that by r.
        rng = np.random.default_rng(5)
        n, r = 9, 2
        domain = IndexDomain.cross(r, n)
        entries = {kj: rng.normal() for kj in domain.members()}
        field = from_entries(entries)
        approx = run(field, MethodConfig(r=r, mu=6.0, delta=0.0, n_override=n))
        k_max, j_max = np.subtract(approx.series.coeffs.shape, 1)
        assert k_max <= n - 1 - r
        assert j_max <= n - 1 - r

    def test_box_degree_bound_after_differentiation(self):
        rng = np.random.default_rng(6)
        n, r = 7, 2
        domain = IndexDomain.box(r, n)
        entries = {kj: rng.normal() for kj in domain.members()}
        field = from_entries(entries)
        approx = run(
            field,
            MethodConfig(r=r, mu=6.0, delta=0.0, n_override=n, domain_shape="box"),
        )
        k_max, j_max = np.subtract(approx.series.coeffs.shape, 1)
        assert k_max <= n - r
        assert j_max <= n - r

    def test_entries_outside_domain_are_ignored(self):
        # Perturbing only out-of-domain entries must not change the output.
        rng = np.random.default_rng(7)
        n, r = 5, 2
        box = IndexDomain.box(r, n + 3)
        cross = IndexDomain.cross(r, n)
        inside = set(cross.members())
        entries = {kj: rng.normal() for kj in box.members()}
        tampered = dict(entries)
        changed = 0
        for kj in box.members():
            if kj not in inside:
                tampered[kj] = entries[kj] + 10.0
                changed += 1
        assert changed > 0
        cfg = MethodConfig(r=r, mu=6.0, delta=0.0, n_override=n)
        base = run(from_entries(entries), cfg)
        tamp = run(from_entries(tampered), cfg)
        np.testing.assert_array_equal(
            base.series.coeffs, tamp.series.coeffs
        )

    def test_sparse_field_missing_domain_entries_treated_as_zero(self):
        # Only one domain pair present: identical to a dense field with zeros.
        sparse = from_entries({(2, 3): 0.8})
        cfg = MethodConfig(r=2, mu=6.0, delta=0.0, n_override=6)
        dense_entries = {kj: 0.0 for kj in IndexDomain.cross(2, 6).members()}
        dense_entries[(2, 3)] = 0.8
        dense = from_entries(dense_entries)
        a = run(sparse, cfg)
        b = run(dense, cfg)
        np.testing.assert_array_equal(
            a.series.coeffs, b.series.coeffs
        )

    def test_noise_then_run_is_deterministic(self):
        field = from_entries(
            {kj: 0.1 for kj in IndexDomain.cross(2, 6).members()}
        )
        spec = NoiseSpec(kind="gaussian", delta=1e-4, seed=3)
        cfg = MethodConfig(r=2, mu=6.0, delta=1e-4, n_override=6)
        one = run(perturb(field, spec), cfg)
        two = run(perturb(field, spec), cfg)
        np.testing.assert_array_equal(
            one.series.coeffs, two.series.coeffs
        )


def _step_shapes(monkeypatch) -> list[tuple[int, ...]]:
    """The shapes every derivative step sees from now on, in call order."""
    shapes = []
    step = derivative._step

    def spy(a):
        shapes.append(a.shape)
        return step(a)

    monkeypatch.setattr(derivative, "_step", spy)
    return shapes


def _dense_map(values: np.ndarray, r: int) -> np.ndarray:
    """S_r values S_r^T by the dense map on both axes."""
    expansion = DerivativeExpansion(r, values.shape[0] - 1)
    return expansion.apply(expansion.apply(values).T).T


class TestStaircase:
    """run() derives only the two blocks outside the cross's zero corner."""

    def test_large_cross_never_steps_the_full_array(self, monkeypatch):
        config = MethodConfig(r=2, mu=5.5, delta=0.0, n_override=300)
        domain = config.domain()
        a, b = domain.zero_corner()
        masked = CoeffField.from_dense(
            np.random.default_rng(8).standard_normal((300, 300))
        ).restrict(domain)
        shapes = _step_shapes(monkeypatch)
        derived = run(masked, config).series.coeffs
        assert len(shapes) == 8  # two steps on each of four blocks
        assert max(min(shape) for shape in shapes) == max(a, b)
        blocks = sum(math.prod(shape) for shape in shapes)
        del shapes[:]
        assert derived.tobytes() == _dense_map(masked.values, 2).tobytes()
        assert shapes[0] == (300, 300)
        assert 5 * blocks < sum(math.prod(shape) for shape in shapes)

    @pytest.mark.parametrize("n", [5, 19, 24, 31])
    def test_table_levels_keep_the_dense_map(self, monkeypatch, n):
        config = MethodConfig(r=2, mu=5.5, delta=0.0, n_override=n)
        field = CoeffField.from_dense(np.ones((n, n)))
        shapes = _step_shapes(monkeypatch)
        run(field, config)
        assert shapes == [(n, n), (n - 1, n), (n, n - 2), (n - 1, n - 2)]

    @pytest.mark.parametrize(
        "value", [1e308, 1e307], ids=["first-axis", "second-axis"]
    )
    def test_overflow_in_the_top_block_names_the_full_degree(self, value):
        # The member (2, 299) lies in the top block, right of column b = 25.
        # The first axis scales it by about 6.7, so 1e308 overflows there and
        # 1e307 only along the second axis.
        config = MethodConfig(r=2, mu=5.5, delta=0.0, n_override=300)
        assert config.domain().zero_corner() == (24, 25)
        values = np.zeros((300, 300))
        values[2, 299] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="r=2 derivative of degree-299 "):
                run(CoeffField.from_dense(values), config)
            values[2, 299] = value / 1e8
            assert np.isfinite(run(CoeffField.from_dense(values), config).series.coeffs).all()


def _random_inputs(seed):
    rng = np.random.default_rng(seed)
    coeffs = rng.normal(size=(rng.integers(2, 12), rng.integers(2, 12)))
    t = rng.uniform(-1.0, 1.0, size=rng.integers(1, 40))
    tau = rng.uniform(-1.0, 1.0, size=rng.integers(1, 40))
    return coeffs, t, tau


class TestLegendreSeries2D:
    def test_eval_grid_matches_einsum(self):
        coeffs, t, tau = _random_inputs(2)
        table_t = legendre_table(coeffs.shape[0] - 1, t)
        table_tau = legendre_table(coeffs.shape[1] - 1, tau)
        expected = np.einsum("ki,kj,jm->im", table_t, coeffs, table_tau)
        np.testing.assert_allclose(
            LegendreSeries2D(coeffs).eval_grid(t, tau), expected, rtol=1e-12, atol=1e-13
        )

    def test_eval_points_matches_loop(self):
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
            LegendreSeries2D(coeffs).eval_points(t, tau), expected, rtol=1e-11, atol=1e-12
        )

    def test_constant_series(self):
        # c_{0,0} = 2 means 2 * phi_0(t) phi_0(tau) = 2 * (1/sqrt 2)^2 = 1.
        series = LegendreSeries2D(coeffs=from_entries({(0, 0): 2.0}).values)
        grid = np.linspace(-1.0, 1.0, 5)
        np.testing.assert_allclose(series.eval_grid(grid, grid), 1.0, rtol=1e-15)

    def test_grid_and_points_agree(self):
        rng = np.random.default_rng(11)
        dense = rng.normal(size=(5, 4))
        series = LegendreSeries2D(coeffs=dense)
        t = np.linspace(-1.0, 1.0, 7)
        tau = np.linspace(-1.0, 1.0, 6)
        grid_vals = series.eval_grid(t, tau)
        tt, pp = np.meshgrid(t, tau, indexing="ij")
        point_vals = series.eval_points(tt.ravel(), pp.ravel()).reshape(7, 6)
        np.testing.assert_allclose(grid_vals, point_vals, rtol=1e-13, atol=1e-15)

    def test_points_shape_mismatch_rejected(self):
        series = LegendreSeries2D(coeffs=from_entries({(0, 0): 1.0}).values)
        with pytest.raises(ValueError):
            series.eval_points(np.zeros(3), np.zeros(4))

    def test_rejects_points_outside_domain(self):
        series = LegendreSeries2D(coeffs=from_entries({(1, 1): 1.0}).values)
        with pytest.raises(ValueError):
            series.eval_grid(np.array([1.5]), np.array([0.0]))
        with pytest.raises(ValueError):
            series.eval_points(np.array([0.0]), np.array([-1.01]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_points(self, bad):
        series = LegendreSeries2D(coeffs=from_entries({(1, 1): 1.0}).values)
        for t, tau in ((bad, 0.0), (0.0, bad)):
            with pytest.raises(ValueError, match="outside"):
                series.eval_grid(np.array([0.5, t]), np.array([tau]))
            with pytest.raises(ValueError, match="outside"):
                series.eval_points(np.array([t]), np.array([tau]))

    def test_coeffs_are_read_only_c_contiguous_float64(self):
        source = np.asfortranarray(np.arange(6, dtype=np.int64).reshape(2, 3))
        series = LegendreSeries2D(coeffs=source)
        coeffs = series.coeffs
        assert coeffs.dtype == np.float64 and coeffs.flags.c_contiguous
        assert not coeffs.flags.writeable
        np.testing.assert_array_equal(coeffs, source)
        with pytest.raises(ValueError):
            coeffs[0, 0] = 1.0

    @pytest.mark.parametrize("bad", [np.ones(3), np.ones((0, 3)), np.ones((2, 2, 2))])
    def test_rejects_non_2d_or_empty_coeffs(self, bad):
        with pytest.raises(ValueError, match="2-D and nonempty"):
            LegendreSeries2D(coeffs=bad)


class TestZeroCorner:
    """LegendreSeries2D checks the zero corner it carries, once."""

    @pytest.fixture(scope="class")
    def derived_300(self):
        config = MethodConfig(r=2, mu=5.5, delta=0.0, n_override=300)
        field = CoeffField.from_dense(np.random.default_rng(9).standard_normal((300, 300)))
        return run(field, config).series

    def test_rejects_a_corner_holding_a_nonzero_entry(self):
        coeffs = np.zeros((6, 5))
        coeffs[:3, :] = 1.0
        coeffs[:, :2] = 1.0
        assert LegendreSeries2D(coeffs, zero_corner=(3, 2)).zero_corner == (3, 2)
        coeffs[5, 4] = 1e-300
        with pytest.raises(ValueError, match=r"\(3, 2\) is not a zero corner"):
            LegendreSeries2D(coeffs, zero_corner=(3, 2))

    @pytest.mark.parametrize("corner", [(6, 0), (0, 5), (6, 5), (-1, 2), (2, -1)])
    def test_rejects_corners_out_of_range(self, corner):
        with pytest.raises(ValueError, match="is not a zero corner"):
            LegendreSeries2D(np.zeros((6, 5)), zero_corner=corner)

    @pytest.mark.parametrize(
        ("n", "r"), [(19, 2), (79, 2), (80, 2), (300, 2), (120, 1), (120, 3)]
    )
    def test_run_declares_a_corner_the_check_accepts(self, n, r):
        # run() builds its series without the corner scan, through the dense
        # map below n = 80 and the blocks from there on; the corner holds.
        config = MethodConfig(r=r, mu=8.5, delta=0.0, n_override=n)
        field = CoeffField.from_dense(np.random.default_rng(n).standard_normal((n, n)))
        series = run(field, config).series
        assert series.zero_corner is not None
        checked = LegendreSeries2D(series.coeffs, zero_corner=series.zero_corner)
        assert checked.coeffs.tobytes() == series.coeffs.tobytes()

    def test_accepts_a_corner_of_negative_zeros(self, derived_300):
        signed = derived_300.coeffs.copy()
        signed[22:, 23:] = -0.0
        series = LegendreSeries2D(signed, zero_corner=(22, 23))
        grid = np.linspace(-1.0, 1.0, 401)
        # The factorized product never reads the corner, so the bytes cannot move.
        assert series.eval_grid(grid, grid).tobytes() == derived_300.eval_grid(grid, grid).tobytes()

    def test_without_a_corner_eval_grid_is_dense(self, derived_300):
        coeffs = derived_300.coeffs
        assert derived_300.zero_corner == (22, 23)
        grid = np.linspace(-1.0, 1.0, 401)
        table = legendre_table(coeffs.shape[0] - 1, grid)
        assert 401 * coeffs.size + 401 * coeffs.shape[1] * 401 >= 2**22  # above the threshold
        assert (
            LegendreSeries2D(coeffs).eval_grid(grid, grid).tobytes()
            == (table.T @ coeffs @ table).tobytes()
        )


class TestEvaluate:
    def test_empty_points_gives_empty_array(self):
        field = from_entries({(2, 2): 1.0})
        cfg = MethodConfig(r=2, mu=6.0, delta=0.0, n_override=3)
        approx = run(field, cfg)
        out = evaluate(approx, [])
        assert out.shape == (0,)

    def test_rejects_malformed_points(self):
        field = from_entries({(2, 2): 1.0})
        approx = run(field, MethodConfig(r=2, mu=6.0, delta=0.0, n_override=3))
        with pytest.raises(ValueError):
            evaluate(approx, [(0.1, 0.2, 0.3)])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_points(self, bad):
        field = from_entries({(2, 2): 1.0})
        approx = run(field, MethodConfig(r=2, mu=6.0, delta=0.0, n_override=3))
        for point in ((bad, 0.0), (0.0, bad)):
            with pytest.raises(ValueError, match="outside"):
                evaluate(approx, [(0.2, 0.1), point])

    def test_result_is_approx_derivative(self):
        field = from_entries({(2, 2): 1.0})
        approx = run(field, MethodConfig(r=2, mu=6.0, delta=0.0, n_override=3))
        assert isinstance(approx, ApproxDerivative)
