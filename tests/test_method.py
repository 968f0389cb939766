"""Parameter-choice rule, method configuration, and the truncation method itself."""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from legdiff import basis, derivative, method
from legdiff.basis import legendre_table
from legdiff.coeffs import MAX_DENSE_ENTRIES, CoeffField
from legdiff.derivative import DerivativeExpansion
from legdiff.experiments import get_preset, run_table
from legdiff.index import IndexDomain
from legdiff.method import (
    ApproxDerivative,
    ConfigError,
    MethodConfig,
    choose_n,
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

    @pytest.mark.parametrize(
        ("bad", "message"),
        [
            ({"r": 1.5}, "r=1.5 must be an integer"),
            ({"r": -3}, "r=-3 must be >= 1"),
            ({"p": 0.0}, "p=0.0 must satisfy 1 <= p <= inf"),
            ({"p": math.nan}, "p=nan must satisfy"),
            ({"s": 0.0}, "s=0.0 must satisfy 1 <= s < inf"),
            ({"s": math.inf}, "s=inf must satisfy"),
        ],
    )
    def test_refuses_what_the_config_refuses(self, bad, message):
        # r = 1.5 once gave the float 3.5, r = -3 the level 2, and p = 0 or
        # s = 0 a ZeroDivisionError; each refusal is worded as MethodConfig's.
        with pytest.raises(ConfigError, match=message):
            choose_n(0.9, 5.5, **bad)
        with pytest.raises(ConfigError, match=message):
            MethodConfig(**{"r": 1, "mu": 5.5, "delta": 0.9, **bad})

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

    @pytest.mark.parametrize("r", [2.0, 2.5, math.nan, "2", None])
    def test_rejects_r_that_is_no_integer(self, r):
        with pytest.raises(ConfigError, match=f"r={r!r} must be an integer"):
            MethodConfig(r=r, mu=5.5, delta=1e-7)

    @pytest.mark.parametrize("n_override", [10.5, 11.0, math.nan, math.inf])
    def test_rejects_n_override_that_is_no_integer(self, n_override):
        # 10.5 once gave a domain that was neither n = 10 nor n = 11.
        with pytest.raises(ConfigError, match=f"n_override={n_override!r} must be an integer"):
            MethodConfig(r=2, mu=5.5, delta=0.0, n_override=n_override)

    def test_accepts_numpy_integers(self):
        cfg = MethodConfig(r=np.int64(2), mu=5.5, delta=0.0, n_override=np.int32(11))
        assert cfg.domain().max_degree() == (10, 10)

    @pytest.mark.parametrize("delta", [1.5, -0.1])
    def test_rejects_delta_outside_the_unit_interval(self, delta):
        with pytest.raises(ConfigError, match=f"^delta={delta} must lie in \\[0, 1\\)$"):
            MethodConfig(r=2, mu=5.5, delta=delta, n_override=10)

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

    def test_the_level_is_resolved_once(self, monkeypatch):
        calls = []
        rule = method.choose_n

        def counted(*args, **kwargs):
            calls.append(args)
            return rule(*args, **kwargs)

        monkeypatch.setattr(method, "choose_n", counted)
        cfg = MethodConfig(r=2, mu=5.5, delta=1e-7)
        assert len(calls) == 1
        domain = cfg.domain()
        assert cfg.domain() is domain and domain == IndexDomain.cross(2, 19)
        assert cfg.resolve_n() == 19
        approx = run(CoeffField.from_dense(np.ones((3, 3))), cfg)
        assert approx.information_count == domain.cardinality()
        assert len(calls) == 1

    def test_the_resolved_domain_is_not_compared_or_shown(self):
        cfg = MethodConfig(r=2, mu=5.5, delta=1e-7)
        same = MethodConfig(r=2, mu=5.5, delta=1e-7)
        assert cfg == same and hash(cfg) == hash(same)
        assert "_domain" not in repr(cfg)
        assert dataclasses.replace(cfg, n_override=6).domain() == IndexDomain.cross(2, 6)


class TestRun:
    def test_phi2_phi2_recovers_constant_second_mixed_derivative(self):
        # f = phi_2(t) phi_2(tau): f^(2,2) = 45 phi_0 phi_0 = 22.5 everywhere.
        field = from_entries({(2, 2): 1.0})
        cfg = MethodConfig(r=2, mu=6.0, delta=0.0, n_override=3, domain_shape="box")
        approx = run(field, cfg)
        out = approx.series.values
        assert out[0, 0] == pytest.approx(45.0, rel=1e-14)
        grid = np.linspace(-1.0, 1.0, 9)
        values = approx.series.eval_grid(grid, grid)
        np.testing.assert_allclose(values, 22.5, rtol=1e-13)

    def test_eval_points_at_single_point(self):
        field = from_entries({(2, 2): 1.0})
        cfg = MethodConfig(r=2, mu=6.0, delta=0.0, n_override=3, domain_shape="box")
        approx = run(field, cfg)
        vals = approx.series.eval_points(np.array([0.3]), np.array([-0.7]))
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
        assert approx.config.resolve_n() == 5
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
        # Both come from the config, so no run can be built that restates them.
        with pytest.raises(TypeError, match="information_count"):
            ApproxDerivative(approx.series, cfg, information_count=6)

    def test_level_and_cardinality_are_read_only(self):
        cfg = MethodConfig(r=2, mu=5.5, delta=0.0, n_override=5)
        approx = run(from_entries({(2, 2): 1.0}), cfg)
        for name in ("config", "information_count"):
            with pytest.raises(AttributeError):
                setattr(approx, name, 6)
        assert (approx.config.resolve_n(), approx.information_count) == (
            cfg.resolve_n(), cfg.domain().cardinality(),
        )

    def test_cross_degree_bound_after_differentiation(self):
        # Cross members reach degree n-1; r derivatives lower that by r.
        rng = np.random.default_rng(5)
        n, r = 9, 2
        domain = IndexDomain.cross(r, n)
        entries = {kj: rng.normal() for kj in domain.members()}
        field = from_entries(entries)
        approx = run(field, MethodConfig(r=r, mu=6.0, delta=0.0, n_override=n))
        k_max, j_max = np.subtract(approx.series.values.shape, 1)
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
        k_max, j_max = np.subtract(approx.series.values.shape, 1)
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
            base.series.values, tamp.series.values
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
            a.series.values, b.series.values
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
            one.series.values, two.series.values
        )


def _step_shapes(monkeypatch) -> list[tuple[int, int]]:
    """The array shape every derivative step sees from now on, in call order.

    A step maps a stack of arrays along its last two axes; the shape recorded
    is that of one array of the stack, its last two axes.
    """
    shapes = []
    step = derivative._step

    def spy(a, columns):
        shapes.append(a.shape[-2:])
        return step(a, columns)

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
        derived = run(masked, config).series.values
        assert len(shapes) == 8  # two steps on each of four blocks
        assert max(min(shape) for shape in shapes) == max(a, b)
        blocks = sum(math.prod(shape) for shape in shapes)
        del shapes[:]
        assert derived.tobytes() == _dense_map(masked.values, 2).tobytes()
        assert shapes[0] == (300, 300)
        assert 5 * blocks < sum(math.prod(shape) for shape in shapes)

    @pytest.mark.parametrize(("n", "r"), [(80, 2), (150, 1), (300, 2), (300, 3)])
    def test_blocks_ignore_every_entry_outside_the_domain(self, n, r):
        # The field is wider than the domain, and every entry outside it,
        # zero corner included, is NaN, +-inf or a large nonzero.
        config = MethodConfig(r=r, mu=9.0, delta=0.0, n_override=n)
        mask = config.domain().mask()
        side = mask.shape[0]
        rng = np.random.default_rng(n + r)
        values = rng.standard_normal((side + 5, side + 3))
        outside = np.ones(values.shape, dtype=bool)
        outside[:side, :side] = ~mask
        values[outside] = rng.choice([np.nan, np.inf, -np.inf, 1e300], size=outside.sum())
        derived = run(CoeffField.from_dense(values), config).series.values
        restricted = np.where(mask, values[:side, :side], 0.0)
        assert derived.tobytes() == _dense_map(restricted, r).tobytes()

    @pytest.mark.parametrize("shape", [(40, 30), (299, 1), (1, 299), (100, 299)])
    def test_blocks_pad_a_small_field_with_zeros(self, shape):
        config = MethodConfig(r=2, mu=9.0, delta=0.0, n_override=300)
        mask = config.domain().mask()
        values = np.random.default_rng(sum(shape)).standard_normal(shape)
        derived = run(CoeffField.from_dense(values), config).series.values
        padded = np.zeros(mask.shape)
        padded[: shape[0], : shape[1]] = values
        assert derived.tobytes() == _dense_map(np.where(mask, padded, 0.0), 2).tobytes()

    def test_run_allocates_the_field_the_result_and_block_temporaries(self):
        """run() at n = 2048, r = 2: its peak traced allocation is bounded by the shapes.

        Besides the restricted field (n^2 float64 entries) and the result
        ((n - r)^2), the map holds block-sized arrays only.  At its peak, while
        the second axis steps the result's top a - r rows, these are the
        derived left block (n x b entries at most), the derived top block, the
        two blocks' concatenation, and one step's working array and result (a x n
        each at most), for the zero corner (a, b); 64 KiB covers the rest.  A
        second n^2 array, or a boolean scan of the result, exceeds the bound.
        """
        n, r = 2048, 2
        config = MethodConfig(r=r, mu=9.0, delta=0.0, n_override=n)
        a, b = config.domain().zero_corner()
        field = CoeffField.from_dense(np.random.default_rng(3).standard_normal((n, n)))
        run(field, config)  # caches the domain's mask and row tops
        tracemalloc.start()
        try:
            run(field, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (n * n + (n - r) ** 2 + n * (b + 4 * a)) + 2**16

    @pytest.mark.parametrize(("n", "r"), [(5, 2), (19, 2), (24, 2), (31, 2), (19, 1), (24, 3)])
    def test_table_levels_never_step_the_full_array(self, monkeypatch, n, r):
        config = MethodConfig(r=r, mu=9.0, delta=0.0, n_override=n)
        field = CoeffField.from_dense(np.ones((n, n)))
        shapes = _step_shapes(monkeypatch)
        run(field, config)
        assert len(shapes) == 4 * r  # r steps on each of four blocks
        assert (n, n) not in shapes

    def test_a_table_row_steps_its_seeds_together(self, monkeypatch):
        # Three rows of 20 seeds each: eight steps per row, not per seed.
        shapes = _step_shapes(monkeypatch)
        rows = run_table(get_preset("table1"))
        assert len(rows) == 3 * 21
        expected = []
        for n in (19, 24, 31):
            a, b = IndexDomain.cross(2, n).zero_corner()
            # the left and top blocks, then the top a - 2 rows and the rest of the left
            blocks = [(n, b), (a, n - b), (n, a - 2), (b, n - a)]
            expected += [(height - step, width) for height, width in blocks for step in range(2)]
        assert shapes == expected

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
            assert np.isfinite(run(CoeffField.from_dense(values), config).series.values).all()


def _bits(coeffs: np.ndarray) -> np.ndarray:
    """The float64 entries as unsigned integers, so the sign of zero counts."""
    return coeffs.view(np.uint64)


def _map_heights(monkeypatch) -> list[int]:
    """The stack height of every map call from now on, in call order."""
    heights = []
    apply_both = DerivativeExpansion.apply_both

    def spy(self, values, corner=None):
        heights.append(values.shape[0])
        return apply_both(self, values, corner)

    monkeypatch.setattr(DerivativeExpansion, "apply_both", spy)
    return heights


def _assert_derive_matches_run(monkeypatch, field, config, kind, seed, runs, per_map):
    """_derive on ``field`` under ``kind`` from ``seed`` for ``runs`` runs, in stacks
    of ``per_map`` seeds, gives run i the bytes of run(perturb(restricted field,
    NoiseSpec(kind, config.delta, config.p, seed + i))), the config's delta and p."""
    side = config.domain().mask().shape[0]
    monkeypatch.setattr(method, "_BLOCK_ENTRIES", per_map * side**2)
    heights = _map_heights(monkeypatch)
    seeds = range(seed, seed + runs)
    results = method._derive(field, config, kind, seed, runs)
    derived = [next(results)]
    assert heights == [min(per_map, len(seeds))]  # the stacks are made one at a time
    derived += results
    sizes = [per_map] * (len(seeds) // per_map) + [len(seeds) % per_map] * (len(seeds) % per_map > 0)
    assert heights == sizes
    assert len(derived) == len(seeds)
    restricted = field.restrict(config.domain())
    for each, approx in zip(seeds, derived):
        alone = run(perturb(restricted, NoiseSpec(kind, config.delta, config.p, each)), config)
        assert np.array_equal(_bits(approx.series.values), _bits(alone.series.values))
        assert approx.series.values.flags.c_contiguous
        assert not approx.series.values.flags.writeable
        assert approx.series.zero_corner == alone.series.zero_corner
        assert approx.config is config
    # Every result stores every entry, through one read-only mask made per call.
    stored = derived[0].series.stored
    assert stored.all() and not stored.flags.writeable and stored.strides == (0, 0)
    assert all(np.shares_memory(approx.series.stored, stored) for approx in derived)
    return derived


class TestDeriveStacks:
    """The one pipeline: restrict once, perturb each seed into a stack, one map call
    per stack, and each seed's bytes as run() gives its perturbed field alone."""

    @pytest.mark.parametrize(("kind", "p"), [("gaussian", 2.0), ("projected", 3.0)])
    @pytest.mark.parametrize(
        ("shape", "n"),
        [("cross", 5), ("cross", 19), ("cross", 31), ("box", 19), ("cross", 80), ("cross", 300)],
    )
    def test_each_seed_gets_the_bytes_run_gives_it(self, monkeypatch, shape, n, kind, p):
        # Fields larger and smaller than the domain; five runs from the first
        # seed, the first and the last five seeds of the range, in stacks of
        # two, two and one.
        config = MethodConfig(r=2, mu=9.0, delta=1e-3, p=p, n_override=n, domain_shape=shape)
        side = config.domain().mask().shape[0]
        rng = np.random.default_rng(n)
        shapes = [(side, side), (side + 3, side - 1), (side // 2 + 1, side), (side + 1, side + 2)]
        for field_shape in shapes:
            field = CoeffField.from_dense(rng.standard_normal(field_shape))
            for start in (0, 2**64 - 5):
                derived = _assert_derive_matches_run(monkeypatch, field, config, kind, start, 5, 2)
                monkeypatch.undo()
                if shape == "box":  # no block edge: the dense map's bytes too
                    noisy = perturb(field.restrict(config.domain()), NoiseSpec(kind, config.delta, p, start))
                    assert derived[0].series.values.tobytes() == _dense_map(noisy.values, 2).tobytes()

    def test_runs_take_the_seeds_after_the_specs(self, monkeypatch, philox_keys):
        # Seed 5 and three runs: seeds 5, 6 and 7, in one stack of one generator.
        config = MethodConfig(r=2, mu=9.0, delta=1e-3, n_override=19)
        field = CoeffField.from_dense(np.random.default_rng(5).standard_normal((19, 19)))
        _assert_derive_matches_run(monkeypatch, field, config, "gaussian", 5, 3, 3)
        assert philox_keys == [5] + [5, 6, 7]  # the stack, then run(perturb()) per seed

    def test_a_last_seed_past_the_range_is_refused_before_any_draw(self, monkeypatch, philox_keys):
        # Seeds 2^64 - 2, 2^64 - 1 and 2^64, one per stack: without the check
        # up front the first two stacks would draw before the third refuses.
        config = MethodConfig(r=2, mu=9.0, delta=1e-8, n_override=19)
        monkeypatch.setattr(method, "_BLOCK_ENTRIES", 19**2)
        field = CoeffField.from_dense(np.ones((19, 19)))
        with pytest.raises(ValueError, match=r"seed=18446744073709551616 must satisfy 0 <= seed < 2\*\*64"):
            list(method._derive(field, config, "gaussian", 2**64 - 2, 3))
        assert philox_keys == []

    @pytest.mark.parametrize(("shape", "n"), [("cross", 80), ("box", 19)])
    def test_run_keeps_the_sign_of_negative_zeros(self, shape, n):
        # -0.0 inputs at the edges of the cross's blocks (see the
        # legdiff.derivative docstring), on the whole domain, and at random
        # go through run() as the map gives them, a 2-D array alone.  On the
        # box a -0.0 field derives to -0.0 entries, so the signs are seen to
        # be kept.  A -0.0 in a stack keeps its sign as alone:
        # test_derivative's test_leading_axes_are_a_stack_mapped_array_by_array.
        config = MethodConfig(r=2, mu=9.0, delta=0.0, n_override=n, domain_shape=shape)
        domain = config.domain()
        side = domain.mask().shape[0]
        a, b = domain.zero_corner() or (side // 2, side // 2)
        edges = np.zeros((side, side))
        edges[:, b - 1] = edges[a - 1, :] = -0.0
        negative = np.full((side, side), -0.0)
        signed = np.where(np.random.default_rng(2).random((side, side)) < 0.5, -0.0, 0.0)
        expansion = DerivativeExpansion(2, side - 1)
        for values in (edges, negative, signed):
            restricted = CoeffField.from_dense(values).restrict(domain).values
            derived = run(CoeffField.from_dense(values), config).series.values
            alone = expansion.apply_both(restricted, domain.zero_corner())
            assert np.array_equal(_bits(derived), _bits(alone))
            if shape == "box":
                assert derived.tobytes() == _dense_map(restricted, 2).tobytes()
        if shape == "box":
            assert np.signbit(run(CoeffField.from_dense(negative), config).series.values).any()

    @pytest.mark.parametrize("per_map", [1, 3], ids=["one-per-map", "three-per-map"])
    def test_an_overflowing_field_raises_what_run_raises(self, monkeypatch, per_map):
        # differentiate --r 80 --n 400 on F2 overflows the same way.
        config = MethodConfig(r=80, mu=200.0, delta=1e-8, n_override=400)
        side = config.domain().mask().shape[0]
        monkeypatch.setattr(method, "_BLOCK_ENTRIES", per_map * side**2)
        overflowing = CoeffField.from_dense(np.random.default_rng(4).standard_normal((side, side)))
        message = "r=80 derivative of degree-399 "
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                run(overflowing, config)
            with pytest.raises(ValueError, match=message):
                list(method._derive(overflowing, config, "gaussian", 0, 3))

    @pytest.mark.parametrize("kind", NoiseSpec.KINDS)
    def test_no_seeds_give_no_results(self, kind, philox_keys):
        config = MethodConfig(r=2, mu=9.0, delta=1e-8, n_override=19)
        field = CoeffField.from_dense(np.ones((19, 19)))
        assert list(method._derive(field, config, kind, 0, 0)) == []
        assert philox_keys == []

    @pytest.mark.parametrize(("kind", "delta"), [("gaussian", 0.0), ("projected", 0.0), ("pink", 1e-8)])
    def test_the_spec_is_refused_as_noise_spec_refuses_it_before_any_restrict(
        self, monkeypatch, philox_keys, kind, delta
    ):
        # The run's one spec is built from the config's delta and p: a noisy
        # kind under delta = 0 (n given, so the config allows it) or an
        # unknown kind is refused in NoiseSpec's words, nothing restricted.
        config = MethodConfig(r=2, mu=9.0, delta=delta, n_override=19)
        field = CoeffField.from_dense(np.ones((19, 19)))
        restricted = []
        monkeypatch.setattr(CoeffField, "restrict", lambda self, domain: restricted.append(domain))
        with pytest.raises(ValueError) as expected:
            NoiseSpec(kind, config.delta, config.p)
        with pytest.raises(ValueError) as got:
            next(method._derive(field, config, kind, 0, 3))
        assert str(got.value) == str(expected.value)
        assert restricted == [] and philox_keys == []

    @pytest.mark.parametrize("kind", NoiseSpec.KINDS)
    def test_a_deterministic_field_derives_once(self, kind):
        # Kind "none" gives one run whatever the count; a noisy kind one per run.
        config = MethodConfig(r=2, mu=9.0, delta=1e-8, n_override=19)
        field = CoeffField.from_dense(np.ones((19, 19)))
        derived = list(method._derive(field, config, kind, 0, 4))
        assert len(derived) == (1 if kind == "none" else 4)


def _random_inputs(seed):
    rng = np.random.default_rng(seed)
    coeffs = rng.normal(size=(rng.integers(2, 12), rng.integers(2, 12)))
    t = rng.uniform(-1.0, 1.0, size=rng.integers(1, 40))
    tau = rng.uniform(-1.0, 1.0, size=rng.integers(1, 40))
    return coeffs, t, tau


class TestSeriesEvaluation:
    def test_eval_grid_matches_einsum(self):
        coeffs, t, tau = _random_inputs(2)
        table_t = legendre_table(coeffs.shape[0] - 1, t)
        table_tau = legendre_table(coeffs.shape[1] - 1, tau)
        expected = np.einsum("ki,kj,jm->im", table_t, coeffs, table_tau)
        np.testing.assert_allclose(
            CoeffField.from_dense(coeffs).eval_grid(t, tau), expected, rtol=1e-12, atol=1e-13
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
            CoeffField.from_dense(coeffs).eval_points(t, tau), expected, rtol=1e-11, atol=1e-12
        )

    def test_constant_series(self):
        # c_{0,0} = 2 means 2 * phi_0(t) phi_0(tau) = 2 * (1/sqrt 2)^2 = 1.
        series = CoeffField.from_dense(from_entries({(0, 0): 2.0}).values)
        grid = np.linspace(-1.0, 1.0, 5)
        np.testing.assert_allclose(series.eval_grid(grid, grid), 1.0, rtol=1e-15)

    def test_grid_and_points_agree(self):
        rng = np.random.default_rng(11)
        dense = rng.normal(size=(5, 4))
        series = CoeffField.from_dense(dense)
        t = np.linspace(-1.0, 1.0, 7)
        tau = np.linspace(-1.0, 1.0, 6)
        grid_vals = series.eval_grid(t, tau)
        tt, pp = np.meshgrid(t, tau, indexing="ij")
        point_vals = series.eval_points(tt.ravel(), pp.ravel()).reshape(7, 6)
        np.testing.assert_allclose(grid_vals, point_vals, rtol=1e-13, atol=1e-15)

    def test_points_shape_mismatch_rejected(self):
        series = CoeffField.from_dense(from_entries({(0, 0): 1.0}).values)
        with pytest.raises(ValueError):
            series.eval_points(np.zeros(3), np.zeros(4))

    def test_rejects_points_outside_domain(self):
        series = CoeffField.from_dense(from_entries({(1, 1): 1.0}).values)
        with pytest.raises(ValueError):
            series.eval_grid(np.array([1.5]), np.array([0.0]))
        with pytest.raises(ValueError):
            series.eval_points(np.array([0.0]), np.array([-1.01]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_points(self, bad):
        series = CoeffField.from_dense(from_entries({(1, 1): 1.0}).values)
        for t, tau in ((bad, 0.0), (0.0, bad)):
            with pytest.raises(ValueError, match="outside"):
                series.eval_grid(np.array([0.5, t]), np.array([tau]))
            with pytest.raises(ValueError, match="outside"):
                series.eval_points(np.array([t]), np.array([tau]))

    def test_coeffs_are_read_only_c_contiguous_float64(self):
        source = np.asfortranarray(np.arange(6, dtype=np.int64).reshape(2, 3))
        series = CoeffField.from_dense(source)
        coeffs = series.values
        assert coeffs.dtype == np.float64 and coeffs.flags.c_contiguous
        assert not coeffs.flags.writeable
        np.testing.assert_array_equal(coeffs, source)
        with pytest.raises(ValueError):
            coeffs[0, 0] = 1.0

    @pytest.mark.parametrize("bad", [np.ones(3), np.ones((0, 3)), np.ones((2, 2, 2))])
    def test_rejects_non_2d_or_empty_coeffs(self, bad):
        with pytest.raises(ValueError, match="2-D and nonempty"):
            CoeffField.from_dense(bad)


class TestZeroCorner:
    """Only run() gives a series its zero corner, and only one the map leaves zero."""

    @pytest.fixture(scope="class")
    def derived_300(self):
        config = MethodConfig(r=2, mu=5.5, delta=0.0, n_override=300)
        field = CoeffField.from_dense(np.random.default_rng(9).standard_normal((300, 300)))
        return run(field, config).series

    def test_is_not_a_constructor_argument(self):
        with pytest.raises(TypeError, match="zero_corner"):
            CoeffField(np.zeros((6, 5)), np.ones((6, 5), dtype=bool), zero_corner=(3, 2))
        assert CoeffField.from_dense(np.zeros((6, 5))).zero_corner is None

    @pytest.mark.parametrize(
        ("n", "r"), [(19, 2), (79, 2), (80, 2), (300, 2), (120, 1), (120, 3)]
    )
    def test_run_declares_an_all_zero_corner(self, n, r):
        # run() sets the domain's corner less r without scanning it; the
        # map must leave every entry there exactly zero.
        config = MethodConfig(r=r, mu=8.5, delta=0.0, n_override=n)
        field = CoeffField.from_dense(np.random.default_rng(n).standard_normal((n, n)))
        series = run(field, config).series
        a, b = series.zero_corner
        assert (a + r, b + r) == config.domain().zero_corner()
        assert 0 < a < series.values.shape[0] and 0 < b < series.values.shape[1]
        assert not series.values[a:, b:].any()

    def test_run_gives_the_box_no_corner(self):
        # The box has no zero corner, so its series is evaluated densely.
        config = MethodConfig(r=2, mu=8.5, delta=0.0, n_override=40, domain_shape="box")
        field = CoeffField.from_dense(np.random.default_rng(40).standard_normal((40, 40)))
        assert config.domain().zero_corner() is None
        assert run(field, config).series.zero_corner is None

    def test_a_corner_of_negative_zeros_keeps_the_bytes(self, derived_300):
        signed = derived_300.values.copy()
        signed[22:, 23:] = -0.0
        series = CoeffField._derived(signed, derived_300.stored, (22, 23))
        grid = np.linspace(-1.0, 1.0, 401)
        # The factorized product never reads the corner, so the bytes cannot move.
        assert series.eval_grid(grid, grid).tobytes() == derived_300.eval_grid(grid, grid).tobytes()

    def test_without_a_corner_eval_grid_is_dense(self, derived_300):
        coeffs = derived_300.values
        assert derived_300.zero_corner == (22, 23)
        grid = np.linspace(-1.0, 1.0, 401)
        table = legendre_table(coeffs.shape[0] - 1, grid)
        assert 401 * coeffs.size + 401 * coeffs.shape[1] * 401 >= 2**22  # above the threshold
        assert (
            CoeffField.from_dense(coeffs).eval_grid(grid, grid).tobytes()
            == (table.T @ coeffs @ table).tobytes()
        )

    @pytest.mark.parametrize("nodes", [41, 401])  # dense, factorized past (22, 23)
    def test_one_grid_for_both_axes_builds_one_table(self, derived_300, monkeypatch, nodes):
        degrees = []

        def counted(k_max, t):
            degrees.append(k_max)
            return legendre_table(k_max, t)

        grid = np.linspace(-1.0, 1.0, nodes)
        apart = derived_300.eval_grid(grid, grid.copy())
        monkeypatch.setattr(basis, "legendre_table", counted)
        assert derived_300.eval_grid(grid, grid).tobytes() == apart.tobytes()
        assert degrees == [297]
        # Unequal degrees need both tables, even on one grid.
        CoeffField.from_dense(derived_300.values[:, :-1]).eval_grid(grid, grid)
        assert degrees == [297, 297, 296]


class TestEvalPoints:
    """The derived series evaluates itself at paired points (t_i, tau_i)."""

    def test_empty_points_gives_empty_array(self):
        field = from_entries({(2, 2): 1.0})
        cfg = MethodConfig(r=2, mu=6.0, delta=0.0, n_override=3)
        approx = run(field, cfg)
        out = approx.series.eval_points(np.zeros(0), np.zeros(0))
        assert out.shape == (0,)

    def test_rejects_malformed_points(self):
        field = from_entries({(2, 2): 1.0})
        approx = run(field, MethodConfig(r=2, mu=6.0, delta=0.0, n_override=3))
        with pytest.raises(ValueError, match="identical shapes"):
            approx.series.eval_points(np.array([0.1, 0.2]), np.array([0.3]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_points(self, bad):
        field = from_entries({(2, 2): 1.0})
        approx = run(field, MethodConfig(r=2, mu=6.0, delta=0.0, n_override=3))
        for t, tau in (((0.2, bad), (0.1, 0.0)), ((0.2, 0.0), (0.1, bad))):
            with pytest.raises(ValueError, match="outside"):
                approx.series.eval_points(np.array(t), np.array(tau))

    def test_result_is_approx_derivative(self):
        field = from_entries({(2, 2): 1.0})
        approx = run(field, MethodConfig(r=2, mu=6.0, delta=0.0, n_override=3))
        assert isinstance(approx, ApproxDerivative)
