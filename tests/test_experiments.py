"""Bundled test functions, experiment presets, tables, and convergence sweeps."""

import dataclasses
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from legdiff.basis import composite_gauss_rule
from legdiff.coeffs import BivariateFunction, CoeffField, exact_coeffs, smoothness_norm, trapezoid_coeffs
from legdiff.coeffs import _trapezoid_rule
from legdiff import derivative, experiments, method, metrics
from legdiff.index import IndexDomain
from legdiff.method import ConfigError, MethodConfig, choose_n, run
from legdiff.metrics import DEFAULT_G, DEFAULT_M, error_report, l2_error, sup_error
from legdiff.noise import NoiseSpec, perturb
from legdiff.experiments import (
    BUILTIN_NAMES,
    CSV_HEADER,
    F1,
    F2,
    MEASURED_ORDER,
    ExperimentPreset,
    ExperimentRow,
    PRESET_NAMES,
    SweepResult,
    builtin_function,
    convergence_sweep,
    f1,
    f1_d22,
    f2,
    f2_d22,
    get_preset,
    rows_to_csv,
    run_table,
    theoretical_exponent,
)
from legdiff.experiments import _f1_factor, _f1_factor_d2, _f2_factor, _f2_factor_d2, _measure

from oracles import from_entries

_F1_SCALE = 754.0
_F2_SCALE = 43940129.0

# Fourth-order central stencil for a second derivative.
_STENCIL = np.array([-1.0 / 12.0, 4.0 / 3.0, -5.0 / 2.0, 4.0 / 3.0, -1.0 / 12.0])
_OFFSETS = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])


def _fd2(fn, t, h):
    return float(_STENCIL @ fn(t + h * _OFFSETS)) / (h * h)


def _fd22(fn, t, tau, h):
    """Mixed (2,2) derivative via the tensor product of two stencils.

    The step cannot be pushed much below ~5e-3: the stencil divides by h^4,
    so float64 rounding of the function values (relative size ~1e-16)
    swamps the signal once h^4 drops toward that scale.
    """
    tt = t + h * _OFFSETS[:, None]
    pp = tau + h * _OFFSETS[None, :]
    return float(_STENCIL @ fn(tt, pp) @ _STENCIL) / h**4


class TestBuiltinValues:
    def test_f1_vanishes_at_origin(self):
        assert f1(0.0, 0.0) == 0.0

    def test_f1_mixed_derivative_at_origin(self):
        # Both one-dimensional factors have second derivative -1/4 at 0.
        assert f1_d22(0.0, 0.0) == pytest.approx(1.0 / (16.0 * _F1_SCALE), rel=1e-14)

    def test_f2_at_half(self):
        # (2 - 0)^2 * cos(0) = 4 before scaling.
        assert f2(0.5, 0.0) == pytest.approx(4.0 / _F2_SCALE, rel=1e-14)

    def test_f2_mixed_derivative_at_half(self):
        # g''(0.5) = -32 and the tau factor contributes -16 cos(0).
        assert f2_d22(0.5, 0.0) == pytest.approx(512.0 / _F2_SCALE, rel=1e-14)

    def test_vectorized_evaluation_shapes(self):
        t = np.linspace(-0.9, 0.9, 7)[:, None]
        tau = np.linspace(-0.9, 0.9, 5)[None, :]
        for fn in (f1, f1_d22, f2, f2_d22):
            assert fn(t, tau).shape == (7, 5)

    @pytest.mark.parametrize("t", [-0.62, 0.41, 0.83])
    def test_f1_factor_second_derivative_fd(self, t):
        assert _fd2(_f1_factor, t, 1e-4) == pytest.approx(
            float(_f1_factor_d2(np.asarray(t))), rel=1e-6
        )

    @pytest.mark.parametrize("t", [-0.8, 0.25, 0.9])
    def test_f2_factor_second_derivative_fd(self, t):
        assert _fd2(_f2_factor, t, 1e-4) == pytest.approx(
            float(_f2_factor_d2(np.asarray(t))), rel=1e-6
        )

    # Points stay away from 0.8, where the second-derivative factor has a
    # zero crossing and relative comparison is meaningless.
    @pytest.mark.parametrize("point", [(0.3, -0.45), (-0.6, 0.2), (0.55, 0.2)])
    def test_f1_mixed_derivative_fd(self, point):
        t, tau = point
        assert _fd22(f1, t, tau, 5e-3) == pytest.approx(
            float(f1_d22(t, tau)), rel=1e-6
        )

    @pytest.mark.parametrize("point", [(0.5, 0.0), (-0.3, 0.7), (0.1, -0.55)])
    def test_f2_mixed_derivative_fd(self, point):
        t, tau = point
        assert _fd22(f2, t, tau, 5e-3) == pytest.approx(
            float(f2_d22(t, tau)), rel=1e-6
        )

    @pytest.mark.parametrize("function", [F1, F2], ids=["f1", "f2"])
    def test_declared_d22_factors_match_d22(self, function):
        """fl(1/S) ft(t) gtau(tau) against d22's ft(t) gtau(tau) / S.

        Both round one exact product of the same two factor values: d22 twice,
        the declared form three times (1/S included), so they differ by at most
        5 u = 2.5 eps relative.
        """
        grid = np.linspace(-1.0, 1.0, 201)
        ft, gtau, scale = function.d22_factors
        declared = scale * ft(grid)[:, None] * gtau(grid)[None, :]
        exact = function.d22(grid[:, None], grid[None, :])
        eps = np.finfo(np.float64).eps
        assert np.all(np.abs(declared - exact) <= 2.5 * eps * np.abs(exact))
        assert function.derivative_function().factors is function.d22_factors

    def test_builtin_lookup(self):
        assert BUILTIN_NAMES == ("f1", "f2")
        assert builtin_function("f1") is F1
        assert builtin_function("f2") is F2
        with pytest.raises(ValueError, match="unknown builtin"):
            builtin_function("f3")

    def test_normalization_close_to_unit_smoothness_norm(self):
        # The scale factors were chosen so the smoothness norms are ~1.
        c1 = exact_coeffs(F1, 30, 30, G=64)
        assert smoothness_norm(c1, s=2.0, mu=5.5) == pytest.approx(0.89, abs=0.11)
        c2 = exact_coeffs(F2, 30, 30, G=64)
        assert smoothness_norm(c2, s=2.0, mu=6.0) == pytest.approx(1.0, abs=0.05)

    def test_f1_derivative_l2_scale(self):
        # ||f1^(2,2)||_L2 is about 1e-4: the scale against which the pinned
        # reference errors (1e-5 .. 1e-7) are meaningfully small.
        cfg = MethodConfig(r=2, mu=6.0, delta=0.0, n_override=3, domain_shape="box")
        zero = run(from_entries({}), cfg)
        norm = l2_error(zero, F1.derivative_function(), G=32)
        assert 3e-5 <= norm <= 3e-4


def _f1_factor_oracle(t):
    """The F1 factor as first written: every power evaluated per branch."""
    t = np.asarray(t, dtype=np.float64)
    common = -(t**2) / 8.0 + t**4 / 12.0 - t**5 / 20.0
    neg = t**7 / 42.0 - 3.0 * t**8 / 224.0
    pos = t**7 / 45.0 - t**8 / 80.0
    return common + np.where(t < 0.0, neg, pos)


def _f1_factor_d2_oracle(t):
    t = np.asarray(t, dtype=np.float64)
    common = -0.25 + t**2 - t**3
    neg = t**5 - 0.75 * t**6
    pos = 14.0 * t**5 / 15.0 - 7.0 * t**6 / 10.0
    return common + np.where(t < 0.0, neg, pos)


_FACTOR_NODE_SETS = {
    **{f"trapezoid h={h!r}": _trapezoid_rule(h).nodes for h in get_preset("table2").hs},
    "gauss split at 0": composite_gauss_rule(96, (-1.0, 0.0, 1.0)).nodes,
    "0 and +-1": np.array([0.0, -1.0, 1.0]),
    "0-d": np.array(-0.3),
    "2-D": np.add.outer(np.linspace(-1.0, 1.0, 7), np.linspace(-0.5, 0.5, 9)) / 1.5,
}


class TestF1FactorBits:
    """Each power computed once gives the same bits as the per-branch form."""

    @pytest.mark.parametrize("name", list(_FACTOR_NODE_SETS))
    def test_factor_matches_per_branch_form(self, name):
        nodes = _FACTOR_NODE_SETS[name]
        got = _f1_factor(nodes)
        assert np.shape(got) == nodes.shape
        assert np.array_equal(got, _f1_factor_oracle(nodes))
        assert np.array_equal(_f1_factor_d2(nodes), _f1_factor_d2_oracle(nodes))


class TestPresets:
    def test_registry_names(self):
        assert PRESET_NAMES == ("table1", "table2", "table3")

    def test_registry_rows_are_pinned(self):
        t1 = get_preset("table1")
        assert t1.function is F1 and t1.noise == "gaussian"
        assert t1.deltas == (1e-6, 1e-7, 1e-8)
        assert t1.ns == (19, 24, 31)
        t3 = get_preset("table3")
        assert t3.function is F2 and t3.noise == "trapezoid"
        assert t3.ns == (11, 18, 25)
        assert t3.hs == (4e-4, 1e-4, 4e-5)
        assert t3.mu == 6.0
        # Class constants, still read through the preset.
        for preset in (t1, get_preset("table2"), t3):
            assert preset.r == 2
            assert (preset.s, preset.p) == (2.0, 2.0)
            assert (preset.coeff_G, preset.metric_G, preset.metric_m) == (96, 96, 201)
            # The table is measured with what error_report measures with.
            assert (preset.metric_G, preset.metric_m) == (DEFAULT_G, DEFAULT_M)
            assert preset.default_seeds == 20

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="bogus"):
            get_preset("bogus")

    def test_rejects_level_count_mismatch(self):
        with pytest.raises(ValueError):
            ExperimentPreset(
                function=F1,
                deltas=(1e-6, 1e-7), ns=(5,), hs=None,
            )

    def test_noise_follows_the_steps(self):
        gaussian = ExperimentPreset(function=F1, deltas=(1e-6,), ns=(5,), hs=None)
        trapezoid = ExperimentPreset(function=F1, deltas=(1e-6,), ns=(5,), hs=(1e-4,))
        assert (gaussian.noise, trapezoid.noise) == ("gaussian", "trapezoid")
        assert [get_preset(name).noise for name in ("table1", "table2", "table3")] == [
            "gaussian", "trapezoid", "trapezoid"
        ]
        with pytest.raises(TypeError, match="'noise'"):  # not a field: nothing restates hs
            ExperimentPreset(function=F1, deltas=(1e-6,), ns=(5,), hs=None, noise="gaussian")

    @pytest.mark.parametrize("hs", [(), (1e-4, 1e-4)])
    def test_rejects_step_count_mismatch(self, hs):
        with pytest.raises(ValueError, match="one grid step per delta"):
            ExperimentPreset(function=F1, deltas=(1e-6,), ns=(5,), hs=hs)

    @pytest.mark.parametrize("r", [1, 3])
    def test_rejects_r_other_than_2(self, r):
        # A table measures against the (2, 2) derivative, so r is the class
        # constant 2 and not a constructor field: no preset can carry another r.
        with pytest.raises(TypeError, match="'r'"):
            ExperimentPreset(
                function=F1,
                deltas=(1e-6,), ns=(5,), hs=None, r=r,
            )
        assert ExperimentPreset.r == 2

    @pytest.mark.parametrize(
        "name, value",
        [("s", 1.5), ("p", 3.0), ("coeff_G", 48), ("metric_G", 24),
         ("metric_m", 11), ("default_seeds", 2)],
    )
    def test_measurement_settings_are_not_fields(self, name, value):
        # Every table and sweep is measured alike, so these are class
        # constants (or what error_report measures with) and no caller can set them.
        with pytest.raises(TypeError, match=f"'{name}'"):
            ExperimentPreset(
                function=F1,
                deltas=(1e-6,), ns=(5,), hs=None, **{name: value},
            )
        if name.startswith("metric_"):
            with pytest.raises(TypeError, match=f"'{name}'"):
                convergence_sweep(
                    F2, 6.0, 2.0, 2.0, deltas=(1e-4, 1e-6, 1e-8), **{name: value}
                )


def _tiny_gaussian_preset():
    return ExperimentPreset(
        function=F1,
        deltas=(1e-4,), ns=(4,), hs=None, mu=5.5,
    )


class TestRunTable:
    def test_empty_preset_yields_header_only_csv(self):
        preset = ExperimentPreset(
            function=F1,
            deltas=(), ns=(), hs=None,
        )
        rows = run_table(preset)
        assert rows == []
        assert rows_to_csv(rows) == CSV_HEADER + "\n"

    def test_structure_per_seed_plus_median(self):
        rows = run_table(_tiny_gaussian_preset(), seeds=3)
        assert len(rows) == 4
        assert [row.seed for row in rows] == [0, 1, 2, "median"]
        assert {row.delta for row in rows} == {1e-4}
        assert {row.n for row in rows} == {4}

    def test_card_matches_domain_cardinality(self):
        rows = run_table(_tiny_gaussian_preset(), seeds=1)
        assert rows[0].card == IndexDomain.cross(2, 4).cardinality()

    def test_median_row_aggregates(self):
        rows = run_table(_tiny_gaussian_preset(), seeds=3)
        per_seed = [row.l2_error for row in rows[:3]]
        assert rows[3].l2_error == pytest.approx(float(np.median(per_seed)), rel=0.0)

    def test_rejects_zero_seeds(self):
        with pytest.raises(ValueError):
            run_table(_tiny_gaussian_preset(), seeds=0)

    def test_deterministic_csv(self):
        a = rows_to_csv(run_table(_tiny_gaussian_preset(), seeds=2))
        b = rows_to_csv(run_table(_tiny_gaussian_preset(), seeds=2))
        assert a == b

    def test_csv_format(self):
        rows = run_table(_tiny_gaussian_preset(), seeds=1)
        text = rows_to_csv(rows)
        lines = text.splitlines()
        assert lines[0] == "delta,n,card,l2_error,sup_error,seed"
        first = lines[1].split(",")
        assert first[0] == "0.0001"
        assert first[1] == "4"
        assert first[5] == "0"
        assert lines[2].split(",")[5] == "median"
        assert text.endswith("\n")

    def test_float_repr_in_csv(self):
        preset = ExperimentPreset(
            function=F1,
            deltas=(1e-6,), ns=(4,), hs=None, mu=5.5,
        )
        text = rows_to_csv(run_table(preset, seeds=1))
        assert text.splitlines()[1].startswith("1e-06,")

    def test_trapezoid_rows_have_empty_seed(self):
        preset = ExperimentPreset(
            function=F2,
            deltas=(1e-4,), ns=(4,), hs=(1e-2,), mu=6.0,
        )
        rows = run_table(preset)
        assert len(rows) == 1
        assert rows[0].seed is None
        line = rows_to_csv(rows).splitlines()[1]
        assert line.endswith(",")


def _per_seed_rows(base, config, seeds, noise, reference) -> list[ExperimentRow]:
    """A row's cells by one run() per seed: restrict, perturb, run, measure."""
    consumed = base.restrict(config.domain())
    cells = []
    for seed in seeds:
        noisy = consumed
        if seed is not None:
            noisy = perturb(consumed, NoiseSpec(kind=noise, delta=config.delta, p=config.p, seed=seed))
        approx = run(noisy, config)
        report = error_report(approx, reference)
        cells.append(
            ExperimentRow(
                delta=config.delta, n=approx.config.resolve_n(), card=approx.information_count,
                l2_error=report.l2_error, sup_error=report.sup_error, seed=seed,
            )
        )
    return cells


class TestStackedSeeds:
    """Tables and sweeps derive a row's seeds in one stack: the rows one run() per seed gives."""

    @pytest.mark.parametrize(
        ("noise_kind", "domain_shape"), [("projected", "cross"), ("gaussian", "box"), ("none", "cross")]
    )
    def test_sweep_rows_are_the_per_seed_rows(self, noise_kind, domain_shape):
        deltas = (1e-4, 1e-6, 1e-8)
        result = convergence_sweep(
            F2, 6.0, 2.0, 2.0, deltas=deltas, seeds=4, noise_kind=noise_kind,
            domain_shape=domain_shape,
        )
        configs = [
            MethodConfig(r=2, mu=6.0, delta=delta, domain_shape=domain_shape) for delta in deltas
        ]
        degree = max(max(config.domain().max_degree()) for config in configs)
        base = exact_coeffs(F2, degree, degree)
        seeds = [None] if noise_kind == "none" else range(4)
        expected = []
        for config in configs:
            cells = _per_seed_rows(base, config, seeds, noise_kind, F2.derivative_function())
            expected.extend(cells)
            if len(cells) > 1:
                expected.append(
                    dataclasses.replace(
                        cells[0],
                        l2_error=float(np.median([c.l2_error for c in cells])),
                        sup_error=float(np.median([c.sup_error for c in cells])),
                        seed="median",
                    )
                )
        assert result.rows == tuple(expected)

    def test_table3_rows_are_the_per_field_rows(self):
        preset = get_preset("table3")
        expected = []
        for delta, n, h in zip(preset.deltas, preset.ns, preset.hs):
            config = MethodConfig(r=2, mu=preset.mu, delta=delta, n_override=n)
            field = trapezoid_coeffs(F2, h, *config.domain().max_degree())
            expected.extend(_per_seed_rows(field, config, [None], None, F2.derivative_function()))
        assert run_table(preset) == expected

    def test_a_row_allocates_a_chunk_at_a_time(self):
        """_measure at n = 300: its peak traced allocation is bounded by the shapes, not the seeds.

        A chunk holds k = 2 seeds at n = 300 (2^18 entries).  At the peak, while
        the map derives a chunk, these are live: the restricted base (side^2
        float64 entries), the chunk's stack (k side^2), its derived stack and
        the previous chunk's, whose last result the caller still measures
        (2 k m^2, m = side - r), and the map's block temporaries, as in
        test_method's n = 2048 bound (k side (b + 4a) for the zero corner
        (a, b)); 64 KiB covers the rest.  The noise draws and the metrics, freed
        before the map runs, stay below that.  Four seeds and eight seeds must
        both fit, so memory does not grow with the seeds.
        """
        n, r = 300, 2
        config = MethodConfig(r=r, mu=5.5, delta=1e-8, n_override=n)
        spec = NoiseSpec("gaussian", config.delta, config.p)
        side = n
        k = max(1, method._BLOCK_ENTRIES // side**2)
        assert k == 2
        a, b = config.domain().zero_corner()
        base = exact_coeffs(F1, n - 1, n - 1, G=2 * (n - 1) + 16)
        reference = F1.derivative_function()
        _measure(base, config, spec, 2, reference)  # fills the caches
        bound = 8 * (side**2 + k * side**2 + 2 * k * (side - r) ** 2 + k * side * (b + 4 * a)) + 2**16
        for seeds in (4, 8):
            tracemalloc.start()
            try:
                cells = _measure(base, config, spec, seeds, reference)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(cells) == seeds
            assert peak <= bound, (seeds, peak, bound)

    @pytest.mark.parametrize(
        ("n", "count", "entries", "per_map"), [(31, 300, None, 272), (300, 5, None, 2), (19, 3, 300, 1)]
    )
    def test_a_map_call_stacks_at_most_the_budget(self, monkeypatch, n, count, entries, per_map):
        # 2^18 entries: 272 seeds at side 31, 2 at n = 300; and one seed where
        # an array alone holds more, here under a budget of 300 < 19^2.
        if entries is not None:
            monkeypatch.setattr(method, "_BLOCK_ENTRIES", entries)
        config = MethodConfig(r=2, mu=5.5, delta=1e-8, n_override=n)
        spec = NoiseSpec("gaussian", config.delta, config.p)
        side = config.domain().mask().shape[0]
        assert per_map == max(1, method._BLOCK_ENTRIES // side**2)
        stacks = []
        step = derivative._step

        def spy(a, columns):
            stacks.append(a.shape[:-2])
            return step(a, columns)

        monkeypatch.setattr(derivative, "_step", spy)
        base = CoeffField.from_dense(np.ones((1, 1)))
        cells = _measure(base, config, spec, count, F1.derivative_function())
        assert [cell.seed for cell in cells] == list(range(count))
        sizes = [per_map] * (count // per_map) + [count % per_map] * (count % per_map > 0)
        assert stacks == [(size,) for size in sizes for _ in range(8)]  # 2 steps on 4 blocks

    @pytest.mark.parametrize("kind", NoiseSpec.KINDS)
    def test_rows_carry_the_seeds_after_the_specs(self, kind):
        # Seed 5 and three runs: rows 5, 6 and 7, each the row one run() gives
        # its seed; under "none" one row, seed None.
        config = MethodConfig(r=2, mu=5.5, delta=1e-8, n_override=19)
        base = exact_coeffs(F1, 18, 18, G=ExperimentPreset.coeff_G)
        reference = F1.derivative_function()
        cells = _measure(base, config, NoiseSpec(kind, config.delta, config.p, seed=5), 3, reference)
        seeds = [None] if kind == "none" else [5, 6, 7]
        assert cells == _per_seed_rows(base, config, seeds, kind, reference)

    def test_a_row_makes_one_bit_generator_per_chunk(self, philox_keys):
        # Each table1 row's 20 seeds fit one chunk (726, 455 and 272 fields at
        # sides 19, 24 and 31), keyed by its first seed; one per seed was 60.
        run_table(get_preset("table1"))
        assert philox_keys == [0, 0, 0]

    def test_a_thousand_seeds_draw_and_allocate_a_chunk_at_a_time(self, philox_keys):
        """_measure with 1,000 seeds at n = 31: chunks of k = 272 seeds, bounded by one chunk.

        The chunk rule gives k = 2^18 // side^2 = 272 seeds per stack, so four
        chunks and four bit generators.  At the peak these are live beyond the
        rows already returned: the restricted base (side^2 float64 entries);
        one chunk's stack (k side^2); its noise draw, whose Box-Muller
        arrays (at most eight of k half entries, half = ceil(card / 2)), and
        then the rows with their gathered stack entries, are within
        4 k (card + 1); its derived stack and the previous chunk's, whose last
        result the caller still measures (2 k m^2, m = side - r); and the
        map's block temporaries (k side (b + 4a), as in the n = 300 bound
        above).  The rows returned are what the call holds after it returns;
        64 KiB covers the rest.
        """
        n, r, seeds = 31, 2, 1000
        config = MethodConfig(r=r, mu=5.5, delta=1e-8, n_override=n)
        spec = NoiseSpec("gaussian", config.delta, config.p)
        side = config.domain().mask().shape[0]
        card = config.domain().cardinality()
        k = method._BLOCK_ENTRIES // side**2
        assert (side, card, k) == (31, 142, 272)
        a, b = config.domain().zero_corner()
        base = exact_coeffs(F1, n - 1, n - 1, G=ExperimentPreset.coeff_G)
        reference = F1.derivative_function()
        _measure(base, config, spec, 2, reference)  # fills the caches
        del philox_keys[:]
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            cells = _measure(base, config, spec, seeds, reference)
            held, peak = (size - start for size in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert [cell.seed for cell in cells] == list(range(seeds))
        assert philox_keys == [0, k, 2 * k, 3 * k]
        chunk = side**2 + k * side**2 + 4 * k * (card + 1) + 2 * k * (side - r) ** 2 + k * side * (b + 4 * a)
        bound = 8 * chunk + held + 2**16
        assert peak <= bound, (peak, held, bound)


def _counting_f1():
    """F1 whose exact (2, 2) derivative records the shape of every call."""
    calls = []

    def d22(t, tau):
        calls.append(np.broadcast_shapes(np.shape(t), np.shape(tau)))
        return f1_d22(t, tau)

    return BivariateFunction(
        value=F1.value, d22=d22, t_breakpoints=F1.t_breakpoints,
        tau_breakpoints=F1.tau_breakpoints, factors=F1.factors, name="f1_counted",
    ), calls


class TestReferenceEvaluations:
    """The metrics evaluate the reference once per grid, not once per seed."""

    @pytest.mark.parametrize("seeds", [1, 5])
    def test_run_table_evaluates_reference_once_per_grid(self, seeds):
        function, calls = _counting_f1()
        preset = ExperimentPreset(
            function=function,
            deltas=(1e-4, 1e-5), ns=(4, 6), hs=None, mu=5.5,
        )
        rows = run_table(preset, seeds=seeds)
        assert len(rows) == 2 * (seeds + 1)
        # One Gauss grid (two panels of 96 per axis) and one 201 x 201 grid.
        assert calls == [(192, 192), (201, 201)]

    def test_trapezoid_table_evaluates_reference_once_per_grid(self):
        function, calls = _counting_f1()
        preset = ExperimentPreset(
            function=function,
            deltas=(1e-4, 1e-5, 1e-6), ns=(4, 5, 6), hs=(1e-2, 5e-3, 4e-3),
            mu=5.5,
        )
        assert len(run_table(preset)) == 3
        assert calls == [(192, 192), (201, 201)]

    @pytest.mark.parametrize("seeds", [1, 4])
    def test_sweep_evaluates_reference_once_per_grid(self, seeds):
        function, calls = _counting_f1()
        result = convergence_sweep(
            function, 5.5, 2.0, 2.0, deltas=(1e-4, 1e-6, 1e-8), seeds=seeds,
        )
        assert len(result.rows) == 3 * (seeds + (seeds > 1))
        assert calls == [(192, 192), (201, 201)]

    def test_sweep_builds_one_gauss_grid_per_quadrature_order(self):
        """The sweep's reference keeps one Gauss grid per order, one uniform grid."""
        # The levels n = 60, 130 and 279 put every row's floor
        # 2 * (n - 3) + 8 above the default G = 96, so each level needs its
        # own Gauss grid; the uniform grid is evaluated once for the sweep.
        function, calls = _counting_f1()
        result = convergence_sweep(
            function, 4.5, 2.0, 2.0, deltas=(1e-8, 10**-9.5, 1e-11), seeds=3,
        )
        levels = sorted({r.n for r in result.rows})
        assert all(2 * (n - 3) + 8 > 96 for n in levels)
        g1, g2, g3 = (2 * (2 * (n - 3) + 8) for n in levels)
        assert len({g1, g2, g3}) == 3
        # g1 is one row block; g2 and g3 are more, measured in coefficient
        # space: their reference (no declared factors) is evaluated by row
        # blocks, every row once for B and once for the tail.
        assert g1 * g1 <= metrics._BLOCK_ENTRIES < g2 * g2

        def row_blocks(g):
            height = metrics._BLOCK_ENTRIES // g
            return [(min(height, g - start), g) for start in range(0, g, height)]

        assert calls == [(g1, g1), (201, 201), *row_blocks(g2) * 2, *row_blocks(g3) * 2]


class TestTable2Projection:
    def test_each_row_evaluates_the_factor_once(self):
        calls = []

        def factor(t):
            calls.append(np.size(t))
            return _f1_factor(t)

        preset = get_preset("table2")
        counted = dataclasses.replace(
            preset,
            function=dataclasses.replace(F1, factors=(factor, factor, F1.factors[2])),
        )
        rows = run_table(counted)
        # One projection per row, shared by both axes: 17241, 25000 and
        # 50000 trapezoid steps.
        assert calls == [17242, 25001, 50001]
        assert rows == run_table(preset)


class TestRunTableMetricFloor:
    """run_table raises the preset's Gauss orders to their floors."""

    @pytest.mark.parametrize("hs", [None, (1e-3,)], ids=["gaussian", "trapezoid"])
    def test_rows_past_n_47_use_the_floor(self, hs):
        preset = ExperimentPreset(function=F1, deltas=(1e-9,), ns=(60,), hs=hs)
        rows = run_table(preset, seeds=1)
        config = MethodConfig(r=2, mu=5.5, delta=1e-9, n_override=60)
        if hs is None:
            # Degree 59: the base's floor 2 * 59 + 16 = 134, the exact_coeffs
            # default, exceeds coeff_G = 96.
            field = perturb(
                exact_coeffs(F1, 59, 59).restrict(config.domain()),
                NoiseSpec(kind="gaussian", delta=1e-9, seed=0),
            )
        else:
            field = trapezoid_coeffs(F1, 1e-3, 59, 59)
        approx = run(field, config)
        reference = F1.derivative_function()
        # The derived series has degree 59 - 2 = 57: the floor is 122 > 96.
        for row in rows:
            assert np.isfinite(row.l2_error) and np.isfinite(row.sup_error)
            assert row.l2_error == l2_error(approx, reference, 122)
            assert row.sup_error == sup_error(approx, reference, 201)

    def test_gaussian_base_past_n_96_uses_the_coefficient_floor(self):
        preset = ExperimentPreset(
            function=F1, deltas=(1e-9,), ns=(120,), hs=None
        )
        rows = run_table(preset, seeds=1)
        config = MethodConfig(r=2, mu=5.5, delta=1e-9, n_override=120)
        field = perturb(
            exact_coeffs(F1, 119, 119, G=2 * 119 + 16).restrict(config.domain()),
            NoiseSpec(kind="gaussian", delta=1e-9, seed=0),
        )
        approx = run(field, config)
        reference = F1.derivative_function()
        assert [row.seed for row in rows] == [0, "median"]
        for row in rows:
            assert row.l2_error == l2_error(approx, reference, 2 * 117 + 8)
            assert row.sup_error == sup_error(approx, reference, 201)


_REFS = Path(__file__).resolve().parent.parent / "perfbench" / "refs"


class TestBenchmarkReferences:
    """Outputs against the benchmark's recorded references."""

    @pytest.mark.parametrize("name", ["table1", "table2"])
    def test_table_csv_matches_reference(self, name):
        ref = _REFS / f"{name}.csv"
        assert rows_to_csv(run_table(get_preset(name))) == ref.read_text(encoding="utf-8")

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_benchmark_replay_matches_run_table(self, name, monkeypatch):
        # The benchmark's traced run replays run_table stage by stage and
        # reads the preset's settings by name (r, s, p, coeff_G, metric_G,
        # metric_m, default_seeds); the replay must give run_table's rows.
        monkeypatch.syspath_prepend(str(_REFS.parent))
        import spans
        import workloads

        preset = get_preset(name)
        assert workloads.replay_table(preset, spans.NULL) == run_table(preset)

    @pytest.fixture(scope="class")
    def large_n_cross(self):
        recorded = json.loads((_REFS / "large_n_cross.json").read_text(encoding="utf-8"))
        n = recorded["n"]
        config = MethodConfig(
            r=recorded["r"], mu=recorded["mu"], delta=recorded["delta"], n_override=n
        )
        base = exact_coeffs(F1, n - 1, n - 1, G=2 * (n - 1) + 16).restrict(config.domain())
        return recorded, config, base, F1.derivative_function()

    @pytest.mark.parametrize("seed", [0, 31])
    def test_large_cross_errors_match_reference(self, large_n_cross, seed):
        # n = 300: the metrics take grid_factors' factorized branch, in row blocks.
        recorded, config, base, reference = large_n_cross
        noise = NoiseSpec(kind="gaussian", delta=config.delta, seed=seed)
        approx = run(perturb(base, noise), config)
        want = recorded["seeds"][str(seed)]
        assert approx.information_count == want["card"]
        l2 = l2_error(approx, reference, recorded["l2_G"])
        sup = sup_error(approx, reference, recorded["sup_m"])
        # The benchmark's own tolerance for a changed arithmetic order (REL_TOL).
        assert (l2, sup) == pytest.approx((want["l2_error"], want["sup_error"]), rel=1e-12, abs=0)


class TestTheoreticalExponent:
    def test_known_values(self):
        assert theoretical_exponent(6.0, 2, 2.0, 2.0) == pytest.approx(1.0 / 3.0)
        assert theoretical_exponent(5.5, 2, 2.0, 2.0) == pytest.approx(3.0 / 11.0)

    def test_infinite_p(self):
        assert theoretical_exponent(6.0, 2, 2.0, np.inf) == pytest.approx(4.0 / 13.0)

    @pytest.mark.parametrize("mu", [np.inf, np.nan])
    def test_rejects_non_finite_mu(self, mu):
        with pytest.raises(ConfigError, match="must be finite"):
            theoretical_exponent(mu, 2, 2.0, 2.0)

    @pytest.mark.parametrize(
        ("mu", "r", "s", "p", "message"),
        [
            (5.5, 2, 0, 2, "^s=0 must satisfy 1 <= s < inf$"),
            (5.5, 2, 2, 0, "^p=0 must satisfy 1 <= p <= inf$"),
            (0.5, 1, 2, 1, r"^mu - 1/p \+ 1/s = 0\.0 must be positive$"),
            (5.5, 1.5, 2, 2, "^r=1.5 must be an integer$"),
            (5.5, -3, 2, 2, "^derivative order r=-3 must be >= 1$"),
            (0.1, 1, 2, 1, r"^mu - 1/p \+ 1/s = -0\.4\d* must be positive$"),
        ],
    )
    def test_refuses_what_choose_n_refuses(self, mu, r, s, p, message):
        # The first three once raised ZeroDivisionError; r = 1.5 gave 0.4545...,
        # r = -3 gave 2.0909..., and mu = 0.1 gave 4.75 under a denominator
        # choose_n refuses.  Each refusal is choose_n's, in its words.
        with pytest.raises(ConfigError, match=message):
            theoretical_exponent(mu, r, s, p)
        with pytest.raises(ConfigError, match=message):
            choose_n(0.5, mu, p=p, s=s, r=r)


class TestConvergenceSweep:
    def test_rejects_short_grid(self):
        with pytest.raises(ValueError, match="3 noise levels"):
            convergence_sweep(F2, 6.0, 2.0, 2.0, deltas=(1e-4, 1e-6))

    def test_rejects_narrow_grid(self):
        with pytest.raises(ValueError, match="decades"):
            convergence_sweep(F2, 6.0, 2.0, 2.0, deltas=(1e-2, 1e-3, 1e-4))

    def test_checks_each_delta_before_the_span(self):
        # The span check once divided by the 0.0 first: ZeroDivisionError.
        with pytest.raises(ConfigError, match="delta=0.0 must lie in"):
            convergence_sweep(F1, 5.5, 2, 2, [1e-4, 0.0, 1e-8])

    @pytest.mark.parametrize("kind", ["pink", "uniform"])
    def test_rejects_unknown_noise_kind_as_noise_spec_does(self, monkeypatch, kind):
        # NoiseSpec owns the rule and its message; nothing is projected first.
        built = []
        monkeypatch.setattr(experiments, "exact_coeffs", lambda *args, **kwargs: built.append(args))
        with pytest.raises(ValueError) as expected:
            NoiseSpec(kind, 1e-4)
        with pytest.raises(ValueError) as got:
            convergence_sweep(F2, 6.0, 2.0, 2.0, deltas=(1e-4, 1e-6, 1e-8), noise_kind=kind)
        assert str(got.value) == str(expected.value)
        assert built == []

    def test_rejects_function_without_derivative(self):
        bare = BivariateFunction(value=lambda t, tau: t * tau, name="bare")
        with pytest.raises(ValueError, match="derivative"):
            convergence_sweep(bare, 6.0, 2.0, 2.0, deltas=(1e-4, 1e-6, 1e-8))

    @pytest.mark.parametrize("r", [1, 3])
    def test_rejects_r_other_than_2_before_projecting(self, r):
        # The sweep measures against the (2, 2) derivative, so r is not a
        # parameter: an order is refused as an unknown argument.
        calls = []

        def value(t, tau):
            calls.append(np.broadcast_shapes(np.shape(t), np.shape(tau)))
            return f2(t, tau)

        counted = BivariateFunction(value=value, d22=f2_d22, name="f2_counted")
        with pytest.raises(TypeError, match="'r'"):
            convergence_sweep(counted, 8.0, 2.0, 2.0, deltas=(1e-5, 1e-7, 1e-9), r=r)
        assert calls == []

    def test_r_is_not_a_parameter(self):
        # Even the order it measures: the sweep reads MEASURED_ORDER, as
        # ExperimentPreset.r does.
        with pytest.raises(TypeError, match="'r'"):
            convergence_sweep(F2, 6.0, 2.0, 2.0, deltas=(1e-4, 1e-6, 1e-8), r=2)
        assert ExperimentPreset.r == MEASURED_ORDER == 2

    def test_rejects_non_finite_mu_before_projecting(self):
        calls = []

        def value(t, tau):
            calls.append(np.broadcast_shapes(np.shape(t), np.shape(tau)))
            return f2(t, tau)

        counted = BivariateFunction(value=value, d22=f2_d22, name="f2_counted")
        with pytest.raises(ConfigError, match="mu=inf must be finite"):
            convergence_sweep(counted, np.inf, 2.0, 2.0, deltas=(1e-5, 1e-7, 1e-9))
        assert calls == []

    def test_rejects_nonpositive_seeds(self):
        with pytest.raises(ValueError, match="seed"):
            convergence_sweep(
                F2, 6.0, 2.0, 2.0, deltas=(1e-4, 1e-6, 1e-8), seeds=0
            )

    def test_noiseless_sweep_decreases(self):
        result = convergence_sweep(
            F2, 6.0, 2.0, 2.0, deltas=(1e-4, 1e-6, 1e-8), noise_kind="none"
        )
        assert isinstance(result, SweepResult)
        assert result.deltas == (1e-4, 1e-6, 1e-8)
        meds = result.median_l2
        assert meds[0] > meds[1] > meds[2] > 0.0
        assert result.fitted_slope > 0.0
        assert result.theoretical_exponent == pytest.approx(1.0 / 3.0)

    def test_rows_sorted_by_descending_delta(self):
        result = convergence_sweep(
            F2, 6.0, 2.0, 2.0, deltas=(1e-8, 1e-4, 1e-6), noise_kind="none"
        )
        assert result.deltas == (1e-4, 1e-6, 1e-8)
        row_deltas = [row.delta for row in result.rows]
        assert row_deltas == sorted(row_deltas, reverse=True)

    def test_projected_sweep_structure(self):
        result = convergence_sweep(
            F2, 6.0, 2.0, 2.0, deltas=(1e-4, 1e-6, 1e-8),
            seeds=2, noise_kind="projected",
        )
        # Two seed rows plus a median row per level.
        assert len(result.rows) == 9
        medians = [row for row in result.rows if row.seed == "median"]
        assert len(medians) == 3
        assert [m.l2_error for m in medians] == list(result.median_l2)

    def test_levels_follow_choice_rule(self):
        result = convergence_sweep(
            F2, 6.0, 2.0, 2.0, deltas=(1e-4, 1e-6, 1e-8), noise_kind="none"
        )
        assert sorted({row.n for row in result.rows}) == [5, 10, 22]

    def test_metric_order_is_a_floor(self):
        # At delta = 1e-13 the rule picks n = 147: the derived series has
        # degree 144, which needs G >= 296, above the default 96.
        deltas = (1e-6, 1e-8, 1e-10, 1e-13)
        result = convergence_sweep(F2, 6.0, 2.0, 2.0, deltas=deltas, seeds=1)
        reference = F2.derivative_function()
        base = exact_coeffs(F2, 146, 146, G=2 * 146 + 16)  # the sweep's own base
        for row in result.rows:
            config = MethodConfig(r=2, mu=6.0, delta=row.delta, n_override=row.n)
            noisy = perturb(
                base.restrict(config.domain()),
                NoiseSpec(kind="projected", delta=row.delta, seed=0),
            )
            approx = run(noisy, config)
            G = max(96, 2 * (row.n - 3) + 8)
            assert row.l2_error == l2_error(approx, reference, G)
            assert row.sup_error == sup_error(approx, reference, 201)
        assert [row.n for row in result.rows] == [10, 22, 47, 147]
