"""Noise models: raw Gaussian and norm-projected perturbations."""

import dataclasses
import math
import re

import numpy as np
import pytest

from legdiff.coeffs import CoeffField
from legdiff.noise import NoiseSpec, _noise_rows, _normal_rows, noise_vector, perturb, standard_normals

from oracles import from_entries


def _field():
    return from_entries({(2, 2): 0.4, (2, 3): -1.1, (5, 2): 0.02})


class TestNoiseSpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            NoiseSpec(kind="uniform", delta=0.1)

    @pytest.mark.parametrize("delta", [0.0, 1.0, -0.5, 2.0])
    def test_rejects_delta_outside_open_interval(self, delta):
        with pytest.raises(ValueError):
            NoiseSpec(kind="gaussian", delta=delta)

    def test_none_kind_allows_zero_delta(self):
        NoiseSpec(kind="none")

    def test_rejects_p_below_one(self):
        with pytest.raises(ValueError):
            NoiseSpec(kind="projected", delta=0.1, p=0.5)

    def test_p_infinity_allowed(self):
        NoiseSpec(kind="projected", delta=0.1, p=math.inf)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_rejects_seed_outside_uint64(self, seed):
        with pytest.raises(ValueError, match="seed"):
            NoiseSpec(kind="gaussian", delta=0.1, seed=seed)

    @pytest.mark.parametrize("seed", [3.5, 3.0, math.nan, "3"])
    def test_rejects_seed_that_is_no_integer(self, seed):
        # 3.5 once drew seed 3's noise.
        with pytest.raises(ValueError, match=f"seed={seed!r} must be an integer"):
            NoiseSpec(kind="gaussian", delta=0.1, seed=seed)
        with pytest.raises(ValueError, match=f"seed={seed!r} must be an integer"):
            standard_normals(seed, 4)

    def test_largest_seed_allowed(self):
        assert NoiseSpec(kind="gaussian", delta=0.1, seed=2**64 - 1).seed == 2**64 - 1


class TestStandardNormals:
    def test_reproducible(self):
        np.testing.assert_array_equal(standard_normals(7, 100), standard_normals(7, 100))

    def test_different_seeds_differ(self):
        assert not np.array_equal(standard_normals(7, 100), standard_normals(8, 100))

    def test_odd_count(self):
        assert standard_normals(1, 7).shape == (7,)

    def test_moments_sane(self):
        z = standard_normals(0, 200_000)
        assert abs(z.mean()) < 0.01
        assert abs(z.std() - 1.0) < 0.01

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError):
            standard_normals(0, -1)

    def test_zero_count_is_empty_float64(self):
        z = standard_normals(0, 0)
        assert z.shape == (0,) and z.dtype == np.float64

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_rejects_seed_outside_uint64(self, seed):
        with pytest.raises(ValueError, match="seed"):
            standard_normals(seed, 4)

    def test_largest_seed_allowed(self):
        z = standard_normals(2**64 - 1, 5)
        assert z.shape == (5,) and np.all(np.isfinite(z))


class TestPerturb:
    def test_none_is_identity(self):
        field = _field()
        assert perturb(field, NoiseSpec(kind="none")) is field

    def test_gaussian_changes_every_entry(self):
        field = _field()
        out = perturb(field, NoiseSpec(kind="gaussian", delta=1e-3, seed=1))
        for (k, j), v in field.items_sorted():
            assert out.values[k, j] != v

    def test_deterministic_given_seed(self):
        field = _field()
        spec = NoiseSpec(kind="projected", delta=1e-4, p=2.0, seed=9)
        a = perturb(field, spec)
        b = perturb(field, spec)
        assert a.items_sorted() == b.items_sorted()

    def test_draws_follow_lexicographic_order(self):
        # The same entries inserted in different dict orders receive the same
        # noise values per index.
        e = {(2, 2): 0.4, (2, 3): -1.1, (5, 2): 0.02}
        scrambled = {kj: e[kj] for kj in [(5, 2), (2, 2), (2, 3)]}
        spec = NoiseSpec(kind="gaussian", delta=1e-3, seed=4)
        a = perturb(from_entries(e), spec)
        b = perturb(from_entries(scrambled), spec)
        assert a.items_sorted() == b.items_sorted()

    def test_projected_linf_peak_is_delta(self):
        delta = 1e-6
        xi = noise_vector(_field(), NoiseSpec(kind="projected", delta=delta, p=math.inf, seed=3))
        assert np.max(np.abs(xi)) == pytest.approx(delta, rel=1e-12)
        assert np.all(np.abs(xi) <= delta * (1 + 1e-12))

    def test_projected_l2_norm_is_delta(self):
        delta = 1e-6
        xi = noise_vector(_field(), NoiseSpec(kind="projected", delta=delta, p=2.0, seed=42))
        assert abs(float(np.sqrt(np.sum(xi**2))) - delta) < 1e-18

    def test_projected_on_empty_draw_is_degenerate(self):
        # An empty field yields no draws; the projected scaling is undefined,
        # but noise_vector returns the empty draw before scaling is attempted.
        empty = from_entries({})
        out = perturb(empty, NoiseSpec(kind="projected", delta=0.1, seed=0))
        assert len(out) == 0

    def test_gaussian_empirical_std(self):
        field = from_entries({(0, 0): 0.3, (1, 2): -0.7})
        delta = 1e-3
        diffs = np.empty((10_000, 2))
        for seed in range(10_000):
            out = perturb(field, NoiseSpec(kind="gaussian", delta=delta, seed=seed))
            diffs[seed] = (out.values[0, 0] - 0.3, out.values[1, 2] + 0.7)
        stds = diffs.std(axis=0)
        assert np.all(np.abs(stds - delta) < 0.05 * delta)

    def test_perturb_preserves_bounds_and_support(self):
        field = _field()
        out = perturb(field, NoiseSpec(kind="gaussian", delta=1e-2, seed=0))
        assert out.values.shape == field.values.shape
        assert [kj for kj, _ in out.items_sorted()] == [
            kj for kj, _ in field.items_sorted()
        ]

    def test_perturb_changes_stored_entries_only(self):
        field = from_entries({(2, 2): 0.4, (3, 1): 0.0}, k_max=4, j_max=3)
        out = perturb(field, NoiseSpec(kind="gaussian", delta=1e-2, seed=5))
        changed = out.values != field.values
        np.testing.assert_array_equal(changed, field.stored)
        np.testing.assert_array_equal(out.stored, field.stored)
        np.testing.assert_array_equal(out.values[~out.stored], 0.0)


class TestNoiseVector:
    def test_matches_perturb_difference_for_zero_field(self):
        # A zero-valued field makes the reconstruction exact.
        pairs = [(2, 2), (2, 5), (3, 3), (7, 2)]
        field = from_entries({kj: 0.0 for kj in pairs})
        spec = NoiseSpec(kind="projected", delta=1e-5, p=1.0, seed=11)
        xi = noise_vector(field, spec)
        out = perturb(field, spec)
        recon = np.array([v for _, v in out.items_sorted()])
        np.testing.assert_array_equal(recon, xi)

    def test_none_kind_empty(self):
        assert noise_vector(_field(), NoiseSpec(kind="none")).size == 0

    @pytest.mark.parametrize("kind", ["gaussian", "projected"])
    def test_field_without_entries_gets_no_noise(self, kind):
        xi = noise_vector(from_entries({}), NoiseSpec(kind=kind, delta=0.1, seed=0))
        assert xi.shape == (0,) and xi.dtype == np.float64

    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
    def test_projected_norm_equality(self, p):
        delta = 3e-7
        xi = noise_vector(_field(), NoiseSpec(kind="projected", delta=delta, p=p, seed=2))
        if math.isinf(p):
            norm = float(np.max(np.abs(xi)))
        else:
            norm = float(np.sum(np.abs(xi) ** p) ** (1 / p))
        assert abs(norm - delta) / delta < 1e-12


def _lp_norm_long_double(x, p):
    """||x||_p as exp(logsumexp(p log|x|) / p) in long double: no power of |x| is formed."""
    logs = p * np.log(np.abs(np.asarray(x, dtype=np.longdouble)))
    top = np.max(logs)
    return float(np.exp((top + np.log(np.sum(np.exp(logs - top)))) / p))


class TestLargeFiniteP:
    """The projected draw keeps l_p norm delta when sum |x|^p leaves float64."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("p", [1000.0, 1e308])
    def test_overflowing_power_sum(self, p):
        field = from_entries(
            {(k, j): 0.0 for k in range(2, 12) for j in range(2, 12)}
        )
        with np.errstate(over="ignore"):
            assert np.sum(np.abs(standard_normals(3, len(field))) ** p) == math.inf
        delta = 1e-6
        xi = noise_vector(field, NoiseSpec(kind="projected", delta=delta, p=p, seed=3))
        assert abs(_lp_norm_long_double(xi, p) - delta) / delta < 1e-12
        assert np.count_nonzero(xi) == len(field)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_underflowing_power_sum(self, seed):
        field = from_entries({(2, 2): 0.5})
        with np.errstate(under="ignore"):
            assert np.sum(np.abs(standard_normals(seed, 1)) ** 2000.0) == 0.0
        delta = 1e-6
        xi = noise_vector(
            field, NoiseSpec(kind="projected", delta=delta, p=2000.0, seed=seed)
        )
        # One entry: its l_p norm is its size, for every p.
        assert abs(abs(xi[0]) - delta) / delta < 1e-15


def _fresh_draw(seed, count):
    """``count`` normals by the one-seed formula, from a new Generator(Philox(key=seed))."""
    gen = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    half = (count + 1) // 2
    u1 = 1.0 - gen.random(half)
    u2 = gen.random(half)
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * np.pi * u2
    out = np.empty(2 * half, dtype=np.float64)
    out[0::2] = radius * np.cos(angle)
    out[1::2] = radius * np.sin(angle)
    return out[:count]


def _flat_field(count):
    """A zero field storing ``count`` entries in one row."""
    return CoeffField(np.zeros((1, count)), np.ones((1, count), dtype=bool))


_ROW_SEEDS = [0, 1, 2, 2**63 + 5, 2**64 - 1]


class TestNormalRows:
    """A batch of seeds draws with one re-keyed bit generator, each row the one-seed draw's bytes."""

    @pytest.mark.parametrize("count", [0, 1, 2, 7, 142, 143, 2723])
    def test_each_row_is_a_fresh_generators_draw(self, count, philox_keys):
        rows = _normal_rows(_ROW_SEEDS, count)
        assert philox_keys == [_ROW_SEEDS[0]]
        assert rows.shape == (len(_ROW_SEEDS), count) and rows.dtype == np.float64
        for seed, row in zip(_ROW_SEEDS, rows):
            expected = _fresh_draw(seed, count)
            assert np.array_equal(row, expected) and row.tobytes() == expected.tobytes(), seed
            assert standard_normals(seed, count).tobytes() == expected.tobytes(), seed

    def test_no_seeds_draw_nothing(self, philox_keys):
        assert _normal_rows([], 5).shape == (0, 5)
        assert philox_keys == []

    @pytest.mark.parametrize(
        ("kind", "p"),
        [("gaussian", 2.0), ("projected", 1.0), ("projected", 2.0), ("projected", 3.0), ("projected", math.inf)],
    )
    @pytest.mark.parametrize("count", [1, 2, 7, 142, 143])
    def test_noise_rows_are_noise_vectors(self, kind, p, count):
        spec = NoiseSpec(kind=kind, delta=1e-6, p=p)
        rows = _noise_rows(spec, _ROW_SEEDS, count)
        field = _flat_field(count)
        for seed, row in zip(_ROW_SEEDS, rows):
            expected = noise_vector(field, dataclasses.replace(spec, seed=seed))
            assert row.tobytes() == expected.tobytes(), seed

    @pytest.mark.parametrize(
        ("seed", "message"),
        [
            (-1, "seed=-1 must satisfy 0 <= seed < 2**64"),
            (2**64, f"seed={2**64} must satisfy 0 <= seed < 2**64"),
            (1.5, "seed=1.5 must be an integer"),
        ],
    )
    def test_a_bad_seed_is_refused_before_any_draw(self, seed, message, philox_keys):
        for call in (lambda: _normal_rows([0, 1, seed], 4), lambda: standard_normals(seed, 4)):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                call()
        assert philox_keys == []
