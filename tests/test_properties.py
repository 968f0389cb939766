"""Randomized invariants, exercised wider than the hand-picked cases."""

import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from legdiff.coeffs import CoeffField, load_csv, save_csv
from legdiff.derivative import mueller_step
from legdiff.index import IndexDomain
from legdiff.method import MethodConfig, choose_n, run
from legdiff.noise import NoiseSpec, noise_vector, perturb

_shapes = st.sampled_from(["cross", "box"])


def _level(r: int, n: int) -> int:
    """Map a drawn n onto a valid level n > r."""
    return n if n > r else r + 1 + (n % 3)


def _config(r: int, n: int, shape: str) -> MethodConfig:
    return MethodConfig(
        r=r, mu=2.0 * r + 1.0, delta=0.0, n_override=n, domain_shape=shape
    )


def _random_field(rng, config: MethodConfig, extra: int) -> CoeffField:
    """Dense random field reaching ``extra`` degrees past the domain."""
    deg_k, deg_j = config.domain().max_degree()
    return CoeffField.from_dense(
        rng.standard_normal((deg_k + 1 + extra, deg_j + 1 + extra))
    )


def _derived(field: CoeffField, config: MethodConfig) -> np.ndarray:
    return run(field, config).series.field.values


@settings(max_examples=60, deadline=None)
@given(r=st.integers(1, 4), n=st.integers(2, 40))
def test_cross_membership_matches_brute_force(r, n):
    if n <= r:
        n = r + 1 + (n % 3)
    members = set(IndexDomain.cross(r, n).members())
    brute = {
        (k, j)
        for k in range(r, n)
        for j in range(r, n)
        if k * j <= r * n - 1
    }
    assert members == brute
    assert IndexDomain.cross(r, n).cardinality() == len(brute)


@settings(max_examples=40, deadline=None)
@given(
    data=st.lists(st.floats(-5.0, 5.0), min_size=2, max_size=24),
    scale=st.floats(-3.0, 3.0),
)
def test_mueller_step_is_linear(data, scale):
    a = np.asarray(data, dtype=np.float64)
    lhs = mueller_step(scale * a)
    rhs = scale * mueller_step(a)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)
    assert lhs.shape == (a.size - 1,)


@settings(max_examples=60, deadline=None)
@given(
    exp_small=st.floats(-10.0, -0.5),
    gap=st.floats(0.1, 6.0),
    mu=st.floats(4.6, 9.0),
)
def test_choose_n_monotone_in_delta(exp_small, gap, mu):
    delta_small = 10.0 ** exp_small
    delta_large = min(10.0 ** (exp_small + gap), 0.5)
    assert choose_n(delta_small, mu, r=2) >= choose_n(delta_large, mu, r=2)


@settings(max_examples=40, deadline=None)
@given(
    p=st.one_of(st.floats(1.0, 20.0), st.just(math.inf)),
    seed=st.integers(0, 2**31),
    exp=st.floats(-9.0, -1.0),
)
def test_projected_noise_norm_for_arbitrary_p(p, seed, exp):
    field = CoeffField.from_entries({(2, 2): 0.3, (2, 5): -1.2, (4, 3): 0.01})
    delta = 10.0 ** exp
    xi = noise_vector(field, NoiseSpec(kind="projected", delta=delta, p=p, seed=seed))
    if math.isinf(p):
        norm = float(np.max(np.abs(xi)))
    else:
        norm = float(np.sum(np.abs(xi) ** p) ** (1.0 / p))
    assert abs(norm - delta) <= 1e-11 * delta


@settings(max_examples=60, deadline=None)
@given(r=st.integers(1, 4), n=st.integers(2, 40), shape=_shapes)
def test_mask_matches_members_and_cardinality(r, n, shape):
    n = _level(r, n)
    domain = IndexDomain(shape=shape, r=r, n=n)
    mask = domain.mask()
    members = domain.members()
    assert mask.shape == tuple(d + 1 for d in domain.max_degree())
    assert set(zip(*(idx.tolist() for idx in np.nonzero(mask)))) == set(members)
    assert int(mask.sum()) == len(members) == domain.cardinality()


@settings(max_examples=40, deadline=None)
@given(
    r=st.integers(1, 3),
    n=st.integers(2, 30),
    shape=_shapes,
    a=st.floats(-3.0, 3.0),
    seed=st.integers(0, 2**32 - 1),
    extra=st.integers(0, 3),
)
def test_run_is_linear(r, n, shape, a, seed, extra):
    config = _config(r, _level(r, n), shape)
    rng = np.random.default_rng(seed)
    f = _random_field(rng, config, extra)
    g = _random_field(rng, config, extra)
    combined = CoeffField.from_dense(a * f.values + g.values)
    lhs = _derived(combined, config)
    run_f, run_g = _derived(f, config), _derived(g, config)
    scale = abs(a) * np.max(np.abs(run_f)) + np.max(np.abs(run_g))
    assert lhs.shape == run_f.shape
    assert np.max(np.abs(lhs - (a * run_f + run_g))) <= 1e-12 * scale


@settings(max_examples=40, deadline=None)
@given(
    r=st.integers(1, 3),
    n=st.integers(2, 30),
    shape=_shapes,
    kind=st.sampled_from(["gaussian", "projected"]),
    exp=st.floats(-9.0, -1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_perturb_then_run_adds_run_of_noise(r, n, shape, kind, exp, seed):
    config = _config(r, _level(r, n), shape)
    field = _random_field(np.random.default_rng(seed), config, 0).restrict(
        config.domain()
    )
    spec = NoiseSpec(kind=kind, delta=10.0**exp, seed=seed)
    scattered = np.zeros(field.values.shape)
    scattered[field.stored] = noise_vector(field, spec)
    lhs = _derived(perturb(field, spec), config)
    run_f = _derived(field, config)
    run_xi = _derived(CoeffField.from_dense(scattered), config)
    scale = np.max(np.abs(run_f)) + np.max(np.abs(run_xi))
    assert np.max(np.abs(lhs - (run_f + run_xi))) <= 1e-12 * scale


@settings(max_examples=60, deadline=None)
@given(
    k_max=st.integers(0, 6),
    j_max=st.integers(0, 6),
    data=st.data(),
)
def test_csv_round_trip_is_bit_exact(k_max, j_max, data):
    size = (k_max + 1) * (j_max + 1)
    stored = data.draw(st.lists(st.booleans(), min_size=size, max_size=size))
    values = data.draw(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False),
            min_size=size, max_size=size,
        )
    )
    entries = {
        divmod(i, j_max + 1): v for i, (keep, v) in enumerate(zip(stored, values)) if keep
    }
    field = CoeffField.from_entries(entries, k_max=k_max, j_max=j_max)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "field.csv"
        save_csv(field, path)
        loaded = load_csv(path)
    assert loaded.items_sorted() == field.items_sorted()
    bits = lambda f: np.array([v for _, v in f.items_sorted()]).view(np.uint64)
    np.testing.assert_array_equal(bits(loaded), bits(field))
