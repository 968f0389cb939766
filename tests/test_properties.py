"""Randomized invariants, exercised wider than the hand-picked cases."""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from legdiff.coeffs import CoeffField, _parse_rows, _scan_rows, load_csv, save_csv
from legdiff.derivative import DerivativeExpansion
from legdiff.index import IndexDomain
from legdiff.method import MethodConfig, choose_n, run
from legdiff.noise import NoiseSpec, _noise_rows, noise_vector, perturb

from oracles import from_entries

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
    return run(field, config).series.values


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


@settings(max_examples=60, deadline=None)
@given(r=st.integers(1, 4), n=st.integers(2, 60), shape=_shapes)
def test_zero_corner_is_the_cheapest_empty_corner(r, n, shape):
    n = _level(r, n)
    domain = IndexDomain(shape, r, n)
    mask = domain.mask()
    side = mask.shape[0]
    rests = {
        (a, b): side * (a + b) - a * b
        for a in range(side)
        for b in range(side)
        if not mask[a:, b:].any()
    }
    corner = domain.zero_corner()
    if not rests:  # always so for the box
        assert corner is None
        return
    assert corner in rests
    assert rests[corner] == min(rests.values())
    assert corner[0] > r and corner[1] > r


@settings(max_examples=80, deadline=None)
@given(
    r=st.integers(1, 3),
    n=st.one_of(st.integers(2, 40), st.integers(70, 160)),
    shape=_shapes,
    seed=st.integers(0, 2**32 - 1),
    zero_share=st.sampled_from([0.0, 0.3, 0.9]),
    zero=st.sampled_from([0.0, -0.0]),
)
def test_run_derives_the_staircase_as_the_dense_map(r, n, shape, seed, zero_share, zero):
    # Byte for byte, except that a -0.0 at a block edge may flip the sign of
    # an exactly-zero result (see the legdiff.derivative docstring).
    n = _level(r, n)
    config = _config(r, n, shape)
    rng = np.random.default_rng(seed)
    values = _random_field(rng, config, extra=3).values.copy()
    values[rng.random(values.shape) < zero_share] = zero
    field = CoeffField.from_dense(values)
    domain = config.domain()
    masked = field.restrict(domain).values
    expansion = DerivativeExpansion(r, masked.shape[0] - 1)
    dense = expansion.apply(expansion.apply(masked).T).T
    series = run(field, config).series
    derived = series.values
    assert derived.shape == dense.shape
    if np.signbit(masked[masked == 0.0]).any():
        assert np.array_equal(derived, dense)
    else:
        assert derived.tobytes() == dense.tobytes()
    corner = domain.zero_corner()
    if corner is not None:
        a, b = corner
        assert not derived[a - r :, b - r :].any()
        corner = a - r, b - r
    assert series.zero_corner == corner  # None on the box


@settings(max_examples=40, deadline=None)
@given(
    data=st.lists(st.floats(-5.0, 5.0), min_size=2, max_size=24),
    scale=st.floats(-3.0, 3.0),
)
def test_mueller_step_is_linear(data, scale):
    a = np.asarray(data, dtype=np.float64)
    step = DerivativeExpansion(1, a.size - 1)
    lhs = step.apply(scale * a)
    rhs = scale * step.apply(a)
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
    field = from_entries({(2, 2): 0.3, (2, 5): -1.2, (4, 3): 0.01})
    delta = 10.0 ** exp
    xi = noise_vector(field, NoiseSpec(kind="projected", delta=delta, p=p, seed=seed))
    if math.isinf(p):
        norm = float(np.max(np.abs(xi)))
    else:
        norm = float(np.sum(np.abs(xi) ** p) ** (1.0 / p))
    assert abs(norm - delta) <= 1e-11 * delta



@settings(max_examples=60, deadline=None)
@given(
    seeds=st.lists(st.integers(0, 2**64 - 1), max_size=6),
    count=st.integers(0, 300),
    kind=st.sampled_from(["gaussian", "projected"]),
    p=st.one_of(st.floats(1.0, 20.0), st.just(math.inf)),
)
def test_batched_noise_rows_are_per_seed_noise_vectors(seeds, count, kind, p):
    spec = NoiseSpec(kind=kind, delta=1e-6, p=p)
    rows = _noise_rows(spec, seeds, count)
    assert rows.shape == (len(seeds), count)
    field = CoeffField(np.zeros((1, count + 1)), np.arange(count + 1)[None] < count)
    for seed, row in zip(seeds, rows):
        expected = noise_vector(field, NoiseSpec(kind=kind, delta=1e-6, p=p, seed=seed))
        assert row.tobytes() == expected.tobytes()

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
    seed=st.integers(0, 2**32 - 1),
    extra=st.integers(0, 3),
)
def test_run_is_the_linear_map(r, n, shape, seed, extra):
    # run(C) = S (M o C) S^T with S the r-step matrix and M the domain mask.
    config = _config(r, _level(r, n), shape)
    field = _random_field(np.random.default_rng(seed), config, extra)
    mask = config.domain().mask()
    masked = np.where(mask, field.values[: mask.shape[0], : mask.shape[1]], 0.0)
    S = DerivativeExpansion(r, mask.shape[0] - 1).matrix()
    expected = S @ masked @ S.T
    derived = _derived(field, config)
    assert derived.shape == expected.shape
    scale = np.abs(S) @ np.abs(masked) @ np.abs(S).T  # entrywise operand scale
    assert np.all(np.abs(derived - expected) <= 1e-12 * scale)


@settings(max_examples=40, deadline=None)
@given(
    r=st.integers(1, 3),
    degree=st.integers(0, 30),
    columns=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_apply_maps_each_column_on_its_own(r, degree, columns, seed):
    a = np.random.default_rng(seed).standard_normal((degree + 1, columns))
    expansion = DerivativeExpansion(r, degree)
    out = expansion.apply(a)
    assert out.shape == (max(degree + 1 - r, 0), columns)
    for column in range(columns):
        np.testing.assert_array_equal(out[:, column], expansion.apply(a[:, column]))


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
    field = from_entries(entries, k_max=k_max, j_max=j_max)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "field.csv"
        save_csv(field, path)
        loaded = load_csv(path)
    assert loaded.items_sorted() == field.items_sorted()
    bits = lambda f: np.array([v for _, v in f.items_sorted()]).view(np.uint64)
    np.testing.assert_array_equal(bits(loaded), bits(field))


# Spellings a coefficient file may hold: plain rows, unusual but valid forms
# (signs, padding, digit separators, non-ASCII digits and spaces), and every
# kind of bad line, including indices past 2**63.
_fuzz_field = st.text(
    alphabet="0123456789+-_.eEinfa \t\x0b\x0c\x1c\x1f\x85\xa0\u2028\u0663", max_size=5
)
_index_text = st.one_of(
    st.integers(0, 4).map(str),
    _fuzz_field,
    st.sampled_from(["+{}", " {} ", "0{}", "\t{}", "\xa0{}\u2028", "{}\x1c", "\x1f{}"]).flatmap(
        lambda spelling: st.integers(0, 4).map(spelling.format)
    ),
    st.sampled_from(
        ["1_0", "\u0663", "-1", "-0", "3.0", "1e3", "x", "", "#",
         "2100", str(2**63 - 1), str(2**63), str(2**64), str(-(2**63) - 1)]
    ),
)
_value_text = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    _fuzz_field,
    st.floats(width=32).map(lambda v: format(v, ".9g")),
    st.sampled_from(
        ["nan", "-inf", "Infinity", "1e5000", "1e-400", "-0.0", "1_0.5", " 2.5 ",
         ".5", "5.", "0x10", "\u0661.5", "1.5#c", "#", "", "1 5", "\xa02.5\x1c"]
    ),
)
_plain_rows = st.lists(
    st.tuples(
        st.integers(0, 6), st.integers(0, 6), st.floats(allow_nan=False, allow_infinity=False)
    ),
    max_size=8,
    unique_by=lambda row: row[:2],
).map(lambda rows: [f"{k},{j},{v!r}" for k, j, v in rows])
_odd_line = st.one_of(
    st.tuples(_index_text, _index_text, _value_text).map(",".join),
    st.tuples(_index_text, _index_text, _value_text, _value_text).map(",".join),
    st.tuples(_index_text, _index_text).map(",".join),
    st.sampled_from(
        ["k,j,value", "", "  ", "\t", "\x0c", "# note", "0,0,1.0",
         " ", "\xa0", "\u2003", "\u3000", "\x85", "\u2028", " \xa0\t", "\x1e"]
    ),
)


@st.composite
def _csv_lines(draw) -> list[str]:
    """Plain rows with up to three odd lines at random places."""
    lines = draw(_plain_rows)
    for line in draw(st.lists(_odd_line, max_size=3)):
        lines.insert(draw(st.integers(0, len(lines))), line)
    return lines


@settings(max_examples=300, deadline=None)
@given(
    lines=_csv_lines(),
    newline=st.sampled_from(["\n", "\r\n", "\r"]),
    final_newline=st.booleans(),
    bom=st.booleans(),
)
# An index too large for the dense array: both passes refuse it with one text.
@example(lines=["0,9223372036854775807,0.0"], newline="\n", final_newline=False, bom=False)
def test_vectorised_csv_pass_agrees_with_scanner(lines, newline, final_newline, bom):
    text = newline.join(lines) + (newline if final_newline else "")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "field.csv"
        path.write_bytes((("\ufeff" if bom else "") + text).encode("utf-8"))
        decoded = path.read_text(encoding="utf-8-sig")
        try:
            fast = _parse_rows(decoded)
        except ValueError as refusal:  # an oversized file, refused in one pass
            fast = refusal
        try:
            expected = _scan_rows(decoded)
        except ValueError as exc:
            assert fast is None or str(fast) == str(exc)
            with pytest.raises(ValueError) as info:
                load_csv(path)
            assert str(info.value) == str(exc)
            return
        loaded = load_csv(path)
    assert not isinstance(fast, ValueError)
    for field in (loaded,) if fast is None else (loaded, fast):
        assert field.values.shape == expected.values.shape
        assert field.values.tobytes() == expected.values.tobytes()
        assert field.stored.tobytes() == expected.stored.tobytes()
