"""Coefficient fields: production, storage, norms, and I/O."""

import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from legdiff.coeffs import (
    BivariateFunction,
    CoeffField,
    exact_coeffs,
    load_csv,
    save_csv,
    smoothness_norm,
    trapezoid_coeffs,
    _parse_rows,
)
from legdiff import basis as basis_module
from legdiff import coeffs as coeffs_module
from legdiff.basis import QuadratureRule, composite_gauss_rule, legendre_table
from legdiff.experiments import F1
from legdiff.cli import main
from legdiff.index import IndexDomain, pairs_mask
from legdiff.method import ApproxDerivative, ConfigError, MethodConfig, run
from legdiff.metrics import sup_error
from legdiff.noise import NoiseSpec, perturb

from oracles import from_entries


def _no_scanner(text):
    raise AssertionError("the line-by-line scanner ran")


def _const_half():
    return BivariateFunction(value=lambda t, tau: 0.5 + 0.0 * np.asarray(t) * np.asarray(tau))


def _t_times_tau():
    return BivariateFunction(value=lambda t, tau: np.asarray(t) * np.asarray(tau))


def _untouchable():
    def value(t, tau):
        raise AssertionError("the function must not be evaluated")

    return BivariateFunction(value=value, name="untouchable")


@pytest.fixture
def no_rules(monkeypatch):
    """Fail the test if a Gauss rule or trapezoid nodes are ever built."""

    def refuse(*args, **kwargs):
        raise AssertionError("no quadrature rule may be built")

    monkeypatch.setattr(basis_module, "gauss_rule", refuse)
    monkeypatch.setattr(np, "linspace", refuse)


def _child_stdout(script: str, threads: int = 1) -> str:
    """The stdout of ``python -c script`` run with ``threads`` BLAS threads, this
    checkout's legdiff and the tests directory on its path."""
    src = str(Path(coeffs_module.__file__).resolve().parents[1])
    paths = [src, str(Path(__file__).resolve().parent), os.environ.get("PYTHONPATH")]
    env = dict(
        os.environ,
        OPENBLAS_NUM_THREADS=str(threads),
        OMP_NUM_THREADS=str(threads),
        PYTHONPATH=os.pathsep.join(filter(None, paths)),
    )
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    return result.stdout


#: (k_max, size) of the projections held to the unblocked chunk tables' bytes.
_UNBLOCKED_CASES = (
    [(k, n) for k in range(40) for n in (1, 2, 5, 201, 5001)]
    + [(k, 1204) for k in (63, 64, 65, 66, 127, 297)]
    + [(k, 20001) for k in (12, 23, 36)]  # blocks of 12; 12 and 36 end in a lone row
    + [(k, 50001) for k in (0, 1, 8, 24, 30)]  # blocks of 4; 8 and 24 end in a lone row
    + [(2047, 4097)]  # three node chunks
)


def _projection_case(k_max: int, size: int) -> tuple[QuadratureRule, np.ndarray]:
    """The rule and values a projection case projects: a trapezoid rule past
    20 nodes, else random nodes and weights."""
    rng = np.random.default_rng(size + k_max)
    if size > 20:
        rule = coeffs_module._trapezoid_rule(2.0 / (size - 1))
    else:
        rule = QuadratureRule(np.sort(rng.uniform(-1.0, 1.0, size)), rng.uniform(0.1, 1.0, size))
    return rule, rng.normal(size=size)


def _unblocked_projection(k_max: int, size: int) -> np.ndarray:
    """A case's projection as each chunk's whole Legendre table times w v."""
    rule, values = _projection_case(k_max, size)
    wv = rule.weights * values
    want = np.zeros(k_max + 1)
    for chunk in coeffs_module._table_chunks(k_max, size):
        want += legendre_table(k_max, rule.nodes[chunk]) @ wv[chunk]
    return want


@pytest.fixture(scope="module")
def one_thread_projections() -> dict[tuple[int, int], tuple[np.ndarray, np.ndarray]]:
    """Every case's ``_projection`` and :func:`_unblocked_projection`, from one
    one-thread child.

    The degree blocks keep the whole tables' bytes with one BLAS thread (see
    ``basis.legendre_blocks``).  With more, OpenBLAS splits a whole chunk
    table's ``dgemv_t`` by thread (k_max = 36 on 20,001 nodes, 24 on 50,001),
    and a one-row table's ``ddot`` too (k_max = 0 on 50,001 nodes), so both
    sides are computed where the bytes are promised.
    """
    script = (
        "from test_coeffs import _UNBLOCKED_CASES, _projection_case, _unblocked_projection\n"
        "from legdiff.coeffs import _projection\n"
        "for k_max, size in _UNBLOCKED_CASES:\n"
        "    rule, values = _projection_case(k_max, size)\n"
        "    got = _projection(values, rule, k_max)\n"
        "    print(got.tobytes().hex(), _unblocked_projection(k_max, size).tobytes().hex())\n"
    )
    lines = _child_stdout(script).splitlines()
    assert len(lines) == len(_UNBLOCKED_CASES)
    return {
        case: tuple(np.frombuffer(bytes.fromhex(word)) for word in line.split())
        for case, line in zip(_UNBLOCKED_CASES, lines)
    }


class TestCoeffField:
    def test_missing_entries_are_zero(self):
        field = from_entries({(2, 3): 1.5})
        assert field.values[0, 0] == 0.0
        assert field.values[2, 3] == 1.5

    def test_bounds_enforced(self):
        with pytest.raises(ValueError):
            from_entries({(3, 0): 1.0}, k_max=2, j_max=2)
        with pytest.raises(ValueError):
            from_entries({}, k_max=-2, j_max=0)

    def test_items_sorted_lexicographic(self):
        field = from_entries({(2, 1): 1.0, (0, 5): 2.0, (2, 0): 3.0})
        assert [kj for kj, _ in field.items_sorted()] == [(0, 5), (2, 0), (2, 1)]

    def test_restrict_materializes_requested_pairs(self):
        field = from_entries({(2, 2): 1.0, (9, 9): 4.0})
        sub = field.restrict([(2, 2), (3, 3)])
        assert len(sub) == 2
        assert sub.values[2, 2] == 1.0
        assert sub.values[3, 3] == 0.0
        assert sub.values.shape == (4, 4)

    def test_dense_round_trip(self):
        rng = np.random.default_rng(3)
        arr = rng.standard_normal((4, 6))
        np.testing.assert_array_equal(CoeffField.from_dense(arr).values, arr)

    def test_from_dense_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            CoeffField.from_dense(np.ones(3))
        with pytest.raises(ValueError):
            CoeffField.from_dense(np.ones((0, 2)))


class TestArrayInvariants:
    def test_perturb_copies_its_input(self):
        field = from_entries({(1, 2): 0.5})
        noisy = perturb(field, NoiseSpec(kind="gaussian", delta=0.5, seed=0))
        assert noisy.values[1, 2] != 0.5
        assert field.values[1, 2] == 0.5
        assert field.values[0, 0] == 0.0

    def test_values_and_stored_are_read_only(self):
        field = from_entries({(1, 2): 0.5})
        for array in (field.values, field.stored):
            with pytest.raises(ValueError):
                array[0, 0] = 1
        dense = CoeffField.from_dense(np.ones((2, 3)))
        with pytest.raises(ValueError):
            dense.values[0, 0] = 2.0

    def test_shapes_match_bounds(self):
        field = from_entries({(1, 4): 0.5}, k_max=3, j_max=4)
        assert field.values.shape == field.stored.shape == (4, 5)
        assert field.values.dtype == np.float64
        assert field.stored.dtype == bool
        assert field.values.shape == (4, 5)
        assert len(field) == 1

    def test_from_dense_stores_every_entry(self):
        arr = np.array([[0.0, 1.5], [-2.0, 0.0], [0.0, 0.0]])
        field = CoeffField.from_dense(arr)
        assert field.stored.all()
        assert len(field) == arr.size
        assert [kj for kj, _ in field.items_sorted()] == [
            (k, j) for k in range(3) for j in range(2)
        ]

    def test_from_entries_rejects_out_of_bounds_and_negative_bounds(self):
        with pytest.raises(ValueError):
            from_entries({(1, 3): 1.0}, k_max=2, j_max=2)
        with pytest.raises(ValueError):
            from_entries({(-1, 0): 1.0}, k_max=2, j_max=2)
        with pytest.raises(ValueError):
            from_entries({}, k_max=0, j_max=-1)
        empty = from_entries({}, k_max=2, j_max=1)
        assert len(empty) == 0
        assert empty.values.shape == (3, 2)

    def test_rejects_mismatched_mask(self):
        with pytest.raises(ValueError):
            CoeffField(np.zeros((2, 2)), np.zeros((2, 3), dtype=bool))

    def test_restrict_by_pairs_validates_and_accepts_empty(self):
        field = from_entries({(1, 1): 2.0})
        with pytest.raises(ValueError):
            field.restrict([(1, 1), (-1, 0)])
        with pytest.raises(ValueError):
            field.restrict([(1, 1, 0), (2, 2, 0)])
        empty = field.restrict([])
        assert len(empty) == 0
        assert empty.values.shape == (1, 1)

    def test_has_no_entries_dict(self):
        assert not hasattr(from_entries({(0, 0): 1.0}), "entries")

    def test_restrict_by_domain_matches_restrict_by_members(self):
        rng = np.random.default_rng(11)
        field = CoeffField.from_dense(rng.standard_normal((12, 9)))
        for domain in (IndexDomain.cross(2, 10), IndexDomain.box(2, 10)):
            by_domain = field.restrict(domain)
            by_pairs = field.restrict(domain.members())
            assert by_domain.items_sorted() == by_pairs.items_sorted()
            np.testing.assert_array_equal(by_domain.stored, domain.mask())
            np.testing.assert_array_equal(by_domain.values[~by_domain.stored], 0.0)


def _array_pairs_mask(pairs):
    """The membership mask by one np.array conversion of all pairs."""
    idx = np.array(list(pairs), dtype=np.intp)
    if not idx.size:
        return np.zeros((1, 1), dtype=bool)
    if idx.ndim != 2 or idx.shape[1] != 2:
        raise ValueError("expected a sequence of (k, j) pairs")
    if idx.min() < 0:
        raise ValueError("index pairs must be nonnegative")
    mask = np.zeros(tuple(idx.max(axis=0) + 1), dtype=bool)
    mask[idx[:, 0], idx[:, 1]] = True
    return mask


class TestPairsConversion:
    """restrict() by pairs gives the mask of one np.array conversion, or a
    ValueError where that conversion raises."""

    @pytest.mark.parametrize(
        "pairs",
        [
            [(1, 2), (3,)],
            [(1, 2, 3), (4,)],  # four indices, but no pairs
            [1, 2],
            ["12", "34"],
            np.array(["12", "34"]),
            [(1, 2), (-1, 0)],
            [(1.5, np.nan)],
            [((1, 2), (3, 4))],
            [(1, None)],
            [{1: 2, 3: 4}],
            [{1, 2}],
        ],
        ids=[
            "ragged", "three_and_one", "no_length", "strings", "numpy_strings",
            "negative", "nan", "nested", "none", "dict", "set",
        ],
    )
    def test_refuses_what_the_array_conversion_refuses(self, pairs):
        with pytest.raises((TypeError, ValueError)):
            _array_pairs_mask(pairs)
        with pytest.raises(ValueError):
            pairs_mask(pairs)
        with pytest.raises(ValueError):
            from_entries({(1, 1): 2.0}).restrict(pairs)

    def test_refuses_empty_items(self):
        # The array conversion reads [()] as no pairs; no item here is a pair.
        assert not _array_pairs_mask([(), ()]).any()
        with pytest.raises(ValueError):
            pairs_mask([(), ()])

    @pytest.mark.parametrize(
        "make",
        [
            lambda: ((k, j) for k in range(2, 5) for j in range(2, 7 - k)),
            lambda: np.array([[1, 2], [3, 0], [1, 2]]),
            lambda: [(1.5, 2.0), (0.9, 3.7), (-0.5, 1)],
            lambda: [[4, 1], (np.int64(2), True)],
            lambda: IndexDomain.cross(2, 40).members(),
            lambda: [],
        ],
        ids=["generator", "int_ndarray", "floats", "mixed", "cross", "empty"],
    )
    def test_gives_the_array_conversion_mask(self, make):
        mask = pairs_mask(make())
        expected = _array_pairs_mask(make())
        assert mask.shape == expected.shape and mask.tobytes() == expected.tobytes()
        field = CoeffField.from_dense(np.random.default_rng(0).standard_normal((50, 50)))
        restricted = field.restrict(make())
        assert restricted.stored.tobytes() == expected.tobytes()


class TestExactCoeffs:
    def test_phi0_phi0_projects_to_unit(self):
        f = _const_half()  # 0.5 == phi_0(t) phi_0(tau)
        field = exact_coeffs(f, 6, 6, G=24)
        dense = field.values.copy()
        assert dense[0, 0] == pytest.approx(1.0, abs=1e-13)
        dense[0, 0] = 0.0
        assert np.max(np.abs(dense)) < 1e-12

    def test_t_tau_has_single_coefficient(self):
        field = exact_coeffs(_t_times_tau(), 5, 5, G=24)
        dense = field.values.copy()
        assert dense[1, 1] == pytest.approx(2.0 / 3.0, rel=1e-13)
        dense[1, 1] = 0.0
        assert np.max(np.abs(dense)) < 1e-13

    def test_parseval_for_known_l2_norm(self):
        field = exact_coeffs(_const_half(), 4, 4, G=16)
        total = sum(v * v for _, v in field.items_sorted())
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_order_below_the_floor_is_raised_to_it(self):
        # G is a floor: at degree 10 the order is max(G, 2 * 10 + 16) = 36.
        f = BivariateFunction(value=lambda t, tau: np.exp(np.asarray(t) * np.asarray(tau)))
        low = exact_coeffs(f, 10, 10, G=10)
        assert low.values.tobytes() == exact_coeffs(f, 10, 10).values.tobytes()
        assert low.values.tobytes() == exact_coeffs(f, 10, 10, G=36).values.tobytes()
        assert low.values.tobytes() != exact_coeffs(f, 10, 10, G=37).values.tobytes()

    def test_separable_fast_path_matches_generic(self):
        # The same function declared with and without its separable form must
        # produce identical tensor-rule results (the rule factorizes exactly).
        ft = lambda t: np.asarray(t) ** 2 - 0.3
        gt = lambda tau: np.cos(2.0 * np.asarray(tau))
        fast = BivariateFunction(
            value=lambda t, tau: 1.7 * ft(t) * gt(tau), factors=(ft, gt, 1.7)
        )
        slow = BivariateFunction(value=lambda t, tau: 1.7 * ft(t) * gt(tau))
        a = exact_coeffs(fast, 8, 8, G=32).values
        b = exact_coeffs(slow, 8, 8, G=32).values
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-13)

    @pytest.mark.parametrize(
        ("k_max", "j_max", "G", "message"),
        [
            (3000, 3000, None, "3001x3001 coefficient array, over the limit"),
            (2048, 2048, None, "2049x2049 coefficient array, over the limit"),
            (2048, 0, None, "order G=4112 per panel is over the limit of 4110"),
            (4, 4, 4111, "order G=4111 per panel is over the limit of 4110"),
            (4, 4, 10**6, "over the limit of 4110"),
        ],
    )
    def test_refuses_oversized_requests_before_any_rule(self, no_rules, k_max, j_max, G, message):
        with pytest.raises(ValueError, match=message):
            exact_coeffs(_untouchable(), k_max, j_max, G=G)

    @pytest.mark.parametrize(
        "project",
        [lambda: exact_coeffs(F1, -1, 3), lambda: trapezoid_coeffs(F1, 0.1, 3, -1)],
        ids=["exact", "trapezoid"],
    )
    def test_refuses_negative_degree_bounds_before_any_rule(self, no_rules, project):
        with pytest.raises(ValueError, match="^degree bounds must be nonnegative$"):
            project()

    @pytest.mark.parametrize("G", [math.nan, 96.0, "96"])
    def test_refuses_an_order_that_is_no_integer_before_any_rule(self, no_rules, G):
        with pytest.raises(ValueError, match=f"G={G!r} must be an integer"):
            exact_coeffs(_untouchable(), 4, 4, G=G)

    def test_size_bounds_are_inclusive(self, monkeypatch):
        f = _t_times_tau()
        monkeypatch.setattr(coeffs_module, "_MAX_DEGREE", 10)  # Gauss order limit 2*10 + 16
        monkeypatch.setattr(coeffs_module, "MAX_DENSE_ENTRIES", 30)
        assert exact_coeffs(f, 4, 5, G=36).values.shape == (5, 6)
        with pytest.raises(ValueError, match="over the limit of 36"):
            exact_coeffs(f, 4, 5, G=37)
        with pytest.raises(ValueError, match="5x7 coefficient array, over the limit of 30"):
            exact_coeffs(f, 4, 6)


def _counting_separable(t_breakpoints=(), tau_breakpoints=()):
    """Separable f(t) f(tau) whose factor records the node count of every call."""
    calls = []

    def factor(t):
        t = np.asarray(t)
        calls.append(t.size)
        return t**3 - np.sin(2.0 * t) + np.where(t < 0.0, 0.5 * t * t, 0.0)

    return BivariateFunction(
        value=lambda t, tau: 0.3 * factor(t) * factor(tau),
        t_breakpoints=t_breakpoints,
        tau_breakpoints=tau_breakpoints,
        factors=(factor, factor, 0.3),
    ), calls


class TestProjectionReuse:
    """One factor on both axes, same rule and degree: projected once."""

    def test_trapezoid_projects_the_factor_once(self):
        f, calls = _counting_separable()
        trapezoid_coeffs(f, 0.05, 6, 6)
        assert calls == [41]

    def test_trapezoid_projects_twice_for_different_degrees(self):
        f, calls = _counting_separable()
        trapezoid_coeffs(f, 0.05, 6, 5)
        assert calls == [41, 41]

    def test_exact_projects_once_on_equal_breakpoints(self):
        f, calls = _counting_separable((0.0,), (0.0,))
        exact_coeffs(f, 6, 6, G=30)  # above the floor 2 * 6 + 16 = 28
        assert calls == [60]

    @pytest.mark.parametrize(
        "tau_breakpoints, j_max, expected",
        [((0.25,), 6, [60, 60]), ((), 6, [60, 30]), ((0.0,), 5, [60, 60])],
    )
    def test_exact_projects_twice_when_axes_differ(self, tau_breakpoints, j_max, expected):
        f, calls = _counting_separable((0.0,), tau_breakpoints)
        exact_coeffs(f, 6, j_max, G=30)
        assert calls == expected

    @pytest.mark.parametrize("quadrature", ["trapezoid", "exact"])
    def test_reuse_equals_two_projections(self, quadrature):
        f, _ = _counting_separable((0.0,), (0.0,))
        ft, _, scale = f.factors
        # A distinct wrapper around the same factor forces the second pass.
        two_pass = BivariateFunction(
            value=f.value,
            t_breakpoints=f.t_breakpoints,
            tau_breakpoints=f.tau_breakpoints,
            factors=(ft, lambda t: ft(t), scale),
        )
        if quadrature == "trapezoid":
            once = trapezoid_coeffs(f, 0.01, 9, 9)
            twice = trapezoid_coeffs(two_pass, 0.01, 9, 9)
        else:
            once = exact_coeffs(f, 9, 9, G=20)
            twice = exact_coeffs(two_pass, 9, 9, G=20)
        assert np.array_equal(once.values, twice.values)


class TestProjection:
    def test_weighted_projection_matches_matmul(self):
        rng = np.random.default_rng(0)
        t = rng.uniform(-1.0, 1.0, 57)
        w = rng.uniform(0.1, 1.0, 57)
        v = rng.normal(size=57)
        direct = legendre_table(9, t) @ (w * v)
        np.testing.assert_allclose(
            coeffs_module._projection(v, QuadratureRule(t, w), 9), direct, rtol=1e-13
        )


    def test_chunk_table_is_bounded_at_the_largest_degree(self):
        # At k_max = 2047 a chunk is 2**22 // 2048 = 2048 nodes, whose table
        # would hold 2**22 entries (32 MiB); it is made one block of at most
        # 2**18 entries (2 MiB) at a time.
        k_max = 2047
        rule = coeffs_module._trapezoid_rule(2.0 / 4096)
        values = np.ones(len(rule))
        tracemalloc.start()
        try:
            got = coeffs_module._projection(values, rule, k_max)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        chunk = 2**22 // (k_max + 1)
        # One block and the three rolling rows of the recurrence, w v, and the
        # length-(k_max + 1) vectors of the scales, the sum and its parts.
        bound = 8 * (coeffs_module._BLOCK_ENTRIES + 3 * chunk + len(rule) + 3 * (k_max + 1))
        assert peak <= bound, (peak, bound)
        # Chunking only regroups the sum: phi_0 gets the rule's total weight.
        assert got[0] == pytest.approx(2.0 * np.sqrt(0.5), rel=1e-14)

    @pytest.mark.parametrize("k_max, size", _UNBLOCKED_CASES)
    def test_projection_has_the_unblocked_bytes(self, one_thread_projections, k_max, size):
        """Degree blocks keep every bit of the chunk tables' products."""
        got, want = one_thread_projections[k_max, size]
        assert got.size == k_max + 1
        assert np.array_equal(got, want)

    def test_projection_bytes_do_not_move_with_the_thread_count(self):
        """The two cases whose whole chunk tables' products differ between one
        and two BLAS threads give the same projection bytes at both."""
        script = (
            "from test_coeffs import _projection_case\n"
            "from legdiff.coeffs import _projection\n"
            "for k_max, size in (36, 20001), (24, 50001):\n"
            "    rule, values = _projection_case(k_max, size)\n"
            "    print(_projection(values, rule, k_max).tobytes().hex())\n"
        )
        one, two = (_child_stdout(script, threads) for threads in (1, 2))
        assert len(one.split()) == 2
        assert one == two

    def test_f1_trapezoid_projection_is_bounded_by_one_block(self):
        """trapezoid_coeffs(F1, 4e-5, 30, 30) on N = 50,001 nodes per axis
        allocates, at its peak, at most 8 bytes times:

        - 4 N: the rule's nodes and weights, F1's factor at the nodes, and w v;
        - one degree block of at most _BLOCK_ENTRIES entries and the three
          rolling rows (3 N) of the recurrence;
        - 4096 entries for the length-31 vectors and the 31 x 31 outer product.

        About 4.9 MB; a whole 31 x N table would be 12.4 MB alone.
        """
        N = 50001
        tracemalloc.start()
        try:
            field = trapezoid_coeffs(F1, 4e-5, 30, 30)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = 8 * (4 * N + coeffs_module._BLOCK_ENTRIES + 3 * N + 4096)
        assert peak <= bound, (peak, bound)
        assert field.values.shape == (31, 31)


class TestRowBlocks:
    """A tensor projection without factors runs over _row_blocks' blocks."""

    @pytest.mark.parametrize("n_rows, n_cols", [(1204, 1204), (7, 3), (3, 2**18 + 5)])
    def test_blocks_cover_the_rows_in_one_reused_buffer(self, n_rows, n_cols):
        blocks = list(coeffs_module._row_blocks(n_rows, n_cols))
        height = max(1, coeffs_module._BLOCK_ENTRIES // n_cols)  # one row past 2**18 columns
        assert [rows for rows, _ in blocks] == [
            slice(start, min(start + height, n_rows)) for start in range(0, n_rows, height)
        ]
        first = blocks[0][1]
        assert first.size <= max(coeffs_module._BLOCK_ENTRIES, n_cols)
        for rows, buffer in blocks:
            assert buffer.shape == (rows.stop - rows.start, n_cols)
            assert buffer.__array_interface__["data"][0] == first.__array_interface__["data"][0]

    @pytest.mark.parametrize("h", [4e-4])
    def test_trapezoid_without_factors_peaks_at_its_tables_and_blocks(self, h):
        """trapezoid_coeffs of a function without factors at degree 23 on N nodes
        per axis allocates, at its peak, at most:

        - tau's all-node Legendre table (J x N);
        - three _BLOCK_ENTRIES blocks: the reused buffer, the function's values
          on a block, and the previous block's values, which live until the
          next block's exist;
        - one block's t-table (K x height), its projected part (height x J),
          the product added into B, and B (K x J);
        - 10 vectors of N: the rule's nodes and weights, and the temporaries
          of their construction and of the table's recurrence.

        At h = 4e-4 (N = 5,001; 0.08 s) the block is 52 rows.  The bound
        holds at h = 8e-5 (N = 25,001) too, where a run takes about 3 s and a
        projection holding 256 rows of values at a time peaks at 103-152 MiB.
        """
        f = BivariateFunction(value=lambda t, tau: t * tau)
        K = J = 24
        N = round(2.0 / h) + 1
        height = coeffs_module._BLOCK_ENTRIES // N
        tracemalloc.start()
        try:
            field = trapezoid_coeffs(f, h, K - 1, J - 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = 8 * (
            J * N
            + 3 * coeffs_module._BLOCK_ENTRIES
            + K * height + height * J + 2 * K * J
            + 10 * N
        )
        assert peak <= bound, (peak, bound)
        assert field.values[1, 1] == pytest.approx(2.0 / 3.0, rel=1e-6)


_EXP_BYTES = """
import hashlib
import numpy as np
from legdiff.coeffs import BivariateFunction, exact_coeffs, trapezoid_coeffs
f = BivariateFunction(value=lambda t, tau: np.exp(t * tau))
for field in exact_coeffs(f, 99, 99), trapezoid_coeffs(f, 4e-3, 23, 23):
    print(hashlib.md5(field.values.tobytes()).hexdigest())
"""


class TestRecordedBytes:
    def test_projections_without_factors_keep_their_bytes(self):
        """exact_coeffs(exp(t tau), 99, 99) and trapezoid_coeffs(exp(t tau),
        4e-3, 23, 23) keep the md5 of the bytes recorded with one BLAS thread,
        before the tensor projection handed back B's grid.  Their row blocks'
        products regroup with more threads, so a one-thread child computes them.
        """
        assert _child_stdout(_EXP_BYTES).split() == [
            "389573615f0589c1a3c36ab60e13acbd",
            "494de7bd82a3988ad7d59b38bbe22062",
        ]


class TestTrapezoidCoeffs:
    def test_constant_entry(self):
        field = trapezoid_coeffs(_const_half(), 0.01, 2, 2)
        assert field.values[0, 0] == pytest.approx(1.0, abs=1e-6)

    def test_matches_exact_for_smooth_function(self):
        f = BivariateFunction(
            value=lambda t, tau: np.asarray(t) ** 2 + np.asarray(tau) ** 2
        )
        trap = trapezoid_coeffs(f, 1e-3, 4, 4).values
        ref = exact_coeffs(f, 4, 4, G=32).values
        assert np.max(np.abs(trap - ref)) < 1e-5

    def test_second_order_convergence(self):
        f = BivariateFunction(
            value=lambda t, tau: np.asarray(t) ** 2 + np.asarray(tau) ** 2
        )
        ref = exact_coeffs(f, 4, 4, G=32).values
        err = {
            h: np.abs(trapezoid_coeffs(f, h, 4, 4).values - ref)
            for h in (0.02, 0.01)
        }
        # Halving h divides the quadrature error by ~4 (second-order rule).
        # Symmetric coefficients whose h^2 term cancels improve faster
        # (ratio ~16), so assert "at least second order, typically exactly".
        mask = err[0.02] > 1e-9
        ratios = err[0.02][mask] / err[0.01][mask]
        assert np.all(ratios > 3.5)
        assert 3.5 < np.median(ratios) < 4.5

    def test_rejects_nonconforming_step(self):
        with pytest.raises(ValueError):
            trapezoid_coeffs(_const_half(), 1.16e-4, 2, 2)
        with pytest.raises(ValueError):
            trapezoid_coeffs(_const_half(), 0.3, 2, 2)
        with pytest.raises(ValueError):
            trapezoid_coeffs(_const_half(), -0.01, 2, 2)

    @pytest.mark.parametrize(
        ("h", "message"),
        [
            (1e-9, "needs 2e\\+09 nodes, over the limit"),
            (2.0 / 2**22, "needs 4.194e\\+06 nodes, over the limit"),
            (5e-324, "needs inf nodes, over the limit"),
        ],
    )
    def test_refuses_a_step_needing_too_many_nodes(self, no_rules, h, message):
        with pytest.raises(ValueError, match=message):
            trapezoid_coeffs(_untouchable(), h, 4, 4)

    def test_refuses_an_oversized_array_before_any_rule(self, no_rules):
        with pytest.raises(ValueError, match="3001x3001 coefficient array, over the limit"):
            trapezoid_coeffs(_untouchable(), 0.05, 3000, 3000)

    def test_node_bound_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(coeffs_module, "MAX_DENSE_ENTRIES", 21)  # h = 0.1: 21 nodes
        assert trapezoid_coeffs(_const_half(), 0.1, 2, 2).values[0, 0] == pytest.approx(1.0)
        monkeypatch.setattr(coeffs_module, "MAX_DENSE_ENTRIES", 20)
        with pytest.raises(ValueError, match="needs 21 nodes, over the limit of 20"):
            trapezoid_coeffs(_const_half(), 0.1, 2, 2)

    def test_separable_fast_path_matches_generic(self):
        ft = lambda t: np.asarray(t) ** 3 - np.asarray(t)
        gt = lambda tau: np.exp(0.5 * np.asarray(tau))
        fast = BivariateFunction(
            value=lambda t, tau: 0.25 * ft(t) * gt(tau), factors=(ft, gt, 0.25)
        )
        slow = BivariateFunction(value=lambda t, tau: 0.25 * ft(t) * gt(tau))
        a = trapezoid_coeffs(fast, 0.05, 6, 6).values
        b = trapezoid_coeffs(slow, 0.05, 6, 6).values
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-14)


class TestSmoothnessNorm:
    def test_single_origin_entry(self):
        field = from_entries({(0, 0): -0.7})
        assert smoothness_norm(field, 2.0, 5.0) == pytest.approx(0.7, rel=1e-15)

    def test_single_entry_2_3(self):
        field = from_entries({(2, 3): 1.0})
        assert smoothness_norm(field, 2.0, 1.0) == pytest.approx(6.0, rel=1e-14)

    def test_monotone_in_mu_for_high_degrees(self):
        rng = np.random.default_rng(9)
        entries = {
            (int(k), int(j)): float(rng.standard_normal())
            for k in rng.integers(2, 15, size=20)
            for j in rng.integers(2, 15, size=2)
        }
        field = from_entries(entries)
        norms = [smoothness_norm(field, 2.0, mu) for mu in (1.0, 2.0, 3.5, 5.0)]
        assert all(a <= b for a, b in zip(norms, norms[1:]))

    def test_matches_entrywise_loop(self):
        rng = np.random.default_rng(21)
        values = rng.standard_normal((9, 7))
        values[rng.random(values.shape) < 0.3] = 0.0
        field = CoeffField.from_dense(values)
        s_exp, mu = 2.0, 3.5
        total = 0.0
        for (k, j), v in field.items_sorted():
            if v != 0.0:
                total += (max(1, k) * max(1, j)) ** (s_exp * mu) * abs(v) ** s_exp
        reference = total ** (1.0 / s_exp)
        assert smoothness_norm(field, s_exp, mu) == pytest.approx(reference, rel=1e-14)

    def test_validation(self):
        field = from_entries({(1, 1): 1.0})
        with pytest.raises(ValueError):
            smoothness_norm(field, 0.5, 1.0)
        with pytest.raises(ValueError):
            smoothness_norm(field, 2.0, 0.0)

    @pytest.mark.parametrize(
        "s_exp, mu", [(math.nan, 5.5), (math.inf, 5.5), (2.0, math.nan), (2.0, math.inf)]
    )
    def test_rejects_non_finite_parameters(self, s_exp, mu):
        field = from_entries({(1, 1): 1.0})
        with pytest.raises(ValueError):
            smoothness_norm(field, s_exp, mu)


class TestCsvRoundTrip:
    def test_round_trip_identity(self, tmp_path):
        rng = np.random.default_rng(17)
        entries = {
            (int(k), int(j)): float(v)
            for k, j, v in zip(
                rng.integers(0, 30, 40), rng.integers(0, 30, 40), rng.standard_normal(40)
            )
        }
        field = from_entries(entries)
        path = tmp_path / "field.csv"
        save_csv(field, path)
        loaded = load_csv(path)
        assert loaded.items_sorted() == field.items_sorted()

    def test_derived_coefficients_round_trip(self, tmp_path):
        # The method's output is a field like any other: every entry stored,
        # written and read back with the bytes of its grid values.
        config = MethodConfig(r=2, mu=5.5, delta=0.0, n_override=31)
        approx = run(exact_coeffs(F1, 30, 30).restrict(config.domain()), config)
        series = approx.series
        assert isinstance(series, CoeffField) and len(series) == series.values.size
        path = tmp_path / "derived.csv"
        save_csv(series, path)
        loaded = load_csv(path)
        grid = np.linspace(-1.0, 1.0, 41)
        assert loaded.eval_grid(grid, grid).tobytes() == series.eval_grid(grid, grid).tobytes()

    def test_indices_beyond_dense_limit_rejected(self, tmp_path, monkeypatch):
        # One far entry would need a 100001 x 100001 array (75 GiB); the
        # vectorised pass refuses it in the scanner's words, without the scanner.
        path = tmp_path / "far.csv"
        path.write_text("2,2,0.1\n100000,100000,1.0\n")
        monkeypatch.setattr(coeffs_module, "_scan_rows", _no_scanner)
        with pytest.raises(ValueError) as refused:
            load_csv(path)
        assert str(refused.value) == (
            "index range up to (100000,100000) needs a 100001x100001 coefficient array, "
            "over the limit of 4194304 entries"
        )

    @pytest.mark.parametrize(
        "text, lineno",
        [
            ("1,1,0.5\n1,1,0.6\n100000,100000,1.0\n", 2),
            ("1,1,0.5\n100000,100000,1.0\n1,1,0.6\n", 3),
        ],
    )
    def test_duplicate_index_comes_before_the_size(self, tmp_path, text, lineno):
        # The scanner reads every line before it checks the size.
        path = tmp_path / "far.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^duplicate index \\(1,1\\) at line {lineno}$"):
            load_csv(path)

    def test_single_line_file(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("0,0,1.0\n")
        field = load_csv(path)
        assert field.items_sorted() == [((0, 0), 1.0)]

    def test_header_line_skipped(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("k,j,value\n1,2,0.5\n")
        assert load_csv(path).values[1, 2] == 0.5

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,1,x\n")
        with pytest.raises(ValueError, match="line 1"):
            load_csv(path)

    def test_malformed_later_line(self, tmp_path):
        path = tmp_path / "bad2.csv"
        path.write_text("1,1,0.5\n2,2\n")
        with pytest.raises(ValueError, match="line 2"):
            load_csv(path)

    def test_duplicate_index_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("1,1,0.5\n1,1,0.6\n")
        with pytest.raises(ValueError, match=r"duplicate index \(1,1\)"):
            load_csv(path)

    def test_negative_index_rejected(self, tmp_path):
        path = tmp_path / "neg.csv"
        path.write_text("-1,0,0.5\n")
        with pytest.raises(ValueError, match="line 1"):
            load_csv(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_rejected(self, tmp_path, value):
        path = tmp_path / "nonfinite.csv"
        path.write_text(f"k,j,value\n1,1,0.5\n2,2,{value}\n")
        with pytest.raises(ValueError, match="line 3.*non-finite"):
            load_csv(path)

    @pytest.mark.parametrize(
        "text, entries",
        [
            ("0,0,1.5\n1,1,2.5\n", [((0, 0), 1.5), ((1, 1), 2.5)]),
            ("k,j,value\n0,0,1.5\n", [((0, 0), 1.5)]),
        ],
    )
    @pytest.mark.parametrize("encoding", ["utf-8", "utf-8-sig"])
    def test_byte_order_mark_is_not_a_header(self, tmp_path, text, entries, encoding):
        path = tmp_path / "bom.csv"
        path.write_text(text, encoding=encoding)
        assert load_csv(path).items_sorted() == entries

    @pytest.mark.parametrize(
        "text, lineno",
        [("0,0,1.5,zzz\n1,1,2.5\n", 1), ("0,0,1.5\n1,1,2.5,3.5\n", 2), ("0,0,1.5,\n", 1)],
    )
    def test_extra_field_rejected(self, tmp_path, text, lineno):
        path = tmp_path / "wide.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"parse error at line {lineno}:"):
            load_csv(path)

    @pytest.mark.parametrize("text", ["", "\n\n", "k,j,value\n"])
    def test_file_without_rows_is_empty_field_without_warning(self, tmp_path, text):
        path = tmp_path / "empty.csv"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            field = load_csv(path)
        assert field.items_sorted() == []
        assert field.values.shape == (1, 1)

    def test_full_f1_field_round_trip_is_bit_exact(self, tmp_path):
        # The 201 x 201 field of the CLI benchmark, read by the vectorised pass.
        field = exact_coeffs(F1, 200, 200)
        path = tmp_path / "f1.csv"
        save_csv(field, path)
        assert _parse_rows(path.read_text()) is not None
        loaded = load_csv(path)
        assert loaded.values.tobytes() == field.values.tobytes()
        assert loaded.stored.all()

    def test_whitespace_line_keeps_the_vectorised_pass(self, tmp_path, monkeypatch):
        # The CLI benchmark's 201 x 201 file with one trailing whitespace-only
        # line: read in one pass, the line-by-line scanner is never called.
        field = exact_coeffs(F1, 200, 200)
        path = tmp_path / "f1.csv"
        save_csv(field, path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("   ")
        monkeypatch.setattr(coeffs_module, "_scan_rows", _no_scanner)
        loaded = load_csv(path)
        assert loaded.values.tobytes() == field.values.tobytes()
        assert loaded.stored.all()

    @pytest.mark.parametrize(
        "space",
        [" ", "   ", "\t", "\x0b", "\x0c", "\r", "\xa0", "\x85", "\u2003", "\u2028", "\u3000"],
    )
    @pytest.mark.parametrize(
        "template",
        [
            "{ws}\n0,0,1.5\n1,1,2.5\n",
            "0,0,1.5\n{ws}\n1,1,2.5\n",
            "k,j,value\n{ws}\n0,0,1.5\n1,1,2.5\n",
            "0,0,1.5\n1,1,2.5\n{ws}",
            "0,0,1.5\r\n{ws}\r\n1,1,2.5\r\n",
        ],
    )
    def test_whitespace_only_lines_are_skipped_in_one_pass(
        self, tmp_path, monkeypatch, space, template
    ):
        path = tmp_path / "ws.csv"
        path.write_text(template.format(ws=space), encoding="utf-8", newline="")
        monkeypatch.setattr(coeffs_module, "_scan_rows", _no_scanner)
        assert load_csv(path).items_sorted() == [((0, 0), 1.5), ((1, 1), 2.5)]

    def test_values_survive_at_full_precision(self, tmp_path):
        value = math.pi * 1e-7
        field = from_entries({(3, 4): value})
        path = tmp_path / "pi.csv"
        save_csv(field, path)
        assert load_csv(path).values[3, 4] == value


def _sparse_extremes() -> CoeffField:
    """A 50 x 60 field storing about 30% of its entries, among them 1e+-300,
    -0.0, the smallest subnormal, +-inf and nan."""
    rng = np.random.default_rng(35)
    stored = rng.random((50, 60)) < 0.3
    values = np.where(stored, rng.standard_normal((50, 60)), 0.0)
    extremes = [1e300, -1e300, 1e-300, -1e-300, -0.0, 5e-324, math.inf, -math.inf, math.nan]
    values.flat[np.flatnonzero(stored)[: len(extremes)]] = extremes
    return CoeffField(values, stored)


class TestSaveCsvBlocks:
    """save_csv writes :data:`coeffs._WRITE_BLOCK` mask entries at a time."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: exact_coeffs(F1, 200, 200),  # the CLI benchmark's file
            _sparse_extremes,
            lambda: CoeffField(np.zeros((3, 4)), np.zeros((3, 4), dtype=bool)),
            # one row wider than a block, and a whole number of blocks
            lambda: CoeffField.from_dense(np.random.default_rng(1).standard_normal((1, 10_000))),
            lambda: CoeffField.from_dense(np.random.default_rng(2).standard_normal((64, 128))),
        ],
        ids=["f1_201", "sparse_extremes", "empty", "wide_row", "whole_blocks"],
    )
    def test_bytes_equal_one_row_per_stored_entry(self, tmp_path, make):
        field = make()
        path = tmp_path / "field.csv"
        save_csv(field, path)
        expected = "".join(f"{k},{j},{format(v, '.17g')}\n" for (k, j), v in field.items_sorted())
        assert path.read_bytes() == expected.encode("utf-8")

    def test_memory_is_the_mask_and_one_block(self, tmp_path):
        # Sixteen blocks.  The one-string writer traced 14.9 MB here (every row
        # a Python string, then their join; 68 MB at 512 x 512), the blocks
        # 0.65 MB (0.85 MB at 512 x 512, which takes 2 s under tracemalloc).
        field = CoeffField.from_dense(np.random.default_rng(3).standard_normal((256, 256)))
        tracemalloc.start()
        try:
            save_csv(field, tmp_path / "dense.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The broadcast mask flattened at one byte per entry, and one block's
        # rows at 512 B each (measured about 140 B: the row's string, its three
        # Python numbers and list slots, its share of the joined text).
        bound = field.stored.size + coeffs_module._WRITE_BLOCK * 512
        assert peak <= bound, (peak, bound)


class TestBivariateFunction:
    def test_identity_equality_and_hash(self):
        # Equal fields make distinct references; unhashable fields still hash.
        a = BivariateFunction(value=np.add, t_breakpoints=[0.0])
        b = BivariateFunction(value=np.add, t_breakpoints=[0.0])
        assert a == a and a != b
        assert len({a, b, a}) == 2

    def test_derivative_function_requires_d22(self):
        with pytest.raises(ValueError):
            _const_half().derivative_function()

    def test_axis_edges_include_breakpoints(self):
        f = BivariateFunction(
            value=lambda t, tau: np.asarray(t) * 0.0,
            t_breakpoints=(0.0,),
            tau_breakpoints=(),
        )
        edges_t, edges_tau = f.axis_edges()
        assert edges_t == (-1.0, 0.0, 1.0)
        assert edges_tau == (-1.0, 1.0)

    @pytest.mark.parametrize(
        ("tau_breakpoints", "shared"), [((0.0,), True), ((), False)],
        ids=["equal_edges", "unequal_edges"],
    )
    def test_gauss_rules_share_one_rule_between_equal_axes(self, tau_breakpoints, shared):
        f = BivariateFunction(
            value=np.add, t_breakpoints=(0.0,), tau_breakpoints=tau_breakpoints
        )
        rule_t, rule_tau = f.gauss_rules(12)
        # Callers share per-axis work by testing this identity.
        assert (rule_tau is rule_t) is shared
        np.testing.assert_array_equal(
            rule_t.nodes, composite_gauss_rule(12, (-1.0, 0.0, 1.0)).nodes
        )
        np.testing.assert_array_equal(
            rule_tau.nodes, composite_gauss_rule(12, f.axis_edges()[1]).nodes
        )


class TestOneLimit:
    """``coeffs.MAX_DENSE_ENTRIES`` alone bounds every dense array the package
    refuses by size, and each refusal comes before anything is allocated."""

    LIMIT = 100  # 10x10 passes, 11x10 does not

    @pytest.fixture
    def limit(self, monkeypatch, no_rules):
        monkeypatch.setattr(coeffs_module, "MAX_DENSE_ENTRIES", self.LIMIT)
        return f"over the limit of {self.LIMIT} entries"

    def test_coefficient_arrays(self, limit, tmp_path):
        message = f"degree pair \\(10, 9\\) needs a 11x10 coefficient array, {limit}"
        with pytest.raises(ValueError, match=message):
            exact_coeffs(_untouchable(), 10, 9)
        with pytest.raises(ValueError, match=message):
            trapezoid_coeffs(_untouchable(), 0.1, 10, 9)
        # Refused by the vectorised pass and, for an index that only the
        # scanner reads (1_0 is 10 to Python's int()), by the scanner.
        for text in ("0,0,1.0\n10,9,1.0\n", "0,0,1.0\n1_0,9,1.0\n"):
            path = tmp_path / "far.csv"
            path.write_text(text)
            with pytest.raises(
                ValueError,
                match=f"index range up to \\(10,9\\) needs a 11x10 coefficient array, {limit}",
            ):
                load_csv(path)

    def test_truncation_level(self, limit):
        assert MethodConfig(r=2, mu=5.5, delta=0.0, n_override=10).resolve_n() == 10
        with pytest.raises(ConfigError, match=f"n=11 needs a 11x11 coefficient array, {limit}"):
            MethodConfig(r=2, mu=5.5, delta=0.0, n_override=11)

    def test_uniform_error_grid(self, limit):
        config = MethodConfig(r=2, mu=5.5, delta=0.0, n_override=3)
        approx = ApproxDerivative(CoeffField.from_dense(np.zeros((1, 1))), config)
        with pytest.raises(ValueError, match=f"m=11 needs a 11x11 evaluation grid, {limit}"):
            sup_error(approx, _untouchable(), m=11)

    @pytest.mark.parametrize(
        "argv",
        [
            ["differentiate", "--builtin", "f1", "--mu", "5.5", "--n", "6", "--grid", "11"],
            ["basis", "--k", "10", "--grid", "11"],
        ],
        ids=["differentiate", "basis"],
    )
    def test_cli_evaluation_tables(self, limit, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --grid 11 needs a 11x11 evaluation table, {limit}\n"
