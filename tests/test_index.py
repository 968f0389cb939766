"""Index domains: hyperbolic cross and box."""

import math

import numpy as np
import pytest

from legdiff import index
from legdiff.index import IndexDomain


def brute_force_cross(r, n):
    return sorted(
        (k, j)
        for k in range(r, n)
        for j in range(r, n)
        if k * j <= r * n - 1
    )


class TestCross:
    def test_cross_2_5_members(self):
        dom = IndexDomain.cross(2, 5)
        assert dom.members() == [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2)]
        assert dom.cardinality() == 6

    def test_cross_1_2_members(self):
        dom = IndexDomain.cross(1, 2)
        assert dom.members() == [(1, 1)]

    def test_cross_r0_is_empty(self):
        dom = IndexDomain.cross(0, 5)
        assert dom.members() == []
        assert dom.cardinality() == 0

    def test_members_match_brute_force(self):
        for r in range(4):
            for n in (r + 1, r + 2, 5, 9, 17):
                if n <= r:
                    continue
                dom = IndexDomain.cross(r, n)
                assert dom.members() == brute_force_cross(r, n), (r, n)

    def test_cardinality_matches_enumeration_up_to_200(self):
        for r in range(4):
            for n in range(r + 1, 201):
                dom = IndexDomain.cross(r, n)
                assert dom.cardinality() == len(dom.members()), (r, n)

    @pytest.mark.parametrize("r", [0, 1, 2, 3])
    @pytest.mark.parametrize("n", [4, 31, 300, 1023, 2048])
    def test_mask_matches_defining_inequality(self, r, n):
        # Both shapes come from one staircase of row tops: the cross on the
        # n x n grid, the box (r <= k, j <= n) on the (n+1) x (n+1) grid.
        k = np.arange(n + 1)[:, None]
        j = np.arange(n + 1)[None, :]
        cases = [
            (IndexDomain.cross(r, n), ((k >= r) & (j >= r) & (k * j <= r * n - 1))[:n, :n]),
            (IndexDomain.box(r, n), (k >= r) & (j >= r)),
        ]
        for dom, expected in cases:
            np.testing.assert_array_equal(dom.mask(), expected)
            card = dom.cardinality()
            assert type(card) is int and card == int(expected.sum())
            if card > 10**5:
                # Only the box at n >= 1023: a list of a million tuples or
                # more costs hundreds of MB, and smaller boxes run the same code.
                continue
            members = dom.members()
            assert members == list(zip(*(idx.tolist() for idx in np.nonzero(expected))))
            assert all(type(v) is int for pair in members[:3] for v in pair)

    def test_nested_in_next_level(self):
        for n in (3, 7, 19, 40):
            small = set(IndexDomain.cross(2, n).members())
            large = set(IndexDomain.cross(2, n + 1).members())
            assert small <= large

    def test_growth_is_order_n_log_n(self):
        ratios = [
            IndexDomain.cross(2, n).cardinality() / (n * math.log(n))
            for n in range(10, 1001, 30)
        ]
        assert min(ratios) > 0.5
        assert max(ratios) < 3.0

    def test_rejects_n_not_above_r(self):
        with pytest.raises(ValueError):
            IndexDomain.cross(2, 2)
        with pytest.raises(ValueError):
            IndexDomain.cross(3, 1)

    @pytest.mark.parametrize("shape", IndexDomain.SHAPES)
    @pytest.mark.parametrize(
        "r, n, name", [(2, 10.5, "n"), (2, 10.0, "n"), (2, math.nan, "n"), (2.0, 10, "r")]
    )
    def test_rejects_r_and_n_that_are_no_integers(self, shape, r, n, name):
        # n = 10.5 once gave max_degree() (9.5, 9.5) and an 11 x 11 mask.
        value = n if name == "n" else r
        with pytest.raises(ValueError, match=f"{name}={value!r} must be an integer"):
            IndexDomain(shape, r, n)

    def test_every_member_at_least_r(self):
        for k, j in IndexDomain.cross(3, 12).members():
            assert k >= 3 and j >= 3

    def test_max_degree(self):
        assert IndexDomain.cross(2, 19).max_degree() == (18, 18)

    def test_zero_corner(self):
        # At n = 300 row 24 holds j <= 24 (24 * 25 > 599), so columns 25.. of
        # rows 24.. are empty.
        assert IndexDomain.cross(2, 300).zero_corner() == (24, 25)
        assert IndexDomain.cross(2, 5).zero_corner() == (3, 4)
        # Cross(1, 2) is the single pair (1, 1): no corner inside the mask.
        assert IndexDomain.cross(1, 2).zero_corner() is None


class TestBox:
    def test_box_2_3_members(self):
        dom = IndexDomain.box(2, 3)
        assert dom.members() == [(2, 2), (2, 3), (3, 2), (3, 3)]

    def test_box_2_19_cardinality(self):
        assert IndexDomain.box(2, 19).cardinality() == 324

    def test_cross_subset_of_box_and_strictly_smaller(self):
        for r in (1, 2, 3):
            for n in (r + 2, 10, 31, 60):
                cross = IndexDomain.cross(r, n)
                box = IndexDomain.box(r, n)
                assert set(cross.members()) <= set(box.members())
                assert cross.cardinality() < box.cardinality()

    def test_max_degree(self):
        assert IndexDomain.box(2, 19).max_degree() == (19, 19)

    def test_has_no_zero_corner(self):
        assert IndexDomain.box(2, 19).zero_corner() is None


def test_unknown_shape_rejected():
    with pytest.raises(ValueError):
        IndexDomain(shape="diamond", r=2, n=5)


class TestMaskCache:
    def test_mask_is_read_only_and_cached(self):
        domain = IndexDomain.cross(2, 37)
        mask = domain.mask()
        assert not mask.flags.writeable
        with pytest.raises(ValueError):
            mask[2, 2] = False
        assert domain.mask() is mask
        assert IndexDomain.cross(2, 37).mask() is mask  # cached by value

    def test_mask_cache_is_bounded(self):
        assert IndexDomain.mask.cache_info().maxsize == index._MASKS_CACHED <= 8
        IndexDomain.mask.cache_clear()  # so that each call below is a miss
        first = IndexDomain.box(1, 3).mask()
        for n in range(4, 4 + index._MASKS_CACHED):
            IndexDomain.box(1, n).mask()
        assert IndexDomain.mask.cache_info().currsize == index._MASKS_CACHED
        rebuilt = IndexDomain.box(1, 3).mask()
        assert rebuilt is not first
        np.testing.assert_array_equal(rebuilt, first)
