"""Information domains: which coefficient indices (k, j) an approximation reads.

Both shapes are staircases: row k = r, r+1, ... holds j = r..top(k), and the
row tops define the domain.  The hyperbolic cross

    Cross(r, n) = {(k, j) : k*j <= r*n - 1,  r <= k, j <= n - 1}

has top(k) = min(n - 1, (r*n - 1) // k) on rows r..n-1 and holds
O(n log n) pairs, against O(n^2) for the full square

    Box(r, n) = {(k, j) : r <= k, j <= n},

whose rows r..n all have top n.  Members are always enumerated in
lexicographic (k, j) order so downstream runs are reproducible.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import ClassVar

import numpy as np

__all__ = ["IndexDomain", "pairs_mask"]

#: Distinct domains whose membership mask :class:`IndexDomain` keeps: a mask
#: has side**2 bytes, so at most 32 MiB at n = 2048.
_MASKS_CACHED = 8

#: What :func:`pairs_mask` takes as one (k, j) pair.
_PAIR_TYPES = (tuple, list, np.ndarray)


def _check_integer(name: str, value, error: type[ValueError] = ValueError) -> None:
    """Refuse, as ``error`` naming the parameter, what ``operator.index`` refuses:
    a float (even a whole one), NaN, a string or None."""
    try:
        operator.index(value)
    except TypeError:
        raise error(f"{name}={value!r} must be an integer") from None


def _check_order(r: int, error: type[ValueError] = ValueError) -> None:
    _check_integer("r", r, error)
    if r < 1:
        raise error(f"derivative order r={r} must be >= 1")


def _check_s(s: float, error: type[ValueError] = ValueError) -> None:
    if not 1.0 <= s < math.inf:  # NaN fails too
        raise error(f"s={s} must satisfy 1 <= s < inf")


def _check_p(p: float, error: type[ValueError] = ValueError) -> None:
    if not 1.0 <= p:  # NaN fails too
        raise error(f"p={p} must satisfy 1 <= p <= inf")


def pairs_mask(pairs) -> np.ndarray:
    """Boolean membership array of (k, j) pairs, shape (max k + 1, max j + 1).

    ``pairs`` is an iterable of tuples, lists or 1-D arrays of two integers;
    an empty one gives a 1 x 1 False array, and anything else raises
    ValueError.  Each index converts as ``np.array(..., dtype=np.intp)``
    converts it (a float is truncated).  Only restricting a field by pairs
    comes here; the pipeline restricts by domain (ROADMAP item 11).
    """
    pairs = list(pairs)
    try:
        if not all(issubclass(kind, _PAIR_TYPES) for kind in set(map(type, pairs))):
            raise TypeError
        if set(map(len, pairs)) - {2}:
            raise TypeError
        flat = np.fromiter(chain.from_iterable(pairs), np.intp, count=2 * len(pairs))
    except TypeError:  # not a pair, or an index that is no number
        raise ValueError("expected a sequence of (k, j) pairs") from None
    if not pairs:
        return np.zeros((1, 1), dtype=bool)
    k, j = flat.reshape(-1, 2).T
    if min(k.min(), j.min()) < 0:
        raise ValueError("index pairs must be nonnegative")
    mask = np.zeros((k.max() + 1, j.max() + 1), dtype=bool)
    mask[k, j] = True
    return mask


@dataclass(frozen=True)
class IndexDomain:
    """A finite set of index pairs, all with k >= r and j >= r, for integers 0 <= r < n."""

    SHAPES: ClassVar[tuple[str, ...]] = ("cross", "box")

    shape: str  # one of SHAPES
    r: int
    n: int

    def __post_init__(self) -> None:
        if self.shape not in self.SHAPES:
            raise ValueError(f"unknown domain shape {self.shape!r}")
        _check_integer("r", self.r)
        _check_integer("n", self.n)
        if self.r < 0:
            raise ValueError("r must be nonnegative")
        if self.n <= self.r:
            raise ValueError(
                f"size parameter n must exceed r, got n={self.n}, r={self.r}"
            )

    @classmethod
    def cross(cls, r: int, n: int) -> "IndexDomain":
        """Hyperbolic cross {(k, j): k*j <= r*n - 1, r <= k, j <= n - 1}."""
        return cls(shape="cross", r=r, n=n)

    @classmethod
    def box(cls, r: int, n: int) -> "IndexDomain":
        """Full square {(k, j): r <= k, j <= n}."""
        return cls(shape="box", r=r, n=n)

    def _tops(self) -> np.ndarray:
        """Tops of rows k = r..side-1: row k holds j = r..top."""
        if self.shape == "box":
            return np.full(self.n - self.r + 1, self.n)
        # at r = 0 the budget is -1: max(k, 1) gives row 0 top -1 too
        k = np.arange(self.r, self.n)
        return np.minimum(self.n - 1, (self.r * self.n - 1) // np.maximum(k, 1))

    def zero_corner(self) -> tuple[int, int] | None:
        """A corner (a, b) of the mask holding no member: k >= a, j >= b.

        Of the corners with rows a.. and columns b.. inside the mask, side
        r + len(tops) per axis, the one leaving the smallest rest
        ``side*(a + b) - a*b``.  Row a is the widest row at or below a, so b
        is its top plus one; on a cross with r >= 1 both a and b exceed r.
        None when every candidate reaches b = side, as on the box and on a
        cross too small to have one.
        """
        tops = self._tops()
        side = self.r + tops.size
        a = np.arange(self.r, side)
        b = tops + 1
        rest = side * (a + b) - a * b  # side^2, the most, where b = side
        best = int(np.argmin(rest))
        if b[best] >= side:
            return None
        return int(a[best]), int(b[best])

    def members(self) -> list[tuple[int, int]]:
        """All index pairs in lexicographic (k, j) order."""
        tops = self._tops()
        counts = np.maximum(tops - self.r + 1, 0)
        k = np.repeat(np.arange(self.r, self.r + tops.size), counts)
        starts = np.repeat(np.cumsum(counts) - counts, counts)
        j = self.r + np.arange(k.size) - starts
        return list(zip(k.tolist(), j.tolist()))

    @lru_cache(maxsize=_MASKS_CACHED)
    def mask(self) -> np.ndarray:
        """Boolean membership array of shape ``max_degree() + 1`` per axis.

        Read-only and cached by value: every call on an equal domain returns
        the same array while it stays in the cache.
        """
        tops = self._tops()
        side = self.r + tops.size
        mask = np.zeros((side, side), dtype=bool)
        mask[self.r :, self.r :] = np.arange(self.r, side) <= tops[:, None]
        mask.flags.writeable = False
        return mask

    def cardinality(self) -> int:
        """Number of pairs, computed without materializing them."""
        return int(np.maximum(self._tops() - self.r + 1, 0).sum())

    def max_degree(self) -> tuple[int, int]:
        """Largest (k, j) degrees per axis: side - 1, without building the
        tops, so a size limit can be checked against any n."""
        degree = self.n - 1 if self.shape == "cross" else self.n
        return degree, degree
