"""Information domains: which coefficient indices (k, j) an approximation reads.

Two parametric shapes are provided.  The hyperbolic cross

    Cross(r, n) = {(k, j) : k*j <= r*n - 1,  r <= k, j <= n - 1}

holds O(n log n) pairs, against O(n^2) for the full square

    Box(r, n) = {(k, j) : r <= k, j <= n}.

Members are always enumerated in lexicographic (k, j) order so downstream
runs are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = ["IndexDomain", "pairs_mask"]

#: Distinct domains whose zero corner :meth:`IndexDomain.zero_corner` keeps.
_ZERO_CORNERS_CACHED = 256


def pairs_mask(pairs) -> np.ndarray:
    """Boolean membership array of (k, j) pairs, shape (max k + 1, max j + 1)."""
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


@dataclass(frozen=True)
class IndexDomain:
    """A finite set of index pairs, all with k >= r and j >= r."""

    shape: str  # "cross" | "box"
    r: int
    n: int

    def __post_init__(self) -> None:
        if self.shape not in ("cross", "box"):
            raise ValueError(f"unknown domain shape {self.shape!r}")
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

    def _cross_tops(self) -> np.ndarray:
        """j_top of rows k = r..n-1 of the cross: row k holds j = r..j_top."""
        budget = self.r * self.n - 1
        k = np.arange(self.r, self.n)
        if budget < 0:  # r = 0: every row is empty
            return np.full(k.size, self.r - 1)
        return np.minimum(self.n - 1, budget // k)

    @lru_cache(maxsize=_ZERO_CORNERS_CACHED)
    def zero_corner(self) -> tuple[int, int] | None:
        """A corner (a, b) of the mask holding no member: k >= a, j >= b.

        Of the cross's corners with rows a.. and columns b.. inside the
        n x n mask, the one leaving the smallest rest ``n*(a + b) - a*b``.
        Row a is the widest row at or below a, so b is its top plus one;
        for r >= 1 both a and b exceed r.  None for the box, which has no
        zero corner, and for a cross too small to have one; cached by value.
        """
        if self.shape != "cross":
            return None
        a = np.arange(self.r, self.n)
        b = self._cross_tops() + 1
        rest = self.n * (a + b) - a * b  # n^2, the most, where b = n
        best = int(np.argmin(rest))
        if b[best] >= self.n:
            return None
        return int(a[best]), int(b[best])

    def members(self) -> list[tuple[int, int]]:
        """All index pairs in lexicographic (k, j) order."""
        if self.shape == "cross":
            counts = np.maximum(self._cross_tops() - self.r + 1, 0)
            k = np.repeat(np.arange(self.r, self.n), counts)
            starts = np.repeat(np.cumsum(counts) - counts, counts)
            j = self.r + np.arange(k.size) - starts
            return list(zip(k.tolist(), j.tolist()))
        rng = range(self.r, self.n + 1)
        return [(k, j) for k in rng for j in rng]

    def mask(self) -> np.ndarray:
        """Boolean membership array of shape ``max_degree() + 1`` per axis."""
        deg_k, deg_j = self.max_degree()
        mask = np.zeros((deg_k + 1, deg_j + 1), dtype=bool)
        if self.shape == "cross":
            j = np.arange(self.r, deg_j + 1)
            mask[self.r :, self.r :] = j[None, :] <= self._cross_tops()[:, None]
        else:
            mask[self.r :, self.r :] = True
        return mask

    def cardinality(self) -> int:
        """Number of pairs, computed without materializing them."""
        if self.shape == "cross":
            return int(np.maximum(self._cross_tops() - self.r + 1, 0).sum())
        side = self.n - self.r + 1
        return side * side

    def max_degree(self) -> tuple[int, int]:
        """Largest (k, j) degrees the domain can contain, per axis."""
        if self.shape == "cross":
            return self.n - 1, self.n - 1
        return self.n, self.n
