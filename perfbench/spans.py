"""Spans and counts recorded around the benchmark's own calls into legdiff.

A span has a name, a start, an end, the span that caused it and the op it
belongs to; spans are kept in memory and written out when the run ends.
Counts are computed from array shapes at the same call sites (they are not
measured inside the program) and are only taken inside ops, so that every op
contributes the same amount and the per-op figures repeat exactly.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import Counter, defaultdict


class Tracer:
    """In-memory span recorder; ``op`` is the id shared by one op's spans."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (op, span_id, parent_id, name, start, end)
        self.counts: Counter = Counter()
        self.op: int | str = "setup"
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[span_id] = (self.op, span_id, parent, name, start, end)

    def count(self, name: str, value: int) -> None:
        if self.op != "setup":
            self.counts[name] += value

    def self_times(self) -> dict[str, list[float]]:
        """Self time (duration minus child spans) of every call, by span name."""
        child_time: dict[int, float] = defaultdict(float)
        for _, _, parent, _, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, list[float]] = defaultdict(list)
        for _, span_id, _, name, start, end in self.spans:
            out[name].append(end - start - child_time[span_id])
        return out

    def durations(self, name: str) -> list[float]:
        return [end - start for _, _, _, n, start, end in self.spans if n == name]

    def write(self, path, meta: dict) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({**meta, "fields": ["op", "id", "parent", "name", "start", "end"],
                       "spans": self.spans}, handle)


class NullTracer:
    """Stand-in with the same calls that records nothing (the untraced path)."""

    def span(self, name: str):
        return contextlib.nullcontext()

    def count(self, name: str, value: int) -> None:
        pass


NULL = NullTracer()


# Flop and byte models of the NumPy kernels, computed from array shapes.

def projection_cost(k_max: int, nodes: int) -> tuple[int, int]:
    """One weighted projection onto phi_0..phi_k_max at ``nodes`` points.

    The three-term recurrence costs 5 flops per table entry, the orthonormal
    scaling 1 and the matrix-vector product 2; the table is written and read.
    """
    entries = (k_max + 1) * nodes
    return 8 * entries + nodes, 8 * (2 * entries + 3 * nodes)


def step_cost(rows: int, cols: int, r: int) -> tuple[int, int]:
    """r derivative steps along the rows of a dense (rows, cols) matrix.

    Each step scales, takes parity suffix sums and rescales: 4 flops and
    three array passes per entry, and drops one row.
    """
    flops = bytes_ = 0
    for _ in range(r):
        if rows <= 1:
            break
        flops += 4 * rows * cols
        bytes_ += 8 * 3 * rows * cols
        rows -= 1
    return flops, bytes_


def eval_grid_cost(k_rows: int, j_cols: int, m_t: int, m_tau: int) -> tuple[int, int]:
    """Series of shape (k_rows, j_cols) evaluated on an m_t x m_tau grid."""
    tables = 6 * (k_rows * m_t + j_cols * m_tau)
    matmuls = 2 * m_t * k_rows * j_cols + 2 * m_t * j_cols * m_tau
    elements = k_rows * m_t + j_cols * m_tau + k_rows * j_cols + m_t * j_cols + m_t * m_tau
    return tables + matmuls, 8 * elements
