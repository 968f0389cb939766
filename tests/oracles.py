"""Test oracles that share no code with the kernels they check.

The module imports numpy, math and ``legdiff.CoeffField`` only (a test in
``test_oracles.py`` parses it to hold that), so an oracle cannot inherit a
fault from the recurrence, the derivative step or the projection in
``legdiff``.  The long-double functions redo the package's float64
arithmetic in ``np.longdouble``, whose unit roundoff is 2**-64 on x86-64
(80-bit extended precision), 2**11 times below float64's.
"""

import math

import numpy as np

from legdiff import CoeffField


def from_entries(
    entries: dict[tuple[int, int], float],
    k_max: int | None = None,
    j_max: int | None = None,
) -> CoeffField:
    """Field storing ``entries``; omitted bounds are inferred from the indices."""
    if k_max is None:
        k_max = max((k for k, _ in entries), default=0)
    if j_max is None:
        j_max = max((j for _, j in entries), default=0)
    if k_max < 0 or j_max < 0:
        raise ValueError("degree bounds must be nonnegative")
    values = np.zeros((k_max + 1, j_max + 1))
    stored = np.zeros(values.shape, dtype=bool)
    for (k, j), v in entries.items():
        if not (0 <= k <= k_max and 0 <= j <= j_max):
            raise ValueError(f"entry {(k, j)} outside bounds [0, {k_max}] x [0, {j_max}]")
        values[k, j] = v
        stored[k, j] = True
    return CoeffField(values, stored)


def single_step_entry(k: int, l: int) -> float:
    """Entry (k -> l) of the single derivative step: the weight of phi_l in phi_k'."""
    if l < k and (k + l) % 2 == 1:
        return 2.0 * math.sqrt(k + 0.5) * math.sqrt(l + 0.5)
    return 0.0


def phi_rr_closed_form(r: int) -> float:
    """The constant value of phi_r^(r) as a multiple of phi_0.

    phi_r^(r)(t) = sqrt(r + 1/2) * 2^(1/2 - r) * (2r)!/r! * phi_0(t).
    """
    if r < 0:
        raise ValueError("r must be nonnegative")
    if r == 0:
        return 1.0
    return math.sqrt(r + 0.5) * 2.0 ** (0.5 - r) * math.factorial(2 * r) / math.factorial(r)


def legendre_table_ld(k_max: int, t) -> np.ndarray:
    """phi_k(t_i) for k = 0..k_max in long double, shape (k_max + 1, len(t)).

    The three-term recurrence (k+1) P_{k+1} = (2k+1) t P_k - k P_{k-1},
    scaled by sqrt(k + 1/2); the float64 nodes convert exactly.
    """
    t = np.asarray(t, dtype=np.longdouble)
    p = np.empty((k_max + 1, t.size), dtype=np.longdouble)
    p[0] = 1
    if k_max >= 1:
        p[1] = t
    for k in range(1, k_max):
        p[k + 1] = ((2 * k + 1) * t * p[k] - k * p[k - 1]) / (k + 1)
    return np.sqrt(np.arange(k_max + 1, dtype=np.longdouble) + 0.5)[:, None] * p


def derivative_steps_ld(a, r: int) -> np.ndarray:
    """r derivative steps along axis 0 of a 2-D array, in long double.

    One step maps degrees 0..K to 0..K-1 by
    b_l = 2 sqrt(l + 1/2) * sum_{k > l, k+l odd} sqrt(k + 1/2) a_k,
    the sum running from the top degree down within each parity class.
    """
    a = np.asarray(a, dtype=np.longdouble)
    for _ in range(r):
        root = np.sqrt(np.arange(a.shape[0], dtype=np.longdouble) + 0.5)[:, None]
        weighted = root * a
        tails = np.zeros_like(weighted)  # tails[k] = weighted[k] + weighted[k+2] + ...
        for parity in (0, 1):
            tails[parity::2] = np.cumsum(weighted[parity::2][::-1], axis=0)[::-1]
        a = 2 * root[:-1] * tails[1:]
    return a
