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


def derivative_table_ld(K: int, r: int, x) -> np.ndarray:
    """phi_k^(r)(x_i) for k = 0..K in long double, shape (K + 1, len(x)).

    phi_k^(r) = sqrt(k + 1/2) (2r - 1)!! C^(r+1/2)_{k-r}, the derivative
    formula for Gegenbauer polynomials (DLMF 18.9.19), zero for k < r.  With
    lam = r + 1/2 the recurrence is C_0 = 1, C_1 = 2 lam x and
    m C_m = 2 (m + lam - 1) x C_{m-1} - (m + 2 lam - 2) C_{m-2}; it shares no
    step with the derivative map's cumsums.
    """
    x = np.asarray(x, dtype=np.longdouble)
    table = np.zeros((K + 1, x.size), dtype=np.longdouble)
    lam = np.longdouble(r) + np.longdouble(0.5)
    c = table[r:]  # C_m for m = 0..K - r
    if len(c) > 0:
        c[0] = 1
    if len(c) > 1:
        c[1] = 2 * lam * x
    for m in range(2, len(c)):
        c[m] = (2 * (m + lam - 1) * x * c[m - 1] - (m + 2 * lam - 2) * c[m - 2]) / m
    double_factorial = math.prod(range(1, 2 * r, 2))
    return double_factorial * np.sqrt(np.arange(K + 1, dtype=np.longdouble) + 0.5)[:, None] * table


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


def _legendre_and_derivative_ld(G: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_G(x) and P_G'(x) = G (x P_G - P_{G-1}) / (x^2 - 1) in long double."""
    p_prev, p = np.ones_like(x), x.copy()
    for k in range(1, G):
        p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
    return p, G * (x * p - p_prev) / (x * x - 1)


def gauss_rule_ld(G: int, edges=(-1, 1)) -> tuple[np.ndarray, np.ndarray]:
    """Composite G-point Gauss-Legendre rule in long double: (nodes, weights).

    The roots of P_G by Newton's method from the Chebyshev-angle guesses
    cos(pi (i + 3/4) / (G + 1/2)), until a step is below 4 eps_ld (the
    iterate then errs by about the step squared); the weights are
    2 / ((1 - x^2) P_G'(x)^2).  Each panel [a, b] gets the nodes
    (a + b) / 2 + (b - a) / 2 x and the weights (b - a) / 2 w.
    """
    pi = np.longdouble("3.14159265358979323846264338327950288")
    x = np.cos(pi * (np.arange(G, dtype=np.longdouble) + 0.75) / (G + 0.5))
    for _ in range(100):
        value, deriv = _legendre_and_derivative_ld(G, x)
        step = value / deriv
        x = x - step
        if np.max(np.abs(step)) < 4 * np.finfo(np.longdouble).eps:
            break
    else:
        raise RuntimeError(f"Newton iteration failed to converge for G={G}")
    x = np.sort(x)
    weights = 2 / ((1 - x * x) * _legendre_and_derivative_ld(G, x)[1] ** 2)
    nodes, panel_weights = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        a, b = np.longdouble(a), np.longdouble(b)
        nodes.append((a + b) / 2 + (b - a) / 2 * x)
        panel_weights.append((b - a) / 2 * weights)
    return np.concatenate(nodes), np.concatenate(panel_weights)


def f1_factor_d2_ld(t) -> np.ndarray:
    """Second derivative of F1's one-dimensional factor in long double.

    -1/4 + t^2 - t^3 plus t^5 - 3/4 t^6 for t < 0 and 14/15 t^5 - 7/10 t^6
    otherwise; F1'' = f''(t) f''(tau) / 754.
    """
    t = np.asarray(t, dtype=np.longdouble)
    common = -np.longdouble(1) / 4 + t**2 - t**3
    neg = t**5 - 3 * t**6 / 4
    pos = 14 * t**5 / 15 - 7 * t**6 / 10
    return common + np.where(t < 0, neg, pos)


def projection_ld(values, nodes, weights, k_max: int) -> np.ndarray:
    """Quadrature projections c_k = sum_i w_i v_i phi_k(t_i), k = 0..k_max, in long double.

    The float64 values, nodes and weights convert exactly; the table is
    :func:`legendre_table_ld`'s and the sum runs in long double.
    """
    weighted = np.asarray(weights, dtype=np.longdouble) * np.asarray(values, dtype=np.longdouble)
    return legendre_table_ld(k_max, nodes) @ weighted
