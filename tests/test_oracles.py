"""The float64 kernels against the long-double oracles of ``oracles.py``.

Each bound below is derived from a rounding model stated in its test,
not fitted to the observed distance.  u = eps / 2 is float64's unit roundoff,
gamma_n = n u / (1 - n u) is the usual bound on n roundings, and the
oracle's own error obeys the same model with long double's eps, so every
bound carries eps + eps_ld.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from legdiff import MethodConfig, coeffs, exact_coeffs, l2_error, metrics, run
from legdiff.basis import composite_gauss_rule, gauss_rule, legendre_table
from legdiff.derivative import DerivativeExpansion
from legdiff.experiments import F1
from legdiff.noise import NoiseSpec, perturb

from oracles import (
    derivative_steps_ld,
    f1_factor_d2_ld,
    gauss_rule_ld,
    legendre_table_ld,
    projection_ld,
    single_step_entry,
)

EPS = np.finfo(np.float64).eps
EPS_LD = float(np.finfo(np.longdouble).eps)

pytestmark = pytest.mark.skipif(
    EPS_LD > EPS / 1000, reason="np.longdouble is not wider than float64 here"
)


def test_oracles_import_nothing_from_legdiff_but_coeff_field():
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.update(f"{node.module}.{alias.name}" for alias in node.names)
    assert imported <= {"numpy", "math", "legdiff.CoeffField"}, sorted(imported)


def test_oracle_step_matches_the_entry_formula():
    """One long-double step of the identity is the matrix of single-step entries."""
    K = 12
    step = derivative_steps_ld(np.eye(K + 1), 1).astype(np.float64)
    entries = np.array([[single_step_entry(k, l) for k in range(K + 1)] for l in range(K)])
    # The entry formula rounds three times and the cast once: 2 eps at most.
    np.testing.assert_allclose(step, entries, rtol=2 * EPS, atol=0)


@pytest.mark.parametrize("K", [30, 297])
def test_legendre_table_within_endpoint_error_growth(K):
    """|phi_k - fl(phi_k)| <= (4.5 (k (k+3) / 4 - H_k) + 1) (eps + eps_ld) sqrt(k + 1/2).

    H_k is the k-th harmonic number.  One recurrence step
    ((2k+1) t P_k - k P_{k-1}) / (k+1) rounds five times.  With |t|,
    |P_k| <= 1 its local error is below 9 u: two roundings on the first
    product, one on the second, one on their difference (at most u times
    the sum of their sizes) and one on the quotient.  P_0 and P_1 are exact.

    An error injected at degree j reaches degree k as G(k, j, t) times
    itself, G the recurrence's solution with G(j-1) = 0 and G(j) = 1.  The
    model takes |G| to be largest at t = +-1, where the recurrence reads
    (i+1)(y_{i+1} - y_i) = i (y_i - y_{i-1}) and so G(k, j, 1) =
    j (H_k - H_{j-1}).  Summed over j = 2..k that is k (k+3) / 4 - H_k, so
    |dP_k| <= 9 u (k (k+3) / 4 - H_k), and scaling by the rounded
    sqrt(k + 1/2) adds 2 u relative.  Errors grow only linearly in k inside
    the interval but quadratically near its ends, which the Chebyshev points
    crowd; the other nodes are a Gauss rule of the metrics' order and the
    201-node sup grid.
    """
    t = np.concatenate(
        (
            gauss_rule(2 * K + 8).nodes,
            np.linspace(-1.0, 1.0, 201),
            np.cos(np.pi * np.arange(1001) / 1000),
        )
    )
    error = np.abs(legendre_table(K, t) - legendre_table_ld(K, t))
    bound = _table_bound(K)[:, None]
    assert np.all(error <= bound), float(np.max(error / bound))


def _table_bound(K: int) -> np.ndarray:
    """The bound on |phi_k - fl(phi_k)| for k = 0..K at any |t| <= 1, the rounding
    model of :func:`test_legendre_table_within_endpoint_error_growth`."""
    k = np.arange(K + 1)
    harmonic = np.concatenate(([0.0], np.cumsum(1.0 / k[1:])))
    growth = 4.5 * (k * (k + 3) / 4 - harmonic) + 1
    return growth * (EPS + EPS_LD) * np.sqrt(k + 0.5)


@pytest.mark.parametrize(
    "rule",
    [
        composite_gauss_rule(96, (-1.0, 0.0, 1.0)),  # table1's base coefficients
        coeffs._trapezoid_rule(4e-5),  # table2's third row, 50,001 nodes
    ],
    ids=["table1_gauss_96x2", "table2_trapezoid_4e-5"],
)
def test_projection_within_summation_bound(rule):
    """|fl(c_k) - c_k| <= E_k sum_i |w_i v_i| + (N + 2) (eps + eps_ld) sum_i |phi_k(t_i)| |w_i v_i|.

    c_k = sum_i w_i v_i phi_k(t_i) over the rule's N nodes, k = 0..30, for
    F1's factor v.  The nodes, weights and float64 values are inputs both
    sides share, so only the projection's arithmetic is checked.  The
    float64 side rounds w_i v_i once (u |w_i v_i|), takes phi_k(t_i) with
    the recurrence's error E_k (:func:`_table_bound`), and sums the N
    products in one chunk (k_max = 30 allows 2**22 / 31 nodes per table) by
    a dot product of any order, within gamma_N sum_i |phi_k(t_i)| |w_i v_i|,
    gamma_N <= N eps for N u <= 1/2.  The oracle sums in long double with
    its own error of the same form in eps_ld.
    """
    k_max = 30
    values = F1.factors[0](rule.nodes)
    got = coeffs._projection(values, rule, k_max)
    want = projection_ld(values, rule.nodes, rule.weights, k_max)
    weighted = np.abs(rule.weights * values)
    magnitude = np.abs(legendre_table_ld(k_max, rule.nodes)).astype(np.float64) @ weighted
    bound = _table_bound(k_max) * weighted.sum() + (len(rule) + 2) * (EPS + EPS_LD) * magnitude
    error = np.abs(got - want).astype(np.float64)
    assert np.all(error <= bound), float(np.max(error / bound))


@pytest.mark.parametrize("K", [30, 297])
def test_derivative_map_within_summation_bound(K):
    """|fl(S_2 a) - S_2 a| <= (K + 2) (eps + eps_ld) S_2|a|, entrywise.

    One step writes b_l = 2 s_l sum_{k > l, k+l odd} s_k a_k with
    s_k = sqrt(k + 1/2): two roundings on s_k a_k, at most m - 1 on the
    running sum of its m <= ceil(K_i / 2) terms, two on 2 s_l times the sum,
    so |fl(S x) - S x| <= gamma_{m+3} S|x| for an input of top degree K_i.
    Every entry of S is nonnegative, so the first step's error passes
    through the second as S|e| and the two compose to
    gamma_{ceil(K/2) + ceil((K-1)/2) + 6} = gamma_{K+6} S_2|a|, which is
    below (K + 2) eps S_2|a| for K >= 2.  S_2|a| is taken in long double.
    """
    rng = np.random.default_rng(K)
    a = rng.standard_normal((K + 1, 3))
    a[:, 1] /= (np.arange(K + 1) + 1.0) ** 3  # the decay of smooth data
    a[:, 2] = np.abs(a[:, 2])  # no cancellation
    error = np.abs(DerivativeExpansion(2, K).apply(a) - derivative_steps_ld(a, 2))
    bound = (K + 2) * (EPS + EPS_LD) * derivative_steps_ld(np.abs(a), 2)
    assert np.all(error <= bound), float(np.max(error / bound))


def test_large_cross_l2_error_within_long_double_projection_bound():
    """l2_error at n = 300, seed 0 of the benchmark's large cross, against long double.

    The oracle takes F1'' = s u(t) u(tau), s = 1/754, on its own long-double
    Gauss rule (602 points per panel, split at 0) and computes
    ||C - B_ld||^2 + tail_ld from one-dimensional projections: with
    a = T W u and p = T^T a, B_ld = s a a^T, and the tail
    s^2 (||u - p||^2 ||u||^2 + ||p||^2 ||u - p||^2) is a sum of orthogonal
    parts (no cancellation).  C, the method's float64 coefficients, is the
    input both sides share.

    The metric computes fl(||C - B||^2) + tail from the float64 rule
    (nodes x, weights w), table T and factor values u.  Its B errs by EB =
    s (da a^T + a da^T + da da^T) + 3 eps s |a| |a|^T, where
    da = |T_64 - T_ld| w |u| + |T| |w_64 - w_ld| |u| + |T| w |u_64 - u_ld|
    + (N + 1) eps |T| w |u|: the inputs' own distances from the oracle's
    (table, rule and factor at the float64 and long-double nodes), carried
    through the N-term projection sum, plus that sum's rounding.  So

        |l2^2 - want^2| <= sum EB (2 |C - B_ld| + EB)
                           + (K + J + 3) eps ||C - B_ld||^2 + tail + tail_ld,

    the second term for the subtraction, square and pairwise np.sum of K x J
    terms, the last two because both tails are nonnegative.
    """
    n, r, G = 300, 2, 602
    config = MethodConfig(r=r, mu=5.5, delta=1e-10, n_override=n)
    base = exact_coeffs(F1, n - 1, n - 1, G=2 * (n - 1) + 16).restrict(config.domain())
    approx = run(perturb(base, NoiseSpec(kind="gaussian", delta=1e-10, seed=0)), config)
    reference = F1.derivative_function()
    l2 = l2_error(approx, reference, G)
    coeffs = approx.series.coeffs
    K, J = coeffs.shape
    assert (K, J) == (n - r, n - r) and G == 2 * (K - 1) + 8  # the effective order

    nodes, weights = gauss_rule_ld(G, (-1, 0, 1))
    table = legendre_table_ld(K - 1, nodes)
    u = f1_factor_d2_ld(nodes)
    scale = 1 / np.longdouble(754)
    a = table @ (weights * u)
    p = a @ table
    gap = weights @ (u - p) ** 2
    tail_ld = scale**2 * (gap * (weights @ u**2) + (weights @ p**2) * gap)
    residual = coeffs - scale * np.outer(a, a)
    want2 = float(np.sum(residual**2) + tail_ld)

    rule = composite_gauss_rule(G, (-1.0, 0.0, 1.0))
    table_64 = legendre_table(K - 1, rule.nodes)
    u_64 = reference.factors[0](rule.nodes)
    abs_u, abs_table = np.abs(u_64), np.abs(table_64)
    da = (
        np.abs(table_64 - table).astype(np.float64) @ (rule.weights * abs_u)
        + abs_table @ (np.abs(rule.weights - weights).astype(np.float64) * abs_u)
        + abs_table @ (rule.weights * np.abs(u_64 - u).astype(np.float64))
        + (rule.nodes.size + 1) * EPS * abs_table @ (rule.weights * abs_u)
    )
    size = np.abs(a).astype(np.float64)
    s = float(scale)
    error_b = s * (np.outer(da, size) + np.outer(size, da) + np.outer(da, da))
    error_b += 3 * EPS * s * np.outer(size + da, size + da)
    residual = np.abs(residual).astype(np.float64)
    tail = metrics._GRIDS[reference]["gauss"].projection[1]
    bound = (
        np.sum(error_b * (2 * residual + error_b))
        + (K + J + 3) * EPS * np.sum(residual**2)
        + tail
        + float(tail_ld)
    )
    assert abs(l2 * l2 - want2) <= bound, (abs(l2 * l2 - want2), bound)
