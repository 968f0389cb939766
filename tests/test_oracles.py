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

from legdiff.basis import gauss_rule, legendre_table
from legdiff.derivative import DerivativeExpansion

from oracles import derivative_steps_ld, legendre_table_ld, single_step_entry

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
    k = np.arange(K + 1)
    harmonic = np.concatenate(([0.0], np.cumsum(1.0 / k[1:])))
    growth = 4.5 * (k * (k + 3) / 4 - harmonic) + 1
    bound = (growth * (EPS + EPS_LD) * np.sqrt(k + 0.5))[:, None]
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
