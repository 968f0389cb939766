"""The truncated-series differentiation method and its parameter-choice rule.

Given perturbed coefficients <f_delta, phi_k phi_j> on an information domain
(hyperbolic cross or box), the method differentiates the truncated series
exactly:

    D_n f_delta(t, tau) = sum_{(k,j) in domain} <f_delta, phi_{k,j}>
                          phi_k^(r)(t) phi_j^(r)(tau).

The truncation level n acts as the regularization parameter: it is either
supplied directly or chosen from the noise level delta by

    n = ceil(constant * (delta^-1 * ln(1/delta)^(1/p - 1/s))^(1/(mu - 1/p + 1/s)))

with a floor of r + 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import eval_phi_table, grid_product
from .coeffs import MAX_DENSE_ENTRIES, CoeffField, _read_only
from .derivative import DerivativeExpansion
from .index import IndexDomain

__all__ = [
    "ConfigError",
    "MethodConfig",
    "LegendreSeries2D",
    "ApproxDerivative",
    "choose_n",
    "run",
    "evaluate",
]


#: Arrays with fewer rows keep the dense derivative map; see :func:`run`.
_BLOCKS_MIN_SIDE = 80


class ConfigError(ValueError):
    """A parameter combination violates the method's validity constraints."""


@dataclass(frozen=True)
class MethodConfig:
    """Everything needed to run the method once.

    A finite mu with the smoothness-vs-order constraint mu > 2r - 1/s + 1/2
    is required (it is the hypothesis under which the square-mean error
    bound holds); the stronger uniform-norm hypothesis mu > 2r - 1/s + 3/2 is
    advisory and exposed as :attr:`satisfies_sup_hypothesis`.  delta = 0 is
    allowed only together with ``n_override`` (nothing else consumes delta
    then).  The resolved truncation level must keep the dense coefficient
    array within :data:`MAX_DENSE_ENTRIES`.
    """

    r: int
    mu: float
    delta: float
    s: float = 2.0
    p: float = 2.0
    n_override: int | None = None
    rule_constant: float = 1.0
    domain_shape: str = "cross"

    def __post_init__(self) -> None:
        if self.r < 1:
            raise ConfigError(f"derivative order r={self.r} must be >= 1")
        if not (1.0 <= self.s) or math.isinf(self.s):
            raise ConfigError(f"s={self.s} must satisfy 1 <= s < inf")
        if not (1.0 <= self.p):
            raise ConfigError(f"p={self.p} must satisfy 1 <= p <= inf")
        if self.domain_shape not in IndexDomain.SHAPES:
            raise ConfigError(f"domain shape must be one of {IndexDomain.SHAPES}, got {self.domain_shape!r}")
        _check_rule_constant(self.rule_constant)
        if self.n_override is not None:
            if self.n_override <= self.r:
                raise ConfigError(
                    f"n={self.n_override} must exceed r={self.r}"
                )
            if not (0.0 <= self.delta < 1.0):
                raise ConfigError(f"delta={self.delta} must lie in [0, 1)")
        elif not (0.0 < self.delta < 1.0):
            raise ConfigError(
                f"delta={self.delta} must lie in (0, 1) when n is not given"
            )
        _check_mu(self.mu)
        bound = 2.0 * self.r - 1.0 / self.s + 0.5
        if not (self.mu > bound):
            raise ConfigError(
                f"smoothness mu={self.mu} violates mu > 2r - 1/s + 1/2 = {bound}"
            )
        n = self.resolve_n()
        side = max(self.domain().max_degree()) + 1
        if side * side > MAX_DENSE_ENTRIES:
            raise ConfigError(
                f"truncation level n={n} needs a dense array of {side}^2 "
                f"coefficients, over the limit of {MAX_DENSE_ENTRIES} entries"
            )

    @property
    def satisfies_sup_hypothesis(self) -> bool:
        """Whether mu > 2r - 1/s + 3/2, the uniform-norm validity condition."""
        return self.mu > 2.0 * self.r - 1.0 / self.s + 1.5

    def resolve_n(self) -> int:
        """The truncation level: ``n_override`` if present, else the rule."""
        if self.n_override is not None:
            return self.n_override
        return choose_n(
            self.delta, self.mu, p=self.p, s=self.s,
            rule_constant=self.rule_constant, r=self.r,
        )

    def domain(self) -> IndexDomain:
        """The information domain at the resolved truncation level."""
        return IndexDomain(self.domain_shape, self.r, self.resolve_n())


@dataclass(frozen=True, eq=False)
class LegendreSeries2D:
    """The series sum c_{k,j} phi_k(t) phi_j(tau) of a coefficient array.

    ``coeffs`` is a read-only, C-contiguous, nonempty 2-D float64 array of
    shape (k_max + 1, j_max + 1).  ``zero_corner`` (a, b), if given, is a
    corner with 0 <= a <= k_max, 0 <= b <= j_max and ``coeffs[a:, b:]`` all
    zero (``-0.0`` too) that grid evaluations may skip; any other corner
    raises ValueError.
    """

    coeffs: np.ndarray
    zero_corner: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        coeffs = np.ascontiguousarray(self.coeffs, dtype=np.float64)
        if coeffs.ndim != 2 or coeffs.size == 0:
            raise ValueError("coefficient array must be 2-D and nonempty")
        if self.zero_corner is not None:
            a, b = self.zero_corner
            if not (0 <= a < coeffs.shape[0] and 0 <= b < coeffs.shape[1]) or coeffs[a:, b:].any():
                raise ValueError(f"{self.zero_corner} is not a zero corner of the coefficients")
        object.__setattr__(self, "coeffs", _read_only(coeffs))

    @classmethod
    def _with_corner(cls, coeffs: np.ndarray, zero_corner: tuple[int, int] | None):
        """The series with a zero corner its maker guarantees, which is not scanned.

        For :func:`run`, whose derivative map leaves the domain's corner less
        r exactly zero; every other caller's corner is checked.
        """
        series = cls(coeffs)
        object.__setattr__(series, "zero_corner", zero_corner)
        return series

    def eval_grid(self, t: np.ndarray, tau: np.ndarray) -> np.ndarray:
        """Series values on the tensor grid t x tau, shape (len(t), len(tau))."""
        table_t = eval_phi_table(self.coeffs.shape[0] - 1, t)
        table_tau = eval_phi_table(self.coeffs.shape[1] - 1, tau)
        return grid_product(table_t, self.coeffs, table_tau, self.zero_corner)

    def eval_points(self, t: np.ndarray, tau: np.ndarray) -> np.ndarray:
        """Series values at paired points (t_i, tau_i)."""
        if np.shape(t) != np.shape(tau):
            raise ValueError("t and tau must have identical shapes")
        table_t = eval_phi_table(self.coeffs.shape[0] - 1, t)
        table_tau = eval_phi_table(self.coeffs.shape[1] - 1, tau)
        return np.einsum("ki,kj,ji->i", table_t, self.coeffs, table_tau, optimize=True)


@dataclass(frozen=True)
class ApproxDerivative:
    """The method's output: a low-degree series approximating f^(r,r)."""

    series: LegendreSeries2D
    config: MethodConfig
    n_used: int
    information_count: int


def _check_mu(mu: float) -> None:
    if not math.isfinite(mu):
        raise ConfigError(f"smoothness mu={mu} must be finite")


def _check_rule_constant(rule_constant: float) -> None:
    if not 0.0 < rule_constant < math.inf:  # NaN fails too
        raise ConfigError(f"rule constant {rule_constant} must be finite and positive")


def choose_n(
    delta: float,
    mu: float,
    p: float = 2.0,
    s: float = 2.0,
    rule_constant: float = 1.0,
    r: int = 1,
) -> int:
    """Truncation level from the noise level.

    n = ceil(rule_constant * (delta^-1 * ln(1/delta)^(1/p - 1/s))
             ^ (1 / (mu - 1/p + 1/s))), floored at r + 2.

    When p = s the logarithmic factor drops out and n scales as delta^(-1/mu).
    """
    if not (0.0 < delta < 1.0):
        raise ConfigError(f"delta={delta} must lie in (0, 1)")
    _check_mu(mu)
    _check_rule_constant(rule_constant)
    inv_p = 0.0 if math.isinf(p) else 1.0 / p
    exponent_denom = mu - inv_p + 1.0 / s
    if exponent_denom <= 0.0:
        raise ConfigError(
            f"mu - 1/p + 1/s = {exponent_denom} must be positive"
        )
    log_term = math.log(1.0 / delta)
    raw = rule_constant * (
        (1.0 / delta) * log_term ** (inv_p - 1.0 / s)
    ) ** (1.0 / exponent_denom)
    if not math.isfinite(raw):
        raise ConfigError(f"the rule gives a non-finite truncation level {raw}")
    nearest = round(raw)
    if abs(raw - nearest) <= 1e-9 * max(1.0, abs(raw)):
        raw = float(nearest)
    return max(int(math.ceil(raw)), r + 2)


def run(field_perturbed: CoeffField, config: MethodConfig) -> ApproxDerivative:
    """Run the method, the linear map B = S_r (M o C) S_r^T on the coefficients.

    M masks the coefficients C to the domain and S_r is the r-step derivative
    matrix of :class:`DerivativeExpansion`; both domains are square, so one
    map serves both axes.  Entries of ``field_perturbed`` outside the domain
    are ignored; domain pairs missing from the field count as exact zeros.

    On a cross the derived series carries the domain's zero corner
    (:meth:`IndexDomain.zero_corner`) less r on each axis, which its grid
    evaluations may skip.  From n = ``_BLOCKS_MIN_SIDE`` = 80 on, the map
    skips the corner too and derives only the left block and the top block
    outside it, so its work follows the staircase, not n^2.  The result
    keeps the dense map's bytes up to the sign of exact zeros (see the
    :mod:`legdiff.derivative` docstring).  Smaller crosses, every table
    preset's (n <= 31) among them, and the box take the dense map.  Measured
    with one BLAS thread (2-vCPU Xeon, NumPy 2.4.6, min of 41 in two host
    phases), the dense map against the blocks at r = 2: n = 48 took 102-147
    against 131-211 us, n = 64 138-197 against 143-224 us, n = 80 182-246
    against 161-246 us, n = 100 259-326 against 183-272 us; r = 1 and r = 3
    cross over between n = 64 and 72.  Past that the gain grows with n:
    2.9-3.3 against 0.56-0.61 ms at n = 300, 35-42 against 3.6-3.9 ms at
    n = 1000, 329 against 18 ms at n = 2048 (min of 11).
    """
    domain = config.domain()
    masked = field_perturbed.restrict(domain)
    expansion = DerivativeExpansion(config.r, masked.k_max)
    corner = domain.zero_corner()
    blocks = corner if masked.k_max + 1 >= _BLOCKS_MIN_SIDE else None
    derived = expansion.apply_both(masked.values, blocks)
    if corner is not None:
        corner = corner[0] - config.r, corner[1] - config.r
    return ApproxDerivative(
        series=LegendreSeries2D._with_corner(derived, corner),
        config=config,
        n_used=domain.n,
        information_count=domain.cardinality(),
    )


def evaluate(approx: ApproxDerivative, points) -> np.ndarray:
    """Values of the approximation at a sequence of (t, tau) points in Q."""
    pts = np.asarray(list(points), dtype=np.float64)
    if pts.size == 0:
        return np.zeros(0, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must be a sequence of (t, tau) pairs")
    return approx.series.eval_points(pts[:, 0], pts[:, 1])
