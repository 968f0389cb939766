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
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .basis import _read_only, eval_phi_table, grid_factors
from .coeffs import CoeffField, _BLOCK_ENTRIES, _check_entries
from .derivative import DerivativeExpansion
from .index import IndexDomain, _check_integer

__all__ = [
    "ConfigError",
    "MethodConfig",
    "LegendreSeries2D",
    "ApproxDerivative",
    "choose_n",
    "run",
    "run_many",
    "evaluate",
]


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
    array within :data:`~legdiff.coeffs.MAX_DENSE_ENTRIES`.
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
        _check_integer("r", self.r, ConfigError)
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
            _check_integer("n_override", self.n_override, ConfigError)
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
        side = max(self.domain().max_degree()) + 1
        _check_entries(
            f"truncation level n={self.resolve_n()}", side, side, "coefficient array",
            ConfigError,
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
    shape (k_max + 1, j_max + 1).  ``zero_corner`` (a, b), with ``coeffs[a:, b:]``
    all zero, is a corner grid evaluations may skip; no constructor argument
    sets it, only :func:`run_many`, and every other series has None.
    """

    coeffs: np.ndarray
    zero_corner: tuple[int, int] | None = field(init=False, default=None)

    def __post_init__(self) -> None:
        coeffs = np.ascontiguousarray(self.coeffs, dtype=np.float64)
        if coeffs.ndim != 2 or coeffs.size == 0:
            raise ValueError("coefficient array must be 2-D and nonempty")
        object.__setattr__(self, "coeffs", _read_only(coeffs))

    @classmethod
    def _with_corner(cls, coeffs: np.ndarray, zero_corner: tuple[int, int] | None):
        """The series with the zero corner :func:`run_many` guarantees, unscanned."""
        series = cls(coeffs)
        object.__setattr__(series, "zero_corner", zero_corner)
        return series

    def eval_grid(self, t: np.ndarray, tau: np.ndarray) -> np.ndarray:
        """Series values on the tensor grid t x tau, shape (len(t), len(tau)), the
        product of :func:`~legdiff.basis.grid_factors`' pair; one table serves
        both axes when ``tau is t`` and the degrees agree."""
        K, J = self.coeffs.shape
        table_t = eval_phi_table(K - 1, t)
        table_tau = table_t if tau is t and J == K else eval_phi_table(J - 1, tau)
        left, right = grid_factors(table_t, self.coeffs, table_tau, self.zero_corner)
        return left @ right

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

    @property
    def n_used(self) -> int:
        """The truncation level the run used, ``config.resolve_n()``."""
        return self.config.resolve_n()

    @property
    def information_count(self) -> int:
        """The run's number of coefficients |Gamma_n|, the domain's cardinality."""
        return self.config.domain().cardinality()


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
    inv_p = 1.0 / p
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
    This is :func:`run_many` on one field, whose stack of one is the
    restricted values themselves, not a copy of them.

    On a cross the derived series carries the domain's zero corner
    (:meth:`IndexDomain.zero_corner`) less r on each axis, which its grid
    evaluations may skip.  The map skips the corner too and derives only the
    left block and the top block outside it, so its work follows the
    staircase, not n^2: the restriction zero-filled the corner, so the blocks
    go to the map unscanned.  The result keeps the dense map's bytes up to
    the sign of exact zeros (see the :mod:`legdiff.derivative` docstring).
    The box, which has no zero corner, takes the same cover with a = b =
    side: it keeps the dense map's bytes and pays the cover's degenerate
    pieces.  A table row's seeds share one map call (:func:`run_many`).
    """
    return next(run_many([field_perturbed], config))


def run_many(fields: Iterable[CoeffField], config: MethodConfig) -> Iterator[ApproxDerivative]:
    """:func:`run` on each of ``fields`` in turn, one derivative map per chunk of them.

    The fields' restricted values fill one zero-filled stack per chunk, whose
    last two axes the map derives in one call (see the
    :mod:`legdiff.derivative` docstring); each field's result is its slice of
    the derived stack, bit for bit what :func:`run` gives it alone.  A table
    row's seeds, each a small array, then pay one map's numpy calls in place
    of one per seed.  It is the one place a series' ``zero_corner`` is set:
    the domain's corner less r, which the map leaves zero (None on the box).

    The fields are read lazily, a chunk at a time, and a chunk holds at most
    :data:`~legdiff.coeffs._BLOCK_ENTRIES` = 2^18 coefficients (2 MiB, the
    projections' and metrics' block budget), or one field where a field
    alone holds more, fixed before its stack is allocated: 272 fields at
    side 31, 2 at n = 300.  So memory does not grow with the number of
    fields, and a chunk's own arrays (the fields, the stack, the map's
    temporaries and the derived stack) stay within a few times 2 MiB.
    """
    domain = config.domain()
    mask = domain.mask()
    side = mask.shape[0]
    expansion = DerivativeExpansion(config.r, side - 1)
    corner = domain.zero_corner()
    derived_corner = None if corner is None else (corner[0] - config.r, corner[1] - config.r)
    per_map = max(1, _BLOCK_ENTRIES // side**2)
    fields = iter(fields)
    while len(stack := _restricted_stack(list(islice(fields, per_map)), mask)):
        # The restriction zero-filled the corner, so it goes unscanned.
        derived = expansion.apply_both(stack, corner)
        del stack  # not held while the caller uses the results
        for coeffs in derived:
            yield ApproxDerivative(LegendreSeries2D._with_corner(coeffs, derived_corner), config)


def _restricted_stack(fields: list[CoeffField], mask: np.ndarray) -> np.ndarray:
    """The fields' values restricted to ``mask``, stacked along a new first axis."""
    stack = np.zeros((len(fields), *mask.shape))
    for field, values in zip(fields, stack):
        field._masked_into(mask, values)
    return stack


def evaluate(approx: ApproxDerivative, points) -> np.ndarray:
    """Values of the approximation at a sequence of (t, tau) points in Q."""
    pts = np.asarray(list(points), dtype=np.float64)
    if pts.size == 0:
        return np.zeros(0, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must be a sequence of (t, tau) pairs")
    return approx.series.eval_points(pts[:, 0], pts[:, 1])
