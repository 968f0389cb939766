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
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .coeffs import _BLOCK_ENTRIES, CoeffField, _check_entries
from .derivative import DerivativeExpansion
from .index import IndexDomain, _check_integer, _check_order, _check_p, _check_s
from .noise import NoiseSpec, _check_seed, _noise_rows

__all__ = [
    "ConfigError",
    "MethodConfig",
    "ApproxDerivative",
    "choose_n",
    "run",
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
    _domain: IndexDomain = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_order(self.r, ConfigError)
        _check_s(self.s, ConfigError)
        _check_p(self.p, ConfigError)
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
        n = self.n_override
        if n is None:
            n = choose_n(self.delta, self.mu, self.p, self.s, self.rule_constant, self.r)
        domain = IndexDomain(self.domain_shape, self.r, n)
        side = max(domain.max_degree()) + 1
        _check_entries(f"truncation level n={n}", side, side, "coefficient array", ConfigError)
        object.__setattr__(self, "_domain", domain)

    @property
    def satisfies_sup_hypothesis(self) -> bool:
        """Whether mu > 2r - 1/s + 3/2, the uniform-norm validity condition."""
        return self.mu > 2.0 * self.r - 1.0 / self.s + 1.5

    def resolve_n(self) -> int:
        """The truncation level: ``n_override`` if present, else the rule."""
        return self._domain.n

    def domain(self) -> IndexDomain:
        """The information domain at the resolved truncation level, built once."""
        return self._domain


@dataclass(frozen=True)
class ApproxDerivative:
    """The method's output: a low-degree series approximating f^(r,r), as the
    field of its coefficients, every entry stored."""

    series: CoeffField
    config: MethodConfig

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


def _rate_denominator(mu: float, p: float, s: float) -> float:
    """mu - 1/p + 1/s, the exponent denominator of the rule and the rate, with mu, p
    and s checked as :class:`MethodConfig` checks them; ConfigError unless positive."""
    _check_mu(mu)
    _check_p(p, ConfigError)
    _check_s(s, ConfigError)
    denominator = mu - 1.0 / p + 1.0 / s
    if denominator <= 0.0:
        raise ConfigError(f"mu - 1/p + 1/s = {denominator} must be positive")
    return denominator


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
    Each parameter is checked as :class:`MethodConfig` checks it (r an integer
    >= 1, p >= 1, 1 <= s < inf), and mu - 1/p + 1/s must be positive, else ConfigError.
    """
    if not (0.0 < delta < 1.0):
        raise ConfigError(f"delta={delta} must lie in (0, 1)")
    _check_rule_constant(rule_constant)
    _check_order(r, ConfigError)
    exponent_denom = _rate_denominator(mu, p, s)
    log_term = math.log(1.0 / delta)
    raw = rule_constant * (
        (1.0 / delta) * log_term ** (1.0 / p - 1.0 / s)
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
    This is :func:`_derive` with no noise, which derives a view of the
    restricted values, not a copy.

    On a cross the derived series carries the domain's zero corner
    (:meth:`IndexDomain.zero_corner`) less r on each axis, which its grid
    evaluations may skip.  The map skips the corner too and derives only the
    left block and the top block outside it, so its work follows the
    staircase, not n^2: the restriction zero-filled the corner, so the blocks
    go to the map unscanned.  The result keeps the dense map's bytes up to
    the sign of exact zeros (see the :mod:`legdiff.derivative` docstring).
    The box, which has no zero corner, takes the same cover with a = b =
    side: it keeps the dense map's bytes and pays the cover's degenerate
    pieces.
    """
    return next(_derive(field_perturbed, config, NoiseSpec("none")))


def _derive(
    field: CoeffField, config: MethodConfig, noise: NoiseSpec, runs: int = 1
) -> Iterator[ApproxDerivative]:
    """``runs`` runs of the one restrict -> perturb -> derive pipeline, which
    :func:`run`, the tables, the sweeps and the command line share, with seeds
    ``noise.seed``, ``noise.seed + 1``, ...: the spec owns a run's seed.

    A last seed of 2^64 or more is refused before any draw, and the field is
    restricted to the config's domain once.  Under kind "none" it derives once
    whatever ``runs`` is (not at all for 0), a view of the restricted values.
    Otherwise the seeds go in chunks of at most ``_BLOCK_ENTRIES // side^2``
    (at least one): 272 at side 31, 2 at n = 300.  A chunk's stack holds the
    restricted values once per seed plus its seeds' noise
    (:func:`~legdiff.noise._noise_rows`, one bit generator) at the stored
    entries in row-major order, and takes one map call, so memory follows one
    chunk, not the seeds.  Each result is bit for bit
    ``run(perturb(field.restrict(config.domain()), spec), config)`` with its
    seed in ``spec``: a :class:`CoeffField` storing every entry through one
    read-only mask per call.  This is the one place a field's ``zero_corner``
    is set: the domain's corner less r (None on the box).
    """
    runs = min(runs, 1) if noise.kind == "none" else runs  # a deterministic run runs once
    _check_seed(noise.seed + max(runs, 1) - 1)  # the last seed, before any draw
    seeds = range(noise.seed, noise.seed + runs)
    domain = config.domain()
    consumed = field.restrict(domain)
    values = consumed.values
    side = values.shape[0]
    expansion = DerivativeExpansion(config.r, side - 1)
    corner = domain.zero_corner()
    derived_corner = None if corner is None else (corner[0] - config.r, corner[1] - config.r)
    stored = np.broadcast_to(np.True_, (side - config.r,) * 2)
    height = max(1, _BLOCK_ENTRIES // values.size)
    for start in range(0, len(seeds), height):
        chunk = seeds[start:start + height]
        stack = values[np.newaxis]  # a view, no copy
        if noise.kind != "none":
            stack = np.repeat(stack, len(chunk), axis=0)
            stack[:, consumed.stored] += _noise_rows(noise, chunk, len(consumed))
        derived = expansion.apply_both(stack, corner)
        del stack  # not held while the caller uses the results
        for array in derived:
            yield ApproxDerivative(CoeffField._derived(array, stored, derived_corner), config)
