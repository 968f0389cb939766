"""Built-in test functions, reproducible experiment presets, and rate sweeps.

Two bivariate test functions are bundled, both with exact mixed derivatives
of order (2, 2):

* ``F1(t, tau) = f(t) f(tau) / 754`` with f a piecewise degree-8 polynomial
  whose branches join at 0 with six continuous derivatives;
* ``F2(t, tau) = (2 - (2t-1)^2)^2 cos(4 tau) / 43940129``, analytic.

The presets ``table1``/``table2``/``table3`` rerun the reference experiments
these functions come from: raw Gaussian coefficient noise for table1,
trapezoid-rule coefficient noise for table2 (F1) and table3 (F2).
``convergence_sweep`` measures the empirical error-vs-noise slope against the
theoretical exponent (mu - 2r + 1/s - 1/2) / (mu - 1/p + 1/s).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .coeffs import BivariateFunction, CoeffField, exact_coeffs, trapezoid_coeffs
from .method import MethodConfig, _check_mu, choose_n, run
from .metrics import error_report
from .noise import NoiseSpec, perturb

__all__ = [
    "F1",
    "F2",
    "f1",
    "f1_d22",
    "f2",
    "f2_d22",
    "builtin_function",
    "ExperimentPreset",
    "ExperimentRow",
    "SweepResult",
    "get_preset",
    "PRESET_NAMES",
    "run_table",
    "rows_to_csv",
    "convergence_sweep",
    "theoretical_exponent",
]

_F1_SCALE = 754.0
_F2_SCALE = 43940129.0


def _f1_factor(t: np.ndarray) -> np.ndarray:
    """Piecewise degree-8 factor of F1; branches join at 0 up to order 6."""
    t = np.asarray(t, dtype=np.float64)
    t7 = t**7
    t8 = t**8
    common = -(t**2) / 8.0 + t**4 / 12.0 - t**5 / 20.0
    neg = t7 / 42.0 - 3.0 * t8 / 224.0
    pos = t7 / 45.0 - t8 / 80.0
    return common + np.where(t < 0.0, neg, pos)


def _f1_factor_d2(t: np.ndarray) -> np.ndarray:
    """Second derivative of the F1 factor, branch by branch."""
    t = np.asarray(t, dtype=np.float64)
    t5 = t**5
    t6 = t**6
    common = -0.25 + t**2 - t**3
    neg = t5 - 0.75 * t6
    pos = 14.0 * t5 / 15.0 - 7.0 * t6 / 10.0
    return common + np.where(t < 0.0, neg, pos)


def _f2_factor(t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=np.float64)
    u = 2.0 * t - 1.0
    return (2.0 - u * u) ** 2


def _f2_factor_d2(t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=np.float64)
    u = 2.0 * t - 1.0
    return 48.0 * u * u - 32.0


def f1(t, tau) -> np.ndarray:
    """F1(t, tau) = f(t) f(tau) / 754 with the piecewise degree-8 factor f."""
    return _f1_factor(t) * _f1_factor(tau) / _F1_SCALE


def f1_d22(t, tau) -> np.ndarray:
    """Exact mixed derivative of order (2, 2) of F1."""
    return _f1_factor_d2(t) * _f1_factor_d2(tau) / _F1_SCALE


def f2(t, tau) -> np.ndarray:
    """F2(t, tau) = (2 - (2t-1)^2)^2 cos(4 tau) / 43940129."""
    return _f2_factor(t) * np.cos(4.0 * np.asarray(tau, dtype=np.float64)) / _F2_SCALE


def f2_d22(t, tau) -> np.ndarray:
    """Exact mixed derivative of order (2, 2) of F2."""
    return (
        _f2_factor_d2(t)
        * (-16.0 * np.cos(4.0 * np.asarray(tau, dtype=np.float64)))
        / _F2_SCALE
    )


F1 = BivariateFunction(
    value=f1,
    d22=f1_d22,
    t_breakpoints=(0.0,),
    tau_breakpoints=(0.0,),
    factors=(_f1_factor, _f1_factor, 1.0 / _F1_SCALE),
    name="f1",
)

F2 = BivariateFunction(
    value=f2,
    d22=f2_d22,
    factors=(_f2_factor, lambda tau: np.cos(4.0 * np.asarray(tau, dtype=np.float64)), 1.0 / _F2_SCALE),
    name="f2",
)


def builtin_function(name: str) -> BivariateFunction:
    """Look up a bundled function by its CLI name ("f1" or "f2")."""
    try:
        return {"f1": F1, "f2": F2}[name]
    except KeyError:
        raise ValueError(f"unknown builtin function {name!r}; expected 'f1' or 'f2'")


@dataclass(frozen=True)
class ExperimentPreset:
    """A fully pinned experiment: function, noise mechanism, and per-row settings.

    A preset sets only its data: ``function``, ``noise`` ("gaussian", raw
    delta-scaled normals on reference coefficients, or "trapezoid",
    coefficients recomputed by the trapezoid rule with the per-row step
    ``hs``), the per-row ``deltas`` and levels ``ns``, and ``mu``.  Every
    table is measured alike, so the rest are class constants, read as
    ``preset.s`` and so on: ``r`` = 2 (the (2, 2) derivative), ``s`` = ``p``
    = 2, ``coeff_G`` the floor on the base coefficients' Gauss order (see
    :func:`exact_coeffs`), ``metric_G`` and ``metric_m`` the G and m of
    :func:`error_report`, and ``default_seeds`` the gaussian seed count.
    """

    name: str
    function: BivariateFunction
    noise: str  # "gaussian" | "trapezoid"
    deltas: tuple[float, ...]
    ns: tuple[int, ...]
    hs: tuple[float, ...] | None
    mu: float = 5.5
    r: ClassVar[int] = 2
    s: ClassVar[float] = 2.0
    p: ClassVar[float] = 2.0
    coeff_G: ClassVar[int] = 96
    metric_G: ClassVar[int] = 96
    metric_m: ClassVar[int] = 201
    default_seeds: ClassVar[int] = 20

    def __post_init__(self) -> None:
        if self.noise not in ("gaussian", "trapezoid"):
            raise ValueError(f"unknown noise mechanism {self.noise!r}")
        if len(self.ns) != len(self.deltas):
            raise ValueError("ns must pair one truncation level with each delta")
        if self.noise == "trapezoid":
            if self.hs is None or len(self.hs) != len(self.deltas):
                raise ValueError("trapezoid presets need one grid step per delta")
        elif self.hs is not None:
            raise ValueError("hs applies to trapezoid presets only")


# The quoted step 1.16e-4 of the first table2 row does not tile [-1, 1] into
# whole intervals; 2/17241 is the nearest step that does and rounds to the
# same three significant digits.
_TABLE2_H1 = 2.0 / 17241.0

_PRESETS = {
    "table1": ExperimentPreset(
        name="table1",
        function=F1,
        noise="gaussian",
        deltas=(1e-6, 1e-7, 1e-8),
        ns=(19, 24, 31),
        hs=None,
        mu=5.5,
    ),
    "table2": ExperimentPreset(
        name="table2",
        function=F1,
        noise="trapezoid",
        deltas=(1e-6, 1e-7, 1e-8),
        ns=(19, 24, 31),
        hs=(_TABLE2_H1, 8e-5, 4e-5),
        mu=5.5,
    ),
    "table3": ExperimentPreset(
        name="table3",
        function=F2,
        noise="trapezoid",
        deltas=(1e-6, 1e-7, 1e-8),
        ns=(11, 18, 25),
        hs=(4e-4, 1e-4, 4e-5),
        mu=6.0,
    ),
}

PRESET_NAMES = tuple(sorted(_PRESETS))


def get_preset(name: str) -> ExperimentPreset:
    """Look up a registry preset by name."""
    try:
        return _PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown preset {name!r}; expected one of {', '.join(PRESET_NAMES)}"
        )


@dataclass(frozen=True)
class ExperimentRow:
    """One measured cell of an experiment table.

    ``seed`` is the integer seed for stochastic cells, None for deterministic
    ones, and the string "median" for per-delta aggregate rows.
    """

    delta: float
    n: int
    card: int
    l2_error: float
    sup_error: float
    seed: int | str | None = None


CSV_HEADER = "delta,n,card,l2_error,sup_error,seed"


def rows_to_csv(rows) -> str:
    """Render experiment rows with the fixed header, reproducibly."""
    lines = [CSV_HEADER]
    for row in rows:
        seed = "" if row.seed is None else str(row.seed)
        lines.append(
            f"{row.delta!r},{row.n},{row.card},{row.l2_error!r},{row.sup_error!r},{seed}"
        )
    return "\n".join(lines) + "\n"


def _measure(
    field: CoeffField,
    config: MethodConfig,
    seeds,
    noise: str | None,
    reference: BivariateFunction,
    *metric: int,
) -> list[ExperimentRow]:
    """One row per seed: restrict to the domain, perturb, run, and measure.

    A seed of None runs the restricted field without noise; any other seed
    draws ``noise`` (a :class:`NoiseSpec` kind) at the config's delta.  Each
    run is measured against ``reference`` with :func:`error_report`, given
    ``metric`` as its (G, m), or its defaults when ``metric`` is empty.
    """
    consumed = field.restrict(config.domain())
    cells = []
    for seed in seeds:
        noisy = consumed
        if seed is not None:
            noisy = perturb(
                consumed,
                NoiseSpec(kind=noise, delta=config.delta, p=config.p, seed=seed),
            )
        report = error_report(run(noisy, config), reference, *metric)
        cells.append(
            ExperimentRow(
                delta=config.delta,
                n=report.n_used,
                card=report.information_count,
                l2_error=report.l2_error,
                sup_error=report.sup_error,
                seed=seed,
            )
        )
    return cells


def _median_row(cells: list[ExperimentRow]) -> ExperimentRow:
    return ExperimentRow(
        delta=cells[0].delta,
        n=cells[0].n,
        card=cells[0].card,
        l2_error=float(np.median([c.l2_error for c in cells])),
        sup_error=float(np.median([c.sup_error for c in cells])),
        seed="median",
    )


def run_table(
    preset: ExperimentPreset,
    seeds: int | None = None,
    domain_shape: str = "cross",
) -> list[ExperimentRow]:
    """All rows of one experiment table, in preset order.

    Gaussian presets produce one row per (delta, seed), for ``seeds`` seeds
    (gaussian presets only), followed by a per-delta median row;
    deterministic presets produce one row per delta.
    The output is a pure function of (preset, seeds, domain_shape).
    """
    rows: list[ExperimentRow] = []
    if not preset.deltas:
        return rows
    # Validated, size limit included, before any coefficient is built.
    configs = [
        MethodConfig(
            r=preset.r, mu=preset.mu, delta=delta, s=preset.s, p=preset.p,
            n_override=n, domain_shape=domain_shape,
        )
        for delta, n in zip(preset.deltas, preset.ns)
    ]
    # error_report's reference, G and m for every run of the table.
    metric = preset.function.derivative_function(), preset.metric_G, preset.metric_m
    if preset.noise == "gaussian":
        count = preset.default_seeds if seeds is None else seeds
        if count < 1:
            raise ValueError("stochastic presets need at least one seed")
        degree = max(max(c.domain().max_degree()) for c in configs)
        base = exact_coeffs(preset.function, degree, degree, G=preset.coeff_G)
        for config in configs:
            cells = _measure(base, config, range(count), "gaussian", *metric)
            rows.extend(cells)
            rows.append(_median_row(cells))
    else:
        for config, h in zip(configs, preset.hs):
            field = trapezoid_coeffs(preset.function, h, *config.domain().max_degree())
            rows.extend(_measure(field, config, [None], None, *metric))
    return rows


def theoretical_exponent(mu: float, r: int, s: float, p: float) -> float:
    """Square-mean rate exponent (mu - 2r + 1/s - 1/2) / (mu - 1/p + 1/s)."""
    _check_mu(mu)
    inv_p = 0.0 if math.isinf(p) else 1.0 / p
    return (mu - 2.0 * r + 1.0 / s - 0.5) / (mu - inv_p + 1.0 / s)


@dataclass(frozen=True)
class SweepResult:
    """Per-run rows, per-delta medians, and the fitted log-log slope."""

    rows: tuple[ExperimentRow, ...]
    deltas: tuple[float, ...]
    median_l2: tuple[float, ...]
    fitted_slope: float
    theoretical_exponent: float


def convergence_sweep(
    function: BivariateFunction,
    mu: float,
    r: int,
    s: float,
    p: float,
    deltas,
    seeds: int = 10,
    noise_kind: str = "projected",
    rule_constant: float = 1.0,
    domain_shape: str = "cross",
) -> SweepResult:
    """Run the full pipeline over a noise-level grid and fit the error slope.

    For each delta the truncation level comes from the parameter-choice rule;
    the exact coefficients are perturbed per seed (``noise_kind`` "projected",
    "gaussian", or "none"), and the median square-mean error over seeds enters
    a least-squares log-log fit of error against delta.  Under "none" each
    delta runs once and ``seeds`` is unused.  Every run is measured with
    :func:`error_report`'s default G and m against the exact (2, 2)
    derivative, so ``r`` must be 2.
    """
    deltas = sorted((float(d) for d in deltas), reverse=True)
    if len(deltas) < 3:
        raise ValueError("a sweep needs at least 3 noise levels")
    if deltas[0] / deltas[-1] < 1e3 * (1.0 - 1e-12):
        raise ValueError("the noise-level grid must span at least 3 decades")
    if noise_kind not in ("projected", "gaussian", "none"):
        raise ValueError(f"unknown noise kind {noise_kind!r}")
    if function.d22 is None:
        raise ValueError("convergence sweeps need a function with known derivative")
    if r != 2:
        raise ValueError(
            f"sweeps measure against the (2, 2) derivative, so r must be 2, got {r}"
        )
    if seeds < 1:
        raise ValueError("need at least one seed")

    levels = [
        choose_n(d, mu, p=p, s=s, rule_constant=rule_constant, r=r) for d in deltas
    ]
    # Validated, size limit included, before any coefficient is built.
    configs = [
        MethodConfig(
            r=r, mu=mu, delta=delta, s=s, p=p,
            n_override=n, rule_constant=rule_constant, domain_shape=domain_shape,
        )
        for delta, n in zip(deltas, levels)
    ]
    degree = max(max(c.domain().max_degree()) for c in configs)
    base = exact_coeffs(function, degree, degree)
    reference = function.derivative_function()
    seed_list = [None] if noise_kind == "none" else range(seeds)

    rows: list[ExperimentRow] = []
    median_l2: list[float] = []
    for config in configs:
        cells = _measure(base, config, seed_list, noise_kind, reference)
        rows.extend(cells)
        if len(cells) > 1:
            rows.append(_median_row(cells))
        median_l2.append(float(np.median([c.l2_error for c in cells])))

    log_delta = np.log(np.asarray(deltas))
    log_err = np.log(np.asarray(median_l2))
    slope = float(np.polyfit(log_delta, log_err, 1)[0])
    return SweepResult(
        rows=tuple(rows),
        deltas=tuple(deltas),
        median_l2=tuple(median_l2),
        fitted_slope=slope,
        theoretical_exponent=theoretical_exponent(mu, r, s, p),
    )
