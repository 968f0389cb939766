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

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .coeffs import BivariateFunction, CoeffField, exact_coeffs, trapezoid_coeffs
from .index import _check_integer, _check_order
from .method import ConfigError, MethodConfig, _derive, _rate_denominator
from .metrics import DEFAULT_G, DEFAULT_M, error_report
from .noise import NoiseSpec

__all__ = [
    "F1",
    "F2",
    "f1",
    "f1_d22",
    "f2",
    "f2_d22",
    "builtin_function",
    "BUILTIN_NAMES",
    "MEASURED_ORDER",
    "MIN_SWEEP_LEVELS",
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
    """Piecewise degree-8 factor of F1; branches join at 0 up to order 6.

    The closed form common + (neg where t < 0 else pos), with

        common = -(t**2) / 8 + t**4 / 12 - t**5 / 20,
        neg = t**7 / 42 - 3 t**8 / 224,    pos = t**7 / 45 - t**8 / 80,

    each operation as written, in four arrays of t's shape.  Fresh
    temporaries for every operation would free 400 KB blocks at table2's
    50,001 nodes, letting the heap shrink, so that the next Legendre block
    buffer faults in again.
    """
    t = np.asarray(t, dtype=np.float64)
    pos, t8, neg, work = (np.empty_like(t) for _ in range(4))  # arrays also for 0-d t
    np.power(t, 7, out=pos)
    np.power(t, 8, out=t8)
    np.divide(pos, 42.0, out=neg)
    np.multiply(t8, 3.0, out=work)
    work /= 224.0
    neg -= work
    pos /= 45.0
    t8 /= 80.0
    pos -= t8
    np.copyto(pos, neg, where=t < 0.0)
    common = np.square(t, out=neg)
    np.negative(common, out=common)
    common /= 8.0
    np.power(t, 4, out=work)
    work /= 12.0
    common += work
    np.power(t, 5, out=work)
    work /= 20.0
    common -= work
    pos += common
    return pos[()]


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


def _f2_tau_factor(tau: np.ndarray) -> np.ndarray:
    return np.cos(4.0 * np.asarray(tau, dtype=np.float64))


def _f2_tau_factor_d2(tau: np.ndarray) -> np.ndarray:
    return -16.0 * np.cos(4.0 * np.asarray(tau, dtype=np.float64))


def f1(t, tau) -> np.ndarray:
    """F1(t, tau) = f(t) f(tau) / 754 with the piecewise degree-8 factor f."""
    return _f1_factor(t) * _f1_factor(tau) / _F1_SCALE


def f1_d22(t, tau) -> np.ndarray:
    """Exact mixed derivative of order (2, 2) of F1."""
    return _f1_factor_d2(t) * _f1_factor_d2(tau) / _F1_SCALE


def f2(t, tau) -> np.ndarray:
    """F2(t, tau) = (2 - (2t-1)^2)^2 cos(4 tau) / 43940129."""
    return _f2_factor(t) * _f2_tau_factor(tau) / _F2_SCALE


def f2_d22(t, tau) -> np.ndarray:
    """Exact mixed derivative of order (2, 2) of F2."""
    return _f2_factor_d2(t) * _f2_tau_factor_d2(tau) / _F2_SCALE


F1 = BivariateFunction(
    value=f1,
    d22=f1_d22,
    t_breakpoints=(0.0,),
    tau_breakpoints=(0.0,),
    factors=(_f1_factor, _f1_factor, 1.0 / _F1_SCALE),
    name="f1",
    d22_factors=(_f1_factor_d2, _f1_factor_d2, 1.0 / _F1_SCALE),
)

F2 = BivariateFunction(
    value=f2,
    d22=f2_d22,
    factors=(_f2_factor, _f2_tau_factor, 1.0 / _F2_SCALE),
    name="f2",
    d22_factors=(_f2_factor_d2, _f2_tau_factor_d2, 1.0 / _F2_SCALE),
)


_BUILTINS = {function.name: function for function in (F1, F2)}
BUILTIN_NAMES = tuple(_BUILTINS)

#: Per-axis order every table, sweep and CLI report measures: that of ``d22``.
MEASURED_ORDER = 2

#: Fewest noise levels :func:`convergence_sweep` fits a slope to.
MIN_SWEEP_LEVELS = 3


def _check_span(deltas) -> None:
    """Refuse noise levels, each in (0, 1), whose largest is under 10^3 times
    their smallest: a sweep fits its slope over at least three decades."""
    if max(deltas) / min(deltas) < 1e3 * (1.0 - 1e-12):
        raise ValueError("the noise-level grid must span at least 3 decades")


def _check_seed_count(seeds: int) -> None:
    """Refuse a seed count that is no integer >= 1."""
    _check_integer("seeds", seeds)
    if seeds < 1:
        raise ValueError(f"seeds={seeds} must be >= 1")


def builtin_function(name: str) -> BivariateFunction:
    """Look up a bundled function by its name, one of ``BUILTIN_NAMES``."""
    try:
        return _BUILTINS[name]
    except KeyError:
        raise ValueError(f"unknown builtin function {name!r}; expected one of {BUILTIN_NAMES}")


@dataclass(frozen=True)
class ExperimentPreset:
    """A fully pinned experiment: function, noise mechanism, and per-row settings.

    A preset sets only its data: ``function``, the per-row ``deltas``,
    levels ``ns`` and trapezoid steps ``hs``, and ``mu``.  Its noise
    mechanism, :attr:`noise`, follows from ``hs``: "gaussian" (raw
    delta-scaled normals on reference coefficients) without steps, else
    "trapezoid" (coefficients recomputed by the trapezoid rule with the
    row's step).  Every table is measured alike, so the rest are class
    constants, read as ``preset.s`` and so on: ``coeff_G`` floors the base
    coefficients' Gauss order (see :func:`exact_coeffs`), ``default_seeds``
    counts gaussian seeds, and ``metric_G``/``metric_m`` only name
    ``DEFAULT_G`` and ``DEFAULT_M``, which :func:`error_report` measures
    every run with.  The key :func:`get_preset` looks a preset up by is its
    only name.
    """

    function: BivariateFunction
    deltas: tuple[float, ...]
    ns: tuple[int, ...]
    hs: tuple[float, ...] | None
    mu: float = 5.5
    r: ClassVar[int] = MEASURED_ORDER
    s: ClassVar[float] = 2.0
    p: ClassVar[float] = 2.0
    coeff_G: ClassVar[int] = 96
    metric_G: ClassVar[int] = DEFAULT_G
    metric_m: ClassVar[int] = DEFAULT_M
    default_seeds: ClassVar[int] = 20

    def __post_init__(self) -> None:
        if len(self.ns) != len(self.deltas):
            raise ValueError("ns must pair one truncation level with each delta")
        if self.hs is not None and len(self.hs) != len(self.deltas):
            raise ValueError("trapezoid presets need one grid step per delta")

    @property
    def noise(self) -> str:
        """The noise mechanism: "gaussian" exactly when ``hs`` is None, else "trapezoid"."""
        return "gaussian" if self.hs is None else "trapezoid"


# The quoted step 1.16e-4 of the first table2 row does not tile [-1, 1] into
# whole intervals; 2/17241 is the nearest step that does and rounds to the
# same three significant digits.
_TABLE2_H1 = 2.0 / 17241.0

_PRESETS = {
    "table1": ExperimentPreset(
        function=F1,
        deltas=(1e-6, 1e-7, 1e-8),
        ns=(19, 24, 31),
        hs=None,
        mu=5.5,
    ),
    "table2": ExperimentPreset(
        function=F1,
        deltas=(1e-6, 1e-7, 1e-8),
        ns=(19, 24, 31),
        hs=(_TABLE2_H1, 8e-5, 4e-5),
        mu=5.5,
    ),
    "table3": ExperimentPreset(
        function=F2,
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
    field: CoeffField, config: MethodConfig, noise: NoiseSpec, runs: int,
    reference: BivariateFunction,
) -> list[ExperimentRow]:
    """One row per run of :func:`~legdiff.method._derive` (restrict, perturb
    with ``noise``, derive; ``runs`` runs, one under kind "none"), each
    measured on its own against ``reference`` with :func:`error_report`.
    Row i carries seed ``noise.seed + i``, or None under kind "none"."""
    domain = config.domain()
    card = domain.cardinality()
    cells = []
    for i, approx in enumerate(_derive(field, config, noise, runs)):
        report = error_report(approx, reference)
        cells.append(
            ExperimentRow(
                delta=config.delta,
                n=domain.n,
                card=card,
                l2_error=report.l2_error,
                sup_error=report.sup_error,
                seed=None if noise.kind == "none" else noise.seed + i,
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
    (an integer >= 1, read by gaussian presets only), then a per-delta median
    row; deterministic presets produce one row per delta, each measured with
    :func:`error_report`.  The output is a pure function of
    (preset, seeds, domain_shape).
    """
    count = preset.default_seeds if seeds is None else seeds
    _check_seed_count(count)
    rows: list[ExperimentRow] = []
    if not preset.deltas:
        return rows
    # Validated, size limit included, before any coefficient is built.
    kind = "gaussian" if preset.noise == "gaussian" else "none"
    configs = [
        MethodConfig(
            r=preset.r, mu=preset.mu, delta=delta, s=preset.s, p=preset.p,
            n_override=n, domain_shape=domain_shape,
        )
        for delta, n in zip(preset.deltas, preset.ns)
    ]
    specs = [NoiseSpec(kind, delta, preset.p) for delta in preset.deltas]
    reference = preset.function.derivative_function()
    if preset.noise == "gaussian":
        degree = max(max(c.domain().max_degree()) for c in configs)
        base = exact_coeffs(preset.function, degree, degree, G=preset.coeff_G)
        for config, spec in zip(configs, specs):
            cells = _measure(base, config, spec, count, reference)
            rows.extend(cells)
            rows.append(_median_row(cells))
    else:
        for config, spec, h in zip(configs, specs, preset.hs):
            field = trapezoid_coeffs(preset.function, h, *config.domain().max_degree())
            rows.extend(_measure(field, config, spec, count, reference))
    return rows


def theoretical_exponent(mu: float, r: int, s: float, p: float) -> float:
    """Square-mean rate exponent (mu - 2r + 1/s - 1/2) / (mu - 1/p + 1/s), each
    parameter checked as :func:`~legdiff.method.choose_n` checks it."""
    _check_order(r, ConfigError)
    denominator = _rate_denominator(mu, p, s)
    return (mu - 2.0 * r + 1.0 / s - 0.5) / denominator


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
    the exact coefficients are perturbed per seed (``noise_kind`` one of
    :attr:`NoiseSpec.KINDS`), and the median square-mean error over seeds
    enters a least-squares log-log fit of error against delta.  Under "none"
    each delta runs once and ``seeds`` is unused.  The method recovers the
    derivative of order :data:`MEASURED_ORDER`, and every run is measured
    against its exact values with :func:`error_report`.
    """
    deltas = sorted((float(d) for d in deltas), reverse=True)
    if len(deltas) < MIN_SWEEP_LEVELS:
        raise ValueError(f"a sweep needs at least {MIN_SWEEP_LEVELS} noise levels")
    reference = function.derivative_function()  # refuses a function without one
    _check_seed_count(seeds)

    # Validated, size limit and noise kind included, before any coefficient is built.
    configs = [
        MethodConfig(
            r=MEASURED_ORDER, mu=mu, delta=delta, s=s, p=p,
            rule_constant=rule_constant, domain_shape=domain_shape,
        )
        for delta in deltas
    ]
    specs = [NoiseSpec(noise_kind, delta, p) for delta in deltas]
    _check_span(deltas)  # each delta lies in (0, 1), as its config checked
    degree = max(max(c.domain().max_degree()) for c in configs)
    base = exact_coeffs(function, degree, degree)

    rows: list[ExperimentRow] = []
    median_l2: list[float] = []
    for config, spec in zip(configs, specs):
        cells = _measure(base, config, spec, seeds, reference)
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
        theoretical_exponent=theoretical_exponent(mu, MEASURED_ORDER, s, p),
    )
