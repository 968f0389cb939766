"""Command-line front end: differentiate, experiment, convergence, basis.

Exit codes: 0 success, 1 runtime or data error, 2 usage error (bad flags,
unknown preset, or a parameter set violating the method's hypotheses).  All
output is deterministic: repeated runs with identical flags and seeds produce
byte-identical CSVs on one numpy/BLAS build with a fixed BLAS thread count
(BLAS splits some sums by thread, so other thread counts may move last bits).
Flag choices and measurement defaults come from the modules that own them.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Callable, Iterable, Iterator

import numpy as np

from .basis import eval_phi_table
from .coeffs import _WRITE_BLOCK, CoeffField, _check_entries, exact_coeffs, load_csv
from .derivative import phi_derivative_coeffs
from .experiments import (
    BUILTIN_NAMES,
    MEASURED_ORDER,
    PRESET_NAMES,
    _check_level_count,
    _check_seed_count,
    _check_span,
    builtin_function,
    convergence_sweep,
    get_preset,
    rows_to_csv,
    run_table,
)
from .index import IndexDomain
from .method import ConfigError, MethodConfig, _derive
from .metrics import error_report
from .noise import NoiseSpec, _check_seed

__all__ = ["main"]


def _int_flag(name: str, check: Callable[[int], None]) -> Callable[[str], int]:
    """The argparse type of an integer flag that ``check`` accepts; a value it
    refuses with ValueError is refused in its words.  ``name`` is what
    argparse calls the type of text that is no integer."""

    def parse(text: str) -> int:
        value = int(text)
        try:
            check(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))
        return value

    parse.__name__ = name
    return parse


def _at_least(low: int, message: str) -> Callable[[int], None]:
    """A check refusing integers under ``low`` with ``message``."""

    def check(value: int) -> None:
        if value < low:
            raise ValueError(message)

    return check


_positive_int = _int_flag("_positive_int", _at_least(1, "must be a positive integer"))
_nonnegative_int = _int_flag("_nonnegative_int", _at_least(0, "must be a nonnegative integer"))
_seed = _int_flag("_seed", _check_seed)
_seed_count = _int_flag("_seed_count", _check_seed_count)


def _delta_range(text: str) -> tuple[float, ...]:
    """Parse 'start:end:count' into a geometric grid of noise levels."""
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected start:end:count")
    try:
        start, end = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError:
        raise argparse.ArgumentTypeError("expected start:end:count with numeric parts")
    if not (0.0 < start < 1.0 and 0.0 < end < 1.0):  # also refuses nan and inf
        raise argparse.ArgumentTypeError("noise levels must be finite and lie in (0, 1)")
    try:
        _check_level_count(count)  # before the grid is allocated
        deltas = tuple(float(d) for d in np.geomspace(start, end, count))
        _check_span(deltas)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    return deltas


class UsageError(Exception):
    """A flag combination the command refuses before reading any data (exit 2)."""


def _write_text(path: str | None, blocks: Iterable[str]) -> None:
    """Write the text ``blocks`` in turn to stdout, or to the file ``path``."""
    if path is None:
        sys.stdout.writelines(blocks)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.writelines(blocks)


def _table_blocks(
    header: str, size: int, height: int, lines: Callable[[slice], Iterable[str]]
) -> Iterator[str]:
    """A table's text one bounded block at a time: ``header``, then
    ``lines(rows)`` joined for each slice of ``height`` of the ``size`` rows."""
    yield header
    for start in range(0, size, height):
        yield "".join(lines(slice(start, start + height)))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="legdiff",
        description=(
            "Stable recovery of high-order mixed derivatives from noisy "
            "Fourier-Legendre coefficients by truncated series differentiation."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_diff = sub.add_parser(
        "differentiate",
        help="recover the mixed derivative of order (r, r) and evaluate it on a grid",
    )
    source = p_diff.add_mutually_exclusive_group(required=True)
    source.add_argument("--coeffs", help="coefficient CSV (k,j,value) to consume")
    source.add_argument("--builtin", choices=BUILTIN_NAMES, help="use a bundled test function")
    p_diff.add_argument("--r", type=_positive_int, default=MEASURED_ORDER, help="derivative order per axis")
    p_diff.add_argument("--mu", type=float, required=True, help="smoothness exponent of the data class")
    p_diff.add_argument(
        "--s", type=float, default=2.0,
        help="coefficient-norm exponent; also checked in mu > 2r - 1/s + 1/2 under --n",
    )
    p_diff.add_argument(
        "--p", type=float, default=2.0,
        help="noise-norm exponent (inf allowed); its range is checked under --n too",
    )
    p_diff.add_argument(
        "--delta", type=float, default=None,
        help="noise level (default 0); with --n, noisy runs only",
    )
    p_diff.add_argument("--n", type=_positive_int, default=None, help="truncation level override")
    p_diff.add_argument(
        "--constant", type=float, default=None,
        help="parameter-rule constant (default 1), not with --n",
    )
    p_diff.add_argument("--domain", choices=IndexDomain.SHAPES, default="cross", help="index-set shape")
    p_diff.add_argument(
        "--noise", choices=NoiseSpec.KINDS, default="none",
        help="perturb the consumed coefficients before running",
    )
    p_diff.add_argument(
        "--seed", type=_seed, default=None,
        help="noise seed, noisy runs only (default: 0)",
    )
    p_diff.add_argument("--grid", type=_positive_int, default=41, help="evaluation grid size per axis")
    p_diff.add_argument("--out", help="write the grid CSV here instead of stdout")
    p_diff.set_defaults(func=cmd_differentiate)

    p_exp = sub.add_parser(
        "experiment",
        help="rerun a pinned experiment preset and emit its result table",
    )
    p_exp.add_argument("--preset", choices=PRESET_NAMES, required=True)
    p_exp.add_argument(
        "--seeds", type=_seed_count, default=None,
        help="seed count, gaussian presets only (default: preset's own)",
    )
    p_exp.add_argument("--out", help="write the table CSV here instead of stdout")
    p_exp.set_defaults(func=cmd_experiment)

    p_conv = sub.add_parser(
        "convergence",
        help="sweep noise levels and fit the empirical error-vs-noise slope",
    )
    p_conv.add_argument("--builtin", choices=BUILTIN_NAMES, required=True)
    p_conv.add_argument("--mu", type=float, required=True)
    p_conv.add_argument("--s", type=float, default=2.0)
    p_conv.add_argument("--p", type=float, default=2.0)
    p_conv.add_argument(
        "--deltas", type=_delta_range, required=True,
        help="geometric noise grid as start:end:count, e.g. 1e-5:1e-9:5",
    )
    p_conv.add_argument(
        "--seeds", type=_seed_count, help="seed count, noisy sweeps only (default: the sweep's own)"
    )
    p_conv.add_argument("--noise", choices=NoiseSpec.KINDS, default="projected")
    p_conv.add_argument("--constant", type=float, default=1.0)
    p_conv.add_argument("--domain", choices=IndexDomain.SHAPES, default="cross")
    p_conv.add_argument("--out", help="write per-run rows here instead of stdout")
    p_conv.set_defaults(func=cmd_convergence)

    p_basis = sub.add_parser(
        "basis",
        help="sample one basis function's derivative on a grid (debug aid)",
    )
    p_basis.add_argument("--k", type=_nonnegative_int, required=True, help="basis degree")
    p_basis.add_argument("--r", type=_nonnegative_int, default=0, help="derivative order")
    p_basis.add_argument("--grid", type=_positive_int, default=101, help="grid size")
    p_basis.add_argument("--out", help="write the sample CSV here instead of stdout")
    p_basis.set_defaults(func=cmd_basis)
    return parser


def _finite(compute) -> np.ndarray:
    """The values ``compute()`` returns; ValueError if one overflows float64."""
    with np.errstate(over="ignore", invalid="ignore"):
        values = compute()
    if not np.isfinite(values).all():
        raise ValueError("the derivative's values overflow float64 on the grid")
    return values


def _write_grid(series: CoeffField, size: int, path: str | None) -> None:
    """Write the series' values on the size x size grid over [-1, 1]^2 as a table."""
    grid = np.linspace(-1.0, 1.0, size)
    values = _finite(lambda: series.eval_grid(grid, grid))
    nodes = [repr(t) for t in grid.tolist()]  # each node formatted once

    def lines(rows: slice) -> Iterator[str]:
        return (
            f"{t},{tau},{v!r}\n"
            for t, row in zip(nodes[rows], values[rows].tolist())
            for tau, v in zip(nodes, row)
        )

    height = max(1, _WRITE_BLOCK // size)  # grid rows per block
    _write_text(path, _table_blocks("t,tau,value\n", size, height, lines))


def cmd_differentiate(args: argparse.Namespace) -> int:
    delta = 0.0 if args.delta is None else args.delta
    config = MethodConfig(
        r=args.r,
        mu=args.mu,
        delta=delta,
        s=args.s,
        p=args.p,
        n_override=args.n,
        rule_constant=1.0 if args.constant is None else args.constant,
        domain_shape=args.domain,
    )
    if args.noise != "none" and not 0.0 < delta < 1.0:
        raise UsageError("--noise requires 0 < --delta < 1")
    if args.seed is not None and args.noise == "none":
        raise UsageError("--seed applies to noisy runs only, not --noise none")
    # With --n the parameter rule is bypassed: only a noise draw reads delta.
    if args.n is not None and args.constant is not None:
        raise UsageError("--constant feeds the parameter rule, which --n bypasses")
    if args.n is not None and args.delta is not None and args.noise == "none":
        raise UsageError("--delta with --n applies to noisy runs only, not --noise none")
    _check_entries(f"--grid {args.grid}", args.grid, args.grid, "evaluation table", UsageError)
    print(f"n={config.resolve_n()}", file=sys.stderr)
    if args.builtin is not None:
        function = builtin_function(args.builtin)
        base = exact_coeffs(function, *config.domain().max_degree())
    else:
        function = None
        base = load_csv(args.coeffs)
    approx = next(_derive(base, config, args.noise, args.seed or 0))
    del base  # only the derived series is read from here on
    _write_grid(approx.series, args.grid, args.out)  # the grid is released on return
    if function is not None and args.r == MEASURED_ORDER:  # every builtin has its d22
        report = error_report(approx, function.derivative_function())
        print(f"card={approx.information_count}", file=sys.stderr)
        print(f"l2_error={report.l2_error!r}", file=sys.stderr)
        print(f"sup_error={report.sup_error!r}", file=sys.stderr)
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    preset = get_preset(args.preset)
    if args.seeds is not None and preset.noise != "gaussian":
        raise UsageError(f"--seeds applies to gaussian presets only, not {args.preset}")
    rows = run_table(preset, seeds=args.seeds)
    _write_text(args.out, [rows_to_csv(rows)])
    return 0


def cmd_convergence(args: argparse.Namespace) -> int:
    if args.seeds is not None and args.noise == "none":
        raise UsageError("--seeds applies to noisy sweeps only, not --noise none")
    seeds = {} if args.seeds is None else {"seeds": args.seeds}  # none: the sweep's default
    result = convergence_sweep(
        builtin_function(args.builtin),
        mu=args.mu,
        s=args.s,
        p=args.p,
        deltas=args.deltas,
        noise_kind=args.noise,
        rule_constant=args.constant,
        domain_shape=args.domain,
        **seeds,
    )
    _write_text(args.out, [rows_to_csv(result.rows)])
    print(
        f"fitted_slope={result.fitted_slope!r} "
        f"theoretical_exponent={result.theoretical_exponent!r}"
    )
    return 0


def cmd_basis(args: argparse.Namespace) -> int:
    _check_entries(f"--grid {args.grid}", args.k + 1, args.grid, "evaluation table", UsageError)
    coeffs = phi_derivative_coeffs(args.k, args.r)
    grid = np.linspace(-1.0, 1.0, args.grid)
    if coeffs.size == 0:
        values = np.zeros(args.grid, dtype=np.float64)
    else:
        values = _finite(lambda: coeffs @ eval_phi_table(coeffs.size - 1, grid))

    def lines(rows: slice) -> Iterator[str]:
        return (f"{t!r},{v!r}\n" for t, v in zip(grid[rows].tolist(), values[rows].tolist()))

    _write_text(args.out, _table_blocks("t,value\n", args.grid, _WRITE_BLOCK, lines))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except (ConfigError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
