"""The benchmark's four workloads, driven through legdiff's public API and CLI.

Each workload builds its inputs in ``__init__`` (the set-up), runs one op per
``op(i)`` and checks an op's output against the references recorded by
``record.py``.  ``replay(i, tracer)`` runs the same op stage by stage through
the public stage functions, with one span per call, for the traced run.

Why these four:
  mc_table1         many small runs; per-call overhead in method and metrics
  large_n_cross     one large run; dense conversions inside run() dominate
  trapezoid_table2  projection-bound; method and noise do almost nothing
  cli_csv           cold processes: interpreter, import, CSV parse and output
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
from legdiff import (
    F1,
    ExperimentRow,
    IndexDomain,
    MethodConfig,
    NoiseSpec,
    exact_coeffs,
    get_preset,
    l2_error,
    load_csv,
    perturb,
    run,
    run_table,
    save_csv,
    sup_error,
    trapezoid_coeffs,
)

import reference
from spans import NULL, eval_grid_cost, projection_cost, step_cost

ROOT = Path(__file__).resolve().parent.parent

# large_n_cross: one pipeline pass on the cross at n = 300, r = 2.
LARGE_N = 300
LARGE_DELTA = 1e-10
LARGE_SEED_POOL = 32  # noise seeds with recorded errors
SUP_M = 201

# cli_csv: `legdiff differentiate` on the full 201 x 201 coefficient CSV.
CLI_DEGREE = 200
CLI_N = 200
CLI_MU = 5.5
CLI_DELTA = 1e-6
CLI_GRID = 41  # the command's default grid size
CLI_SEED_POOL = 8  # noise seeds with recorded grids


def seed_order(seed: int, pool: int) -> list[int]:
    """The order in which a run cycles through a pool of reference seeds."""
    return [int(s) for s in np.random.default_rng(seed).permutation(pool)]


def child_env() -> dict[str, str]:
    """Environment for child processes: this checkout's legdiff, same BLAS limits."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _panels(edges) -> int:
    return len(edges) - 1


def _count_projection(fn, degree: int, nodes_t: int, nodes_tau: int, tracer) -> None:
    # The bundled functions are separable, so projection is two 1-D passes.
    tracer.count("coeffs.quad_nodes", nodes_t + nodes_tau)
    for nodes in (nodes_t, nodes_tau):
        flops, bytes_ = projection_cost(degree, nodes)
        tracer.count("kernels.projection_flops", flops)
        tracer.count("kernels.bytes_moved", bytes_)


def traced_exact(fn, degree: int, G: int, tracer):
    with tracer.span("coeffs.exact_coeffs"):
        field = exact_coeffs(fn, degree, degree, G=G)
    edges_t, edges_tau = fn.axis_edges()
    _count_projection(fn, degree, G * _panels(edges_t), G * _panels(edges_tau), tracer)
    return field


def traced_trapezoid(fn, h: float, degree: int, tracer):
    with tracer.span("coeffs.trapezoid_coeffs"):
        field = trapezoid_coeffs(fn, h, degree, degree)
    nodes = round(2.0 / h) + 1
    _count_projection(fn, degree, nodes, nodes, tracer)
    return field


def traced_pipeline(field, config: MethodConfig, noise: NoiseSpec | None, tracer):
    """members -> restrict -> perturb -> run, as run_table's cells do it."""
    domain = config.domain()
    with tracer.span("index.members"):
        pairs = domain.members()
    tracer.count("index.pairs", len(pairs))
    with tracer.span("coeffs.restrict"):
        consumed = field.restrict(pairs)
    if noise is not None:
        with tracer.span("noise.perturb"):
            consumed = perturb(consumed, noise)
        tracer.count("noise.draws", len(consumed))
    with tracer.span("method.run"):
        approx = run(consumed, config)
    rows, cols = (d + 1 for d in domain.max_degree())
    tracer.count("method.runs", 1)
    tracer.count("method.card", approx.information_count)
    tracer.count("method.dense_entries", rows * cols)
    for shape in ((rows, cols), (cols, rows - config.r)):
        flops, bytes_ = step_cost(*shape, config.r)
        tracer.count("derivative.step_flops", flops)
        tracer.count("kernels.bytes_moved", bytes_)
    return approx


def _count_eval(config: MethodConfig, m_t: int, m_tau: int, tracer) -> None:
    rows, cols = (d + 1 - config.r for d in config.domain().max_degree())
    flops, bytes_ = eval_grid_cost(rows, cols, m_t, m_tau)
    tracer.count("kernels.eval_flops", flops)
    tracer.count("kernels.bytes_moved", bytes_)


def traced_errors(approx, config: MethodConfig, reference_fn, G: int, m: int, tracer):
    with tracer.span("metrics.l2_error"):
        l2 = l2_error(approx, reference_fn, G)
    with tracer.span("metrics.sup_error"):
        sup = sup_error(approx, reference_fn, m)
    edges_t, edges_tau = reference_fn.axis_edges()
    nodes_t, nodes_tau = G * _panels(edges_t), G * _panels(edges_tau)
    tracer.count("metrics.eval_points", nodes_t * nodes_tau + m * m)
    _count_eval(config, nodes_t, nodes_tau, tracer)
    _count_eval(config, m, m, tracer)
    return l2, sup


def replay_table(preset, tracer) -> list[ExperimentRow]:
    """run_table(preset) replayed stage by stage, in run_table's order."""
    fn = preset.function
    reference_fn = fn.derivative_function()
    rows: list[ExperimentRow] = []

    def cell(field, delta, n, seed):
        config = MethodConfig(
            r=preset.r, mu=preset.mu, delta=delta, s=preset.s, p=preset.p, n_override=n
        )
        noise = None if seed is None else NoiseSpec(kind="gaussian", delta=delta, seed=seed)
        approx = traced_pipeline(field, config, noise, tracer)
        l2, sup = traced_errors(
            approx, config, reference_fn, preset.metric_G, preset.metric_m, tracer
        )
        return ExperimentRow(
            delta=delta, n=n, card=approx.information_count,
            l2_error=l2, sup_error=sup, seed=seed,
        )

    if preset.noise == "gaussian":
        base = traced_exact(fn, max(preset.ns) - 1, preset.coeff_G, tracer)
        for delta, n in zip(preset.deltas, preset.ns):
            cells = [cell(base, delta, n, seed) for seed in range(preset.default_seeds)]
            rows.extend(cells)
            rows.append(ExperimentRow(
                delta=delta, n=n, card=cells[0].card,
                l2_error=float(np.median([c.l2_error for c in cells])),
                sup_error=float(np.median([c.sup_error for c in cells])),
                seed="median",
            ))
    else:
        for delta, n, h in zip(preset.deltas, preset.ns, preset.hs):
            field = traced_trapezoid(fn, h, n - 1, tracer)
            rows.append(cell(field, delta, n, None))
    return rows


class Workload:
    """Defaults shared by the workloads; see the module docstring."""

    untraced_span = "untraced"
    child_rss_kib: tuple = ()  # peak RSS of each op's child process, if it has one

    def warm(self) -> None:
        """One untimed op, so lazy set-up (caches, page cache) is done."""
        self.check(self.op(0))

    def untraced(self, i: int):
        return self.replay(i, NULL)

    def check_replay(self, result):
        return self.check(result)

    def extras(self, i: int, tracer) -> str | None:
        """Traced-run work outside the replayed op; returns a failure or None."""
        return None


class TableWorkload(Workload):
    """One op = run_table(get_preset(preset)) with the preset's own seeds."""

    untraced_span = "experiments.run_table"

    def __init__(self, preset: str):
        self.preset = get_preset(preset)
        self.ref_text = reference.load_text(f"{preset}.csv")

    def op(self, i: int):
        return run_table(self.preset)

    untraced = op

    def check(self, rows):
        consumed = sum(row.card for row in rows if row.seed != "median")
        return reference.check_table(rows, self.ref_text), consumed

    def replay(self, i: int, tracer):
        return replay_table(self.preset, tracer)


class LargeNCross(Workload):
    """members -> restrict -> perturb -> run -> l2_error -> sup_error at n = 300."""

    def __init__(self, seed: int, tracer=NULL):
        self.base = traced_exact(F1, LARGE_N - 1, 2 * (LARGE_N - 1) + 16, tracer)
        self.config = MethodConfig(r=2, mu=5.5, delta=LARGE_DELTA, n_override=LARGE_N)
        self.reference_fn = F1.derivative_function()
        self.metric_G = 2 * (LARGE_N - 1 - self.config.r) + 8
        self.seeds = seed_order(seed, LARGE_SEED_POOL)
        self.refs = reference.load_json("large_n_cross.json")["seeds"]

    def replay(self, i: int, tracer):
        seed = self.seeds[i % len(self.seeds)]
        return large_op(self.base, self.config, self.reference_fn, self.metric_G, seed, tracer)

    op = Workload.untraced

    def check(self, result):
        seed, card, l2, sup = result
        return reference.check_errors(card, l2, sup, self.refs[str(seed)]), card


def large_op(base, config, reference_fn, metric_G: int, seed: int, tracer=NULL):
    noise = NoiseSpec(kind="gaussian", delta=config.delta, seed=seed)
    approx = traced_pipeline(base, config, noise, tracer)
    l2, sup = traced_errors(approx, config, reference_fn, metric_G, SUP_M, tracer)
    return seed, approx.information_count, l2, sup


def write_cli_csv(path: Path, tracer=NULL) -> None:
    """The full (CLI_DEGREE+1)^2 F1 coefficient file the CLI workload reads."""
    field = traced_exact(F1, CLI_DEGREE, 2 * CLI_DEGREE + 16, tracer)
    path.parent.mkdir(parents=True, exist_ok=True)
    save_csv(field, path)


def cli_command(csv_path: Path, seed: int) -> list[str]:
    return [
        sys.executable, "-m", "legdiff", "differentiate",
        "--coeffs", str(csv_path), "--n", str(CLI_N), "--mu", str(CLI_MU),
        "--delta", str(CLI_DELTA), "--noise", "gaussian", "--seed", str(seed),
    ]


def run_child(argv: list[str], timeout: float = 120.0) -> tuple[int, bytes, bytes, int]:
    """Run a child to completion: (exit code, stdout, stderr, its peak RSS in KiB).

    The child is reaped with wait4 so its own peak RSS is known; a watchdog
    kills it after ``timeout`` seconds.
    """
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    reaped = None
    try:
        out = proc.stdout.read()
        err = proc.stderr.read()
        reaped = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
        proc.stdout.close()
        proc.stderr.close()
        if reaped is None:
            proc.kill()
            proc.wait()
    _, status, usage = reaped
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, err, usage.ru_maxrss


class CliCsv(Workload):
    """One op = a fresh `python -m legdiff differentiate --coeffs <csv> ...` process."""

    def __init__(self, seed: int, out_dir: Path, tracer=NULL):
        self.csv = out_dir / f"coeffs_{CLI_DEGREE + 1}x{CLI_DEGREE + 1}.csv"
        write_cli_csv(self.csv, tracer)
        self.seeds = seed_order(seed, CLI_SEED_POOL)
        self.card = IndexDomain.cross(2, CLI_N).cardinality()
        self.config = MethodConfig(r=2, mu=CLI_MU, delta=CLI_DELTA, n_override=CLI_N)
        self.sha = reference.load_json("cli_csv.json")["sha256"]
        self.grids = reference.load_grids()
        self.child_rss_kib = []

    def op(self, i: int):
        seed = self.seeds[i % len(self.seeds)]
        code, out, _, rss = run_child(cli_command(self.csv, seed))
        self.child_rss_kib.append(rss)
        return seed, code, out

    def check(self, result):
        seed, code, out = result
        if code != 0:
            return None, 0
        return reference.check_cli_output(out, self.sha[str(seed)], self.grids[seed]), self.card

    def replay(self, i: int, tracer):
        """The command's pipeline in-process: load_csv -> ... -> eval_grid."""
        seed = self.seeds[i % len(self.seeds)]
        return seed, cli_values(self.csv, self.config, seed, tracer)

    def check_replay(self, result):
        seed, values = result
        return reference.check_grid(values, self.grids[seed]), self.card

    def extras(self, i: int, tracer) -> str | None:
        with tracer.span("cli.import"):
            code, _, err, _ = run_child([sys.executable, "-c", "import legdiff.cli"])
        if code != 0:
            return f"import legdiff.cli exited {code}: {err.decode(errors='replace')}"
        with tracer.span("cli.process"):
            result = self.op(i)
        if self.check(result)[0] is None:
            return f"cli process for seed {result[0]} failed its reference check"
        return None


def cli_values(csv_path: Path, config: MethodConfig, seed: int, tracer=NULL) -> np.ndarray:
    with tracer.span("coeffs.load_csv"):
        base = load_csv(csv_path)
    tracer.count("coeffs.csv_rows", len(base))
    noise = NoiseSpec(kind="gaussian", delta=config.delta, seed=seed)
    approx = traced_pipeline(base, config, noise, tracer)
    grid = np.linspace(-1.0, 1.0, CLI_GRID)
    with tracer.span("method.eval_grid"):
        values = approx.series.eval_grid(grid, grid)
    _count_eval(config, CLI_GRID, CLI_GRID, tracer)
    return values


WORKLOADS = ("mc_table1", "large_n_cross", "trapezoid_table2", "cli_csv")


def make(name: str, seed: int, out_dir: Path, tracer=NULL) -> Workload:
    if name == "mc_table1":
        return TableWorkload("table1")
    if name == "trapezoid_table2":
        return TableWorkload("table2")
    if name == "large_n_cross":
        return LargeNCross(seed, tracer)
    if name == "cli_csv":
        return CliCsv(seed, out_dir, tracer)
    raise ValueError(f"unknown workload {name!r}")
