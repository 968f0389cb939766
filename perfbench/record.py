"""Record the reference outputs that the benchmark checks every op against.

    python3 perfbench/record.py --commit <commit id of the program recorded>

Writes perfbench/refs/: table1.csv and table2.csv (``legdiff experiment``
tables), large_n_cross.json (errors for every seed in the pool),
cli_csv.json and cli_csv_grids.npz (the CLI's output for every seed in the
pool) and PROVENANCE.json.  Re-record only in a change that means to alter
the program's outputs, and say so in that change.
"""

from __future__ import annotations

import argparse
import datetime
import json
import platform
import sys

from run import OUT, import_program, limit_blas_threads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--commit", required=True, help="commit id of the recorded program")
    args = parser.parse_args(argv)
    limit_blas_threads()
    import_program()

    import numpy as np
    from legdiff import F1, get_preset, run_table
    from legdiff.experiments import rows_to_csv

    import workloads as wl
    from reference import REF_DIR, sha256

    REF_DIR.mkdir(exist_ok=True)
    for preset in ("table1", "table2"):
        text = rows_to_csv(run_table(get_preset(preset)))
        (REF_DIR / f"{preset}.csv").write_text(text, encoding="utf-8")

    base = wl.traced_exact(F1, wl.LARGE_N - 1, 2 * (wl.LARGE_N - 1) + 16, wl.NULL)
    config = wl.MethodConfig(r=2, mu=5.5, delta=wl.LARGE_DELTA, n_override=wl.LARGE_N)
    metric_G = 2 * (wl.LARGE_N - 1 - config.r) + 8
    seeds = {}
    for seed in range(wl.LARGE_SEED_POOL):
        _, card, l2, sup = wl.large_op(base, config, F1.derivative_function(), metric_G, seed)
        seeds[str(seed)] = {"card": card, "l2_error": l2, "sup_error": sup}
    _write_json(REF_DIR / "large_n_cross.json", {
        "op": "members -> restrict -> perturb(gaussian) -> run -> l2_error -> sup_error",
        "function": "F1", "n": wl.LARGE_N, "r": config.r, "mu": config.mu,
        "delta": wl.LARGE_DELTA, "l2_G": metric_G, "sup_m": wl.SUP_M, "seeds": seeds,
    })

    csv_path = OUT / "record_coeffs.csv"
    wl.write_cli_csv(csv_path)
    digests, grids = {}, []
    for seed in range(wl.CLI_SEED_POOL):
        code, out, err, _ = wl.run_child(wl.cli_command(csv_path, seed))
        if code != 0:
            raise SystemExit(f"CLI failed for seed {seed}: {err.decode(errors='replace')}")
        digests[str(seed)] = sha256(out)
        values = [float(line.split(",")[2]) for line in out.decode().splitlines()[1:]]
        grids.append(np.array(values).reshape(wl.CLI_GRID, wl.CLI_GRID))
    csv_path.unlink()
    command = " ".join(["python"] + wl.cli_command(csv_path, 0)[1:-1] + ["<seed>"])
    _write_json(REF_DIR / "cli_csv.json", {
        "command": command.replace(str(csv_path), "<full 201x201 F1 coefficient CSV>"),
        "sha256": digests,
    })
    np.savez_compressed(
        REF_DIR / "cli_csv_grids.npz",
        seeds=np.arange(wl.CLI_SEED_POOL), grids=np.array(grids),
    )

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    files = sorted(p.name for p in REF_DIR.iterdir() if p.name != "PROVENANCE.json")
    _write_json(REF_DIR / "PROVENANCE.json", {
        "commit": args.commit,
        "recorded_utc": datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%d %H:%M"),
        "command": "python3 perfbench/record.py --commit " + args.commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "sha256": {name: sha256((REF_DIR / name).read_bytes()) for name in files},
    })
    print(f"recorded {', '.join(files)} in {REF_DIR}", file=sys.stderr)
    return 0


def _write_json(path, data) -> None:
    path.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
