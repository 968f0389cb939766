"""Self-test of the reference checks: corrupted references must be detected.

    python3 perfbench/selftest.py

Runs one op of trapezoid_table2, large_n_cross and cli_csv, then checks each
output against its recorded reference (must match exactly), against a copy
moved by 1e-13 relative (must match as "close") and against copies corrupted
by 1e-9 relative in one value or off by one in an integer (must fail).
Exits 0 when every case comes out as expected.
"""

from __future__ import annotations

import sys

from run import OUT, import_program, limit_blas_threads


def main() -> int:
    limit_blas_threads()
    import_program()
    import numpy as np

    import reference as ref
    import workloads as wl

    cases = []

    table = wl.make("trapezoid_table2", 0, OUT)
    rows = table.op(0)
    text = table.ref_text
    first = text.splitlines()[1].split(",")

    def table_with(index: int, value: str) -> str:
        fields = list(first)
        fields[index] = value
        return text.replace(",".join(first), ",".join(fields), 1)

    l2 = float(first[3])
    cases += [
        ("table: recorded", ref.check_table(rows, text), "exact"),
        ("table: l2 moved 1e-13", ref.check_table(rows, table_with(3, repr(l2 * (1 + 1e-13)))), "close"),
        ("table: l2 corrupted 1e-9", ref.check_table(rows, table_with(3, repr(l2 * (1 + 1e-9)))), None),
        ("table: card off by one", ref.check_table(rows, table_with(2, str(int(first[2]) + 1))), None),
        ("table: row missing", ref.check_table(rows, text.rsplit("\n", 2)[0] + "\n"), None),
    ]

    large = wl.make("large_n_cross", 0, OUT)
    seed, card, l2, sup = large.op(0)
    entry = large.refs[str(seed)]

    def moved(key: str, factor: float) -> dict:
        return {**entry, key: entry[key] * factor}

    cases += [
        ("large: recorded", ref.check_errors(card, l2, sup, entry), "exact"),
        ("large: sup moved 1e-13", ref.check_errors(card, l2, sup, moved("sup_error", 1 + 1e-13)), "close"),
        ("large: l2 corrupted 1e-9", ref.check_errors(card, l2, sup, moved("l2_error", 1 + 1e-9)), None),
        ("large: card off by one", ref.check_errors(card, l2, sup, {**entry, "card": card + 1}), None),
    ]

    cli = wl.make("cli_csv", 0, OUT)
    seed, code, out = cli.op(0)
    grid = cli.grids[seed]
    sha = cli.sha[str(seed)]
    scale = float(np.max(np.abs(grid)))

    def nudged(relative: float) -> np.ndarray:
        copy = grid.copy()
        copy[7, 11] += relative * scale
        return copy

    cases += [
        ("cli: exit code", code, 0),
        ("cli: recorded", ref.check_cli_output(out, sha, grid), "exact"),
        ("cli: digest differs, grid equal", ref.check_cli_output(out, "0" * 64, grid), "close"),
        ("cli: value moved 1e-13", ref.check_cli_output(out, "0" * 64, nudged(1e-13)), "close"),
        ("cli: value corrupted 1e-9", ref.check_cli_output(out, "0" * 64, nudged(1e-9)), None),
        ("cli: output truncated", ref.check_cli_output(out[:-40], "0" * 64, grid), None),
    ]

    failures = 0
    for name, got, want in cases:
        ok = got == want
        failures += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {name}: got {got!r}, want {want!r}")
    print(f"{len(cases) - failures} of {len(cases)} cases as expected")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
