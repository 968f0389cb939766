"""Reference outputs recorded by ``record.py`` and the checks against them.

An output matches its reference "exact" when it is byte-identical, and
"close" when every float agrees to REL_TOL relative (grids: relative to the
grid's largest magnitude), which is the tolerance allowed once the arithmetic
order of the method changes.  Integers, seeds and pinned inputs must always
be identical.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
from legdiff.experiments import rows_to_csv

REF_DIR = Path(__file__).resolve().parent / "refs"
REL_TOL = 1e-12


def load_text(name: str) -> str:
    return (REF_DIR / name).read_text(encoding="utf-8")


def load_json(name: str):
    return json.loads(load_text(name))


def load_grids() -> dict[int, np.ndarray]:
    with np.load(REF_DIR / "cli_csv_grids.npz", allow_pickle=False) as data:
        return {int(s): g for s, g in zip(data["seeds"], data["grids"])}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= REL_TOL * abs(want)


def _parse_seed(text: str):
    if text == "":
        return None
    return text if text == "median" else int(text)


def check_table(rows, ref_text: str) -> str | None:
    """Experiment rows against a recorded table CSV."""
    if rows_to_csv(rows) == ref_text:
        return "exact"
    ref_lines = ref_text.splitlines()[1:]
    if len(ref_lines) != len(rows):
        return None
    for row, line in zip(rows, ref_lines):
        delta, n, card, l2, sup, seed = line.split(",")
        if (row.delta, row.n, row.card, row.seed) != (
            float(delta), int(n), int(card), _parse_seed(seed)
        ):
            return None
        if not (_close(row.l2_error, float(l2)) and _close(row.sup_error, float(sup))):
            return None
    return "close"


def check_errors(card: int, l2: float, sup: float, ref: dict) -> str | None:
    """One large_n_cross op's (card, l2, sup) against its recorded seed entry."""
    if card != ref["card"]:
        return None
    if (l2, sup) == (ref["l2_error"], ref["sup_error"]):
        return "exact"
    if _close(l2, ref["l2_error"]) and _close(sup, ref["sup_error"]):
        return "close"
    return None


def check_grid(values: np.ndarray, ref: np.ndarray) -> str | None:
    """A grid of series values against its recorded reference."""
    if values.shape != ref.shape:
        return None
    if np.array_equal(values, ref):
        return "exact"
    if np.max(np.abs(values - ref)) <= REL_TOL * np.max(np.abs(ref)):
        return "close"
    return None


def check_cli_output(stdout: bytes, ref_sha: str, ref_grid: np.ndarray) -> str | None:
    """The CSV a ``legdiff differentiate`` process printed, against its reference."""
    if sha256(stdout) == ref_sha:
        return "exact"
    lines = stdout.decode("utf-8", "replace").splitlines()
    side = ref_grid.shape[0]
    if len(lines) != side * side + 1 or lines[0] != "t,tau,value":
        return None
    grid = np.linspace(-1.0, 1.0, side)
    values = np.empty(side * side)
    try:
        for idx, line in enumerate(lines[1:]):
            t, tau, value = line.split(",")
            if (float(t), float(tau)) != (grid[idx // side], grid[idx % side]):
                return None
            values[idx] = float(value)
    except ValueError:
        return None
    return "close" if check_grid(values.reshape(side, side), ref_grid) else None
