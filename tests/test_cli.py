"""End-to-end command-line behavior: flags, outputs, determinism, exit codes."""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import legdiff
from legdiff import cli, experiments, metrics
from legdiff.cli import main
from legdiff.coeffs import exact_coeffs, save_csv
from legdiff.experiments import BUILTIN_NAMES, F1, MEASURED_ORDER
from legdiff.index import IndexDomain
from legdiff.noise import NoiseSpec

from oracles import from_entries


def _parse_grid_csv(text, header):
    lines = text.splitlines()
    assert lines[0] == header
    return [tuple(float(part) for part in line.split(",")) for line in lines[1:]]


class TestDifferentiate:
    def test_builtin_grid_output(self, capsys):
        code = main(
            [
                "differentiate", "--builtin", "f2", "--r", "2", "--mu", "6",
                "--noise", "none", "--n", "11", "--grid", "5",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        rows = _parse_grid_csv(captured.out, "t,tau,value")
        assert len(rows) == 25
        assert all(math.isfinite(v) for _, _, v in rows)
        ts = sorted({row[0] for row in rows})
        assert ts == [-1.0, -0.5, 0.0, 0.5, 1.0]
        assert "n=11" in captured.err
        # Builtin references carry their exact derivative: diagnostics appear.
        assert "card=" in captured.err
        assert "l2_error=" in captured.err
        assert "sup_error=" in captured.err

    def test_coeffs_file_resolves_level_from_rule(self, tmp_path, capsys):
        path = tmp_path / "c.csv"
        save_csv(from_entries({(2, 2): 0.1, (3, 2): -0.05}), path)
        code = main(
            [
                "differentiate", "--coeffs", str(path), "--r", "2",
                "--mu", "5.5", "--delta", "1e-7", "--grid", "9",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "n=19" in captured.err
        # No exact derivative is known for file input: no error diagnostics.
        assert "l2_error=" not in captured.err
        assert len(_parse_grid_csv(captured.out, "t,tau,value")) == 81

    def test_noise_changes_output_deterministically(self, capsys):
        common = ["differentiate", "--builtin", "f1", "--mu", "5.5", "--n", "6", "--grid", "5"]
        noisy = common + ["--delta", "1e-6", "--noise", "gaussian", "--seed", "7"]
        assert main(noisy) == 0
        first = capsys.readouterr().out
        assert main(noisy) == 0
        second = capsys.readouterr().out
        assert first == second
        assert main(common + ["--noise", "none"]) == 0
        clean = capsys.readouterr().out
        assert first != clean

    @pytest.mark.parametrize("noise", [[], ["--noise", "none"]])
    def test_seed_under_noise_none_is_usage_error(self, noise, tmp_path, capsys):
        # A noise-free run draws nothing, so a seed would be a silent no-op.
        # The coefficient file does not exist: the refusal comes first.
        code = main(
            ["differentiate", "--coeffs", str(tmp_path / "missing.csv"),
             "--mu", "5.5", "--n", "6", "--grid", "3", *noise, "--seed", "7"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: --seed applies to noisy runs only, not --noise none"
        ]

    @pytest.mark.parametrize(
        ("flags", "message"),
        [
            (["--constant", "2"], "--constant feeds the parameter rule, which --n bypasses"),
            (["--constant", "1"], "--constant feeds the parameter rule, which --n bypasses"),
            (
                ["--noise", "gaussian", "--delta", "1e-6", "--seed", "1", "--constant", "2"],
                "--constant feeds the parameter rule, which --n bypasses",
            ),
            (["--delta", "1e-6"], "--delta with --n applies to noisy runs only, not --noise none"),
            (
                ["--noise", "none", "--delta", "0"],
                "--delta with --n applies to noisy runs only, not --noise none",
            ),
        ],
        ids=["constant", "constant_at_default", "constant_noisy", "delta", "delta_zero"],
    )
    def test_flags_the_level_bypasses_are_usage_errors(self, flags, message, tmp_path, capsys):
        # With --n the rule is not run, so these flags would be silent no-ops.
        # The coefficient file does not exist: the refusal comes first.
        code = main(
            ["differentiate", "--coeffs", str(tmp_path / "missing.csv"),
             "--mu", "6", "--n", "11", "--grid", "3", *flags]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize(
        "flags",
        [
            ["--delta", "1e-6", "--constant", "2"],  # the rule reads both
            ["--n", "11", "--noise", "gaussian", "--delta", "1e-6"],  # the draw reads delta
            ["--n", "11", "--s", "3", "--p", "7"],  # the mu and p checks read s and p
        ],
        ids=["rule", "noisy_level", "level_s_p"],
    )
    def test_flags_that_are_read_are_accepted(self, flags, capsys):
        code = main(["differentiate", "--builtin", "f2", "--mu", "6", "--grid", "3", *flags])
        assert code == 0
        assert capsys.readouterr().out.startswith("t,tau,value\n")

    def test_s_and_p_are_still_checked_under_n(self, capsys):
        # mu = 4 violates mu > 2r - 1/s + 1/2 for s = 2 (4.0) but not for s = 1.5.
        argv = ["differentiate", "--builtin", "f2", "--mu", "4", "--n", "11", "--grid", "3"]
        assert main(argv) == 2
        assert "violates mu > 2r - 1/s + 1/2" in capsys.readouterr().err
        assert main(argv + ["--s", "1.5"]) == 0
        capsys.readouterr()
        assert main(argv + ["--s", "1.5", "--p", "0.5"]) == 2
        assert "p=0.5 must satisfy 1 <= p <= inf" in capsys.readouterr().err

    def test_writes_to_file(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        code = main(
            [
                "differentiate", "--builtin", "f2", "--mu", "6",
                "--n", "11", "--grid", "3", "--out", str(out),
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == ""
        assert len(_parse_grid_csv(out.read_text(), "t,tau,value")) == 9

    def test_smoothness_below_bound_is_usage_error(self, capsys):
        code = main(
            [
                "differentiate", "--builtin", "f1", "--r", "2",
                "--mu", "4", "--s", "2", "--delta", "1e-6",
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "error:" in captured.err

    @pytest.mark.parametrize("constant", ["nan", "inf"])
    @pytest.mark.parametrize("level", [["--n", "11"], ["--delta", "1e-6"]])
    def test_non_finite_rule_constant_is_usage_error(self, constant, level, capsys):
        code = main(
            ["differentiate", "--builtin", "f2", "--mu", "6", *level,
             "--grid", "3", "--constant", constant]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: rule constant {constant} must be finite and positive"
        ]

    def test_non_finite_mu_is_usage_error(self, capsys):
        code = main(
            ["differentiate", "--builtin", "f1", "--mu", "inf", "--delta", "1e-6", "--grid", "3"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: smoothness mu=inf must be finite"]

    def test_missing_mu_is_usage_error(self, capsys):
        assert main(["differentiate", "--builtin", "f1"]) == 2
        capsys.readouterr()

    def test_source_required_and_exclusive(self, tmp_path, capsys):
        assert main(["differentiate", "--mu", "6"]) == 2
        capsys.readouterr()
        path = tmp_path / "c.csv"
        save_csv(from_entries({(2, 2): 0.1}), path)
        assert (
            main(
                [
                    "differentiate", "--coeffs", str(path),
                    "--builtin", "f1", "--mu", "6",
                ]
            )
            == 2
        )
        capsys.readouterr()

    def test_noise_without_positive_delta_is_usage_error(self, capsys):
        code = main(
            ["differentiate", "--builtin", "f1", "--mu", "5.5", "--n", "6",
             "--noise", "gaussian"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "delta" in captured.err

    def test_noise_without_delta_is_checked_before_reading_coeffs(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("k,j,value\n1,not_a_number,3.0\n")
        code = main(
            ["differentiate", "--coeffs", str(path), "--mu", "5.5", "--n", "6",
             "--noise", "gaussian"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "delta" in captured.err
        assert "line" not in captured.err

    def test_malformed_coeffs_file_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("k,j,value\n1,not_a_number,3.0\n")
        code = main(
            ["differentiate", "--coeffs", str(path), "--mu", "5.5", "--delta", "1e-7"]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "error:" in captured.err

    def test_non_finite_coeffs_file_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "nan.csv"
        path.write_text("k,j,value\n2,2,0.1\n3,2,nan\n")
        code = main(
            ["differentiate", "--coeffs", str(path), "--mu", "5.5", "--delta", "1e-7"]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "line 3" in captured.err
        assert captured.out == ""

    def test_coeffs_file_beyond_dense_limit_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "far.csv"
        path.write_text("2,2,0.1\n100000,100000,1.0\n")
        code = main(["differentiate", "--coeffs", str(path), "--mu", "5.5", "--n", "10"])
        captured = capsys.readouterr()
        assert code == 1
        assert "over the limit" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "seed, rows", [("-1", None), (str(2**64), None), (str(2**64 - 1), 9)]
    )
    def test_seed_must_fit_uint64(self, seed, rows, capsys):
        code = main(
            ["differentiate", "--builtin", "f1", "--mu", "5.5", "--delta", "1e-6",
             "--n", "6", "--grid", "3", "--noise", "gaussian", "--seed", seed]
        )
        captured = capsys.readouterr()
        if rows is None:
            assert code == 2
            assert captured.out == ""
        else:
            assert code == 0
            assert len(_parse_grid_csv(captured.out, "t,tau,value")) == rows

    @pytest.mark.parametrize(
        "flags",
        [
            ["--mu", "4.6", "--delta", "1e-30"],  # the rule picks n = 3324598
            ["--mu", "4.01", "--delta", "1e-300"],  # the rule picks n ~ 6.5e74
            ["--mu", "5.5", "--n", "100000"],
            ["--mu", "5.5", "--n", "6", "--grid", "2049"],  # a 2049^2 grid
        ],
    )
    def test_oversized_level_is_usage_error_before_allocating(self, flags, capsys):
        start = time.perf_counter()
        code = main(["differentiate", "--builtin", "f1", *flags])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 2
        assert "over the limit" in captured.err
        assert captured.out == ""
        assert elapsed < 1.0

    def test_grid_bound_is_inclusive(self, tmp_path, monkeypatch, capsys):
        # The one limit also bounds the coefficient file, the level and the
        # metrics' grid; a small file at n = 11 (11x11 coefficients, no metrics)
        # leaves the 12x12 evaluation table the largest array at 144 entries.
        path = tmp_path / "c.csv"
        save_csv(from_entries({(0, 0): 1.0, (4, 3): 0.5}), path)
        monkeypatch.setattr("legdiff.coeffs.MAX_DENSE_ENTRIES", 144)
        argv = ["differentiate", "--coeffs", str(path), "--mu", "6", "--n", "11"]
        assert main(argv + ["--grid", "12"]) == 0
        capsys.readouterr()
        assert main(argv + ["--grid", "13"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: --grid 13 needs a 13x13 evaluation table, over the limit of 144 entries\n"
        )

    def test_unwritable_output_is_runtime_error(self, tmp_path, capsys):
        missing_dir = tmp_path / "absent" / "grid.csv"
        code = main(
            [
                "differentiate", "--builtin", "f2", "--mu", "6",
                "--n", "11", "--grid", "3", "--out", str(missing_dir),
            ]
        )
        capsys.readouterr()
        assert code == 1

    def test_overflowing_derivative_is_a_data_error(self, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(
                ["differentiate", "--builtin", "f2", "--r", "80", "--mu", "200",
                 "--n", "400", "--grid", "3"]
            )
        captured = capsys.readouterr()
        assert code == 1
        assert caught == []
        assert captured.out == ""
        assert "r=80 derivative of degree-399" in captured.err


#: Traces ``differentiate --builtin f1 --mu 5.5 --n 19 --grid 201 --out argv[1]``
#: through main() and prints its exit code, the file's sha256 and the peak.
_TRACED_GRID = """
import hashlib, sys, tracemalloc
from legdiff.cli import main

tracemalloc.start()
code = main(["differentiate", "--builtin", "f1", "--mu", "5.5", "--n", "19",
             "--grid", "201", "--out", sys.argv[1]])
peak = tracemalloc.get_traced_memory()[1]
with open(sys.argv[1], "rb") as handle:
    print(code, hashlib.sha256(handle.read()).hexdigest(), peak)
"""


def _traced_report(monkeypatch, argv) -> dict:
    """``differentiate --builtin f1 --mu 5.5`` plus ``argv`` under tracemalloc: the
    traced bytes held as ``error_report`` starts, and its own peak."""
    traced = {}
    error_report = cli.error_report

    def report(approx, reference):
        traced["held"] = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = error_report(approx, reference)
        traced["peak"] = tracemalloc.get_traced_memory()[1]
        return result

    monkeypatch.setattr(cli, "error_report", report)
    tracemalloc.start()
    try:
        assert main(["differentiate", "--builtin", "f1", "--mu", "5.5", *argv]) == 0
    finally:
        tracemalloc.stop()
    return traced


class TestTableBlocks:
    """The grid and basis tables are formatted and written a block at a time."""

    def test_grid_output_memory_is_the_grid_and_one_block(self, tmp_path):
        # In a one-thread child, where the bytes are promised.  The sha256 was
        # recorded from the one-string writer the blocks replaced, with one BLAS
        # thread; that writer traced 8.8 MB here (54 MB at --grid 501, which
        # takes 1.4 s to trace), the blocks trace 1.6 MB.
        src = str(Path(legdiff.__file__).resolve().parents[1])
        env = dict(
            os.environ,
            OPENBLAS_NUM_THREADS="1",
            OMP_NUM_THREADS="1",
            PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        )
        out = tmp_path / "grid.csv"
        child = subprocess.run(
            [sys.executable, "-c", _TRACED_GRID, str(out)],
            env=env, capture_output=True, text=True, check=True,
        )
        code, digest, peak = child.stdout.split()
        assert (code, digest) == (
            "0", "cc6b2bd6ec2e219714a1f2e6128b2c550b9122f5ebcbbbf63e15390e44259a07"
        )
        # The grid's values, held until the table is written, and one block's
        # rows at 512 B each (2 MiB), which also covers the error report's
        # measurement that follows the table (about 1.3 MB).
        bound = 201 * 201 * 8 + cli._WRITE_BLOCK * 512
        assert int(peak) <= bound, (peak, bound)

    def test_report_runs_without_the_grid(self, tmp_path, monkeypatch):
        # The report's parts: each of its two grids (Gauss, uniform) holds the
        # reference's values and measures in one row block of the same size.
        reference = F1.derivative_function()
        rule_t, rule_tau = reference.gauss_rules(metrics.DEFAULT_G)
        parts = 2 * 8 * (len(rule_t) * len(rule_tau) + metrics.DEFAULT_M**2)
        traced = _traced_report(monkeypatch, ["--n", "19", "--grid", "401", "--out", str(tmp_path / "grid.csv")])
        # The run's coefficients and caches are about 0.2 MB.  A command that
        # kept the 401 x 401 grid (1.3 MB) through the report held 1.4-1.5 MB
        # there and peaked at 2.6 MB; releasing it gives 0.2 and 1.3 MB.
        assert traced["held"] <= 2**19, traced
        assert traced["peak"] <= parts + 2**19, (traced, parts)

    def test_report_runs_without_the_input_field(self, tmp_path, monkeypatch):
        # At n = 500 the report starts holding the derived series ((n - r)^2
        # float64 entries) and the domain's cached mask (n^2 bools); 512 KiB
        # covers the modules and parser made during the run.  A command that
        # kept the exact coefficients (n^2 float64 entries, 2 MB) held 4.5 MB
        # there; releasing them after the run gives 2.5 MB.
        n, r = 500, MEASURED_ORDER
        traced = _traced_report(monkeypatch, ["--n", str(n), "--grid", "3", "--out", str(tmp_path / "grid.csv")])
        bound = 8 * (n - r) ** 2 + n**2 + 2**19
        assert traced["held"] <= bound, (traced, bound)

    @pytest.mark.parametrize(
        "argv",
        [
            ["differentiate", "--builtin", "f2", "--mu", "6", "--n", "11", "--grid", "41"],
            ["basis", "--k", "3", "--r", "1", "--grid", "10001"],
        ],
        ids=["differentiate", "basis"],
    )
    def test_every_block_size_gives_the_same_bytes(self, argv, monkeypatch, capsys):
        outputs = set()
        for block in (1, 100, cli._WRITE_BLOCK, 2**30):  # 2**30: the whole table
            monkeypatch.setattr(cli, "_WRITE_BLOCK", block)
            assert main(argv) == 0
            outputs.add(capsys.readouterr().out)
        assert len(outputs) == 1

    def test_overflow_leaves_no_file(self, tmp_path, capsys):
        out = tmp_path / "basis.csv"
        assert main(["basis", "--k", "400", "--r", "150", "--out", str(out)]) == 1
        assert "float64" in capsys.readouterr().err
        assert not out.exists()


_REFS = Path(__file__).resolve().parent.parent / "perfbench" / "refs"


class TestBenchmarkReference:
    """`differentiate` stdout against the benchmark's recorded cli_csv hashes."""

    @pytest.fixture(scope="class")
    def coeffs_201(self, tmp_path_factory):
        # The benchmark's full 201 x 201 F1 coefficient file.
        path = tmp_path_factory.mktemp("cli_csv") / "coeffs_201x201.csv"
        save_csv(exact_coeffs(F1, 200, 200, 2 * 200 + 16), path)
        return path

    @pytest.mark.parametrize("seed", ["0", "7"])
    def test_cli_csv_stdout_matches_reference(self, coeffs_201, seed, capsys):
        recorded = json.loads((_REFS / "cli_csv.json").read_text(encoding="utf-8"))
        code = main(
            ["differentiate", "--coeffs", str(coeffs_201), "--n", "200", "--mu", "5.5",
             "--delta", "1e-06", "--noise", "gaussian", "--seed", seed]
        )
        captured = capsys.readouterr()
        assert code == 0
        digest = hashlib.sha256(captured.out.encode("utf-8")).hexdigest()
        assert digest == recorded["sha256"][seed]


class TestSeedCount:
    @pytest.mark.parametrize(
        "argv",
        [
            ["experiment", "--preset", "table1"],
            ["convergence", "--builtin", "f2", "--mu", "6", "--deltas", "1e-4:1e-7:3",
             "--noise", "gaussian"],
        ],
        ids=["experiment", "convergence"],
    )
    def test_seed_count_bound_is_inclusive(self, monkeypatch, capsys, argv):
        monkeypatch.setattr("legdiff.experiments.MAX_SEED_COUNT", 2)
        assert main(argv + ["--seeds", "2"]) == 0
        capsys.readouterr()
        assert main(argv + ["--seeds", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--seeds: seeds=3 must be between 1 and 2" in captured.err

    @pytest.mark.parametrize("subcommand", ["experiment", "convergence"])
    @pytest.mark.parametrize("count", ["0", "1001", "1000000000"])
    def test_out_of_range_seed_count_is_usage_error_before_running(
        self, subcommand, count, capsys
    ):
        args = {
            "experiment": ["--preset", "table1"],
            "convergence": ["--builtin", "f2", "--mu", "6", "--deltas", "1e-5:1e-9:3"],
        }[subcommand]
        start = time.perf_counter()
        code = main([subcommand, *args, "--seeds", count])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"--seeds: seeds={count} must be between 1 and 1000" in captured.err
        assert elapsed < 1.0


class TestCountRefusals:
    """The count and seed flags refuse what the library refuses, in its words (exit 2)."""

    @pytest.mark.parametrize(
        ("argv", "message"),
        [
            ("experiment --preset table1 --seeds 1001",
             "argument --seeds: seeds=1001 must be between 1 and 1000"),
            ("convergence --builtin f1 --mu 5.5 --deltas 1e-3:1e-9:1001",
             "argument --deltas: a sweep needs between 3 and 1000 noise levels, not 1001"),
            ("differentiate --builtin f1 --mu 5.5 --delta 1e-6 --n 6 --noise gaussian --seed 18446744073709551616",
             "argument --seed: seed=18446744073709551616 must satisfy 0 <= seed < 2**64"),
        ],
        ids=["seeds", "deltas", "seed"],
    )
    def test_refused_before_any_coefficient_is_built(self, monkeypatch, capsys, argv, message):
        built = []
        for module in (cli, experiments):
            monkeypatch.setattr(module, "exact_coeffs", lambda *args, **kwargs: built.append(args))
        code = main(argv.split())
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert message in captured.err
        assert built == []


class TestFlagRefusals:
    """Every flag combination a command refuses before reading any data: exit
    2, nothing on stdout, and one stderr line in these words."""

    @pytest.mark.parametrize(
        ("argv", "message"),
        [
            ("differentiate --coeffs {missing} --mu 5.5 --n 10 --noise gaussian",
             "--noise requires 0 < --delta < 1"),
            ("differentiate --coeffs {missing} --mu 5.5 --delta 1e-6 --seed 3",
             "--seed applies to noisy runs only, not --noise none"),
            ("differentiate --coeffs {missing} --mu 5.5 --n 10 --constant 2",
             "--constant feeds the parameter rule, which --n bypasses"),
            ("differentiate --coeffs {missing} --mu 5.5 --n 10 --delta 1e-6",
             "--delta with --n applies to noisy runs only, not --noise none"),
            ("differentiate --coeffs {missing} --mu 5.5 --n 10 --grid 2049",
             "--grid 2049 needs a 2049x2049 evaluation table, over the limit of 4194304 entries"),
            ("experiment --preset table2 --seeds 3",
             "--seeds applies to gaussian presets only, not table2"),
            ("convergence --builtin f2 --mu 6 --deltas 1e-4:1e-8:3 --noise none --seeds 3",
             "--seeds applies to noisy sweeps only, not --noise none"),
            ("basis --k 2047 --grid 2049",
             "--grid 2049 needs a 2048x2049 evaluation table, over the limit of 4194304 entries"),
        ],
        ids=["noise_delta", "seed", "constant", "delta", "grid", "preset_seeds", "sweep_seeds",
             "basis_grid"],
    )
    def test_refusal_exits_2_with_its_line(self, tmp_path, capsys, argv, message):
        code = main(argv.format(missing=tmp_path / "missing.csv").split())
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


class TestExperiment:
    def test_unknown_preset_is_usage_error(self, capsys):
        assert main(["experiment", "--preset", "bogus"]) == 2
        capsys.readouterr()

    def test_table3_rows(self, capsys):
        code = main(["experiment", "--preset", "table3"])
        captured = capsys.readouterr()
        assert code == 0
        lines = captured.out.splitlines()
        assert lines[0] == "delta,n,card,l2_error,sup_error,seed"
        assert len(lines) == 4
        deltas = [line.split(",")[0] for line in lines[1:]]
        assert deltas == ["1e-06", "1e-07", "1e-08"]
        ns = [line.split(",")[1] for line in lines[1:]]
        assert ns == ["11", "18", "25"]

    def test_stochastic_preset_structure_and_determinism(self, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        argv = ["experiment", "--preset", "table1", "--seeds", "2"]
        assert main(argv + ["--out", str(out_a)]) == 0
        assert main(argv + ["--out", str(out_b)]) == 0
        text = out_a.read_text()
        assert text == out_b.read_text()
        lines = text.splitlines()
        # Header + 3 deltas * (2 seeds + 1 median).
        assert len(lines) == 10
        assert lines[3].split(",")[5] == "median"

    def test_zero_seeds_is_usage_error(self, capsys):
        assert main(["experiment", "--preset", "table1", "--seeds", "0"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("preset", ["table2", "table3"])
    def test_seeds_on_deterministic_preset_is_usage_error(self, capsys, monkeypatch, preset):
        # Refused before run_table builds any coefficient.
        monkeypatch.setattr(cli, "run_table", None)
        code = main(["experiment", "--preset", preset, "--seeds", "5"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "gaussian presets only" in captured.err


class TestConvergence:
    def test_sweep_reports_slope(self, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        code = main(
            [
                "convergence", "--builtin", "f2", "--mu", "6",
                "--deltas", "1e-5:1e-8:4", "--seeds", "2", "--out", str(out),
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.startswith("fitted_slope=")
        assert "theoretical_exponent=" in captured.out
        slope = float(captured.out.split()[0].split("=")[1])
        assert math.isfinite(slope)
        lines = out.read_text().splitlines()
        assert lines[0] == "delta,n,card,l2_error,sup_error,seed"
        # 4 deltas * (2 seeds + 1 median).
        assert len(lines) == 13

    def test_rows_go_to_stdout_without_out(self, capsys):
        code = main(
            [
                "convergence", "--builtin", "f1", "--mu", "5.5",
                "--deltas", "1e-4:1e-7:4", "--noise", "none",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        lines = captured.out.splitlines()
        assert lines[0] == "delta,n,card,l2_error,sup_error,seed"
        assert lines[-1].startswith("fitted_slope=")

    def test_fine_noise_levels_raise_the_metric_order(self, capsys):
        # The finest level picks n = 147, whose derived series needs more
        # than the default 96 Gauss points per panel.
        code = main(
            ["convergence", "--builtin", "f2", "--mu", "6",
             "--deltas", "1e-6:1e-13:5", "--seeds", "2"]
        )
        captured = capsys.readouterr()
        assert code == 0, captured.err
        lines = captured.out.splitlines()
        assert lines[0] == "delta,n,card,l2_error,sup_error,seed"
        rows = [line.split(",") for line in lines[1:-1]]
        # 5 deltas * (2 seeds + 1 median).
        assert len(rows) == 15
        assert rows[-1][1] == "147"
        assert all(math.isfinite(float(v)) for row in rows for v in row[3:5])
        assert lines[-1].startswith("fitted_slope=")

    def test_malformed_delta_range_is_usage_error(self, capsys):
        for bad in ("1e-5:1e-9", "1e-5:1e-9:1", "a:b:3", "-1e-5:1e-9:5"):
            assert main(
                ["convergence", "--builtin", "f2", "--mu", "6", "--deltas", bad]
            ) == 2
            capsys.readouterr()

    @pytest.mark.parametrize("count", ["1001", "10000000000"])
    def test_huge_delta_count_is_usage_error_before_allocating(self, count, capsys):
        start = time.perf_counter()
        code = main(
            ["convergence", "--builtin", "f2", "--mu", "6", "--deltas", f"1e-5:1e-9:{count}"]
        )
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 2
        assert f"a sweep needs between 3 and 1000 noise levels, not {count}" in captured.err
        assert captured.out == ""
        assert elapsed < 1.0

    def test_two_level_sweep_is_usage_error(self, capsys):
        # A sweep fits its slope to at least three levels, so the parser
        # refuses two (exit 2) before the sweep could refuse them (exit 1).
        code = main(
            ["convergence", "--builtin", "f1", "--mu", "5.5", "--deltas", "1e-5:1e-9:2"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "a sweep needs between 3 and 1000 noise levels, not 2" in captured.err
        assert captured.out == ""

    def test_non_finite_mu_is_usage_error(self, capsys):
        code = main(
            ["convergence", "--builtin", "f2", "--mu", "inf", "--deltas", "1e-5:1e-9:3",
             "--seeds", "1"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: smoothness mu=inf must be finite"]

    def test_delta_count_bound_is_inclusive(self, monkeypatch, capsys):
        monkeypatch.setattr("legdiff.experiments.MAX_DELTA_COUNT", 3)
        argv = ["convergence", "--builtin", "f2", "--mu", "6", "--noise", "none"]
        assert main(argv + ["--deltas", "1e-4:1e-7:3"]) == 0
        assert main(argv + ["--deltas", "1e-4:1e-7:4"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("bad", ["inf:1e-9:3", "1e-5:nan:3", "2:1e-9:3"])
    def test_nonfinite_or_large_delta_is_refused_by_the_parser(self, bad, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(
                ["convergence", "--builtin", "f1", "--mu", "4.6",
                 "--deltas", bad, "--seeds", "1"]
            )
        captured = capsys.readouterr()
        assert code == 2
        assert caught == []
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert len(errors) == 1
        assert "argument --deltas: noise levels must be finite and lie in (0, 1)" in errors[0]

    def test_r_is_not_a_flag(self, capsys):
        # Errors are measured against the (2, 2) derivative, so r is always 2.
        code = main(
            ["convergence", "--builtin", "f2", "--mu", "8", "--r", "2",
             "--deltas", "1e-5:1e-9:3", "--seeds", "2"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "unrecognized arguments: --r 2" in captured.err

    def test_seeds_under_noise_none_is_usage_error(self, capsys, monkeypatch):
        # A noise-free sweep runs each level once; refused before it runs.
        monkeypatch.setattr(cli, "convergence_sweep", None)
        code = main(
            ["convergence", "--builtin", "f2", "--mu", "6", "--deltas", "1e-5:1e-9:3",
             "--noise", "none", "--seeds", "7"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "noisy sweeps only" in captured.err

    def test_too_narrow_range_is_usage_error(self, capsys, monkeypatch):
        # The parser refuses a grid under three decades (exit 2), with the
        # sweep's own wording, before any data is read.
        monkeypatch.setattr(cli, "convergence_sweep", None)
        code = main(
            ["convergence", "--builtin", "f2", "--mu", "6",
             "--deltas", "1e-5:1e-6:3", "--seeds", "1"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "argument --deltas: the noise-level grid must span at least 3 decades" in captured.err


class TestBasis:
    def test_module_entry_point_prints_what_main_prints(self, capsys):
        # ``python -m legdiff``, as the benchmark spawns it, in a child process.
        argv = ["basis", "--k", "2", "--r", "2", "--grid", "3"]
        assert main(argv) == 0
        src = str(Path(legdiff.__file__).resolve().parents[1])
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        )
        child = subprocess.run(
            [sys.executable, "-m", "legdiff", *argv], env=env, capture_output=True, text=True
        )
        assert (child.returncode, child.stderr) == (0, "")
        assert child.stdout == capsys.readouterr().out

    def test_second_derivative_of_phi2_is_constant(self, capsys):
        code = main(["basis", "--k", "2", "--r", "2", "--grid", "3"])
        captured = capsys.readouterr()
        assert code == 0
        rows = _parse_grid_csv(captured.out, "t,value")
        assert [t for t, _ in rows] == [-1.0, 0.0, 1.0]
        for _, v in rows:
            assert v == pytest.approx(3.0 * math.sqrt(5.0) / math.sqrt(2.0), rel=1e-12)
            assert v == pytest.approx(4.7434165, rel=1e-7)

    def test_phi0_value(self, capsys):
        code = main(["basis", "--k", "0", "--r", "0", "--grid", "1"])
        captured = capsys.readouterr()
        assert code == 0
        rows = _parse_grid_csv(captured.out, "t,value")
        assert len(rows) == 1
        assert rows[0][1] == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)

    def test_derivative_of_constant_is_zero(self, capsys):
        code = main(["basis", "--k", "0", "--r", "1", "--grid", "5"])
        captured = capsys.readouterr()
        assert code == 0
        rows = _parse_grid_csv(captured.out, "t,value")
        assert all(v == 0.0 for _, v in rows)

    def test_huge_order_gives_zero_column_quickly(self, capsys):
        start = time.perf_counter()
        code = main(["basis", "--k", "2", "--r", str(10**18), "--grid", "3"])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 0
        assert _parse_grid_csv(captured.out, "t,value") == [(-1.0, 0.0), (0.0, 0.0), (1.0, 0.0)]
        assert elapsed < 1.0

    def test_matches_derivative_oracle(self, capsys):
        # phi_5' sampled on a grid must match an independent polynomial oracle.
        import numpy.polynomial.legendre as npleg

        code = main(["basis", "--k", "5", "--r", "1", "--grid", "41"])
        captured = capsys.readouterr()
        assert code == 0
        rows = _parse_grid_csv(captured.out, "t,value")
        ts = np.array([t for t, _ in rows])
        values = np.array([v for _, v in rows])
        basis5 = np.zeros(6)
        basis5[5] = math.sqrt(5.5)
        oracle = npleg.legval(ts, npleg.legder(basis5, 1))
        np.testing.assert_allclose(values, oracle, rtol=1e-12, atol=1e-12)


    @pytest.mark.parametrize("k, r", [("400", "150"), ("304", "100")])
    def test_overflowing_derivative_is_a_data_error(self, k, r, capsys):
        # (400, 150) overflows in the coefficients, (304, 100) only at t = +-1.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["basis", "--k", k, "--r", r, "--grid", "3"])
        captured = capsys.readouterr()
        assert code == 1
        assert caught == []
        assert captured.out == ""
        assert "float64" in captured.err

    @pytest.mark.parametrize(
        "k, grid", [("2047", "2049"), ("0", str(2**22 + 1)), (str(2**22), "1")]
    )
    def test_oversized_table_is_usage_error_before_allocating(self, k, grid, capsys):
        start = time.perf_counter()
        code = main(["basis", "--k", k, "--r", "2", "--grid", grid])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 2
        assert "over the limit" in captured.err
        assert captured.out == ""
        assert elapsed < 1.0

    def test_table_bound_is_inclusive(self, monkeypatch, capsys):
        monkeypatch.setattr("legdiff.coeffs.MAX_DENSE_ENTRIES", 12)
        assert main(["basis", "--k", "3", "--grid", "3"]) == 0
        assert main(["basis", "--k", "3", "--grid", "4"]) == 2
        capsys.readouterr()


class TestSharedFlags:
    def test_threads_is_unknown_flag(self, capsys):
        assert main(["basis", "--k", "2", "--r", "2", "--threads", "4"]) == 2
        assert "unrecognized arguments: --threads" in capsys.readouterr().err

    def test_missing_subcommand_is_usage_error(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "flag, owned",
        [("--noise", NoiseSpec.KINDS), ("--builtin", BUILTIN_NAMES),
         ("--domain", IndexDomain.SHAPES)],
    )
    def test_choices_are_read_from_their_owners(self, flag, owned):
        # differentiate and convergence offer exactly the owning module's tuple.
        (subcommands,) = [
            action for action in cli._build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        for command in ("differentiate", "convergence"):
            parser = subcommands.choices[command]
            (action,) = [a for a in parser._actions if flag in a.option_strings]
            assert tuple(action.choices) == owned
