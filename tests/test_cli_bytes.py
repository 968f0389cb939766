"""Byte gate: commands whose outputs no other test pins keep their bytes.

Each command runs through ``legdiff.cli.main`` in one child process with one
BLAS thread; the sha256 of its stdout and of its stderr, and its exit code,
must equal the pins below.

Provenance: the pins were recorded at commit 575b663 from one separate
``python -m legdiff`` process per command, with
``OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=1``.  The two pins marked as such
were recorded at commit 3b70711, through ``main`` in one process with the
same thread setting: a box run with projected noise at p = 3, and a
gaussian run at the level n = 19 the rule chooses.  The three pins marked
"Recorded at commit d387db1" were recorded at that commit through ``main``
in one process with the same thread setting: a sweep's deterministic row,
a table1 row of 300 seeds (more than one 272-seed chunk at side 31), and a
gaussian sweep at p = 1.  A change that moves output bits re-records them
under ROADMAP's rule for reference files and says so in CHANGES.md.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import legdiff

_EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

#: argv -> (exit code, sha256 of stdout, sha256 of stderr).
PINS = {
    "experiment --preset table3": (
        0, "c74677ca110ff5518aa9f8aac2cb87babe02d4bde039066c0e60d08a7a4eba35", _EMPTY,
    ),
    "differentiate --builtin f1 --mu 5.5 --delta 1e-8 --noise gaussian --seed 3 --n 300 --grid 401": (
        0,
        "400658f8ce0aec4387a7a662d3a4f7e39422dd428e52fb94b8da67ef5be4c96b",
        "9877a269cd945d744b99ab3ef6ec29b72cb8edeeffc3a6d1bf328ec84e360ba6",
    ),
    "differentiate --builtin f2 --mu 6 --delta 1e-9 --noise gaussian --seed 2 --n 260": (
        0,
        "205def27436148e40138f9c73d9a11ed0ea678a728960c7e569f3d5aa8e6e1dc",
        "475dc003a506bdd725e3f3997d6f8a91d7531f58346c408d66a024eb5b71c27b",
    ),
    "differentiate --builtin f1 --mu 5.5 --delta 1e-12 --noise projected --seed 1 --n 1000 --grid 3": (
        0,
        "8cba72467deb6414bc61f471938c42555837e00421a25a72497853397bdad42b",
        "a14e203d909d6d5bf4482eb6259ac028647b7f245da581cbab4967e998274e2c",
    ),
    "differentiate --builtin f2 --mu 6 --n 40 --domain box --grid 51": (
        0,
        "bdb9124c8a6fe343be3fa8225bff8872d17813931163c87e89620358c62531f9",
        "35371584f360647c7916547a8b17da0a47c0058dcf8baa43d6f8db810cdf7274",
    ),
    # Recorded at commit 3b70711.
    "differentiate --builtin f2 --mu 6 --delta 1e-7 --noise projected --p 3 --seed 5 --domain box --n 40 --grid 21": (
        0,
        "549b15ab987e08a109209b0d5de434f7b3e39cd42663b7191ac7435048889c86",
        "8d930e6945aaf4d7b99fcc760db92b07d58e7b265c81c5b11cf8daeef03f85ee",
    ),
    # Recorded at commit 3b70711.
    "differentiate --builtin f1 --mu 5.5 --delta 1e-7 --noise gaussian --seed 9 --grid 11": (
        0,
        "36275ddf1826e03b269b5b0a256594a42d4d20a68aa20d3f721ccd963d701d3e",
        "069859167031d2c84029085673e6b181b4eca5c63ef69a649a0551dc730dfead",
    ),
    "differentiate --builtin f1 --mu 5.5 --n 20": (
        0,
        "b9aec7c05d89c7bd79669f3127fbc4e931d7d472431a930509e95a91c58320ba",
        "5aaf1ff7782c0ed00e56099a419139595486e1d151f07d72542a09c831b5cf91",
    ),
    "convergence --builtin f1 --mu 5.5 --deltas 1e-5:1e-9:5 --seeds 4": (
        0, "be53bdf184ceaf630b2123fd20d1acfb5b57c145aea06db319d69e092b84d741", _EMPTY,
    ),
    "convergence --builtin f2 --mu 6 --deltas 1e-6:1e-10:4 --seeds 3 --domain box": (
        0, "4c341285f1e945cdda6753f3f75d037bfaef88bf21937c8969486f64f333971a", _EMPTY,
    ),
    # Recorded at commit d387db1.
    "convergence --builtin f1 --mu 5.5 --deltas 1e-5:1e-9:4 --noise none": (
        0, "2401bd712182210ea6103d55aa87ff6979a787e6e9ea33d79e52a339c797a7b9", _EMPTY,
    ),
    # Recorded at commit d387db1.
    "experiment --preset table1 --seeds 300": (
        0, "9b817febc8ef9aa40a7da772b3dc1b127a5f9e4d520f9783f4f6625d872dd8a4", _EMPTY,
    ),
    # Recorded at commit d387db1.
    "convergence --builtin f2 --mu 6 --deltas 1e-6:1e-9:4 --noise gaussian --p 1 --seeds 3": (
        0, "2308efb762a855168f69441884f930623e921ae116410b76c580202861ad1e3d", _EMPTY,
    ),
    "basis --k 12 --r 3 --grid 21": (
        0, "f0958c4bd1538352017fe977685c8ba99fd95036ab1cd7f3b7652a4b039c281d", _EMPTY,
    ),
}

# Runs each command of argv[1] (a JSON list) through main() with its stdout and
# stderr captured, and prints one JSON list [code, sha256(out), sha256(err)] each.
_CHILD = """
import contextlib, hashlib, io, json, sys
from legdiff.cli import main

def sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()

results = []
for command in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(command.split())
    results.append([code, sha(out.getvalue()), sha(err.getvalue())])
print(json.dumps(results))
"""


def test_commands_keep_their_bytes():
    src = str(Path(legdiff.__file__).resolve().parents[1])
    env = dict(
        os.environ,
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
    )
    commands = list(PINS)
    result = subprocess.run(
        [sys.executable, "-c", _CHILD, json.dumps(commands)],
        env=env, capture_output=True, text=True, check=True,
    )
    got = {command: tuple(row) for command, row in zip(commands, json.loads(result.stdout))}
    assert got == PINS
