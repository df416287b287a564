"""Smoke runs of the experiment scripts, from the repository root, with tiny arguments."""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args, expect",
    [
        ("scan_absence.py", ["--d", "2", "--pq", "1,2", "--n-max", "9"], "total monochromatic placements: 2"),
        ("witness_experiments.py", ["--n-max", "3", "--k-max", "2"], "outcome"),
        ("explore_lattice.py", ["--box", "0..3^2"], "d=2: x=(1, 1) v=(-1, 1)"),
        ("scan_absence.py", ["--d", "3", "--n-max", "31"], "total monochromatic placements: 0"),
        ("witness_experiments.py", ["--size-mode", "mixed:2", "--n-max", "4", "--k-max", "2"], "sizemode mixed:2"),
        (
            "explore_lattice.py",
            ["--colouring", "constant:c=0,k=1", "--box", "0..3^2", "--d-max", "2"],
            "d=1: x=(0, 1) v=(0, -1) colour=0",
        ),
        (
            "explore_lattice.py",
            ["--colouring", "random:k=2", "--seed", "1", "--box", "0..3^2"],
            "d=1: x=(0, 2) v=(0, -1) colour=1\nd=2: x=(2, 1) v=(-1, -1) colour=0\n",
        ),
    ],
)
def test_script_runs(script, args, expect):
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert expect in result.stdout


@pytest.mark.parametrize(
    "script, args, message",
    [
        ("scan_absence.py", ["--d", "2", "--pq", "1", "--n-max", "3"], "argument --pq: invalid pq_pair value: '1'"),
        ("scan_absence.py", ["--d", "2", "--pq", "1,x", "--n-max", "3"], "argument --pq: invalid pq_pair value: '1,x'"),
        ("explore_lattice.py", ["--box", "0..3"], "argument --box: invalid parse_box value: '0..3'"),
        ("explore_lattice.py", ["--colouring", "foo"], "argument --colouring: unknown lattice colouring spec 'foo'"),
        ("scan_absence.py", ["--d", "0", "--n-max", "3"], "argument --d: must be >= 1, got 0"),
        ("scan_absence.py", ["--d", "2", "--workers", "0", "--n-max", "3"], "argument --workers: must be >= 1, got 0"),
        ("scan_absence.py", ["--d", "x", "--n-max", "3"], "argument --d: invalid at_least_1 value: 'x'"),
        ("witness_experiments.py", ["--n-max", "3", "--budget", "-1"], "argument --budget: must be >= 1, got -1"),
        ("witness_experiments.py", ["--k-max", "0"], "argument --k-max: must be >= 1, got 0"),
        ("explore_lattice.py", ["--d-max", "0"], "argument --d-max: must be >= 1, got 0"),
        ("explore_lattice.py", ["--colouring", "coordsum:d=0"], "argument --colouring: d must be >= 1, got 0"),
        (
            "frontier.py",
            ["pq12 n=14", "pq12 n=99"],
            "unknown cell 'pq12 n=99'; the cells are: pq12 n=14, pq12 n=15, pq12 n=16, pq12 n=17, "
            "d2 n=21, d2 n=22, d2 n=23, d2 n=24, d2 n=25, d3 n=40, d3 n=41, d4 n=75, d4 n=76, "
            "d5 n=131, d5 n=132, d5 n=133, d5 n=134, d5 n=135, d5 n=136, d5 n=137",
        ),
    ],
)
def test_script_bad_flags_exit_2_with_one_error_line(script, args, message):
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr.endswith(f"{script}: error: {message}\n") and "Traceback" not in result.stderr


def test_scan_absence_prints_each_found_entry_as_json():
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "scan_absence.py"), "--d", "2", "--pq", "1,2", "--n-max", "9"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    entries = [json.loads(line) for line in result.stdout.splitlines() if line.startswith("      ")]
    assert len(entries) == 2
    for entry in entries:
        assert entry.keys() == {"placement", "colour", "vector"}
        assert entry["placement"]["n"] == 9 and len(entry["vector"]) == 3


def test_frontier_cell_hashes_the_stdout_of_its_cli_run():
    """`scripts/frontier.py` times each cell as a CLI child process and hashes its stdout."""
    spec = importlib.util.spec_from_file_location("frontier", ROOT / "scripts" / "frontier.py")
    frontier = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(frontier)
    args = ["--d", "2", "--pq", "1,2", "--n", "9"]
    code, seconds, peak, sha = frontier.run_cell(args)
    direct = subprocess.run(
        [sys.executable, "-m", "blocksets.cli", "verify", "thm2", *args, "--stable", "--workers", "1"],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, capture_output=True, timeout=120,
    )
    assert (code, sha) == (0, hashlib.sha256(direct.stdout).hexdigest())
    assert seconds > 0 and peak > 0


def test_frontier_runs_only_the_cells_it_is_given():
    """`--help` runs no cell, and named cells run alone, in the order given."""
    def frontier(*args):
        return subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "frontier.py"), *args],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )

    helped = frontier("--help")
    assert helped.returncode == 0 and helped.stdout.startswith("usage: frontier.py") and "peak MB" not in helped.stdout
    ran = frontier("pq12 n=14")
    assert ran.returncode == 0, ran.stderr
    header, row = ran.stdout.splitlines()
    assert header.startswith("cell") and row.startswith("pq12 n=14") and row.split()[2] == "0"
