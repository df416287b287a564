#!/usr/bin/env python3
"""Time the `verify thm2` frontier cells, each as its own CLI process.

Each cell runs `python -m blocksets.cli verify thm2 ... --stable --workers 1`
from this checkout's `src`, interpreter start included, and prints one line:
its exit code, wall seconds, peak RSS (the child's `ru_maxrss`, as
RUSAGE_CHILDREN counts it) and the sha256 of its stdout, which is read in
chunks and never held whole.  The cells are the pq12 runs at n=14..17 (n=17
exits 1 at the listing limit), the degree-2 runs at n=21..25, the
degree-3 runs at n=40 and n=41, the degree-4 runs at n=75 and n=76 and the
degree-5 runs at n=131..137.  Cells named
on the command line run alone, in the order given; with none, every cell
runs.  An unknown name exits 2 and lists the cells.

Examples:
    python scripts/frontier.py
    python scripts/frontier.py "pq12 n=16" "d2 n=23"
"""

import argparse
import hashlib
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parents[1]

CELLS = [
    *((f"pq12 n={n}", ["--d", "2", "--pq", "1,2", "--n", str(n)]) for n in range(14, 18)),
    *((f"d2 n={n}", ["--d", "2", "--n", str(n)]) for n in range(21, 26)),
    *((f"d3 n={n}", ["--d", "3", "--n", str(n)]) for n in (40, 41)),
    *((f"d4 n={n}", ["--d", "4", "--n", str(n)]) for n in (75, 76)),
    *((f"d5 n={n}", ["--d", "5", "--n", str(n)]) for n in range(131, 138)),
]


def run_cell(args: list[str]) -> tuple[int, float, float, str]:
    """(exit code, seconds, peak RSS in MB, stdout sha256) of one CLI run."""
    command = [sys.executable, "-m", "blocksets.cli", "verify", "thm2", *args, "--stable", "--workers", "1"]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    digest = hashlib.sha256()
    t0 = time.perf_counter()
    with subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL) as child:
        for chunk in iter(lambda: child.stdout.read(1 << 20), b""):
            digest.update(chunk)
        _, status, usage = os.wait4(child.pid, 0)  # this child's own rusage
        child.returncode = os.waitstatus_to_exitcode(status)  # reaped, so Popen must not wait for it again
    seconds = time.perf_counter() - t0
    return child.returncode, seconds, usage.ru_maxrss / 1024, digest.hexdigest()


def main(argv: Optional[list[str]] = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("cells", nargs="*", metavar="CELL", help="a cell to run, by name (default: every cell)")
    cells = dict(CELLS)
    names = parser.parse_args(argv).cells or list(cells)
    unknown = [name for name in names if name not in cells]
    if unknown:
        parser.error(f"unknown cell {unknown[0]!r}; the cells are: {', '.join(cells)}")
    print(f"{'cell':<12} {'exit':>4} {'seconds':>8} {'peak MB':>8}  stdout sha256")
    for name in names:
        code, seconds, peak, sha = run_cell(cells[name])
        print(f"{name:<12} {code:>4} {seconds:>8.2f} {peak:>8.1f}  {sha}", flush=True)


if __name__ == "__main__":
    main()
