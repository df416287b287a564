#!/usr/bin/env python3
"""Scan the layered-colouring absence check across a range of ambient lengths.

The default parameters reproduce the degree-d setup (template with one 1,
d 2s and d^3 3s, colour vectors of length d^2+1 over Z_{d+1}); --pq swaps in
the one-1, p-2s, q-3s template with vector length p*d+1.  One line per n; any
monochromatic placements found are printed in full.

Examples:
    python scripts/scan_absence.py --d 1 --n-max 12
    python scripts/scan_absence.py --d 2 --pq 1,2 --n-max 10   # finds palindromic hits at n >= 9
"""

import argparse
import json
import sys

sys.path.insert(0, "src")

from blocksets.blocks import EqualSize, MixedSize
from blocksets.cli import degree_setup
from blocksets.search import verify_absence
from flags import at_least_1


def pq_pair(text: str) -> tuple[int, int]:
    """"p,q" as two ints; anything else is a ValueError, which argparse reports against --pq."""
    p, q = (int(x) for x in text.split(","))
    return p, q


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--d", type=at_least_1, required=True)
    parser.add_argument("--pq", type=pq_pair, default=None, help="override template as 1 2^p 3^q, e.g. 1,2")
    parser.add_argument("--n-max", type=int, required=True)
    parser.add_argument("--equal-size", action="store_true")
    parser.add_argument("--workers", type=at_least_1, default=1)
    args = parser.parse_args()

    template, colouring = degree_setup(args.d, args.pq)
    sizemode = EqualSize(args.d) if args.equal_size else MixedSize(args.d)
    print(f"template {template}, colouring {colouring.name}, sizemode {sizemode}")

    n_min = template.s * sizemode.min_size
    total_found = 0
    for n in range(n_min, args.n_max + 1):
        report = verify_absence(colouring, n, template, sizemode, workers=args.workers)
        print(
            f"n={n:3d}  examined={report.examined:>10}  found={len(report.found):>3}"
            f"  {report.elapsed_ms:8.1f} ms"
        )
        for entry in report.to_json_dict()["found"]:
            print("      " + json.dumps(entry))
        total_found += len(report.found)
    print(f"total monochromatic placements: {total_found}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
