#!/usr/bin/env python3
"""Exploratory monochromatic-progression searches on coloured boxes of Z^n.

Sweeps the x-v, x, x+v search over the requested colouring and box for each
norm d.  That search is the r = t = 1 generated-ball search; run `blocksets
lattice ball` for other radii and generator counts.  These are exploration
harnesses: a None simply means the box held no configuration, never a proof.
"""

import argparse
import sys

sys.path.insert(0, "src")

from blocksets.cli import parse_lattice_colouring
from blocksets.lattice import parse_box, search_l1_ap
from flags import at_least_1


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--colouring", default="coordsum:d=2")
    parser.add_argument("--box", type=parse_box, default="0..4^3", help="lo..hi^n")
    parser.add_argument("--d-max", type=at_least_1, default=3)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    box = args.box
    try:
        colouring = parse_lattice_colouring(args.colouring, box, args.seed)
    except ValueError as exc:  # the CLI's UsageError, or a colouring's own check
        parser.error(f"argument --colouring: {exc}")
    print(f"colouring {colouring.name}, box {box}")
    for d in range(1, args.d_max + 1):
        hit = search_l1_ap(colouring, box, d)
        if hit is None:
            print(f"d={d}: no monochromatic x-v, x, x+v in the box")
        else:
            x, v = hit
            print(f"d={d}: x={x} v={v} colour={colouring.colour_id(x)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
