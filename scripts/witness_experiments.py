#!/usr/bin/env python3
"""Witness-colouring outcomes per colour count for template 123.

Blocks have size 1 unless --size-mode (equal:<d> or mixed:<d>) says otherwise.
For each (n, k) the backtracking search reports one of: witness (an explicit
k-colouring of [3]^n with no monochromatic placement), none (proven
impossible by exhaustion), or budget (node limit hit first).  The outcomes are
empirical observations per (n, k); nothing about minimal k is asserted.
"""

import argparse
import sys

sys.path.insert(0, "src")

from blocksets.blocks import parse_sizemode, template_from_word
from blocksets.search import BudgetExceeded, witness_search
from flags import at_least_1


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=int, default=5)
    parser.add_argument("--k-max", type=at_least_1, default=4)
    parser.add_argument("--budget", type=at_least_1, default=2_000_000)
    parser.add_argument("--size-mode", type=parse_sizemode, default="mixed:1", help="equal:<d> or mixed:<d>")
    args = parser.parse_args()

    template = template_from_word("123")
    sizemode = args.size_mode
    print(f"template {template}, sizemode {sizemode}, budget {args.budget}")
    print(f"{'n':>3} {'k':>3}  outcome")
    for n in range(template.s * sizemode.min_size, args.n_max + 1):  # the shortest n that holds a placement
        for k in range(1, args.k_max + 1):
            try:
                witness = witness_search(n, template, sizemode, k, budget=args.budget)
            except BudgetExceeded as exc:
                print(f"{n:>3} {k:>3}  budget ({exc.nodes} nodes)")
                continue
            outcome = "witness" if witness is not None else "none"
            print(f"{n:>3} {k:>3}  {outcome}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
