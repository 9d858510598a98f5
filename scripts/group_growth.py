#!/usr/bin/env python3
"""Growth of the CNOT-generated group with dimension.

The two generators act linearly on digit pairs as the elementary matrices
[[1,0],[1,1]] and [[1,1],[0,1]] over Z_d, so the closure should realize
SL(2, Z_d), of order d**3 * prod_{p | d} (1 - p**-2).  This script censuses
the group per dimension, checks the order against that formula, and prints
how the Cayley-graph diameter grows.

Usage:
    python scripts/group_growth.py --d-max 15
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cnotswap.perm import CostGuardError
from cnotswap.synthesis import GroupTooLarge, enumerate_group


def sl2_order(d: int) -> int:
    order = d**3
    rest = d
    p = 2
    while p * p <= rest:
        if rest % p == 0:
            order = order * (p * p - 1) // (p * p)
            while rest % p == 0:
                rest //= p
        p += 1
    if rest > 1:
        order = order * (rest * rest - 1) // (rest * rest)
    return order


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--d-min", type=int, default=1)
    parser.add_argument("--d-max", type=int, default=15)
    parser.add_argument("--max-elements", type=int, default=2_000_000)
    args = parser.parse_args()

    print(f"{'d':>3} {'order':>9} {'sl2(Z_d)':>9} {'match':>5} {'diameter':>8}  widest layer")
    mismatches = 0
    capped, guarded = [], []
    for d in range(args.d_min, args.d_max + 1):
        expected = sl2_order(d)
        try:
            census = enumerate_group(d, max_elements=args.max_elements,
                                     max_dimension=max(args.d_max, 31))
        except CostGuardError as exc:
            guarded.append(d)
            print(f"{d:>3} {'guard':>9} {expected:>9} {'-':>5} {'-':>8}  {exc}")
            continue
        if isinstance(census, GroupTooLarge):
            capped.append(d)
            print(f"{d:>3} {'capped':>9} {expected:>9} {'-':>5} {'-':>8}  "
                  f"{census.elements_found} elements found before the cap")
            continue
        ok = census.order == expected
        mismatches += 0 if ok else 1
        widest = max(census.counts_by_depth)
        print(f"{d:>3} {census.order:>9} {expected:>9} {str(ok):>5} {census.diameter:>8}  "
              f"{widest} at depth {census.counts_by_depth.index(widest)}")
    if mismatches:
        print(f"\n{mismatches} dimension(s) deviate from the SL(2, Z_d) order")
        return 1
    summary = "all orders match the SL(2, Z_d) formula"
    if capped:
        summary += (f"; not checked, over the {args.max_elements}-element cap: "
                    f"d = {', '.join(map(str, capped))}")
    if guarded:
        summary += f"; not checked, stopped by a guard: d = {', '.join(map(str, guarded))}"
    print("\n" + summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
