#!/usr/bin/env python3
"""Sweep qudit dimensions: parity verdict vs exhaustive search outcome.

For each d the parity argument either proves that no CNOT word can equal
SWAP (d = 3 mod 4) or stays silent.  The search then settles the silent
cases per dimension by enumerating the generated group.  Prints one table
row per dimension; optionally dumps the rows as JSON.

Usage:
    python scripts/dimension_sweep.py --d-max 12
    python scripts/dimension_sweep.py --d-max 20 --skip-search --json-out sweep.json
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cnotswap.cli import _positive_int
from cnotswap.feasibility import Verdict, decide
from cnotswap.gates import swap_perm
from cnotswap.perm import CostGuardError
from cnotswap.synthesis import DEFAULT_MAX_DIMENSION, SearchOutcome, enumerate_group, find_word


def sweep_row(args: argparse.Namespace, d: int) -> dict:
    decision = decide(d)
    rep = decision.report
    row = {
        "d": d,
        "d_mod_4": rep.d_mod_4,
        "sig_cnot": rep.sig_cnot1,
        "sig_swap": rep.sig_swap,
        "verdict": decision.verdict.value,
        "group_order": None,
        "search": None,
        "word": None,
    }
    if args.skip_search or d > args.max_dimension:
        return row
    result = find_word(d, swap_perm(d), max_elements=args.max_elements,
                       max_dimension=args.max_dimension)
    row["search"] = result.outcome.value
    # an exhausted search has enumerated the whole group already
    if result.outcome is SearchOutcome.UNREACHABLE_EXHAUSTED:
        row["group_order"] = result.group_order
    else:
        census = enumerate_group(d, max_elements=args.max_elements,
                                 max_dimension=args.max_dimension)
        row["group_order"] = getattr(census, "order", None)
    if result.outcome is SearchOutcome.FOUND:
        row["word"] = [letter.name for letter in result.word.letters]
    return row


def print_table(rows: list[dict]) -> None:
    header = f"{'d':>3} {'mod4':>4} {'cnot':>5} {'swap':>5} {'verdict':<22} {'order':>8} {'search':<22} word"
    print(header)
    print("-" * len(header))
    for r in rows:
        if "guard" in r:
            print(f"{r['d']:>3} stopped by the {r['guard']}")
            continue
        order = "-" if r["group_order"] is None else str(r["group_order"])
        search = r["search"] or "-"
        word = " ".join(r["word"]) if r["word"] else ("-" if r["word"] is None else "(empty)")
        print(f"{r['d']:>3} {r['d_mod_4']:>4} {r['sig_cnot']:>+5d} {r['sig_swap']:>+5d} "
              f"{r['verdict']:<22} {order:>8} {search:<22} {word}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--d-min", type=_positive_int, default=1)
    parser.add_argument("--d-max", type=_positive_int, default=12)
    parser.add_argument("--max-elements", type=_positive_int, default=2_000_000)
    parser.add_argument("--max-dimension", type=_positive_int, default=DEFAULT_MAX_DIMENSION)
    parser.add_argument("--skip-search", action="store_true",
                        help="report parity only, no group enumeration")
    parser.add_argument("--json-out", type=Path, default=None)
    args = parser.parse_args()

    rows = []
    for d in range(args.d_min, args.d_max + 1):
        try:
            rows.append(sweep_row(args, d))
        except CostGuardError as exc:
            rows.append({"d": d, "guard": str(exc)})
    print_table(rows)

    obstructed = [r["d"] for r in rows if r.get("verdict") == Verdict.INFEASIBLE_BY_PARITY.value]
    unreachable = [r["d"] for r in rows
                   if r.get("search") == SearchOutcome.UNREACHABLE_EXHAUSTED.value]
    found = [r["d"] for r in rows if r.get("search") == SearchOutcome.FOUND.value]
    guarded = [r["d"] for r in rows if "guard" in r]
    print()
    print(f"parity-obstructed (d = 3 mod 4): {obstructed}")
    if not args.skip_search:
        print(f"search exhausted, swap unreachable: {unreachable}")
        print(f"swap synthesized: {found}")
    if guarded:
        print(f"stopped by a guard: {guarded}")

    if args.json_out is not None:
        args.json_out.write_text(json.dumps(rows, indent=2, sort_keys=True) + "\n")
        print(f"\nwrote {args.json_out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
