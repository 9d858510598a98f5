#!/usr/bin/env python3
"""Sweep qudit dimensions: every certificate on SWAP as a CNOT word, per d.

Each d gets one row: the parity verdict (CNOTs even and SWAP odd rules out
d = 3 mod 4), the determinant of SWAP over Z_d (CNOTs have det 1 and SWAP
det -1, which rules out every d >= 3), the search for SWAP with its word,
and the group order, checked against |SL(2, Z_d)|, with the diameter.  One
closure runs per d: the search exhausts the group wherever SWAP is out of
reach, and a census runs only where it finds SWAP (d = 1, 2).  A search
guard or the element cap fills only the search columns of its row, with the
reason; the parity guard (d > 1000) stops the whole row.  Exit 1 if an
order deviates, else 3 if a row stopped at the element cap, so no row goes
unchecked silently; guard rows and --skip-search runs exit 0.

Usage:
    python scripts/sweep.py --d-max 12
    python scripts/sweep.py --d-max 40 --skip-search --json-out sweep.json
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cnotswap.cli import _positive_int
from cnotswap.feasibility import decide
from cnotswap.gates import GATE_MATRICES, GateKind, _determinant, gate_perm
from cnotswap.guards import CostGuardError
from cnotswap.synthesis import SearchOutcome, enumerate_group, find_word, sl2_order


def sweep_row(d: int, max_elements: int, skip_search: bool) -> dict:
    """The row of d; the parity guard raises CostGuardError."""
    decision = decide(d)
    det_swap = _determinant(d, GATE_MATRICES[GateKind.SWAP])
    row = {
        "d": d,
        "d_mod_4": decision.report.d_mod_4,
        "sig_cnot": decision.report.sig_cnot1,
        "sig_swap": decision.report.sig_swap,
        "verdict": decision.verdict.value,
        "det_swap": det_swap,
        "det_verdict": ("INFEASIBLE_BY_DETERMINANT" if det_swap != 1 % d
                        else "UNKNOWN_BY_DETERMINANT"),
        "search": None, "word": None, "group_order": None, "sl2_order": sl2_order(d),
        "diameter": None, "stop": None, "reason": None}
    if skip_search:
        return row
    try:
        result = find_word(d, gate_perm(GateKind.SWAP, d), max_elements=max_elements,
                           max_dimension=d)
    except CostGuardError as exc:
        return {**row, "stop": "guard", "reason": str(exc)}
    row["search"] = result.outcome.value
    order, diameter = result.group_order, result.diameter
    if result.outcome is SearchOutcome.FOUND:
        row["word"] = [letter.name for letter in result.word.letters]
        census = enumerate_group(d, max_elements=max_elements, max_dimension=d)
        order, diameter = getattr(census, "order", None), getattr(census, "diameter", None)
    if order is None:
        row.update(stop="cap", reason=f"over the {max_elements}-element cap")
    return {**row, "group_order": order, "diameter": diameter}


def print_table(rows: list[dict]) -> None:
    print(f"{'d':>4} mod4 cnot swap {'parity':<10}  det {'by det':<10} {'search':<21}    order"
          "  sl2(Z_d) match diam  word or stop")
    for r in rows:
        if "verdict" not in r:
            print(f"{r['d']:>4} stopped by the {r['reason']}")
            continue
        cell = {key: "-" if value is None else str(value) for key, value in r.items()}
        match = "-" if r["group_order"] is None else str(r["group_order"] == r["sl2_order"])
        word = r["reason"] or ("-" if r["word"] is None else " ".join(r["word"]) or "(empty)")
        print(f"{r['d']:>4} {r['d_mod_4']:>4} {r['sig_cnot']:>+4d} {r['sig_swap']:>+4d} "
              f"{r['verdict'].split('_BY_')[0]:<10} {r['det_swap']:>4} "
              f"{r['det_verdict'].split('_BY_')[0]:<10} {cell['search']:<21} "
              f"{cell['group_order']:>8} {r['sl2_order']:>9} {match:>5} {cell['diameter']:>4}"
              f"  {word}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--d-min", type=_positive_int, default=1)
    parser.add_argument("--d-max", type=_positive_int, default=12)
    parser.add_argument("--max-elements", type=_positive_int, default=2_000_000)
    parser.add_argument("--skip-search", action="store_true",
                        help="certificates only: no search, no census")
    parser.add_argument("--json-out", type=Path, default=None)
    args = parser.parse_args()
    if args.d_min > args.d_max:
        parser.error(f"--d-min {args.d_min} exceeds --d-max {args.d_max}: no dimension to sweep")

    rows = []
    for d in range(args.d_min, args.d_max + 1):
        try:
            rows.append(sweep_row(d, args.max_elements, args.skip_search))
        except CostGuardError as exc:
            rows.append({"d": d, "stop": "guard", "reason": str(exc)})
    print_table(rows)
    if args.json_out is not None:
        args.json_out.write_text(json.dumps(rows, indent=2, sort_keys=True) + "\n")

    deviating = [r["d"] for r in rows
                 if r.get("group_order") is not None and r["group_order"] != r["sl2_order"]]
    if deviating:
        print(f"\n{len(deviating)} dimension(s) deviate from the SL(2, Z_d) order: {deviating}")
        return 1
    summary = "all orders match the SL(2, Z_d) formula"
    capped = [str(r["d"]) for r in rows if r["stop"] == "cap"]
    guarded = [str(r["d"]) for r in rows if r["stop"] == "guard"]
    if capped:
        summary += (f"; not checked, over the {args.max_elements}-element cap: "
                    f"d = {', '.join(capped)}")
    if guarded:
        summary += f"; not checked, stopped by a guard: d = {', '.join(guarded)}"
    print("\n" + summary)
    return 3 if capped else 0


if __name__ == "__main__":
    sys.exit(main())
