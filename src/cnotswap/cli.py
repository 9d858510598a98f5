"""Command-line interface.

Subcommands: analyze (cycle type / signature of a gate), decide (parity
verdict), synth (search for a CNOT word), group (census of the generated
group), export (permutation matrix).  Each ``_run_*`` handler returns its
exit code, its result dict and its human lines (str pieces, each ending in a
newline; a generator where the text is costly), writes nothing and never
reads ``--json``.  ``main`` alone writes stdout: the ``--json`` report, whose
``params`` are the parsed options, or else the human lines.  Diagnostics go
to stderr.  Exit codes, 74 aside, are a total function of the result:

    0  success / no parity obstruction / word found
    1  proven impossible (parity) or unreachable (exhaustion)
    2  search stopped by a depth or element cap, inconclusive
    3  group larger than the element cap
    64 usage error
    65 cost guard exceeded, or memory ran out
    74 stdout closed before the output was written (e.g. ``| head``)
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Iterator
from dataclasses import asdict
from itertools import compress, count, islice
from operator import ne

from cnotswap import __version__
from .feasibility import PARITY_DIMENSION_LIMIT, Verdict, decide
from .gates import GateKind, gate_perm, swap_perm
from .perm import CostGuardError, Perm, _check_guard
from .synthesis import (
    DEFAULT_MAX_DIMENSION,
    DEFAULT_MAX_ELEMENTS,
    GroupCensus,
    SearchOutcome,
    check_search_guards,
    enumerate_group,
    find_word,
)

EXIT_OK = 0
EXIT_IMPOSSIBLE = 1
EXIT_DEPTH_LIMIT = 2
EXIT_TOO_LARGE = 3
EXIT_USAGE = 64
EXIT_GUARD = 65
EXIT_OUTPUT_CLOSED = 74

MATRIX_DIMENSION_LIMIT = 64  # d*d rows of d*d entries beyond this is unhelpful


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be a non-negative integer")
    return value


def build_parser() -> _Parser:
    parser = _Parser(prog="cnotswap", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    def common(p):
        p.add_argument("--d", type=_positive_int, required=True, help="qudit dimension")
        p.add_argument("--json", action="store_true", help="machine-readable report")

    p_analyze = sub.add_parser("analyze", help="cycle type, signature, fixed points of a gate")
    common(p_analyze)
    p_analyze.add_argument("--gate", choices=[k.value for k in GateKind], required=True)
    p_analyze.add_argument("--matrix", action="store_true", help="include the permutation matrix")

    p_decide = sub.add_parser("decide", help="parity verdict for building SWAP from CNOTs")
    common(p_decide)

    p_synth = sub.add_parser("synth", help="search for a shortest CNOT word for a target")
    common(p_synth)
    p_synth.add_argument("--target", choices=["swap"], default="swap")
    p_synth.add_argument("--max-depth", type=_nonnegative_int, default=None)
    p_synth.add_argument("--max-elements", type=_positive_int, default=DEFAULT_MAX_ELEMENTS)
    p_synth.add_argument("--max-dimension", type=_positive_int, default=DEFAULT_MAX_DIMENSION)

    p_group = sub.add_parser("group", help="enumerate the generated group")
    common(p_group)
    p_group.add_argument("--max-elements", type=_positive_int, default=DEFAULT_MAX_ELEMENTS)
    p_group.add_argument("--max-dimension", type=_positive_int, default=DEFAULT_MAX_DIMENSION)

    p_export = sub.add_parser("export", help="print a gate's permutation matrix")
    common(p_export)
    p_export.add_argument("--gate", choices=[k.value for k in GateKind], required=True)
    p_export.add_argument("--format", choices=["pretty", "json", "csv"], default="pretty")

    return parser


# a list of one of these exact types goes out in runs: its equal items encode
# to equal text (not so for floats, where -0.0 == 0.0, nor for 1 == True)
_RUN_TYPES = [{int}, {bool}, {str}, {type(None)}]
_PIECE_CHARS = 1 << 16


def _runs(items) -> Iterator[tuple[int, int]]:
    """(start, stop) of each maximal run of equal adjacent items; the
    comparisons run in C, and only the run edges become Python objects."""
    edges = [0, *compress(count(1), map(ne, items, islice(items, 1, None))), len(items)]
    return zip(edges, edges[1:])


def _repeated(unit: str, times: int) -> Iterator[str]:
    """``unit * times`` as pieces of at most about _PIECE_CHARS characters."""
    per = max(1, _PIECE_CHARS // len(unit))
    if times >= per:
        piece = unit * per
        for _ in range(times // per):
            yield piece
    if times % per:
        yield unit * (times % per)


def _json_pieces(value, newline: str) -> Iterator[str]:
    """Pieces of ``json.dumps(value, indent=2, sort_keys=True)``; ``newline``
    is a line break plus the indent of the line the value starts on.

    ``value`` is built of dicts, lists, tuples, str, int, float, bool, None and
    ``Perm``, written as its matrix entries in row-major order; other types
    raise TypeError, as in ``json.dumps``.  The cost follows the bytes
    written: a dict with str keys goes out key by key, a ``Perm`` row by row,
    a list of one of the _RUN_TYPES run by run, any other list item by item,
    and any other value as one re-indented ``json.dumps`` piece.
    """
    inner = newline + "  "
    if isinstance(value, Perm):  # one entry a line: rows and entries share one separator
        prefix = "[" + inner
        for row in _matrix_rows(value, "," + inner):
            yield prefix + row
            prefix = "," + inner
        yield newline + "]"
    elif isinstance(value, dict) and value and all(isinstance(key, str) for key in value):
        prefix = "{" + inner
        for key, item in sorted(value.items()):
            yield prefix + json.dumps(key) + ": "
            yield from _json_pieces(item, inner)
            prefix = "," + inner
        yield newline + "}"
    elif isinstance(value, (list, tuple)) and value:
        runs = _runs(value if set(map(type, value)) in _RUN_TYPES else range(len(value)))
        prefix = "[" + inner
        for start, stop in runs:
            yield prefix
            yield from _json_pieces(value[start], inner)
            if stop - start > 1:
                yield from _repeated("," + inner + json.dumps(value[start]), stop - start - 1)
            prefix = "," + inner
        yield newline + "]"
    else:
        # exact: JSON text holds no raw line break inside a string
        yield json.dumps(value, indent=2, sort_keys=True).replace("\n", newline)


def _json_lines(value) -> Iterator[str]:
    """The JSON text of ``value``, in pieces, and a newline."""
    yield from _json_pieces(value, "\n")
    yield "\n"


def _cycle_type_text(ct) -> str:
    body = "".join(f"{ct[start]}," * (stop - start) for start, stop in _runs(ct))
    return "(" + body[:-1] + ")"


def _matrix_rows(perm: Perm, sep: str) -> Iterator[str]:
    """The permutation matrix (entry [j][i] = 1 iff perm maps i to j) row by
    row, digits joined by ``sep``: row j has its one 1 at column perm^-1(j)."""
    n = len(perm)
    for k in perm.inverse().table.tolist():
        yield ("0" + sep) * k + "1" + (sep + "0") * (n - 1 - k)


def _run_analyze(args):
    _check_guard("analyze", args.d, PARITY_DIMENSION_LIMIT)
    if args.matrix:
        _check_guard("matrix", args.d, MATRIX_DIMENSION_LIMIT)
    perm = gate_perm(GateKind(args.gate), args.d)
    ct = perm.cycle_type()
    sig = perm.signature()
    fixed = len(perm.fixed_points())
    matrix = {"n": len(perm), "entries": perm} if args.matrix else None
    result = {"gate": args.gate, "d": args.d, "cycle_type": ct, "signature": sig,
              "fixed_points": fixed, "matrix": matrix}

    def lines():
        yield f"gate: {args.gate}\n"
        yield f"d: {args.d}\n"
        yield f"cycle type: {_cycle_type_text(ct)}\n"
        yield f"signature: {sig:+d}\n"
        yield f"fixed points: {fixed}\n"
        if args.matrix:
            yield from map("{}\n".format, _matrix_rows(perm, " "))

    return EXIT_OK, result, lines()


def _run_decide(args):
    decision = decide(args.d)
    rep = decision.report
    code = EXIT_IMPOSSIBLE if decision.verdict is Verdict.INFEASIBLE_BY_PARITY else EXIT_OK
    return code, {"verdict": decision.verdict.value, "report": asdict(rep)}, (
        f"d: {rep.d} (d mod 4 = {rep.d_mod_4})\n",
        f"signatures: cnot1 {rep.sig_cnot1:+d}, cnot2 {rep.sig_cnot2:+d}, swap {rep.sig_swap:+d}\n",
        f"verdict: {decision.verdict.value}\n",
    )


def _run_synth(args):
    check_search_guards(args.d, args.max_dimension)  # before the target's d*d table
    result = find_word(args.d, swap_perm(args.d), max_depth=args.max_depth,
                       max_elements=args.max_elements, max_dimension=args.max_dimension)
    outcome = result.outcome.value
    if result.outcome is SearchOutcome.FOUND:
        names = [letter.name for letter in result.word.letters]
        return EXIT_OK, {"outcome": outcome, "length": len(names), "word": names}, (
            f"FOUND: length {len(names)}\n",
            f"word: {' '.join(names) or '(empty)'}\n",
        )
    if result.outcome is SearchOutcome.UNREACHABLE_EXHAUSTED:
        return EXIT_IMPOSSIBLE, {"outcome": outcome, "group_order": result.group_order,
                                 "diameter": result.diameter}, (
            f"UNREACHABLE_EXHAUSTED: group order {result.group_order}, "
            f"diameter {result.diameter}\n",
        )
    return EXIT_DEPTH_LIMIT, {"outcome": outcome, "explored_depth": result.explored_depth,
                              "frontier_size": result.frontier_size}, (
        f"DEPTH_LIMIT: explored depth {result.explored_depth}, "
        f"frontier size {result.frontier_size}\n",
    )


def _run_group(args):
    result = enumerate_group(args.d, max_elements=args.max_elements,
                             max_dimension=args.max_dimension)
    if isinstance(result, GroupCensus):
        return EXIT_OK, {"outcome": "census", **asdict(result)}, (
            f"d: {result.d}\n",
            f"order: {result.order}\n",
            f"diameter: {result.diameter}\n",
            f"counts by depth: {' '.join(map(str, result.counts_by_depth))}\n",
        )
    return EXIT_TOO_LARGE, {"outcome": "too_large", **asdict(result)}, (
        f"group too large: more than {result.max_elements} elements at d = {result.d} "
        f"({result.elements_found} found before stopping)\n",
    )


def _run_export(args):
    _check_guard("matrix", args.d, MATRIX_DIMENSION_LIMIT)
    perm = gate_perm(GateKind(args.gate), args.d)
    matrix = {"n": len(perm), "entries": perm}
    lines = (_json_lines(matrix) if args.format == "json"
             else map("{}\n".format, _matrix_rows(perm, " " if args.format == "pretty" else ",")))
    return EXIT_OK, {"gate": args.gate, "d": args.d, "format": args.format, "matrix": matrix}, lines


_HANDLERS = {
    "analyze": _run_analyze,
    "decide": _run_decide,
    "synth": _run_synth,
    "group": _run_group,
    "export": _run_export,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.error("a command is required")
    try:
        code, result, lines = _HANDLERS[args.command](args)
        if args.json:
            params = {k: v for k, v in vars(args).items() if k not in ("command", "json")}
            lines = _json_lines({"command": args.command, "params": params, "result": result,
                                 "version": __version__})
        sys.stdout.writelines(lines)
        return code
    except BrokenPipeError:
        # else the exit-time flush hits the closed pipe and prints a warning
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OUTPUT_CLOSED
    except CostGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except MemoryError as exc:  # the guards let through a run too large to allocate
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return EXIT_GUARD


if __name__ == "__main__":
    sys.exit(main())
