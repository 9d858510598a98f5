"""Command-line interface.

Subcommands: analyze (cycle type / signature of a gate), decide (parity
verdict), synth (search for a CNOT word), group (census of the generated
group), export (permutation matrix).  Results go to stdout, diagnostics to
stderr.  Exit codes are a total function of the result variant:

    0  success / no parity obstruction / word found
    1  proven impossible (parity) or unreachable (exhaustion)
    2  search stopped by a depth or element cap, inconclusive
    3  group larger than the element cap
    64 usage error
    65 cost guard exceeded, or memory ran out
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Iterator
from itertools import compress, count, islice
from json.encoder import encode_basestring_ascii
from operator import is_not, ne

from cnotswap import __version__
from .feasibility import PARITY_DIMENSION_LIMIT, Verdict, decide
from .gates import GateKind, gate_perm, swap_perm
from .perm import CostGuardError
from .synthesis import (
    DEFAULT_MAX_DIMENSION,
    DEFAULT_MAX_ELEMENTS,
    GroupCensus,
    SearchOutcome,
    census_payload,
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

ANALYZE_DIMENSION_LIMIT = PARITY_DIMENSION_LIMIT
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


# exact types whose equal items always encode to equal text: floats are left
# out because -0.0 == 0.0, and the type check keeps 1 apart from True
_RUN_TYPES = (int, bool, str, type(None))
_PIECE_CHARS = 1 << 16


def _runs(items) -> Iterator[tuple[int, int]]:
    """(start, stop) of each maximal run of adjacent items equal in type and value.

    The comparisons run in C over the whole sequence; only the run
    boundaries become Python objects.
    """
    breaks = set(compress(count(1), map(ne, items, islice(items, 1, None))))
    types = map(type, items), map(type, islice(items, 1, None))
    breaks.update(compress(count(1), map(is_not, *types)))
    edges = sorted(breaks | {0, len(items)})
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


def _float_text(value: float) -> str:
    if value != value:
        return "NaN"
    if value == float("inf"):
        return "Infinity"
    if value == -float("inf"):
        return "-Infinity"
    return float.__repr__(value)


def _scalar_text(value) -> str | None:
    """JSON text of a scalar, in the order of checks ``json`` makes; None for
    a list, tuple or dict."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float_text(value)
    if isinstance(value, (list, tuple, dict)):
        return None
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _key_text(key) -> str:
    """JSON text of a dict key: a non-str scalar key becomes its text quoted."""
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    text = _scalar_text(key)
    if text is None:
        raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
    return '"' + text + '"'


def _json_pieces(value, newline: str) -> Iterator[str]:
    """Pieces of the JSON text of ``value``; ``newline`` is a line break plus
    the indent of the line the value starts on."""
    text = _scalar_text(value)
    if text is not None:
        yield text
        return
    inner = newline + "  "
    if isinstance(value, dict):
        if not value:
            yield "{}"
            return
        prefix = "{" + inner
        for key, item in sorted(value.items()):
            yield prefix + _key_text(key) + ": "
            yield from _json_pieces(item, inner)
            prefix = "," + inner
        yield newline + "}"
        return
    if not value:
        yield "[]"
        return
    prefix = "[" + inner
    for start, stop in _runs(value):
        first = value[start]
        if type(first) in _RUN_TYPES:
            text = _scalar_text(first)
            yield prefix + text
            yield from _repeated("," + inner + text, stop - start - 1)
        else:
            for item in value[start:stop]:
                yield prefix
                yield from _json_pieces(item, inner)
                prefix = "," + inner
        prefix = "," + inner
    yield newline + "]"


def write_json(value, write) -> None:
    """Write ``json.dumps(value, indent=2, sort_keys=True)`` through ``write``.

    ``value`` is built of dicts, lists, tuples, str, int, float, bool and
    None; other types raise TypeError, as in ``json.dumps``.  The text goes
    out in pieces as it is made, and each run of equal adjacent list items
    of one of the _RUN_TYPES goes out as one string repetition, so the cost
    follows the bytes written, not the number of items, and the whole
    document is never held at once.
    """
    for piece in _json_pieces(value, "\n"):
        write(piece)


def _print_json(value) -> None:
    write_json(value, sys.stdout.write)
    sys.stdout.write("\n")


def _print_json_report(command: str, params: dict, result: dict) -> None:
    _print_json({"command": command, "params": params, "result": result,
                 "version": __version__})


def _print_report(args, command: str, params: dict, result: dict, human) -> None:
    """The ``--json`` report, or else the lines ``human()`` returns."""
    if args.json:
        _print_json_report(command, params, result)
    else:
        for line in human():
            print(line)


def _cycle_type_text(ct) -> str:
    body = "".join(f"{ct[start]}," * (stop - start) for start, stop in _runs(ct))
    return "(" + body[:-1] + ")"


def _sig_text(sig: int) -> str:
    return f"{sig:+d}"


def _run_analyze(args) -> int:
    if args.d > ANALYZE_DIMENSION_LIMIT:
        raise CostGuardError(
            f"analyze guard: d = {args.d} exceeds {ANALYZE_DIMENSION_LIMIT}"
        )
    if args.matrix and args.d > MATRIX_DIMENSION_LIMIT:
        raise CostGuardError(
            f"matrix guard: d = {args.d} exceeds {MATRIX_DIMENSION_LIMIT}"
        )
    kind = GateKind(args.gate)
    perm = gate_perm(kind, args.d)
    ct = perm.cycle_type()
    sig = perm.signature()
    fixed = len(perm.fixed_points())
    matrix = perm.to_matrix() if args.matrix else None
    if args.json:
        result = {
            "gate": kind.value,
            "d": args.d,
            "cycle_type": ct,
            "signature": sig,
            "fixed_points": fixed,
            "matrix": matrix.json_payload() if matrix else None,
        }
        _print_json_report("analyze", {"d": args.d, "gate": kind.value, "matrix": args.matrix},
                           result)
        return EXIT_OK
    print(f"gate: {kind.value}")
    print(f"d: {args.d}")
    print(f"cycle type: {_cycle_type_text(ct)}")
    print(f"signature: {_sig_text(sig)}")
    print(f"fixed points: {fixed}")
    if matrix:
        print(matrix.pretty())
    return EXIT_OK


def _run_decide(args) -> int:
    decision = decide(args.d)
    rep = decision.report
    result = {
        "verdict": decision.verdict.value,
        "report": {
            "d": rep.d,
            "sig_cnot1": rep.sig_cnot1,
            "sig_cnot2": rep.sig_cnot2,
            "sig_swap": rep.sig_swap,
            "d_mod_4": rep.d_mod_4,
        },
    }
    human = lambda: [
        f"d: {rep.d} (d mod 4 = {rep.d_mod_4})",
        "signatures: cnot1 {}, cnot2 {}, swap {}".format(
            _sig_text(rep.sig_cnot1), _sig_text(rep.sig_cnot2), _sig_text(rep.sig_swap)
        ),
        f"verdict: {decision.verdict.value}",
    ]
    _print_report(args, "decide", {"d": args.d}, result, human)
    return EXIT_IMPOSSIBLE if decision.verdict is Verdict.INFEASIBLE_BY_PARITY else EXIT_OK


def _run_synth(args) -> int:
    check_search_guards(args.d, args.max_dimension)  # before the target's d*d table
    result = find_word(
        args.d,
        swap_perm(args.d),
        max_depth=args.max_depth,
        max_elements=args.max_elements,
        max_dimension=args.max_dimension,
    )
    params = {
        "d": args.d,
        "target": args.target,
        "max_depth": args.max_depth,
        "max_elements": args.max_elements,
        "max_dimension": args.max_dimension,
    }
    if result.outcome is SearchOutcome.FOUND:
        word_names = [letter.name for letter in result.word.letters]
        payload = {"outcome": result.outcome.value, "length": len(word_names),
                   "word": word_names}
        human = lambda: [
            f"FOUND: length {len(word_names)}",
            "word: " + (" ".join(word_names) if word_names else "(empty)"),
        ]
        code = EXIT_OK
    elif result.outcome is SearchOutcome.UNREACHABLE_EXHAUSTED:
        payload = {"outcome": result.outcome.value, "group_order": result.group_order,
                   "diameter": result.diameter}
        human = lambda: [
            f"UNREACHABLE_EXHAUSTED: group order {result.group_order}, "
            f"diameter {result.diameter}"
        ]
        code = EXIT_IMPOSSIBLE
    else:
        payload = {"outcome": result.outcome.value, "explored_depth": result.explored_depth,
                   "frontier_size": result.frontier_size}
        human = lambda: [
            f"DEPTH_LIMIT: explored depth {result.explored_depth}, "
            f"frontier size {result.frontier_size}"
        ]
        code = EXIT_DEPTH_LIMIT
    _print_report(args, "synth", params, payload, human)
    return code


def _run_group(args) -> int:
    result = enumerate_group(
        args.d,
        max_elements=args.max_elements,
        max_dimension=args.max_dimension,
    )
    params = {
        "d": args.d,
        "max_elements": args.max_elements,
        "max_dimension": args.max_dimension,
    }
    if isinstance(result, GroupCensus):
        payload = {"outcome": "census", **census_payload(result)}
        human = lambda: [
            f"d: {result.d}",
            f"order: {result.order}",
            f"diameter: {result.diameter}",
            "counts by depth: " + " ".join(str(c) for c in result.counts_by_depth),
        ]
        code = EXIT_OK
    else:
        payload = {
            "outcome": "too_large",
            "d": result.d,
            "max_elements": result.max_elements,
            "elements_found": result.elements_found,
        }
        human = lambda: [
            f"group too large: more than {result.max_elements} elements at d = {result.d} "
            f"({result.elements_found} found before stopping)"
        ]
        code = EXIT_TOO_LARGE
    _print_report(args, "group", params, payload, human)
    return code


def _run_export(args) -> int:
    if args.d > MATRIX_DIMENSION_LIMIT:
        raise CostGuardError(
            f"matrix guard: d = {args.d} exceeds {MATRIX_DIMENSION_LIMIT}"
        )
    kind = GateKind(args.gate)
    matrix = gate_perm(kind, args.d).to_matrix()
    if args.json:
        result = {"gate": kind.value, "d": args.d, "format": args.format,
                  "matrix": matrix.json_payload()}
        _print_json_report("export", {"d": args.d, "gate": kind.value, "format": args.format},
                           result)
        return EXIT_OK
    if args.format == "pretty":
        print(matrix.pretty())
    elif args.format == "csv":
        print(matrix.csv())
    else:
        _print_json(matrix.json_payload())
    return EXIT_OK


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
        return _HANDLERS[args.command](args)
    except CostGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except MemoryError as exc:  # the guards let through a run too large to allocate
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return EXIT_GUARD


if __name__ == "__main__":
    sys.exit(main())
