"""Seeded inputs for each workload and the oracle check of each answer.

A workload is an endless sequence of rounds.  Round r depends only on
(seed, r), so two commits that run the same number of rounds answer the same
inputs.  Each round is stratified so that every round has nearly the same
cost profile: the metrics then depend on the code under test, not on which
dimensions a seed happened to draw.

Requests are plain JSON data.  CLI requests carry the argv the program
receives; library requests carry d and the target matrix.  ``check`` returns
``None`` for a correct answer and a one-line reason otherwise.
"""

from __future__ import annotations

import hashlib
import json
import random

import oracle

CLOSURE_MAX_DIMENSION = 48
REACHABLE_MAX_DIMENSION = 40


def _rng(seed: int, workload: str, round_no: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{round_no}")


def _closure_strata() -> list[list[int]]:
    """[8, 48] split into groups of similar closure cost, |SL(2, Z_d)| * d^2.

    The costliest dimension stands alone and is in every round, so the peak
    memory of a round does not depend on the draw; the rest are paired by
    cost rank, and a round draws one dimension from each pair.
    """
    by_cost = sorted(
        range(8, CLOSURE_MAX_DIMENSION + 1),
        key=lambda d: (oracle.sl2_order(d) * d * d, d),
        reverse=True,
    )
    return [by_cost[:1]] + [by_cost[i : i + 2] for i in range(1, len(by_cost), 2)]


CLOSURE_STRATA = _closure_strata()


def closure_swap_round(seed: int, round_no: int) -> list[dict]:
    """d in {1, 2} and one d per cost stratum of [8, 48]; synth and group
    alternate in a seeded order."""
    rng = _rng(seed, "closure_swap", round_no)
    dims = [1, 2] + [rng.choice(stratum) for stratum in CLOSURE_STRATA]
    rng.shuffle(dims)
    phase = rng.randrange(2)
    out = []
    for i, d in enumerate(dims):
        bound = ["--max-dimension", str(CLOSURE_MAX_DIMENSION)]
        if (i + phase) % 2:
            argv = ["synth", "--d", str(d), "--target", "swap", "--json", *bound]
        else:
            argv = ["group", "--d", str(d), "--json", *bound]
        out.append({"kind": argv[0], "d": d, "argv": argv})
    return out


PARITY_MAX_DIMENSION = 1000
PARITY_STRATA = 23
PARITY_JITTER = 4
PARITY_KINDS = (("decide", None), ("analyze", "cnot1"), ("decide", None), ("analyze", "swap"))


def parity_large_d_round(seed: int, round_no: int) -> list[dict]:
    """One answer near the middle of each of 23 equal slices of [100, 1000),
    plus ``analyze --gate swap --d 1000``, the costliest input in time and
    memory.

    Cost grows as d^2, so each d is the slice's midpoint moved by at most
    PARITY_JITTER: the seed changes d mod 4 and the factorization of d (and
    with them verdicts and cycle types) but hardly the cost.  The command
    cycles with the slice index (half decide, a quarter each analyze cnot1 /
    swap), so every round has the same mix at the same sizes.
    """
    rng = _rng(seed, "parity_large_d", round_no)
    k = PARITY_STRATA
    edges = [100 + (900 * i) // k for i in range(k + 1)]
    picks = []
    for i in range(k):
        d = (edges[i] + edges[i + 1]) // 2 + rng.randint(-PARITY_JITTER, PARITY_JITTER)
        picks.append((d, PARITY_KINDS[i % len(PARITY_KINDS)]))
    picks.append((PARITY_MAX_DIMENSION, ("analyze", "swap")))
    out = []
    for d, (kind, gate) in picks:
        argv = [kind, "--d", str(d), "--json"]
        if gate:
            argv[1:1] = ["--gate", gate]
        out.append({"kind": kind, "d": d, "gate": gate, "argv": argv})
    rng.shuffle(out)
    return out


REACHABLE_DIMS = range(16, REACHABLE_MAX_DIMENSION + 1)
REACHABLE_STRATA = 4
REACHABLE_POOL = 64  # candidate words per stratum


def reachable_words_round(seed: int, round_no: int, censuses) -> list[dict]:
    """Four targets at every d in [16, 40], each the evaluation of a random
    word whose length is uniform in [1, 2 * diameter(d)].

    Per d, 4 * 64 random words are drawn and sorted by the breadth-first index
    of their value (the work a search does to reach it); the target of stratum
    s is the middle word of the s-th quarter.  Every round then spans shallow
    and deep targets at every d in the same proportions, while the words
    themselves change with the seed.
    """
    rng = _rng(seed, "reachable_words", round_no)
    out = []
    for d in REACHABLE_DIMS:
        census = censuses(d)
        max_len = 2 * census.diameter
        pool = []
        for _ in range(REACHABLE_STRATA * REACHABLE_POOL):
            length = rng.randint(1, max_len)
            target = oracle.evaluate([rng.choice(oracle.LETTERS) for _ in range(length)], d)
            pool.append((census.index[census.key(target)], length, target))
        pool.sort()
        for stratum in range(REACHABLE_STRATA):
            _, length, target = pool[stratum * REACHABLE_POOL + REACHABLE_POOL // 2]
            out.append({
                "kind": "find_word",
                "d": d,
                "target": list(target),
                "length": length,
                "max_dimension": REACHABLE_MAX_DIMENSION,
            })
    rng.shuffle(out)
    return out


def inputs_digest(requests: list[dict]) -> str:
    blob = json.dumps(requests, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


# ----------------------------------------------------------------- checks


def _cli_report(response: dict, expected_code: int, command: str):
    if response.get("error"):
        return None, response["error"]
    if "Traceback" in response["stderr"]:
        return None, "traceback on stderr"
    if response["code"] != expected_code:
        return None, f"exit code {response['code']}, expected {expected_code}"
    try:
        report = json.loads(response["stdout"])
    except json.JSONDecodeError as exc:
        return None, f"unparseable --json output: {exc}"
    if not isinstance(report, dict) or report.get("command") != command:
        return None, f"report is not a {command} report"
    return report.get("result"), None


def _diff(got, want) -> str | None:
    if got == want:
        return None
    if isinstance(got, dict) and isinstance(want, dict):
        keys = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
        return "mismatch in " + ", ".join(keys)
    return "mismatch"


def check_cli(request: dict, response: dict, censuses) -> str | None:
    d = request["d"]
    kind = request["kind"]
    if kind == "synth":
        # det(SWAP) = -1 and every word has det 1, so SWAP is reachable only
        # where -1 = 1 mod d, that is d <= 2, by the known words
        word = oracle.KNOWN_SWAP_WORDS.get(d)
        if word is None:
            want = {
                "outcome": "UNREACHABLE_EXHAUSTED",
                "group_order": oracle.sl2_order(d),
                "diameter": censuses(d).diameter,
            }
        else:
            want = {"outcome": "FOUND", "length": len(word), "word": word}
        result, err = _cli_report(response, 1 if word is None else 0, "synth")
    elif kind == "group":
        census = censuses(d)
        want = {
            "outcome": "census",
            "d": d,
            "order": oracle.sl2_order(d),
            "diameter": census.diameter,
            "counts_by_depth": census.counts_by_depth,
        }
        result, err = _cli_report(response, 0, "group")
        counts = result.get("counts_by_depth") if isinstance(result, dict) else None
        summable = isinstance(counts, list) and all(type(c) is int for c in counts)
        if not err and not (summable and sum(counts) == want["order"]):
            err = "counts_by_depth does not sum to |SL(2, Z_d)|"
    elif kind == "decide":
        verdict = oracle.parity_verdict(d)
        want = {
            "verdict": verdict,
            "report": {
                "d": d,
                "sig_cnot1": oracle.cnot_signature(d),
                "sig_cnot2": oracle.cnot_signature(d),
                "sig_swap": oracle.swap_signature(d),
                "d_mod_4": d % 4,
            },
        }
        code = 1 if verdict == "INFEASIBLE_BY_PARITY" else 0
        result, err = _cli_report(response, code, "decide")
    elif kind == "analyze":
        gate = request["gate"]
        ct = oracle.swap_cycle_type(d) if gate == "swap" else oracle.cnot_cycle_type(d)
        want = {
            "gate": gate,
            "d": d,
            "cycle_type": ct,
            "signature": oracle.signature_of(ct),
            "fixed_points": d,
            "matrix": None,
        }
        result, err = _cli_report(response, 0, "analyze")
    else:
        raise ValueError(f"unknown request kind {kind!r}")
    return err or _diff(result, want)


def check_word(request: dict, response: dict, censuses) -> str | None:
    if response.get("error"):
        return response["error"]
    d = request["d"]
    target = tuple(request["target"])
    if response.get("outcome") != "FOUND":
        return f"outcome {response.get('outcome')}, expected FOUND"
    word = response.get("word")
    if not isinstance(word, list) or any(w not in oracle.LETTERS for w in word):
        return "word is not a list of generator names"
    if oracle.evaluate(word, d) != tuple(v % d for v in target):
        return "word does not evaluate to the target"
    shortest = censuses(d).word(target)
    if len(word) != len(shortest):
        return f"word length {len(word)}, shortest is {len(shortest)}"
    if word != shortest:
        return "word is not the lexicographically least shortest word"
    return None


def elements_built(request: dict, censuses) -> int:
    """Group elements the program's search must build to give this answer.

    A full closure builds the whole group; a search that meets its target
    stops right after building it, at the target's breadth-first index.
    """
    kind = request["kind"]
    if kind not in ("synth", "group", "find_word"):
        return 0
    d = request["d"]
    census = censuses(d)
    if kind == "group":
        return census.order
    target = oracle.SWAP if kind == "synth" else tuple(request["target"])
    idx = census.index.get(census.key(target))
    return census.order if idx is None else idx + 1


# whether each workload runs the CLI (one child per answer) or the library
WORKLOADS = {"closure_swap": True, "parity_large_d": True, "reachable_words": False}


def round_requests(workload: str, seed: int, round_no: int, censuses) -> list[dict]:
    if workload == "closure_swap":
        return closure_swap_round(seed, round_no)
    if workload == "parity_large_d":
        return parity_large_d_round(seed, round_no)
    if workload == "reachable_words":
        return reachable_words_round(seed, round_no, censuses)
    raise ValueError(f"unknown workload {workload!r}")


def check(workload: str, request: dict, response: dict, censuses) -> str | None:
    if WORKLOADS[workload]:
        return check_cli(request, response, censuses)
    return check_word(request, response, censuses)
