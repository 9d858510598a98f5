"""Tests of the benchmark itself: oracle, input generator, scoring.

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

import child
import oracle
import run
import workloads

sys.path.insert(0, str(run.ROOT / "src"))


@pytest.fixture(scope="module")
def censuses():
    import functools

    return functools.lru_cache(maxsize=None)(oracle.census)


def test_oracle_known_values(censuses):
    assert oracle.sl2_order(3) == 24
    assert censuses(3).order == 24
    assert censuses(2).word(oracle.SWAP) == ["CNOT1", "CNOT2", "CNOT1"]
    assert censuses(1).word(oracle.SWAP) == []
    for d, word in oracle.KNOWN_SWAP_WORDS.items():
        assert censuses(d).word(oracle.SWAP) == word
    assert oracle.parity_verdict(3) == "INFEASIBLE_BY_PARITY"


def test_oracle_routes_agree(censuses):
    for d in range(1, 65):
        infeasible = oracle.parity_verdict(d) == "INFEASIBLE_BY_PARITY"
        assert infeasible == (d % 4 == 3)
        assert oracle.cnot_signature(d) == oracle.signature_of(oracle.cnot_cycle_type(d))
        assert oracle.swap_signature(d) == oracle.signature_of(oracle.swap_cycle_type(d))
        assert sum(oracle.cnot_cycle_type(d)) == d * d
    for d in range(1, 16):
        census = censuses(d)
        assert census.order == oracle.sl2_order(d) == sum(census.counts_by_depth)
        if d >= 3:  # det(SWAP) = -1, every word has det 1
            assert census.word(oracle.SWAP) is None


def test_oracle_words_evaluate_to_their_targets(censuses):
    census = censuses(7)
    for key in census.keys[:: max(1, census.order // 200)]:
        mat = oracle.evaluate(census.word(_unkey(key, 7)), 7)
        assert census.key(mat) == key


def _unkey(key, d):
    e, key = key % d, key // d
    c, key = key % d, key // d
    b, a = key % d, key // d
    return (a, b, c, e)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(workload, censuses):
    first = [workloads.round_requests(workload, 5, r, censuses) for r in range(3)]
    again = [workloads.round_requests(workload, 5, r, censuses) for r in range(3)]
    other = [workloads.round_requests(workload, 6, r, censuses) for r in range(3)]
    assert first == again
    assert workloads.inputs_digest(first[0]) == workloads.inputs_digest(again[0])
    assert first != other


def test_closure_rounds_share_their_cost_profile():
    rounds = [workloads.closure_swap_round(seed, 0) for seed in range(20)]
    for requests in rounds:
        dims = [req["d"] for req in requests]
        assert {1, 2} <= set(dims)
        assert all(d <= workloads.CLOSURE_MAX_DIMENSION for d in dims)
        assert workloads.CLOSURE_STRATA[0][0] in dims
        assert all("--max-dimension" in req["argv"] for req in requests)
    assert len({tuple(sorted(r["d"] for r in requests)) for requests in rounds}) > 1


def test_inputs_use_no_planned_removal_knobs(censuses):
    for workload in workloads.WORKLOADS:
        for req in workloads.round_requests(workload, 1, 0, censuses):
            for knob in ("--workers", "--cache-dir", "--bidirectional"):
                assert knob not in req.get("argv", [])


def _cli_answer(argv):
    import cnotswap

    response, seconds = child.answer(cnotswap, {"argv": argv})
    response["seconds"] = seconds
    return response


def _request(kind, d, gate=None):
    if kind == "synth":
        argv = ["synth", "--d", str(d), "--target", "swap", "--json", "--max-dimension", "48"]
    elif kind == "group":
        argv = ["group", "--d", str(d), "--json", "--max-dimension", "48"]
    elif kind == "decide":
        argv = ["decide", "--d", str(d), "--json"]
    else:
        argv = ["analyze", "--gate", gate, "--d", str(d), "--json"]
    return {"kind": kind, "d": d, "gate": gate, "argv": argv}


def test_seed_program_answers_pass(censuses):
    import cnotswap.cli  # noqa: F401

    requests = [_request(k, d) for k in ("synth", "group") for d in (1, 2, 3, 5, 8)]
    requests += [_request("decide", d) for d in (3, 4, 6, 7, 103)]
    requests += [_request("analyze", d, g) for d in (4, 9, 101) for g in ("swap", "cnot1")]
    for req in requests:
        assert workloads.check_cli(req, _cli_answer(req["argv"]), censuses) is None, req


def test_wrong_answers_are_failures(censuses):
    req = _request("decide", 7)
    good = _cli_answer(req["argv"])
    assert workloads.check_cli(req, good, censuses) is None

    report = json.loads(good["stdout"])
    report["result"]["verdict"] = "UNKNOWN_BY_PARITY"
    wrong_verdict = dict(good, stdout=json.dumps(report))
    wrong_code = dict(good, code=0)
    crashed = dict(good, stderr="Traceback (most recent call last):\n")
    garbled = dict(good, stdout="{not json")
    for bad in (wrong_verdict, wrong_code, crashed, garbled):
        assert workloads.check_cli(req, bad, censuses) is not None

    group = _request("group", 5)
    answer = _cli_answer(group["argv"])
    report = json.loads(answer["stdout"])
    report["result"]["counts_by_depth"][-1] += 1
    assert workloads.check_cli(group, dict(answer, stdout=json.dumps(report)), censuses)


def test_word_checks(censuses):
    word = ["CNOT1", "CNOT2", "CNOT2", "CNOT1"]
    target = oracle.evaluate(word, 16)
    req = {"kind": "find_word", "d": 16, "target": list(target), "max_dimension": 40}
    shortest = censuses(16).word(target)
    assert workloads.check_word(req, {"outcome": "FOUND", "word": shortest}, censuses) is None
    padded = shortest + ["CNOT1"] * 16  # CNOT1^16 is the identity at d = 16
    assert oracle.evaluate(padded, 16) == target
    assert workloads.check_word(req, {"outcome": "FOUND", "word": padded}, censuses)
    assert workloads.check_word(req, {"outcome": "FOUND", "word": ["CNOT2"]}, censuses)
    assert workloads.check_word(req, {"outcome": "DEPTH_LIMIT", "word": None}, censuses)
    assert workloads.check_word(req, {"error": "ValueError"}, censuses)


def test_wrong_answer_counts_in_error_rate(censuses):
    requests = workloads.reachable_words_round(3, 0, censuses)[:4]
    answered = []
    for req in requests:
        word = censuses(req["d"]).word(tuple(req["target"]))
        answered.append((req, {"outcome": "FOUND", "word": word, "seconds": 0.01}))
    answered[2][1]["word"] = answered[2][1]["word"] + ["CNOT1"]
    failures = run.score("reachable_words", answered, censuses)
    assert [f["answer"] for f in failures] == [2]


def test_tail_has_ten_samples_beyond():
    for n in (11, 23, 24, 100, 250):
        values = [float(i) for i in range(n)]
        value, pct = run.tail(values)
        assert sum(v > value for v in values) >= 10
        assert sum(v > value for v in values) <= 10 + n / 100
        assert 0 < pct < 100
    assert run.tail([1.0, 2.0, 3.0]) == (2.0, 50)


def test_refuses_to_run_without_source(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SOURCE", Path(tmp_path) / "src" / "cnotswap")
    code = run.main(["--workload", "closure_swap", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
