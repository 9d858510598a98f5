import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnotswap.cli import _json_pieces, main
from cnotswap.gates import GateKind, gate_perm
from cnotswap.perm import Perm
from qutrit_tables import CNOT1_MATRIX_D3, CNOT2_MATRIX_D3, SWAP_MATRIX_D3
from test_cli_goldens import GOLDENS

SRC = str(Path(__file__).resolve().parent.parent / "src")


def parse_report(out):
    report = json.loads(out)
    assert set(report) == {"command", "params", "result", "version"}
    return report


# -- analyze --


def test_analyze_qutrit_cnot1_human(run_cli):
    code, out, _ = run_cli("analyze", "--d", "3", "--gate", "cnot1")
    assert code == 0
    assert "cycle type: (1,1,1,3,3)" in out
    assert "signature: +1" in out
    assert "fixed points: 3" in out


def test_analyze_qutrit_swap_json(run_cli):
    code, out, _ = run_cli("analyze", "--d", "3", "--gate", "swap", "--json")
    assert code == 0
    report = parse_report(out)
    assert report["command"] == "analyze"
    assert report["result"]["cycle_type"] == [1, 1, 1, 2, 2, 2]
    assert report["result"]["signature"] == -1
    assert report["result"]["matrix"] is None


def test_analyze_degenerate_dimension(run_cli):
    code, out, _ = run_cli("analyze", "--d", "1", "--gate", "cnot2", "--json")
    assert code == 0
    result = parse_report(out)["result"]
    assert result["cycle_type"] == [1]
    assert result["signature"] == 1


def test_analyze_matrix_flag(run_cli):
    code, out, _ = run_cli("analyze", "--d", "2", "--gate", "swap", "--json", "--matrix")
    assert code == 0
    matrix = parse_report(out)["result"]["matrix"]
    assert matrix == {"n": 4, "entries": [1, 0, 0, 0,
                                          0, 0, 1, 0,
                                          0, 1, 0, 0,
                                          0, 0, 0, 1]}


# -- decide --


@pytest.mark.parametrize("d,code_expected,verdict", [
    (7, 1, "INFEASIBLE_BY_PARITY"),
    (3, 1, "INFEASIBLE_BY_PARITY"),
    (2, 0, "UNKNOWN_BY_PARITY"),
    (4, 0, "UNKNOWN_BY_PARITY"),
])
def test_decide_exit_codes(run_cli, d, code_expected, verdict):
    code, out, _ = run_cli("decide", "--d", str(d), "--json")
    assert code == code_expected
    report = parse_report(out)
    assert report["result"]["verdict"] == verdict
    assert report["result"]["report"]["d"] == d


def test_decide_human_output(run_cli):
    code, out, _ = run_cli("decide", "--d", "3")
    assert code == 1
    assert "verdict: INFEASIBLE_BY_PARITY" in out
    assert "swap -1" in out


# -- synth --


def test_synth_qubit_swap(run_cli):
    code, out, _ = run_cli("synth", "--d", "2", "--target", "swap")
    assert code == 0
    assert "word: CNOT1 CNOT2 CNOT1" in out


def test_synth_qutrit_unreachable(run_cli):
    code, out, _ = run_cli("synth", "--d", "3", "--target", "swap", "--json")
    assert code == 1
    result = parse_report(out)["result"]
    assert result["outcome"] == "UNREACHABLE_EXHAUSTED"
    assert result["group_order"] == 24


def test_synth_depth_limit(run_cli):
    code, out, _ = run_cli("synth", "--d", "3", "--target", "swap",
                           "--max-depth", "0", "--json")
    assert code == 2
    result = parse_report(out)["result"]
    assert result["outcome"] == "DEPTH_LIMIT"
    assert result["explored_depth"] == 0
    assert result["frontier_size"] == 1


def test_synth_guard(run_cli):
    code, _, err = run_cli("synth", "--d", "32", "--target", "swap")
    assert code == 65
    assert "guard" in err


def test_synth_guard_override(run_cli):
    code, out, _ = run_cli("synth", "--d", "2", "--target", "swap",
                           "--max-dimension", "2", "--json")
    assert code == 0


# -- group --


def test_group_census(run_cli):
    code, out, _ = run_cli("group", "--d", "2", "--json")
    assert code == 0
    assert parse_report(out)["result"] == {
        "outcome": "census", "d": 2, "order": 6, "diameter": 3, "counts_by_depth": [1, 2, 2, 1],
    }


def test_group_degenerate(run_cli):
    code, out, _ = run_cli("group", "--d", "1", "--json")
    assert code == 0
    result = parse_report(out)["result"]
    assert result["order"] == 1
    assert result["diameter"] == 0


def test_group_too_large(run_cli):
    code, out, _ = run_cli("group", "--d", "3", "--max-elements", "4", "--json")
    assert code == 3
    result = parse_report(out)["result"]
    assert result["outcome"] == "too_large"
    assert result["max_elements"] == 4


def test_search_params_schema(run_cli):
    _, out, _ = run_cli("synth", "--d", "2", "--target", "swap", "--json")
    assert parse_report(out)["params"] == {
        "d": 2, "target": "swap", "max_depth": None,
        "max_elements": 10_000_000, "max_dimension": 31,
    }
    _, out, _ = run_cli("group", "--d", "2", "--json")
    assert parse_report(out)["params"] == {
        "d": 2, "max_elements": 10_000_000, "max_dimension": 31,
    }
    _, out, _ = run_cli("analyze", "--d", "2", "--gate", "cnot1", "--json")
    assert parse_report(out)["params"] == {"d": 2, "gate": "cnot1", "matrix": False}
    _, out, _ = run_cli("decide", "--d", "2", "--json")
    assert parse_report(out)["params"] == {"d": 2}
    _, out, _ = run_cli("export", "--d", "2", "--gate", "swap", "--json")
    assert parse_report(out)["params"] == {"d": 2, "gate": "swap", "format": "pretty"}


# -- export --


def test_export_pretty_qutrit_grids(run_cli):
    for gate, grid in [("cnot1", CNOT1_MATRIX_D3),
                       ("cnot2", CNOT2_MATRIX_D3),
                       ("swap", SWAP_MATRIX_D3)]:
        code, out, _ = run_cli("export", "--d", "3", "--gate", gate,
                               "--format", "pretty")
        assert code == 0
        assert out == grid + "\n"


def test_export_csv_qubit_swap(run_cli):
    code, out, _ = run_cli("export", "--d", "2", "--gate", "swap", "--format", "csv")
    assert code == 0
    assert out == "1,0,0,0\n0,0,1,0\n0,1,0,0\n0,0,0,1\n"


def test_export_json_format(run_cli):
    code, out, _ = run_cli("export", "--d", "2", "--gate", "cnot1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 4
    assert payload["entries"] == [1, 0, 0, 0,
                                  0, 1, 0, 0,
                                  0, 0, 0, 1,
                                  0, 0, 1, 0]


def test_export_report_wrapper(run_cli):
    code, out, _ = run_cli("export", "--d", "2", "--gate", "swap", "--json")
    assert code == 0
    report = parse_report(out)
    assert report["result"]["matrix"]["n"] == 4


def test_export_guard(run_cli):
    code, _, err = run_cli("export", "--d", "65", "--gate", "swap")
    assert code == 65
    assert "guard" in err


# -- usage and guard errors --


@pytest.mark.parametrize("argv", [
    ["analyze", "--d", "3"],                       # missing --gate
    ["analyze", "--d", "3", "--gate", "bogus"],
    ["analyze", "--gate", "cnot1"],                # missing --d
    ["decide", "--d", "0"],
    ["decide", "--d", "abc"],
    ["export", "--d", "3", "--gate", "swap", "--format", "xml"],
    ["synth", "--d", "2", "--target", "cnot1"],
    [],
    ["synth", "--d", "2", "--workers", "2"],       # removed search knobs
    ["synth", "--d", "2", "--bidirectional"],
    ["group", "--d", "2", "--workers", "2"],
    ["group", "--d", "2", "--cache-dir", "census"],
])
def test_usage_errors_exit_64(run_cli, argv):
    code, _, err = run_cli(*argv)
    assert code == 64
    assert "error" in err


def test_guard_errors_exit_65(run_cli):
    for argv in (["decide", "--d", "1001"], ["analyze", "--d", "1001", "--gate", "swap"]):
        code, _, err = run_cli(*argv)
        assert code == 65
        assert "guard" in err


@pytest.mark.parametrize("command", ["synth", "group"])
def test_key_state_budget_exits_65_before_allocating(run_cli, command):
    # at d = 1000 the visited keys alone would take 4 GB; the guard fires
    # before the key state or the d*d target table exists
    tracemalloc.start()
    try:
        code, out, err = run_cli(command, "--d", "1000", "--max-dimension", "1000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 65
    assert out == ""
    assert err.startswith("error: search guard") and err.count("\n") == 1
    assert peak < 2**20


def test_cli_import_leaves_logging_out():
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, cnotswap.cli; print('logging' in sys.modules)"],
        capture_output=True, text=True, env=env,
    )
    assert proc.stdout == "False\n"


def test_allocation_failure_exits_65_without_traceback(run_cli, monkeypatch):
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.54 GiB")

    monkeypatch.setattr("cnotswap.cli.enumerate_group", out_of_memory)
    monkeypatch.setattr("cnotswap.cli.find_word", out_of_memory)
    for argv in (["group", "--d", "3"], ["synth", "--d", "3", "--json"]):
        code, out, err = run_cli(*argv)
        assert code == 65
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err


def test_functions_the_benchmark_traces_are_called_by_those_names(run_cli, monkeypatch):
    # bench/child.py times each layer by wrapping these module attributes;
    # a builder renamed or bypassed would leave its layer silently at zero
    import cnotswap.feasibility
    from cnotswap import cli, synthesis
    from cnotswap.perm import Perm

    calls = []

    def count(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    count(cli, "gate_perm")
    assert run_cli("analyze", "--d", "5", "--gate", "swap")[0] == 0
    assert calls == ["gate_perm"]
    calls.clear()
    assert run_cli("synth", "--d", "2")[0] == 0
    assert calls == ["gate_perm"]
    calls.clear()
    count(cnotswap.feasibility, "gate_perm")
    assert run_cli("decide", "--d", "5")[0] == 0
    assert calls == ["gate_perm"] * 3
    for owner, name in ((cli, "find_word"), (cli, "enumerate_group"), (cli, "decide"),
                        (synthesis, "find_word"), (Perm, "signature"), (Perm, "cycle_type")):
        assert callable(getattr(owner, name))


# -- argv fuzzing --


# d up to 8, and the guard values, which stop a run before it allocates:
# 32 (search), 65 (matrix), 255 with --max-dimension 255 (key state), 1001
OPTIONS = {
    "--d": [str(d) for d in range(1, 9)] + ["32", "65", "255", "1001"],
    "--gate": ["cnot1", "cnot2", "swap"],
    "--format": ["pretty", "json", "csv"],
    "--target": ["swap"],
    "--max-depth": ["0", "1", "3"],
    "--max-elements": ["1", "4", "24", "25"],
    "--max-dimension": ["1", "8", "31", "255", "1001"],
    "--json": [],
    "--matrix": [],
}
COMMAND_OPTIONS = {
    "analyze": ["--gate", "--matrix"],
    "decide": [],
    "synth": ["--target", "--max-depth", "--max-elements", "--max-dimension"],
    "group": ["--max-elements", "--max-dimension"],
    "export": ["--gate", "--format"],
}
# a bare flag takes the next token as its value, so junk reaches values too
JUNK = ["bogus", "", "-1", "0", "2.5", "1e3", "xml", "--nope", "--d=x", "--", "--d", "--gate",
        "--max-depth"]


def option(flag):
    if not OPTIONS[flag]:
        return st.just([flag])
    return st.sampled_from(OPTIONS[flag]).map(lambda value: [flag, value])


@st.composite
def argvs(draw):
    """Mostly a command and its own options, each required one left out one
    time in ten, then an option of another command or a junk token, shuffled.
    The command itself is junk one time in ten."""
    command = draw(st.sampled_from(sorted(COMMAND_OPTIONS) if draw(st.integers(0, 9)) else JUNK))
    flags = ["--d", "--json", *COMMAND_OPTIONS.get(command, [])]
    parts = [draw(option(flag)) for flag in ("--d", "--gate")
             if flag in flags and draw(st.integers(0, 9))]
    parts += draw(st.lists(st.sampled_from(flags).flatmap(option), max_size=4))
    parts += draw(st.lists(st.sampled_from(sorted(OPTIONS)).flatmap(option)
                           | st.sampled_from(JUNK).map(lambda token: [token]), max_size=1))
    return [command, *(token for part in draw(st.permutations(parts)) for token in part)]


@settings(max_examples=300, deadline=None)
@given(argvs())
def test_any_argv_exits_with_a_documented_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in {0, 1, 2, 3, 64, 65}
    assert "Traceback" not in err.getvalue()
    if code <= 3:
        assert err.getvalue() == ""
        if "--json" in argv:
            assert set(json.loads(out.getvalue())) == {"command", "params", "result", "version"}


# -- output discipline --


# sha256 of stdout and the exit code at the largest guarded dimension,
# recorded from the pure-Python image tables before they became numpy arrays
@pytest.mark.parametrize("argv,code_expected,sha256", [
    (["decide", "--d", "999", "--json"], 1,
     "13383fb52d4e9259e0380da9c4674a5b2e5e8d02acafb5276fa92180d1823e43"),
    (["decide", "--d", "1000", "--json"], 0,
     "95b0426649a98fe58539d5650d120fef8df4a13ebd85901236c86aa7f823b611"),
    (["analyze", "--gate", "cnot1", "--d", "1000", "--json"], 0,
     "23490637a571a6b8ce12b60af15ede2f1c4000b9836899759bb2e6a7a511c822"),
    (["analyze", "--gate", "cnot2", "--d", "1000", "--json"], 0,
     "66169350996db5d22bbd542647657ecb5d81e1f8ee20c7661f6f0ce305d431b2"),
    (["analyze", "--gate", "swap", "--d", "1000", "--json"], 0,
     "dc48c4d7d62e8d74ceac03cf7c366ae9866e6e1006269c8d9ce3457b9e58e08b"),
])
def test_golden_bytes_at_the_guard_bound(run_cli, argv, code_expected, sha256):
    code, out, _ = run_cli(*argv)
    assert code == code_expected
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


# sha256 of stdout of the human and matrix outputs, recorded while every
# report still went through json.dumps and eagerly built human text
@pytest.mark.parametrize("argv,sha256", [
    (["analyze", "--gate", "swap", "--d", "1000"],
     "e26cc1ef1689907024dfed04c209d6b6423157c0033a9c15c72eb22d21ea2118"),
    (["analyze", "--gate", "cnot1", "--d", "1000"],
     "b569134d31555dae2a1cab79b286db72a4538e37954c46991ccf43c9819d3546"),
    (["analyze", "--d", "16", "--gate", "cnot2", "--matrix"],
     "f48038adb5774a81114b84bb82827a208a4ddaeabdb96f880336d8a168bc6d1c"),
    (["analyze", "--d", "16", "--gate", "cnot2", "--matrix", "--json"],
     "a92fe2daca0f6bc6ed779f699a3e3f8aae77c46edc07f5806cabedc812ff7c0a"),
    (["export", "--d", "16", "--gate", "swap", "--format", "pretty"],
     "83b4de3abcefd854344999a32434221e99723aa5f29904966a5b5ed22a85aef8"),
    (["export", "--d", "16", "--gate", "swap", "--format", "csv"],
     "aea175b229eca9aefae53df014f09c7e7923d02c63a3dbbebd0045b5fba86b9e"),
    (["export", "--d", "16", "--gate", "swap", "--format", "json"],
     "ed64492b0e44459230f327ff8e0d4119de5fb5c695a0f4db0fbc1f85476c19a5"),
    (["export", "--d", "16", "--gate", "swap", "--json"],
     "6d565dc364873ce5f9eaf2f767a8515754c1adce98318d377cc3b8b5c7b2cb89"),
])
def test_golden_bytes_of_human_and_matrix_output(run_cli, argv, sha256):
    code, out, _ = run_cli(*argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


# sha256 of stdout and the exit code of matrix outputs up to the matrix guard,
# recorded while they were still built from the tuple matrix of the
# since-deleted Perm.to_matrix (the two d = 64 JSON ones: from the flat
# n*n-entry list that followed it)
@pytest.mark.parametrize("argv,code_expected,sha256", [
    (["analyze", "--d", "64", "--gate", "cnot2", "--matrix"], 0,
     "d5643f6fbb561794f2de8e7f04773bec9c65288f3869ae913cc38ff20df3e95b"),
    (["export", "--d", "64", "--gate", "cnot1", "--format", "csv"], 0,
     "c4c7e31929df99c65061e73030c146f57fa4f690c945b1de5fbddc20570db021"),
    (["export", "--d", "32", "--gate", "swap", "--format", "json"], 0,
     "2f8c8ced0afd3d8d6862f7ec4d5b518c1883331e5f7f918ad4ff8bbcd0dd9cf3"),
    (["analyze", "--d", "64", "--gate", "swap", "--matrix", "--json"], 0,
     "df3c4931a031709e57fbafa6888b95fae15782869e64028f244bf669fabeb8c0"),
    (["export", "--d", "64", "--gate", "cnot1", "--format", "json"], 0,
     "aa144e98d6d7523b3b4ed1599147394bbc6cf36c041a8b893722e5bf40f873a6"),
])
def test_golden_bytes_of_large_matrix_output(run_cli, argv, code_expected, sha256):
    code, out, _ = run_cli(*argv)
    assert code == code_expected
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


# sha256 of stdout and the exit code of every search report field, recorded
# while the closure still kept its own counts, size and stop point: a census,
# an exhausted group's order and diameter, a depth cap, an element cap that
# fires inside layer 18, and the elements found before a census cap
@pytest.mark.parametrize("argv,code_expected,sha256", [
    (["group", "--d", "160", "--max-dimension", "160", "--json"], 0,
     "83fc0509ca7e00af413ffefe1ec775bc36362ca058cdc5351f842657bbfbe6fc"),
    (["synth", "--d", "128", "--max-dimension", "128", "--json"], 1,
     "79c2fdcbf2532c776f66fb1aa62227e11d007f624506aff5521a8782108edd01"),
    (["synth", "--d", "97", "--max-dimension", "97", "--max-depth", "9", "--json"], 2,
     "303c174bff79eef90566cda7087db93e7d89d069192287150f59ab50bb67589f"),
    (["synth", "--d", "97", "--max-dimension", "97", "--max-elements", "500000", "--json"], 2,
     "d41889d094be5fd61cf51cd417cb43853c26ca8110ff151170aa10d3add4c8c8"),
    (["group", "--d", "97", "--max-dimension", "97", "--max-elements", "500000", "--json"], 3,
     "6d7bb6542862082460d013ac673b5ac81372b3013243cb9d037bf75630a566ba"),
])
def test_golden_bytes_of_search_reports(run_cli, argv, code_expected, sha256):
    code, out, _ = run_cli(*argv)
    assert code == code_expected
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


class CharCount(io.TextIOBase):
    """A stdout that keeps only the number of characters written to it."""

    chars = 0

    def write(self, piece):
        self.chars += len(piece)
        return len(piece)


@pytest.mark.parametrize("argv", [
    ["analyze", "--d", "64", "--gate", "swap", "--matrix", "--json"],
    ["export", "--d", "64", "--gate", "cnot1", "--format", "json"],
])
def test_json_matrix_streams_from_the_permutation(argv):
    # its 4096 * 4096 entries as one flat list would hold 134 MB of pointers
    sink = CharCount()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert sink.chars > 4096 * 4096 * 4
    assert peak < 2 * 2**20


# -- the JSON writer --


def written(value) -> str:
    return "".join(_json_pieces(value, "\n"))


# items that compare equal across types, or encode differently while equal
TRICKY = [0, False, 0.0, -0.0, 1, True, 1.0, None, "", "1", 2**70, float("nan"),
          float("inf"), -float("inf")]
scalars = st.one_of(
    st.sampled_from(TRICKY), st.none(), st.booleans(), st.integers(), st.floats(),
    st.text(), st.sampled_from(["\u00e9\u2603\U0001f600", "\"\\/\b\f\n\r\t\x00\x1f", "\ud800"]),
)


def with_runs(children):
    # lists of runs: each drawn item repeated up to 6 times, so equal
    # adjacent items of equal and of different types both occur
    runs = st.lists(st.tuples(children, st.integers(1, 6)), max_size=6)
    return runs.map(lambda pairs: [item for item, k in pairs for _ in range(k)])


json_values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        with_runs(children),
        with_runs(children).map(tuple),
        st.dictionaries(st.text(max_size=5), children, max_size=5),
    ),
    max_leaves=40,
)


@settings(max_examples=400, deadline=None)
@given(json_values)
def test_writer_matches_json_dumps(value):
    assert written(value) == json.dumps(value, indent=2, sort_keys=True)


@st.composite
def nested_perms(draw):
    """A random Perm nested 0-3 levels deep in lists and dicts, and the same
    value with the Perm replaced by its matrix entries as a flat list."""
    image = draw(st.integers(1, 40).flatmap(lambda n: st.permutations(range(n))))
    n = len(image)
    flat = [0] * (n * n)
    for i, j in enumerate(image):
        flat[j * n + i] = 1
    value, expected = Perm(image), flat
    for _ in range(draw(st.integers(0, 3))):
        siblings = draw(st.lists(json_values, max_size=3))
        at = draw(st.integers(0, len(siblings)))
        value = [*siblings[:at], value, *siblings[at:]]
        expected = [*siblings[:at], expected, *siblings[at:]]
        if draw(st.booleans()):
            keys = draw(st.lists(st.text(max_size=5), min_size=len(value),
                                 max_size=len(value), unique=True))
            value, expected = dict(zip(keys, value)), dict(zip(keys, expected))
    return value, expected


@settings(max_examples=200, deadline=None)
@given(nested_perms())
def test_writer_writes_a_perm_as_its_matrix_entries(pair):
    value, expected = pair
    assert written(value) == json.dumps(expected, indent=2, sort_keys=True)


@pytest.mark.parametrize("value", [
    [], {}, [[]], {"a": {}}, [1] * 5000, [True, 1, 1.0, True], [0, -0.0, 0.0, False],
    {"b": [None] * 3, "a": ["x"] * 2 + ["y"]}, {2: 0, 1.5: 1, False: 2, -0.0: [3]},
    {None: 1}, {float("nan"): 1, float("inf"): 2},
])
def test_writer_edge_cases(value):
    assert written(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize("value", [[object()], {"a": {3}}, {(1, 2): 3}, {None: 1, 2: 3}])
def test_writer_rejects_what_json_rejects(value):
    with pytest.raises(TypeError):
        json.dumps(value, indent=2, sort_keys=True)
    with pytest.raises(TypeError):
        written(value)


def test_writer_memory_stays_below_the_output():
    # the d = 1000 swap report has 500500 cycle lengths, about 4.5 MB of
    # text; json.dumps holds 8.4 times that at its peak
    ct = gate_perm(GateKind.SWAP, 1000).cycle_type()
    report = {"command": "analyze", "params": {"d": 1000, "gate": "swap", "matrix": False},
              "result": {"cycle_type": ct, "d": 1000, "fixed_points": 1000, "gate": "swap",
                         "matrix": None, "signature": 1},
              "version": "0"}
    tracemalloc.start()
    try:
        chars = sum(map(len, _json_pieces(report, "\n")))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert chars == len(json.dumps(report, indent=2, sort_keys=True)) > 4_000_000
    assert peak < chars / 10


@pytest.mark.parametrize("argv", [case[0] for case in GOLDENS] + [
    ["analyze", "--d", "1000", "--gate", "swap", "--json"],
    ["analyze", "--d", "16", "--gate", "cnot2", "--matrix", "--json"],
    ["export", "--d", "16", "--gate", "swap", "--format", "json"],
])
def test_reports_stream_every_nonempty_container(run_cli, monkeypatch, argv):
    # a report list that fell back to one whole json.dumps call would be
    # held in memory at once instead of going out in runs
    dumps = json.dumps

    def scalar_dumps(value, *args, **kwargs):
        assert not (isinstance(value, (list, tuple, dict)) and value), type(value)
        return dumps(value, *args, **kwargs)

    monkeypatch.setattr(json, "dumps", scalar_dumps)
    code, _, _ = run_cli(*argv)
    assert code in {0, 1, 2, 3, 65}




def test_json_reports_round_trip_bytes(run_cli):
    for argv in (
        ["analyze", "--d", "3", "--gate", "cnot1", "--json"],
        ["decide", "--d", "3", "--json"],
        ["synth", "--d", "2", "--target", "swap", "--json"],
        ["group", "--d", "2", "--json"],
        ["export", "--d", "2", "--gate", "swap", "--json"],
    ):
        _, out, _ = run_cli(*argv)
        reserialized = json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
        assert reserialized == out


def test_identical_invocations_identical_bytes(run_cli):
    first = run_cli("group", "--d", "3", "--json")
    second = run_cli("group", "--d", "3", "--json")
    assert first == second


@pytest.mark.parametrize("argv", [
    ["analyze", "--d", "1000", "--gate", "swap", "--json"],
    ["analyze", "--d", "1000", "--gate", "swap"],
    ["export", "--d", "64", "--gate", "swap", "--format", "csv"],
    ["export", "--d", "64", "--gate", "swap", "--format", "json"],
])
def test_closed_stdout_exits_74_without_traceback(argv):
    env = dict(os.environ, PYTHONPATH=SRC)
    with subprocess.Popen([sys.executable, "-m", "cnotswap", *argv], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        try:
            assert len(proc.stdout.read(20)) == 20
            proc.stdout.close()  # as `| head -c 20` does
            err = proc.stderr.read()
            code = proc.wait(timeout=60)
        finally:
            proc.kill()
    assert code == 74
    assert err == b""


def test_module_entry_point_subprocess():
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "cnotswap", "decide", "--d", "3", "--json"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["result"]["verdict"] == "INFEASIBLE_BY_PARITY"
