"""Smoke and oracle tests: the dimension sweep runs end to end on small d."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from cnotswap.feasibility import Verdict
from cnotswap.synthesis import SearchOutcome, sl2_order

SWEEP = Path(__file__).resolve().parent.parent / "scripts" / "sweep.py"


def run_sweep(*argv):
    return subprocess.run([sys.executable, str(SWEEP), *argv],
                          capture_output=True, text=True, timeout=120)


@pytest.fixture
def sweep():
    spec = importlib.util.spec_from_file_location("sweep", SWEEP)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("script,summary", [
    ("group_growth.py", "all orders match the SL(2, Z_d) formula"),
    ("dimension_sweep.py", "swap synthesized: [1, 2]"),
])
def test_script_runs_to_its_summary(script, summary, tmp_path):
    # the sweep replaces both scripts: group_growth.py's summary is its last
    # line, and dimension_sweep.py's is read off the rows it writes
    out = tmp_path / "rows.json"
    proc = run_sweep("--d-max", "6", "--json-out", str(out))
    assert proc.returncode == 0, proc.stderr
    found = [row["d"] for row in json.loads(out.read_text())
             if row["search"] == SearchOutcome.FOUND.value]
    summaries = {"group_growth.py": proc.stdout.rstrip().splitlines()[-1],
                 "dimension_sweep.py": f"swap synthesized: {found}"}
    assert summaries[script] == summary


def test_sweep_takes_the_order_of_an_exhausted_search(sweep, monkeypatch):
    # the word search for SWAP exhausts the group at every d >= 3 and carries
    # its order, so only d = 1 and 2, where SWAP is found, still take a census
    censused = []
    census = sweep.enumerate_group
    monkeypatch.setattr(sweep, "enumerate_group",
                        lambda d, **kwargs: censused.append(d) or census(d, **kwargs))
    rows = [sweep.sweep_row(d, 2_000_000, False) for d in range(1, 9)]
    assert censused == [1, 2]
    assert [row["group_order"] for row in rows] == [sl2_order(d) for d in range(1, 9)]


def test_sweep_certificates_agree_with_the_search(sweep):
    # det SWAP = -1 over Z_d, which is 1 only at d <= 2: the det verdict alone
    # decides the search, and parity obstructs a subset of it
    for d in range(1, 17):
        row = sweep.sweep_row(d, 2_000_000, False)
        det_obstructed = row["det_verdict"] == "INFEASIBLE_BY_DETERMINANT"
        assert row["det_swap"] == (-1) % d
        assert det_obstructed == (row["search"] == SearchOutcome.UNREACHABLE_EXHAUSTED.value)
        if row["verdict"] == Verdict.INFEASIBLE_BY_PARITY.value:
            assert det_obstructed


def test_sweep_exits_1_when_an_order_deviates(sweep, monkeypatch, capsys):
    monkeypatch.setattr(sweep, "sl2_order", lambda d: sl2_order(d) + (d == 4))
    monkeypatch.setattr(sys, "argv", ["sweep.py", "--d-max", "5"])
    assert sweep.main() == 1
    assert capsys.readouterr().out.rstrip().splitlines()[-1] == (
        "1 dimension(s) deviate from the SL(2, Z_d) order: [4]")
    # a deviation outranks a row over the element cap (|SL(2, Z_5)| = 120)
    monkeypatch.setattr(sys, "argv", ["sweep.py", "--d-max", "5", "--max-elements", "100"])
    assert sweep.main() == 1
    assert "deviate" in capsys.readouterr().out


def test_sweep_writes_its_rows_as_json(sweep, monkeypatch, tmp_path):
    out = tmp_path / "rows.json"
    monkeypatch.setattr(sys, "argv", ["sweep.py", "--d-max", "3", "--json-out", str(out)])
    assert sweep.main() == 0
    assert json.loads(out.read_text()) == [sweep.sweep_row(d, 2_000_000, False)
                                           for d in (1, 2, 3)]


def test_sweep_reports_dimensions_over_the_element_cap():
    # |SL(2, Z_d)| is 120 at d = 5 and 144 at d = 6; rows left unchecked
    # by the cap exit 3
    proc = run_sweep("--d-max", "6", "--max-elements", "50")
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stdout.rstrip().splitlines()
    assert lines[-1] == (
        "all orders match the SL(2, Z_d) formula; "
        "not checked, over the 50-element cap: d = 5, 6"
    )
    for d in (5, 6):
        [row] = [line for line in lines if line.split()[:1] == [str(d)]]
        assert "INFEASIBLE" in row and row.endswith("over the 50-element cap")


@pytest.mark.parametrize("argv,cells", [
    (["--d-min", "255", "--d-max", "255"],
     ["255", "3", "+1", "-1", "INFEASIBLE", "254", "INFEASIBLE", "-", "-", "14100480"]),
    (["--d-min", "1001", "--d-max", "1001", "--skip-search"],
     ["1001", "stopped", "by", "the", "parity", "guard:"]),
], ids=["key_state", "parity"])
def test_sweep_reports_a_guard_as_a_row(argv, cells):
    # the key-state budget stops only the search at d = 255, so its row keeps
    # the parity and det cells; the parity guard stops all of d = 1001; both
    # fire before they allocate
    proc = run_sweep(*argv)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stdout.rstrip().splitlines()
    assert lines[-1] == ("all orders match the SL(2, Z_d) formula; "
                         f"not checked, stopped by a guard: d = {argv[1]}")
    [row] = [line for line in lines if line.split()[:1] == [argv[1]]]
    assert row.split()[:len(cells)] == cells and "guard" in row


@pytest.mark.parametrize("script", ["group_growth.py", "dimension_sweep.py"])
@pytest.mark.parametrize("argv", [["--d-min", "0", "--d-max", "1"], ["--max-elements", "0"],
                                  ["--d-max", "-3"]])
def test_scripts_refuse_a_non_positive_integer_as_a_usage_error(script, argv):
    # each argv alone, as group_growth.py ran, and with --skip-search, as
    # dimension_sweep.py's certificate-only runs did: the usage error wins
    extra = {"group_growth.py": [], "dimension_sweep.py": ["--skip-search"]}[script]
    proc = run_sweep(*argv, *extra)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "must be a positive integer" in proc.stderr


def test_sweep_refuses_a_reversed_range_as_a_usage_error():
    # it printed an empty table and "all orders match" and exited 0
    proc = run_sweep("--d-min", "5", "--d-max", "3")
    assert proc.returncode == 2 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert "--d-min 5 exceeds --d-max 3" in proc.stderr
