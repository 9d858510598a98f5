"""Smoke tests: the experiment scripts run end to end on small dimensions."""

import argparse
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from cnotswap.synthesis import sl2_order

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("script,summary", [
    ("group_growth.py", "all orders match the SL(2, Z_d) formula"),
    ("dimension_sweep.py", "swap synthesized: [1, 2]"),
])
def test_script_runs_to_its_summary(script, summary):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), "--d-max", "6"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.rstrip().splitlines()[-1] == summary


def test_dimension_sweep_takes_the_order_of_an_exhausted_search(monkeypatch):
    # the word search for SWAP exhausts the group at every d >= 3 and carries
    # its order, so only d = 1 and 2, where SWAP is found, still take a census
    spec = importlib.util.spec_from_file_location("dimension_sweep", SCRIPTS / "dimension_sweep.py")
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    censused = []
    census = sweep.enumerate_group
    monkeypatch.setattr(sweep, "enumerate_group",
                        lambda d, **kwargs: censused.append(d) or census(d, **kwargs))
    args = argparse.Namespace(skip_search=False, max_elements=2_000_000, max_dimension=31)
    rows = [sweep.sweep_row(args, d) for d in range(1, 9)]
    assert censused == [1, 2]
    assert [row["group_order"] for row in rows] == [sl2_order(d) for d in range(1, 9)]


def test_group_growth_reports_dimensions_over_the_element_cap():
    # |SL(2, Z_d)| is 120 at d = 5 and 144 at d = 6
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "group_growth.py"), "--d-max", "6", "--max-elements", "50"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout.rstrip().splitlines()[-1] == (
        "all orders match the SL(2, Z_d) formula; "
        "not checked, over the 50-element cap: d = 5, 6"
    )


@pytest.mark.parametrize("script,argv,summary", [
    ("group_growth.py", ["--d-min", "255", "--d-max", "255"],
     "all orders match the SL(2, Z_d) formula; not checked, stopped by a guard: d = 255"),
    ("dimension_sweep.py", ["--d-min", "1001", "--d-max", "1001", "--skip-search"],
     "stopped by a guard: [1001]"),
], ids=["group_growth", "dimension_sweep"])
def test_scripts_report_a_guard_as_a_row(script, argv, summary):
    # the key-state budget stops d = 255 and the parity guard d = 1001, both
    # before they allocate
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *argv],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stdout.rstrip().splitlines()
    assert lines[-1] == summary
    rows = [line for line in lines if line.startswith(argv[1] + " ")]
    assert len(rows) == 1 and "guard" in rows[0]


@pytest.mark.parametrize("script", ["group_growth.py", "dimension_sweep.py"])
@pytest.mark.parametrize("argv", [["--d-min", "0", "--d-max", "1"], ["--max-elements", "0"],
                                  ["--d-max", "-3"]])
def test_scripts_refuse_a_non_positive_integer_as_a_usage_error(script, argv):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *argv],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "must be a positive integer" in proc.stderr
