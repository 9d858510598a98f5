"""Smoke tests: the experiment scripts run end to end on small dimensions."""

import subprocess
import sys
from pathlib import Path

import pytest

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
