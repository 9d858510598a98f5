"""The README's Library example runs and gives the results its comments
state, and its sweep table is what the sweep prints."""

import ast
import re
import subprocess
import sys
from pathlib import Path

from cnotswap.feasibility import Verdict
from cnotswap.gates import GateKind
from cnotswap.synthesis import GateWord

README = Path(__file__).resolve().parents[1] / "README.md"
SWEEP = README.parent / "scripts" / "sweep.py"


def library_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("\n## Library\n"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_block_runs():
    namespace = {}
    values = []
    for stmt in ast.parse(library_block(), filename="README.md").body:
        if isinstance(stmt, ast.Expr):
            values.append(eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace))
        else:
            exec(compile(ast.Module([stmt], type_ignores=[]), "README.md", "exec"), namespace)
    c1, c2 = GateKind.CNOT1, GateKind.CNOT2
    assert values == [
        Verdict.INFEASIBLE_BY_PARITY,
        GateWord(d=2, letters=(c1, c2, c1)),
        24,
        (0, 1, 1, 0),
    ]


def test_readme_sweep_table_is_what_the_sweep_prints():
    proc = subprocess.run([sys.executable, str(SWEEP), "--d-max", "12"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0 and proc.stdout.strip(), proc.stderr
    assert proc.stdout in README.read_text(encoding="utf-8")
