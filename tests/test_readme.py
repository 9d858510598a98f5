"""The README's Command line and Library examples run and give the exit
codes and results their comments state, and its sweep table is what the
sweep prints."""

import ast
import re
import shlex
import subprocess
import sys
from pathlib import Path

from cnotswap.feasibility import Verdict
from cnotswap.gates import GateKind
from cnotswap.synthesis import GateWord

README = Path(__file__).resolve().parents[1] / "README.md"
SWEEP = README.parent / "scripts" / "sweep.py"


# every other command of the Command line block exits 0
NONZERO_EXITS = {"decide --d 7": 1, "synth --d 5 --target swap --max-depth 4": 2}


def code_block(heading: str, language: str) -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index(f"\n## {heading}\n"):]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def test_readme_command_lines_exit_with_their_documented_codes(run_cli):
    commands = [shlex.split(line, comments=True)
                for line in code_block("Command line", "sh").splitlines()
                if line.startswith("cnotswap ")]
    for argv in commands:
        code, out, err = run_cli(*argv[1:])
        assert code == NONZERO_EXITS.get(" ".join(argv[1:]), 0), (argv, err)
        assert out and not err, argv
    assert {" ".join(argv[1:]) for argv in commands} >= NONZERO_EXITS.keys()


def test_readme_library_block_runs():
    namespace = {}
    values = []
    for stmt in ast.parse(code_block("Library", "python"), filename="README.md").body:
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
