"""Exact stdout, stderr and exit code of small CLI runs, recorded as literal
text before the handlers returned their reports to ``main``."""

import pytest

GOLDENS = [
    (['decide', '--d', '3'], 1,
     """\
d: 3 (d mod 4 = 3)
signatures: cnot1 +1, cnot2 +1, swap -1
verdict: INFEASIBLE_BY_PARITY
""",
     ''),
    (['decide', '--d', '3', '--json'], 1,
     """\
{
  "command": "decide",
  "params": {
    "d": 3
  },
  "result": {
    "report": {
      "d": 3,
      "d_mod_4": 3,
      "sig_cnot1": 1,
      "sig_cnot2": 1,
      "sig_swap": -1
    },
    "verdict": "INFEASIBLE_BY_PARITY"
  },
  "version": "0.1.0"
}
""",
     ''),
    (['decide', '--d', '4'], 0,
     """\
d: 4 (d mod 4 = 0)
signatures: cnot1 +1, cnot2 +1, swap +1
verdict: UNKNOWN_BY_PARITY
""",
     ''),
    (['decide', '--d', '4', '--json'], 0,
     """\
{
  "command": "decide",
  "params": {
    "d": 4
  },
  "result": {
    "report": {
      "d": 4,
      "d_mod_4": 0,
      "sig_cnot1": 1,
      "sig_cnot2": 1,
      "sig_swap": 1
    },
    "verdict": "UNKNOWN_BY_PARITY"
  },
  "version": "0.1.0"
}
""",
     ''),
    (['synth', '--d', '1'], 0,
     """\
FOUND: length 0
word: (empty)
""",
     ''),
    (['synth', '--d', '1', '--json'], 0,
     """\
{
  "command": "synth",
  "params": {
    "d": 1,
    "max_depth": null,
    "max_dimension": 31,
    "max_elements": 10000000,
    "target": "swap"
  },
  "result": {
    "length": 0,
    "outcome": "FOUND",
    "word": []
  },
  "version": "0.1.0"
}
""",
     ''),
    (['synth', '--d', '2'], 0,
     """\
FOUND: length 3
word: CNOT1 CNOT2 CNOT1
""",
     ''),
    (['synth', '--d', '2', '--json'], 0,
     """\
{
  "command": "synth",
  "params": {
    "d": 2,
    "max_depth": null,
    "max_dimension": 31,
    "max_elements": 10000000,
    "target": "swap"
  },
  "result": {
    "length": 3,
    "outcome": "FOUND",
    "word": [
      "CNOT1",
      "CNOT2",
      "CNOT1"
    ]
  },
  "version": "0.1.0"
}
""",
     ''),
    (['synth', '--d', '3'], 1,
     'UNREACHABLE_EXHAUSTED: group order 24, diameter 5\n',
     ''),
    (['synth', '--d', '3', '--json'], 1,
     """\
{
  "command": "synth",
  "params": {
    "d": 3,
    "max_depth": null,
    "max_dimension": 31,
    "max_elements": 10000000,
    "target": "swap"
  },
  "result": {
    "diameter": 5,
    "group_order": 24,
    "outcome": "UNREACHABLE_EXHAUSTED"
  },
  "version": "0.1.0"
}
""",
     ''),
    (['synth', '--d', '3', '--max-depth', '1'], 2,
     'DEPTH_LIMIT: explored depth 1, frontier size 2\n',
     ''),
    (['synth', '--d', '3', '--max-depth', '1', '--json'], 2,
     """\
{
  "command": "synth",
  "params": {
    "d": 3,
    "max_depth": 1,
    "max_dimension": 31,
    "max_elements": 10000000,
    "target": "swap"
  },
  "result": {
    "explored_depth": 1,
    "frontier_size": 2,
    "outcome": "DEPTH_LIMIT"
  },
  "version": "0.1.0"
}
""",
     ''),
    (['synth', '--d', '3', '--max-elements', '5'], 2,
     'DEPTH_LIMIT: explored depth 1, frontier size 2\n',
     ''),
    (['synth', '--d', '3', '--max-elements', '5', '--json'], 2,
     """\
{
  "command": "synth",
  "params": {
    "d": 3,
    "max_depth": null,
    "max_dimension": 31,
    "max_elements": 5,
    "target": "swap"
  },
  "result": {
    "explored_depth": 1,
    "frontier_size": 2,
    "outcome": "DEPTH_LIMIT"
  },
  "version": "0.1.0"
}
""",
     ''),
    (['group', '--d', '2'], 0,
     """\
d: 2
order: 6
diameter: 3
counts by depth: 1 2 2 1
""",
     ''),
    (['group', '--d', '2', '--json'], 0,
     """\
{
  "command": "group",
  "params": {
    "d": 2,
    "max_dimension": 31,
    "max_elements": 10000000
  },
  "result": {
    "counts_by_depth": [
      1,
      2,
      2,
      1
    ],
    "d": 2,
    "diameter": 3,
    "order": 6,
    "outcome": "census"
  },
  "version": "0.1.0"
}
""",
     ''),
    (['group', '--d', '3', '--max-elements', '4'], 3,
     'group too large: more than 4 elements at d = 3 (4 found before stopping)\n',
     ''),
    (['group', '--d', '3', '--max-elements', '4', '--json'], 3,
     """\
{
  "command": "group",
  "params": {
    "d": 3,
    "max_dimension": 31,
    "max_elements": 4
  },
  "result": {
    "d": 3,
    "elements_found": 4,
    "max_elements": 4,
    "outcome": "too_large"
  },
  "version": "0.1.0"
}
""",
     ''),
    (['decide', '--d', '1001'], 65,
     '',
     'error: parity guard: d = 1001 exceeds 1000 (permutations on d*d points)\n'),
    (['analyze', '--d', '1001', '--gate', 'swap'], 65,
     '',
     'error: analyze guard: d = 1001 exceeds 1000\n'),
    (['analyze', '--d', '65', '--gate', 'swap', '--matrix'], 65,
     '',
     'error: matrix guard: d = 65 exceeds 64\n'),
    (['export', '--d', '65', '--gate', 'swap'], 65,
     '',
     'error: matrix guard: d = 65 exceeds 64\n'),
    (['synth', '--d', '32'], 65,
     '',
     'error: search guard: d = 32 exceeds 31; raise max_dimension explicitly to override\n'),
    (['synth', '--d', '255', '--max-dimension', '255'], 65,
     '',
     'error: search guard: the visited keys at d = 255 need 67886100 bytes, '
     'over the budget of 67108864\n'),
    (['group', '--d', '255', '--max-dimension', '255'], 65,
     '',
     'error: search guard: the visited keys at d = 255 need 67886100 bytes, '
     'over the budget of 67108864\n'),
]


@pytest.mark.parametrize("argv,code_expected,out_expected,err_expected", GOLDENS,
                         ids=[" ".join(case[0]) for case in GOLDENS])
def test_cli_output_is_exactly_the_recorded_text(run_cli, argv, code_expected, out_expected,
                                                 err_expected):
    assert run_cli(*argv) == (code_expected, out_expected, err_expected)
