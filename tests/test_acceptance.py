"""End-to-end acceptance suite.

One test per shipped criterion, each enforcing exact expected values and a
wall-clock budget, and printing a PASS line on success.  Run with:

    pytest tests/test_acceptance.py -v -s
"""

import itertools
import json
import random
import time
from contextlib import contextmanager

from cnotswap.gates import (
    GateKind, _determinant, as_linear_map, cnot1_perm, cnot2_perm, swap_perm,
)
from cnotswap.cli import _matrix_rows
from cnotswap.perm import Perm
from cnotswap.feasibility import swap_signature_formula

from determinant_reference import exact_determinant
from group_reference import reference_elements
from qutrit_tables import CNOT1_MATRIX_D3, CNOT2_MATRIX_D3, SWAP_MATRIX_D3

C1, C2 = GateKind.CNOT1, GateKind.CNOT2


@contextmanager
def budget(seconds, label):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"{label}: {elapsed:.2f}s exceeded the {seconds}s budget"
    print(f"PASS {label} ({elapsed:.2f}s)")


def cli_json(run_cli, *argv):
    code, out, _ = run_cli(*argv, "--json")
    return code, json.loads(out)


def test_criterion_01_qutrit_gate_fixtures(run_cli):
    with budget(1.0, "criterion 1: qutrit cycle types and signatures"):
        expected = {
            "cnot1": ([1, 1, 1, 3, 3], 1),
            "cnot2": ([1, 1, 1, 3, 3], 1),
            "swap": ([1, 1, 1, 2, 2, 2], -1),
        }
        for gate, (cycle_type, signature) in expected.items():
            code, report = cli_json(run_cli, "analyze", "--d", "3", "--gate", gate)
            assert code == 0
            assert report["result"]["cycle_type"] == cycle_type
            assert report["result"]["signature"] == signature


def test_criterion_02_qutrit_matrix_fixtures(run_cli):
    with budget(1.0, "criterion 2: qutrit matrix grids and determinants"):
        grids = {
            "cnot1": (CNOT1_MATRIX_D3, 1),
            "cnot2": (CNOT2_MATRIX_D3, 1),
            "swap": (SWAP_MATRIX_D3, -1),
        }
        for gate, (grid, det) in grids.items():
            code, out, _ = run_cli("export", "--d", "3", "--gate", gate,
                                   "--format", "pretty")
            assert code == 0
            assert out == grid + "\n"
            code, report = cli_json(run_cli, "export", "--d", "3", "--gate", gate)
            n, flat = report["result"]["matrix"]["n"], report["result"]["matrix"]["entries"]
            assert exact_determinant([flat[r * n : (r + 1) * n] for r in range(n)]) == det


def test_criterion_03_swap_sign_mod_4_law():
    with budget(5.0, "criterion 3: swap sign law for 2 <= d <= 50"):
        for d in range(2, 51):
            by_cycles = swap_perm(d).signature()
            by_formula = swap_signature_formula(d)
            assert by_cycles == by_formula
            assert by_cycles == (1 if d % 4 in (0, 1) else -1)


def test_criterion_04_prime_generator_parity():
    with budget(5.0, "criterion 4: prime-dimension CNOT parity and cycles"):
        for d in (2, 3, 5, 7, 11, 13):
            expected_sig = -1 if d == 2 else 1
            expected_type = (1,) * d + (d,) * (d - 1)
            for perm in (cnot1_perm(d), cnot2_perm(d)):
                assert perm.signature() == expected_sig
                assert perm.cycle_type() == expected_type


def test_criterion_05_impossibility_sweep(run_cli):
    with budget(5.0, "criterion 5: decide sweep for d <= 51"):
        for d in range(1, 52):
            code, report = cli_json(run_cli, "decide", "--d", str(d))
            verdict = report["result"]["verdict"]
            if d % 4 == 3:
                assert code == 1
                assert verdict == "INFEASIBLE_BY_PARITY"
            else:
                assert code == 0
                assert verdict == "UNKNOWN_BY_PARITY"


def test_criterion_06_qubit_swap_synthesis(run_cli):
    with budget(1.0, "criterion 6: qubit swap needs exactly three CNOTs"):
        code, report = cli_json(run_cli, "synth", "--d", "2", "--target", "swap")
        assert code == 0
        word = report["result"]["word"]
        assert report["result"]["length"] == len(word) == 3

        gates = {"CNOT1": cnot1_perm(2), "CNOT2": cnot2_perm(2)}
        evaluated = Perm.identity(4)
        for name in word:
            evaluated = gates[name] * evaluated
        assert evaluated == swap_perm(2)

        # brute force all 14 nonempty words of length <= 3
        checked = 0
        for length in (1, 2, 3):
            for letters in itertools.product(["CNOT1", "CNOT2"], repeat=length):
                acc = Perm.identity(4)
                for name in letters:
                    acc = gates[name] * acc
                if length < 3:
                    assert acc != swap_perm(2)
                checked += 1
        assert checked == 14


def test_criterion_07_qutrit_unreachable_by_exhaustion(run_cli):
    with budget(1.0, "criterion 7: qutrit swap unreachable, order 24 confirmed"):
        code, report = cli_json(run_cli, "synth", "--d", "3", "--target", "swap")
        assert code == 1
        assert report["result"]["outcome"] == "UNREACHABLE_EXHAUSTED"
        reported_order = report["result"]["group_order"]

        # independent naive closure: multiply until nothing new appears
        gens = [cnot1_perm(3), cnot2_perm(3)]
        elems = {Perm.identity(9)}
        while True:
            grown = elems | {g * x for g in gens for x in elems}
            if grown == elems:
                break
            elems = grown
        assert swap_perm(3) not in elems
        assert len(elems) == reported_order == 24


def test_criterion_08_structural_linear_map_oracle():
    with budget(10.0, "criterion 8: all group elements linear with det 1"):
        for d in (2, 3, 4, 5):
            for p in reference_elements(d):
                lm = as_linear_map(p, d)
                assert lm is not None, f"nonlinear element at d={d}: {p}"
                assert _determinant(d, lm) == 1 % d
            swap_map = as_linear_map(swap_perm(d), d)
            assert swap_map is not None
            assert _determinant(d, swap_map) == (d - 1) % d


def test_criterion_09_property_suite():
    with budget(30.0, "criterion 9: randomized algebra properties"):
        rng = random.Random(0x5EED)

        # signature homomorphism on 1000 random pairs
        for _ in range(1000):
            n = rng.choice([4, 9, 16, 25])
            a, b = list(range(n)), list(range(n))
            rng.shuffle(a)
            rng.shuffle(b)
            p, q = Perm(a), Perm(b)
            assert (p * q).signature() == p.signature() * q.signature()

        # determinant oracle, on the matrix rows the CLI prints, agrees with
        # the signature on all gate permutations up to d = 7
        for d in range(1, 8):
            for perm in (cnot1_perm(d), cnot2_perm(d), swap_perm(d)):
                rows = [list(map(int, row.split(","))) for row in _matrix_rows(perm, ",")]
                assert exact_determinant(rows) == perm.signature()


def test_criterion_10_census_determinism(run_cli):
    with budget(10.0, "criterion 10: census bytes identical across two runs"):
        _, first, _ = run_cli("group", "--d", "5", "--json")
        _, second, _ = run_cli("group", "--d", "5", "--json")
        assert first.encode() == second.encode()
        assert json.loads(first)["result"]["order"] == 120
