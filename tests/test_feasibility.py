from math import gcd

import pytest

import cnotswap.feasibility as feas
from cnotswap.feasibility import (
    Verdict,
    decide,
    parity_report,
    swap_signature_formula,
)
from cnotswap.gates import swap_perm
from cnotswap.perm import CostGuardError
from cnotswap.synthesis import SearchOutcome, find_word


def cnot_sign_by_row_products(d):
    """Independent composite-d oracle: each control row m is gcd(d, m)
    cycles on d points, hence sign (-1)**(d - gcd(d, m))."""
    sign = 1
    for m in range(d):
        sign *= (-1) ** (d - gcd(d, m))
    return sign


def test_swap_signature_formula_values():
    expected = {1: 1, 2: -1, 3: -1, 4: 1, 5: 1, 6: -1, 7: -1, 8: 1}
    for d, sig in expected.items():
        assert swap_signature_formula(d) == sig


@pytest.mark.parametrize("d", range(1, 51))
def test_formula_agrees_with_cycle_count(d):
    assert swap_signature_formula(d) == swap_perm(d).signature()


@pytest.mark.parametrize("d", range(1, 51))
def test_swap_sign_follows_d_mod_4(d):
    rep = parity_report(d)
    assert rep.sig_swap == (1 if d % 4 in (0, 1) else -1)
    assert rep.d_mod_4 == d % 4
    assert rep.sig_cnot1 in (-1, 1) and rep.sig_cnot2 in (-1, 1)


def test_parity_report_fixed_dimensions():
    r2 = parity_report(2)
    assert (r2.sig_cnot1, r2.sig_cnot2, r2.sig_swap) == (-1, -1, -1)
    r5 = parity_report(5)
    assert (r5.sig_cnot1, r5.sig_cnot2, r5.sig_swap) == (1, 1, 1)
    r6 = parity_report(6)
    assert (r6.sig_cnot1, r6.sig_cnot2, r6.sig_swap) == (-1, -1, -1)


@pytest.mark.parametrize("d", range(1, 51))
def test_generator_signs_match_row_product_oracle(d):
    rep = parity_report(d)
    assert rep.sig_cnot1 == cnot_sign_by_row_products(d)
    assert rep.sig_cnot1 == rep.sig_cnot2  # conjugate generators


def test_odd_dimensions_have_even_generators():
    for d in range(1, 50, 2):
        rep = parity_report(d)
        assert rep.sig_cnot1 == 1 and rep.sig_cnot2 == 1


def test_decide_verdicts():
    assert decide(3).verdict is Verdict.INFEASIBLE_BY_PARITY
    assert decide(7).verdict is Verdict.INFEASIBLE_BY_PARITY
    assert decide(2).verdict is Verdict.UNKNOWN_BY_PARITY
    assert decide(4).verdict is Verdict.UNKNOWN_BY_PARITY


@pytest.mark.parametrize("d", range(1, 52))
def test_decide_sweep_matches_mod_4_rule(d):
    decision = decide(d)
    if d % 4 == 3:
        assert decision.verdict is Verdict.INFEASIBLE_BY_PARITY
    else:
        assert decision.verdict is Verdict.UNKNOWN_BY_PARITY
    if decision.verdict is Verdict.INFEASIBLE_BY_PARITY:
        rep = decision.report
        assert rep.sig_cnot1 == 1 and rep.sig_cnot2 == 1 and rep.sig_swap == -1


def test_parity_guard():
    with pytest.raises(CostGuardError):
        parity_report(1001)
    with pytest.raises(CostGuardError):
        decide(1001)


def test_cross_check_fails_loudly(monkeypatch):
    monkeypatch.setattr(feas, "swap_signature_formula", lambda d: 0)
    with pytest.raises(RuntimeError, match="cross-check"):
        parity_report(3)


@pytest.mark.parametrize("d", range(1, 8))
def test_parity_verdicts_are_sound_against_search(d):
    # whenever parity proves impossibility, exhaustion must agree
    if decide(d).verdict is Verdict.INFEASIBLE_BY_PARITY:
        result = find_word(d, swap_perm(d))
        assert result.outcome is SearchOutcome.UNREACHABLE_EXHAUSTED


def test_parity_never_contradicts_a_found_word():
    result = find_word(2, swap_perm(2))
    assert result.outcome is SearchOutcome.FOUND
    assert decide(2).verdict is Verdict.UNKNOWN_BY_PARITY
