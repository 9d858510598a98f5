"""Parity obstruction for building SWAP out of CNOT gates.

Signatures multiply under composition, so a word over generators of
signature +1 can never equal a target of signature -1.  The decision here
is one-sided: parity can prove impossibility but never feasibility, which
is why the non-obstructed verdict is "unknown" and feasibility claims are
left to the exhaustive search in :mod:`cnotswap.synthesis`.  The module
needs only the standard library; ``decide`` loads numpy with its first gate
table, after its guard has admitted d.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .gates import GateKind, gate_perm
from .guards import _check_dimension, _check_guard

PARITY_DIMENSION_LIMIT = 1000


class Verdict(Enum):
    INFEASIBLE_BY_PARITY = "INFEASIBLE_BY_PARITY"
    UNKNOWN_BY_PARITY = "UNKNOWN_BY_PARITY"


@dataclass(frozen=True)
class ParityReport:
    """Signatures of both generators and the swap target at dimension d."""

    d: int
    sig_cnot1: int
    sig_cnot2: int
    sig_swap: int
    d_mod_4: int


@dataclass(frozen=True)
class Decision:
    verdict: Verdict
    report: ParityReport


def swap_signature_formula(d: int) -> int:
    """Closed form (-1)**(d*(d-1)/2): the swap permutation is d(d-1)/2
    transpositions, so its sign is -1 exactly when d = 2 or 3 mod 4.

    Deliberately independent of the cycle-count route in ``Perm.signature``.
    """
    d = _check_dimension(d)
    return -1 if (d * (d - 1) // 2) % 2 else 1


def decide(d: int) -> Decision:
    """INFEASIBLE_BY_PARITY when both generators are even and swap is odd.

    Signatures are computed from the actual gate permutations, so composite
    d needs no closed form.  Any other sign pattern leaves the question
    open; only an exhaustive search can settle it.  The swap sign is also
    taken from its closed form and any disagreement is a hard error: the
    two routes are double-entry bookkeeping.
    """
    d = _check_dimension(d)
    _check_guard("parity", d, PARITY_DIMENSION_LIMIT, " (permutations on d*d points)")
    sig_cnot1, sig_cnot2, sig_swap = (gate_perm(kind, d).signature() for kind in GateKind)
    formula = swap_signature_formula(d)
    if sig_swap != formula:
        raise RuntimeError(
            f"swap signature cross-check failed at d = {d}: "
            f"cycle count gives {sig_swap}, closed form gives {formula}"
        )
    report = ParityReport(d=d, sig_cnot1=sig_cnot1, sig_cnot2=sig_cnot2, sig_swap=sig_swap,
                          d_mod_4=d % 4)
    obstructed = sig_cnot1 == sig_cnot2 == 1 and sig_swap == -1
    verdict = Verdict.INFEASIBLE_BY_PARITY if obstructed else Verdict.UNKNOWN_BY_PARITY
    return Decision(verdict=verdict, report=report)
