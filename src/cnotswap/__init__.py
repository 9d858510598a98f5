"""Can a two-qudit SWAP be composed from generalized CNOT gates?

Tools to answer that per qudit dimension d: exact permutation algebra for
the gates on the d*d basis states, the parity obstruction that rules SWAP
out whenever both CNOT permutations are even but SWAP is odd (d = 3 mod 4),
and an exhaustive Cayley-graph search that either returns a shortest CNOT
word or certifies unreachability by enumerating the whole generated group.
"""

__version__ = "0.1.0"

from .perm import CostGuardError, Perm
from .gates import (
    GENERATORS,
    GateKind,
    as_linear_map,
    gate_perm,
)
from .feasibility import (
    Decision,
    ParityReport,
    Verdict,
    decide,
    swap_signature_formula,
)
from .synthesis import (
    GateWord,
    GroupCensus,
    GroupTooLarge,
    SearchOutcome,
    SynthesisResult,
    apply_word,
    enumerate_group,
    find_word,
    sl2_order,
)

__all__ = [
    "CostGuardError",
    "Perm",
    "GENERATORS",
    "GateKind",
    "as_linear_map",
    "gate_perm",
    "Decision",
    "ParityReport",
    "Verdict",
    "decide",
    "swap_signature_formula",
    "GateWord",
    "GroupCensus",
    "GroupTooLarge",
    "SearchOutcome",
    "SynthesisResult",
    "apply_word",
    "enumerate_group",
    "find_word",
    "sl2_order",
    "__version__",
]
