"""Can a two-qudit SWAP be composed from generalized CNOT gates?

Tools to answer that per qudit dimension d: exact permutation algebra for
the gates on the d*d basis states, the parity obstruction that rules SWAP
out whenever both CNOT permutations are even but SWAP is odd (d = 3 mod 4),
and an exhaustive Cayley-graph search that either returns a shortest CNOT
word or certifies unreachability by enumerating the whole generated group.

``import cnotswap`` loads only the standard library.  numpy loads with the
first image table (``gate_perm``, ``apply_word``, ``as_linear_map``,
``find_word``, ``enumerate_group``, ``decide``) or the first use of ``Perm``,
the one export resolved on access.
"""

__version__ = "0.1.0"

from .guards import CostGuardError
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


def __getattr__(name: str):
    if name == "Perm":  # its module imports numpy, so it loads on first use
        from .perm import Perm

        return Perm
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
