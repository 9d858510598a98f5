"""Exhaustive search in the group generated by the two CNOT permutations.

Both CNOTs act on digit pairs as the elementary matrices [[1,0],[1,1]] and
[[1,1],[0,1]] over Z_d, so every group element is a 2x2 matrix of
determinant 1.  The closure itself runs in :mod:`cnotswap.kernel`, in
numpy.  This module is what a caller sees, in the standard library alone:
the result types, the guards a search must pass, the order of SL(2, Z_d),
and ``find_word`` and ``enumerate_group``, which load the kernel, and with
it numpy, only once their guards have admitted d.

The Cayley graph is explored breadth-first: appending a generator to the
end of a circuit-time word is one edge, so the depth of an element's first
visit is its shortest word length.  Expanding parents in insertion order
and trying CNOT1 before CNOT2 makes the first word recorded for each
element the lexicographically least among its shortest words; every
externally visible result (census, witness word) is therefore a pure
function of the inputs.

Unreachability is only ever reported from a fully enumerated closure.
A search truncated by a depth or element cap reports DEPTH_LIMIT instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .gates import GATE_MATRICES, GENERATORS, GateKind, as_linear_map, _product
from .guards import CostGuardError, _check_dimension, _check_guard, _check_integer

DEFAULT_MAX_ELEMENTS = 10_000_000
DEFAULT_MAX_DIMENSION = 31
# bytes a search's dense state may take (``_key_state_bytes``):
# 16.9 MB at d = 160, and d <= 254 fits
KEY_STATE_BUDGET = 64 << 20
TRIAL_DIVISION_LIMIT = 10**6


@dataclass(frozen=True)
class GateWord:
    """A circuit as a sequence of generator gates, first gate applied first."""

    d: int
    letters: tuple[GateKind, ...]

    def __post_init__(self):
        object.__setattr__(self, "d", _check_dimension(self.d))
        object.__setattr__(self, "letters", tuple(self.letters))
        for letter in self.letters:
            if letter not in GENERATORS:
                raise ValueError(f"{letter} is not a generator gate")

    def __len__(self) -> int:
        return len(self.letters)


class SearchOutcome(Enum):
    FOUND = "FOUND"
    UNREACHABLE_EXHAUSTED = "UNREACHABLE_EXHAUSTED"
    DEPTH_LIMIT = "DEPTH_LIMIT"


@dataclass(frozen=True)
class SynthesisResult:
    outcome: SearchOutcome
    word: GateWord | None = None
    group_order: int | None = None
    diameter: int | None = None
    explored_depth: int | None = None
    frontier_size: int | None = None


@dataclass(frozen=True)
class GroupCensus:
    d: int
    order: int
    diameter: int
    counts_by_depth: tuple[int, ...]


@dataclass(frozen=True)
class GroupTooLarge:
    """The closure exceeded the element cap; no census is claimed."""

    d: int
    max_elements: int
    elements_found: int


def apply_word(word: GateWord) -> Perm:
    """Evaluate a word in circuit time: the first letter acts first.

    With composition (p * q)(i) = p(q(i)) that is  g_k * ... * g_1, whose
    matrix is the product of the letters' matrices in that order, mod d.
    """
    from .perm import Perm, _linear_images

    d = word.d
    matrix = (1 % d, 0, 0, 1 % d)
    for letter in word.letters:
        matrix = _product(d, GATE_MATRICES[letter], matrix)
    return Perm(_linear_images(d, *matrix).ravel())


def _table_bytes(d: int) -> int:
    """Bytes of the step tables at d: two d*d-entry tables of int32 pairs."""
    return 2 * len(GENERATORS) * 4 * d * d


def _key_state_bytes(d: int) -> int:
    """Bytes of a search's dense state at d: the int32 ``owner`` of every
    d**3 key, allocated per call, and the step tables, built once per process
    at a d that ``kernel._search_tables`` keeps and per search above it.  The
    int64 Bézout pair that builds the tables is freed once they are built."""
    return 4 * d**3 + _table_bytes(d)


def _word_from_records(closure: _Closure, d: int) -> GateWord:
    """Walk the births back from the found element, which a search that
    finds its target records last."""
    out: list[GateKind] = []
    position = len(closure.births[-1]) - 1
    for births in reversed(closure.births[1:]):
        position, letter = divmod(int(births[position]), 2)
        out.append(GENERATORS[letter])
    return GateWord(d=d, letters=tuple(reversed(out)))


def check_search_guards(d: int, max_dimension: int) -> int:
    """Raise before a search at d allocates anything it would not be allowed;
    return d as a plain int."""
    d = _check_dimension(d)
    max_dimension = _check_integer(max_dimension, "max_dimension", 1)
    _check_guard("search", d, max_dimension, "; raise max_dimension explicitly to override")
    if _key_state_bytes(d) > KEY_STATE_BUDGET:
        raise CostGuardError(
            f"search guard: the visited keys at d = {d} need {_key_state_bytes(d)} bytes, "
            f"over the budget of {KEY_STATE_BUDGET}"
        )
    return d


def sl2_order(d: int) -> int:
    """Order of SL(2, Z_d), the group the two CNOTs generate: d**3 times the
    product of (1 - p**-2) over the primes p dividing d.  Factoring d by trial
    division past TRIAL_DIVISION_LIMIT, which no d below 10**12 needs, is a
    CostGuardError."""
    d = _check_dimension(d)
    order, rest, p = d**3, d, 2
    while p * p <= rest:  # a p that still divides rest is prime
        if p > TRIAL_DIVISION_LIMIT:
            raise CostGuardError(f"order guard: d = {d} has a cofactor {rest} with no "
                                 f"prime factor up to {TRIAL_DIVISION_LIMIT}")
        if rest % p == 0:
            order = order * (p * p - 1) // (p * p)
            while rest % p == 0:
                rest //= p
        p += 1 if p == 2 else 2  # 2, then the odd numbers
    if rest > 1:  # no factor up to its square root: rest is prime
        order = order * (rest * rest - 1) // (rest * rest)
    return order


def enumerate_group(
    d: int,
    *,
    max_elements: int = DEFAULT_MAX_ELEMENTS,
    max_dimension: int = DEFAULT_MAX_DIMENSION,
) -> GroupCensus | GroupTooLarge:
    """Enumerate the whole generated group; order, diameter, layer counts."""
    d = check_search_guards(d, max_dimension)
    max_elements = _check_integer(max_elements, "max_elements", 1)
    from .kernel import _closure_bfs

    closure = _closure_bfs(d, max_elements=max_elements)
    if closure.status == "capped":
        # the closure admits whole layers, so it may stop short of the cap;
        # elements_found reports the one-at-a-time BFS order, which admits
        # exactly max_elements elements before its cap fires
        return GroupTooLarge(d=d, max_elements=max_elements, elements_found=max_elements)
    counts = tuple(closure.counts[:-1])
    return GroupCensus(d=d, order=sum(counts), diameter=len(counts) - 1, counts_by_depth=counts)


def find_word(
    d: int,
    target: Perm,
    *,
    max_depth: int | None = None,
    max_elements: int = DEFAULT_MAX_ELEMENTS,
    max_dimension: int = DEFAULT_MAX_DIMENSION,
) -> SynthesisResult:
    """Shortest generator word equal to ``target``, or a certificate.

    FOUND words are the lexicographically least among shortest (CNOT1
    before CNOT2).  UNREACHABLE_EXHAUSTED is only reported after the whole
    closure was enumerated without meeting the target; a truncated search
    reports DEPTH_LIMIT and claims nothing.  A target that is not a linear
    map, or is one of determinant other than 1, is no matrix of the group,
    so its search never meets it.
    """
    d = check_search_guards(d, max_dimension)
    if max_depth is not None:
        max_depth = _check_integer(max_depth, "max_depth", 0)
    max_elements = _check_integer(max_elements, "max_elements", 1)
    from .kernel import _closure_bfs

    closure = _closure_bfs(
        d, max_elements=max_elements, max_depth=max_depth, target=as_linear_map(target, d)
    )
    if closure.status == "found":
        return SynthesisResult(outcome=SearchOutcome.FOUND, word=_word_from_records(closure, d))
    counts = closure.counts
    if closure.status == "complete":
        return SynthesisResult(
            outcome=SearchOutcome.UNREACHABLE_EXHAUSTED,
            group_order=sum(counts),
            diameter=len(counts) - 2,
        )
    return SynthesisResult(
        outcome=SearchOutcome.DEPTH_LIMIT,
        explored_depth=len(counts) - 1,
        frontier_size=counts[-1],
    )
