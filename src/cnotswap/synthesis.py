"""Exhaustive search in the group generated by the two CNOT permutations.

Both CNOTs act on digit pairs as the elementary matrices [[1,0],[1,1]] and
[[1,1],[0,1]] over Z_d, so every group element is a 2x2 matrix of
determinant 1.  The search holds the current frontier as faithful keys in
0 .. d**3 - 1 (int32), steps each key to both its children with one gather
from each of two d*d-entry tables of packed int32 pairs, and records how many
elements each depth met and, only when it has a target, each element's birth:
its position among its layer's children, from which its parent and letter
follow.  A census is read off the counts and a word off the births.

The step tables depend on d alone and are read-only, and so does the free
prefix (below), which is built with them.  Those of every d whose tables fit
TABLE_CACHE_BUDGET together with the tables of all smaller d are built on the
first search at d and kept for the rest of the process; a larger d builds its
own for each search.  Each search allocates only its own membership array
(``owner``), the layers past the prefix, counts and births.

The Cayley graph is explored breadth-first: appending a generator to the
end of a circuit-time word is one edge, so the depth of an element's first
visit is its shortest word length.  Expanding parents in insertion order
and trying CNOT1 before CNOT2 makes the first word recorded for each
element the lexicographically least among its shortest words; every
externally visible result (census, witness word) is therefore a pure
function of the inputs.

The first ``_free_depth(d)`` layers, the free prefix, hold no repeat, so
they are every child in order and a search reads them from its tables
instead of stepping.  Over the integers, CNOT1 = L = [[1,0],[1,1]] and
CNOT2 = R = [[1,1],[0,1]] generate a free monoid (the Stern-Brocot tree),
so distinct words are distinct matrices.  A word of length k has entries at
most F(k+1) (Fibonacci, F(1) = F(2) = 1); while that is below d, reduction
mod d keeps the matrices distinct.  Every later layer finds its first
occurrences with one scatter into ``owner``.

Unreachability is only ever reported from a fully enumerated closure.
A search truncated by a depth or element cap reports DEPTH_LIMIT instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cache
from math import gcd

import numpy as np

from .gates import (
    GATE_MATRICES, GENERATORS, GateKind, as_linear_map, _check_dimension, _determinant,
    _linear_images, _product,
)
from .perm import CostGuardError, Perm, _check_guard, _check_integer

DEFAULT_MAX_ELEMENTS = 10_000_000
DEFAULT_MAX_DIMENSION = 31
# bytes a search's dense state may take (``_key_state_bytes``):
# 16.9 MB at d = 160, and d <= 254 fits
KEY_STATE_BUDGET = 64 << 20
# bytes of step tables kept between searches (``_search_tables``): the
# tables of every d <= 72 take 2.03 MB together.  The free prefix kept with
# them is not counted: 197 KB over d <= 72, and 43 KB for d in [16, 40]
TABLE_CACHE_BUDGET = 2 << 20
TRIAL_DIVISION_LIMIT = 10**6
_PAIR = np.int64(2**32 + 1)  # k * _PAIR adds k to both int32 halves of an int64


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
    d = word.d
    matrix = (1 % d, 0, 0, 1 % d)
    for letter in word.letters:
        matrix = _product(d, GATE_MATRICES[letter], matrix)
    return Perm(_linear_images(d, *matrix).ravel())


@dataclass
class _Closure:
    """A search's only record: counts[k] elements were first met at depth k;
    births[k], kept only with a target key, holds their int32 births (births[0]
    = [-1]).  A complete closure ends with one empty layer, a found one with
    the target last, and a capped one with the frontier it stopped at."""

    status: str  # "complete" | "found" | "capped"
    counts: list[int]
    births: list[np.ndarray]


def _table_bytes(d: int) -> int:
    """Bytes of the step tables at d: two d*d-entry tables of int32 pairs."""
    return 2 * len(GENERATORS) * 4 * d * d


def _key_state_bytes(d: int) -> int:
    """Bytes of a search's dense state at d: the int32 ``owner`` of every
    d**3 key, allocated per call, and the step tables, built once per process
    at a d that ``_search_tables`` keeps and per search above it.  The int64
    Bézout pair that builds the tables is freed once they are built."""
    return 4 * d**3 + _table_bytes(d)


def _bezout_table(d: int) -> tuple[np.ndarray, np.ndarray]:
    """(x, y) with x*u + y*v = 1 (mod d) at every unimodular column code u*d + v.

    For a unimodular (u, v) some w = u + k*v is a unit, and then
    (x, y) = (w^-1, k*w^-1).  Round k settles the codes still open whose w
    is a unit; few rounds settle them all.  Codes that are not unimodular
    keep (0, 0): no matrix of determinant 1 has such a column.
    """
    digits = np.arange(d)
    is_inverse = np.outer(digits, digits) % d == 1 % d
    units = is_inverse.any(axis=1)
    inverse = is_inverse.argmax(axis=1)
    u, v = np.divmod(np.arange(d * d), d)
    x = np.zeros(d * d, dtype=np.int64)
    y = np.zeros(d * d, dtype=np.int64)
    open_codes = np.flatnonzero(np.gcd(np.gcd(u, v), d) == 1)
    k = 0
    while len(open_codes):
        w = (u[open_codes] + k * v[open_codes]) % d
        unit = units[w]
        settled = open_codes[unit]
        x[settled] = inverse[w[unit]]
        y[settled] = k * x[settled] % d
        open_codes = open_codes[~unit]
        k += 1
    return x, y


def _bezout_pair(d: int, u: int, v: int) -> tuple[int, int]:
    """``_bezout_table``'s (x, y) at the unimodular column (u, v), by its
    rule: the least k >= 0 with w = u + k*v a unit gives (w^-1, k*w^-1)."""
    k = next(k for k in range(d) if gcd(u + k * v, d) == 1)
    x = pow(u + k * v, -1, d)
    return x, k * x % d


def _key(d: int, matrix: tuple[int, int, int, int]) -> int:
    """``_keys`` of one det-1 matrix (a, b, c, e) with entries in 0 .. d - 1."""
    a, b, c, e = matrix
    x, y = _bezout_pair(d, a, c)
    return (a * d + c) * d + (x * b + y * e) % d


def _keys(d: int, bezout: tuple[np.ndarray, np.ndarray], first, second):
    """The d**3 key (a*d + c)*d + (x*b + y*e mod d) of the matrices with column
    codes first = a*d + c and second = b*d + e, where x*a + y*c = 1.

    Faithful on SL(2, Z_d): two det-1 matrices with the same first column
    differ in the second by t*(a, c), and (x, y) reads off t.
    """
    x, y = bezout
    b, e = np.divmod(second, d)
    key = x[first] * b
    key += y[first] * e
    key %= d
    key += np.multiply(first, d, dtype=np.int64)
    return key


def _step_tables(d: int) -> tuple[np.ndarray, ...]:
    """The read-only arrays a search at d starts from: the tables (offsets,
    scaled) over column codes f, entry f of each an int32 pair, CNOT1's value
    then CNOT2's, packed in one int64; then ``arange(2**K)``; then the int32
    keys of layers 1 .. K = ``_free_depth(d)`` in birth order, whose births
    are that arange's first 2**k entries.

    With (x, y) the Bézout pair of f, s0(f) = (-y, x) is the second column
    of the det-1 matrix with first column f and key offset t = 0.  The
    matrix with key f*d + t has columns f and s0(f) + t*f, so G times it
    has columns G*f and G*s0(f) + t*G*f.  T_G[f] is the code of G*f, and
    off_G[f] the offset that (x, y) of G*f reads off G*s0(f).  Since
    x*(G*f)_1 + y*(G*f)_2 = 1, it reads t off t*G*f, so the child's key is
    d*T_G[f] + (t + off_G[f] mod d).  ``scaled`` holds d*T_G[f] and
    ``offsets`` off_G[f] - d*f, so adding the key gives t + off_G[f].  Each
    half, in -d**3 .. d**3 - 1, is packed by its value: lifted by d**3, viewed
    as int64 and lowered by d**3 * _PAIR.
    """
    bezout = x, y = _bezout_table(d)
    base = -y % d * d + x  # the code of s0(f)
    lifted = np.empty((2, d * d, len(GENERATORS)), dtype=np.int32)  # (offsets, scaled)
    for column, letter in enumerate(GENERATORS):
        images = _linear_images(d, *GATE_MATRICES[letter]).ravel()
        offsets = _keys(d, bezout, images, images[base]) % d - d * np.arange(d * d)
        lifted[:, :, column] = offsets + d**3, images * d + d**3
    tables = tuple(lifted.view(np.int64)[..., 0] - d**3 * _PAIR)
    layers = [np.array([_key(d, (1 % d, 0, 0, 1 % d))], dtype=np.int32)]  # the identity
    for _ in range(_free_depth(d)):
        layers.append(_children(d, tables, layers[-1]).ravel())
    arrays = (*tables, np.arange(len(layers[-1]), dtype=np.int32), *layers[1:])
    for array in arrays:
        array.flags.writeable = False
    return arrays


def _children(d: int, tables: tuple[np.ndarray, ...], frontier: np.ndarray) -> np.ndarray:
    """The int32 keys of CNOT1*M and CNOT2*M, one row per int32 key M in
    ``frontier``, from one gather of each ``_step_tables`` table."""
    offsets, scaled = tables[:2]
    first = np.floor_divide(frontier, d, dtype=np.intp)
    keys = offsets.take(first)
    keys += frontier * _PAIR  # s = t + off_G[f] < 2*d in each half
    # as uint32, s - d wraps above 2**31 exactly when s < d, so min(s, s - d)
    # is s mod d
    halves = keys.view(np.uint32)
    np.minimum(halves, halves - np.uint32(d), out=halves)
    keys += scaled.take(first)
    return keys.view(np.int32).reshape(-1, 2)


_kept_step_tables = cache(_step_tables)


def _search_tables(d: int) -> tuple[np.ndarray, ...]:
    """``_step_tables`` at d, shared by every search at d while the tables of
    d and all smaller d, 16*(1**2 + ... + d**2) bytes, fit TABLE_CACHE_BUDGET.

    So the kept tables never take more than the budget, whichever d are
    searched and in whatever order, and none is ever dropped; the free
    prefix is kept with its tables and not counted.  A larger d builds both
    for each search.
    """
    if 8 * d * (d + 1) * (2 * d + 1) // 3 <= TABLE_CACHE_BUDGET:
        return _kept_step_tables(d)
    return _step_tables(d)


def _free_depth(d: int) -> int:
    """The largest K with F(K+1) <= d - 1 (F(1) = F(2) = 1), 0 if there is
    none: layers 1 .. K of a search at d hold 2**k new elements each.

    L*M has rows (r1, r1 + r2) and R*M has rows (r1 + r2, r2).  So by
    induction from L and R (k = 1), a positive word of length k has every
    entry at most F(k+1), and its smaller row maximum is at most F(k).
    Positive words are distinct integer matrices (L and R generate a free
    monoid), so while F(k+1) <= d - 1 the 2**k words of length k stay
    distinct mod d, and none equals a shorter word.
    """
    k, f, f_next = 0, 1, 1  # F(k+1), F(k+2)
    while f_next <= d - 1:
        k, f, f_next = k + 1, f_next, f + f_next
    return k


_UNSEEN, _VISITED = 2**31 - 1, -1


def _closure_bfs(
    d: int,
    *,
    max_elements: int,
    max_depth: int | None = None,
    target: tuple[int, int, int, int] | None = None,
) -> _Closure:
    """Deterministic breadth-first closure over {CNOT1, CNOT2}.

    An element, the 2x2 matrix (a, b, c, e) over Z_d in the ``GATE_MATRICES``
    convention, is held as its int32 key f*d + t from ``_keys``: its first
    column f = a*d + c and the offset t of its second column from s0(f).
    The key is faithful on SL(2, Z_d), so it is the element, and
    ``_children`` gives the keys of both its children straight from it.
    Only the frontier's keys are held (``_Closure`` says what is kept).

    Membership is exact, not a lossy hash, because certificates of
    unreachability rely on it: one int32 ``owner`` entry per key in
    0 .. d**3 - 1 marks it.  A target of another determinant gets no key and
    is never met.  Once a layer's new elements are marked, one read of
    ``owner`` at the target's key tells whether the layer met it; only the
    layer that did is scanned for the target's position, and it is cut there.

    Per layer the children come in (parent, CNOT1 before CNOT2) order and
    the first occurrence of each unvisited key is kept, which is the element
    a one-at-a-time insertion-order loop would have added.  Its position in
    that order is its birth: the parent is birth // 2 in the layer before
    and the letter birth % 2.  One scatter finds the first occurrences:
    ``np.minimum.at`` writes each child's position into ``owner`` at its key,
    and a child is new exactly when its key then holds its own position.
    Visited keys hold _VISITED = -1, below every position, so they keep it;
    an unseen key (_UNSEEN = 2**31 - 1, above every position) ends holding
    its least position.  Marking the layer's new keys _VISITED leaves no
    position behind.
    Layers 1 .. K = ``_free_depth(d)`` hold no repeat and meet no earlier
    key: their words' entries are at most F(K+1) <= d - 1, so reduction
    mod d leaves the free monoid's distinct matrices distinct.  They are a
    function of d alone, so they come from ``_step_tables`` with no step:
    layer k is every child, births 0 .. 2**k - 1.  Marking, the target read
    and both caps are the same on every layer.

    A depth cap stops before layer ``max_depth`` is expanded; an element cap
    stops when the next layer would take the elements over it.
    """
    tables = _search_tables(d)
    ordinals, prefix = tables[2], tables[3:]
    target_key = None
    if target is not None and _determinant(d, target) == 1 % d:
        target_key = _key(d, target)
    # per key: _UNSEEN, _VISITED, or within a layer's scatter the least
    # position of a child with that key
    owner = np.full(d**3, _UNSEEN, dtype=np.int32)
    frontier = np.array([_key(d, (1 % d, 0, 0, 1 % d))], dtype=np.int32)  # the identity
    owner[frontier] = _VISITED
    counts = [1]
    births = [] if target_key is None else [np.array([-1], dtype=np.int32)]
    if target_key is not None and owner[target_key] == _VISITED:
        return _Closure("found", counts, births)

    room = max_elements - 1  # elements the cap still admits
    while len(frontier):
        if max_depth is not None and len(counts) > max_depth:
            return _Closure("capped", counts, births)
        if len(counts) <= len(prefix):  # every child is new
            frontier = prefix[len(counts) - 1]
            new = ordinals[: len(frontier)]
        else:
            children = _children(d, tables, frontier).ravel()
            positions = np.arange(children.size, dtype=np.int32)
            np.minimum.at(owner, children, positions)
            new = (owner.take(children) == positions).nonzero()[0].astype(np.int32)  # births
            frontier = children[new]
            del children, positions  # freed before the next layer's step
        owner.put(frontier, _VISITED)
        # a search returns in the first layer that marks its target
        found = target_key is not None and owner[target_key] == _VISITED
        if found:
            frontier = frontier[: (frontier == target_key).argmax() + 1]
        # a target met before the cap fires is still found
        if len(frontier) > room:
            return _Closure("capped", counts, births)
        counts.append(len(frontier))
        if target_key is not None:
            births.append(new[: len(frontier)])
        if found:
            return _Closure("found", counts, births)
        room -= len(frontier)
    return _Closure("complete", counts, births)


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
