"""Exhaustive search in the group generated by the two CNOT permutations.

Both CNOTs act on digit pairs as the elementary matrices [[1,0],[1,1]] and
[[1,1],[0,1]] over Z_d, so every group element is a 2x2 matrix of
determinant 1.  The search holds the current frontier as faithful keys in
0 .. d**3 - 1 (int32), steps keys to their children through two d*d-entry
tables per generator, and records only each element's birth, its position
among its layer's children, from which its parent and letter follow.  Every
answer is read off the births: a census from their layer lengths and a word
by walking them back.

The step tables depend on d alone and are read-only.  Those of every d whose
tables fit TABLE_CACHE_BUDGET together with the tables of all smaller d are
built on the first search at d and kept for the rest of the process; a larger
d builds its own for each search.  Each search allocates only its own
membership array (``owner``), frontier and births.

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
# tables of every d <= 72 take 2.03 MB together
TABLE_CACHE_BUDGET = 2 << 20
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
    d = word.d
    matrix = (1 % d, 0, 0, 1 % d)
    for letter in word.letters:
        matrix = _product(d, GATE_MATRICES[letter], matrix)
    return Perm(_linear_images(d, *matrix).ravel())


@dataclass
class _Closure:
    """A search's only record: births[k] holds the int32 births of the
    elements first met at depth k (births[0] = [-1], the identity).  A
    complete closure ends with one empty layer, a found one with the target
    last, and a capped one with the frontier it stopped at."""

    status: str  # "complete" | "found" | "capped"
    births: list[np.ndarray]


def _table_bytes(d: int) -> int:
    """Bytes of the step tables at d: two int32 d*d-entry tables per generator."""
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


def _step_tables(d: int) -> list[tuple[np.ndarray, ...]]:
    """Per generator G, the read-only int32 tables (d*T_G, off_G) over column
    codes f.

    With (x, y) the Bézout pair of f, s0(f) = (-y, x) is the second column
    of the det-1 matrix with first column f and key offset t = 0.  The
    matrix with key f*d + t has columns f and s0(f) + t*f, so G times it
    has columns G*f and G*s0(f) + t*G*f.  T_G[f] is the code of G*f, and
    off_G[f] the offset that (x, y) of G*f reads off G*s0(f).  Since
    x*(G*f)_1 + y*(G*f)_2 = 1, it reads t off t*G*f, so the child's key is
    d*T_G[f] + (t + off_G[f] mod d).
    """
    bezout = x, y = _bezout_table(d)
    base = -y % d * d + x  # the code of s0(f)
    tables = []
    for letter in GENERATORS:
        images = _linear_images(d, *GATE_MATRICES[letter]).ravel()
        offsets = _keys(d, bezout, images, images[base]) % d
        table = ((images * d).astype(np.int32), offsets.astype(np.int32))
        for array in table:
            array.flags.writeable = False
        tables.append(table)
    return tables


def _step(d: int, table: tuple[np.ndarray, np.ndarray], first, t) -> np.ndarray:
    """Keys of G*M for the matrices M with int32 keys first*d + t, from one
    generator's ``_step_tables`` entry."""
    scaled, offsets = table
    # s = t + off < 2*d; as uint32, s - d wraps above 2**31 exactly when
    # s < d, so min(s, s - d) is s mod d
    child = offsets.take(first).view(np.uint32)
    child += t.view(np.uint32)
    np.minimum(child, child - np.uint32(d), out=child)
    child = child.view(np.int32)
    child += scaled.take(first)
    return child


_kept_step_tables = cache(_step_tables)


def _search_tables(d: int) -> list[tuple[np.ndarray, ...]]:
    """``_step_tables`` at d, shared by every search at d while the tables of
    d and all smaller d, 16*(1**2 + ... + d**2) bytes, fit TABLE_CACHE_BUDGET.

    So the kept tables never take more than the budget, whichever d are
    searched and in whatever order, and none is ever dropped.  A larger d
    builds its tables for each search.
    """
    if 8 * d * (d + 1) * (2 * d + 1) // 3 <= TABLE_CACHE_BUDGET:
        return _kept_step_tables(d)
    return _step_tables(d)


_UNSEEN, _VISITED = -1, -2


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
    ``_step_tables`` gives each generator's child key straight from it.
    Only the frontier's keys are held; what the search keeps is the births
    (see ``_Closure``), 4 bytes per element.

    Membership is exact, not a lossy hash, because certificates of
    unreachability rely on it: one int32 ``owner`` entry per key in
    0 .. d**3 - 1 marks it.  A target of another determinant gets no key and
    is never met.

    Per layer the children are interleaved in (parent, CNOT1 before CNOT2)
    order and the first occurrence of each unvisited key is kept, which is
    the element a one-at-a-time insertion-order loop would have added.  Its
    position in that order is its birth: the parent is birth // 2 in the
    layer before and the letter birth % 2.
    G*P = G*Q only when P = Q, so within a layer a key repeats only as
    CNOT1*P_i = CNOT2*P_j, at positions 2i and 2j + 1: the CNOT1 children
    claim their keys in ``owner`` first, and a CNOT2 child takes a claim
    over only from a later parent, i > j.  No sort is needed.

    A depth cap stops before layer ``max_depth`` is expanded; an element cap
    stops when the next layer would take the elements over it.
    """
    step1, step2 = _search_tables(d)
    ident = np.array([_key(d, (1 % d, 0, 0, 1 % d))], dtype=np.int32)
    target_key = None
    if target is not None and _determinant(d, target) == 1 % d:
        target_key = _key(d, target)
    # per key: _UNSEEN, _VISITED, or within a layer the index i >= 0 of the
    # frontier element whose CNOT1 child claims it
    owner = np.full(d**3, _UNSEEN, dtype=np.int32)
    owner[ident] = _VISITED
    births = [np.array([-1], dtype=np.int32)]
    if target_key is not None and owner[target_key] == _VISITED:
        return _Closure("found", births)

    frontier = ident
    room = max_elements - 1  # elements the cap still admits
    while n := len(frontier):
        if max_depth is not None and len(births) > max_depth:
            return _Closure("capped", births)
        first = frontier // d
        t = first * d
        np.subtract(frontier, t, out=t)
        keys1 = _step(d, step1, first, t)
        keys2 = _step(d, step2, first, t)
        keep1 = owner.take(keys1) == _UNSEEN
        claimed = np.flatnonzero(keep1)
        np.put(owner, keys1[claimed], claimed)
        held = owner.take(keys2)
        keep2 = held == _UNSEEN
        later = np.flatnonzero(held > np.arange(n))
        keep2[later] = True
        keep1[held[later]] = False
        new = np.flatnonzero(np.stack([keep1, keep2], axis=1))  # births, in order
        keys = np.stack([keys1, keys2], axis=1).ravel()[new]

        # the cap fires when one more element would exceed it; a target
        # met before that point is still found
        found = False
        if target_key is not None:
            hits = np.flatnonzero(keys == target_key)
            found = len(hits) > 0 and hits[0] < room
        if found:
            new, keys = new[: hits[0] + 1], keys[: hits[0] + 1]
        elif len(new) > room:
            return _Closure("capped", births)

        frontier = keys
        np.put(owner, keys, _VISITED)
        births.append(new.astype(np.int32))
        room -= len(new)
        if found:
            return _Closure("found", births)
    return _Closure("complete", births)


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
    counts = tuple(len(births) for births in closure.births[:-1])
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
    births = closure.births
    if closure.status == "complete":
        return SynthesisResult(
            outcome=SearchOutcome.UNREACHABLE_EXHAUSTED,
            group_order=sum(map(len, births)),
            diameter=len(births) - 2,
        )
    return SynthesisResult(
        outcome=SearchOutcome.DEPTH_LIMIT,
        explored_depth=len(births) - 1,
        frontier_size=len(births[-1]),
    )
