"""Exhaustive search in the group generated by the two CNOT permutations.

Both CNOTs act on digit pairs as the elementary matrices [[1,0],[1,1]] and
[[1,1],[0,1]] over Z_d, so every group element is a 2x2 matrix of
determinant 1.  The search holds each one as its two column codes (a column
(u, v) is the basis state d*u + v) and marks it visited under a faithful key
in 0 .. d**3 - 1.  Image tables are built only for callers that ask for
permutations: ``group_elements`` from each element's matrix, and
``apply_word`` from the product of its letters' matrices, both by
``gates._linear_images``.

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

import numpy as np

from .gates import (
    GATE_MATRICES, GENERATORS, GateKind, LinearMap2, as_linear_map, _check_dimension,
    _linear_images,
)
from .perm import CostGuardError, Perm

DEFAULT_MAX_ELEMENTS = 10_000_000
DEFAULT_MAX_DIMENSION = 31
# bytes the closure's dense per-call state may take (``_key_state_bytes``):
# 16.9 MB at d = 160, and d <= 254 fits
KEY_STATE_BUDGET = 64 << 20
# group elements whose image tables group_elements builds at once, which
# bounds its temporaries to a few of these slices (d = 31: 7.9 MB each)
_TABLE_SLICE = 1024


@dataclass(frozen=True)
class GateWord:
    """A circuit as a sequence of generator gates, first gate applied first."""

    d: int
    letters: tuple[GateKind, ...]

    def __post_init__(self):
        _check_dimension(self.d)
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
    a, b, c, e = 1 % d, 0, 0, 1 % d
    for letter in word.letters:
        p, q, r, s = GATE_MATRICES[letter]
        a, b, c, e = (
            (p * a + q * c) % d, (p * b + q * e) % d, (r * a + s * c) % d, (r * b + s * e) % d
        )
    return Perm(_linear_images(d, a, b, c, e).ravel())


@dataclass
class _Closure:
    status: str  # "complete" | "found" | "depth_cap" | "element_cap"
    size: int
    layers: list[np.ndarray]
    parents: list[np.ndarray]
    letters: list[np.ndarray]
    counts_by_depth: list[int]
    found_index: int = -1
    stopped_depth: int = 0
    stopped_frontier: int = 0


def _code_dtype(d: int) -> type:
    """Narrowest signed type holding every column code 0 .. d*d - 1."""
    return np.int16 if d * d <= 2**15 else np.int32


def _key_state_bytes(d: int) -> int:
    """Bytes of the closure's dense per-call state: the int32 owner of every
    d**3 key, two generator tables of column codes and the int64 Bézout pair."""
    return 4 * d**3 + d * d * (2 * np.dtype(_code_dtype(d)).itemsize + 16)


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


_UNSEEN, _VISITED = -1, -2


def _closure_bfs(
    d: int,
    *,
    max_elements: int,
    max_depth: int | None = None,
    target: LinearMap2 | None = None,
) -> _Closure:
    """Deterministic breadth-first closure over {CNOT1, CNOT2}.

    An element, the 2x2 matrix (a, b, c, e) over Z_d in the ``LinearMap2``
    convention, is held as its two column codes a*d + c and b*d + e, one
    column of ``layers[k]`` (shape (2, n)) each.  A column (u, v) is the
    basis state d*u + v, and a generator multiplies every column of M the way
    its gate maps basis states, so children are gathers from the gates' own
    image tables: CNOT1 sends (u, v) to (u, u + v), CNOT2 to (u + v, v).

    Membership is exact, not a lossy hash, because certificates of
    unreachability rely on it: every element has determinant 1, and on
    SL(2, Z_d) the key of ``_keys`` is faithful, so one int32 ``owner`` entry
    per key in 0 .. d**3 - 1 marks it.  A target of another determinant gets
    no key and is never met.

    Per layer the children are interleaved in (parent, CNOT1 before CNOT2)
    order and the first occurrence of each unvisited key is kept, which is
    the element a one-at-a-time insertion-order loop would have added.
    G*P = G*Q only when P = Q, so within a layer a key repeats only as
    CNOT1*P_i = CNOT2*P_j, at positions 2i and 2j + 1: the CNOT1 children
    claim their keys in ``owner`` first, and a CNOT2 child takes a claim
    over only from a later parent, i > j.  No sort is needed.
    """
    code = _code_dtype(d)
    tables = np.stack(
        [_linear_images(d, *GATE_MATRICES[letter]).ravel() for letter in GENERATORS]
    ).astype(code)
    bezout = _bezout_table(d)
    # per key: _UNSEEN, _VISITED, or within a layer the index i >= 0 of the
    # frontier element whose CNOT1 child claims it
    owner = np.full(d**3, _UNSEEN, dtype=np.int32)
    ident = np.array([[1 % d * d], [1 % d]], dtype=code)
    owner[_keys(d, bezout, *ident)] = _VISITED
    layers = [ident]
    parents = [np.array([-1], dtype=np.int32)]
    letters = [np.array([-1], dtype=np.int8)]
    counts = [1]
    size = 1

    target_key = None
    if target is not None and target.determinant() == 1 % d:
        first = target.a * d + target.c
        target_key = int(_keys(d, bezout, first, target.b * d + target.e))
        if owner[target_key] == _VISITED:
            return _Closure("found", size, layers, parents, letters, counts, found_index=0)

    frontier = ident
    start = 0  # index of the frontier's first element
    depth = 0
    while n := frontier.shape[1]:
        if max_depth is not None and depth >= max_depth:
            return _Closure(
                "depth_cap", size, layers, parents, letters, counts,
                stopped_depth=depth, stopped_frontier=n,
            )
        # children[col, 2*i + g] is column col of generator g times parent i
        children = tables[:, frontier].transpose(1, 2, 0).reshape(2, 2 * n)
        keys = _keys(d, bezout, *children)
        keep1 = owner[keys[0::2]] == _UNSEEN
        claimed = np.flatnonzero(keep1)
        owner[keys[0::2][claimed]] = claimed
        held = owner[keys[1::2]]
        keep2 = held == _UNSEEN
        later = np.flatnonzero(held > np.arange(n))
        keep2[later] = True
        keep1[held[later]] = False
        new = np.flatnonzero(np.stack([keep1, keep2], axis=1))  # child positions, in order

        # the cap fires when one more element would exceed it; a target
        # met before that point is still found
        room = max(max_elements - size, 0)
        found = False
        if target_key is not None:
            hits = np.flatnonzero(keys[new] == target_key)
            found = len(hits) > 0 and hits[0] < room
        if found:
            new = new[: hits[0] + 1]
        elif len(new) > room:
            return _Closure(
                "element_cap", size + room, layers, parents, letters, counts,
                stopped_depth=depth, stopped_frontier=n,
            )

        frontier = children[:, new]
        owner[keys[new]] = _VISITED
        layers.append(frontier)
        parents.append((start + new // 2).astype(np.int32))
        letters.append((new % 2).astype(np.int8))
        start = size
        size += len(new)
        if found:
            return _Closure(
                "found", size, layers, parents, letters, counts, found_index=size - 1
            )
        if len(new):
            counts.append(len(new))
        depth += 1
    return _Closure("complete", size, layers, parents, letters, counts)


def _word_from_records(closure: _Closure, d: int) -> GateWord:
    parents = np.concatenate(closure.parents)
    letters = np.concatenate(closure.letters)
    out: list[GateKind] = []
    idx = closure.found_index
    while idx > 0:
        out.append(GENERATORS[letters[idx]])
        idx = parents[idx]
    return GateWord(d=d, letters=tuple(reversed(out)))


def check_search_guards(d: int, max_dimension: int) -> None:
    """Raise before a search at d allocates anything it would not be allowed."""
    _check_dimension(d)
    if d > max_dimension:
        raise CostGuardError(
            f"search guard: d = {d} exceeds {max_dimension}; "
            "raise max_dimension explicitly to override"
        )
    if _key_state_bytes(d) > KEY_STATE_BUDGET:
        raise CostGuardError(
            f"search guard: the visited keys at d = {d} need {_key_state_bytes(d)} bytes, "
            f"over the budget of {KEY_STATE_BUDGET}"
        )


def enumerate_group(
    d: int,
    *,
    max_elements: int = DEFAULT_MAX_ELEMENTS,
    max_dimension: int = DEFAULT_MAX_DIMENSION,
) -> GroupCensus | GroupTooLarge:
    """Enumerate the whole generated group; order, diameter, layer counts."""
    check_search_guards(d, max_dimension)
    closure = _closure_bfs(d, max_elements=max_elements)
    if closure.status == "element_cap":
        return GroupTooLarge(d=d, max_elements=max_elements, elements_found=closure.size)
    return GroupCensus(
        d=d,
        order=closure.size,
        diameter=len(closure.counts_by_depth) - 1,
        counts_by_depth=tuple(closure.counts_by_depth),
    )


def group_elements(
    d: int,
    *,
    max_elements: int = DEFAULT_MAX_ELEMENTS,
    max_dimension: int = DEFAULT_MAX_DIMENSION,
) -> list[Perm]:
    """All group elements in breadth-first order (identity first)."""
    check_search_guards(d, max_dimension)
    closure = _closure_bfs(d, max_elements=max_elements)
    if closure.status != "complete":
        raise CostGuardError(
            f"group at d = {d} exceeds the {max_elements}-element cap"
        )
    first, second = np.concatenate(closure.layers, axis=1)
    out = []
    for start in range(0, len(first), _TABLE_SLICE):
        a, c = np.divmod(first[start : start + _TABLE_SLICE, None], d)
        b, e = np.divmod(second[start : start + _TABLE_SLICE, None], d)
        out.extend(Perm(table.ravel()) for table in _linear_images(d, a, b, c, e))
    return out


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
    check_search_guards(d, max_dimension)
    if len(target) != d * d:
        raise ValueError(
            f"target on {len(target)} points does not match d*d = {d * d}"
        )
    if max_depth is not None and max_depth < 0:
        raise ValueError("max_depth must be >= 0")
    closure = _closure_bfs(
        d, max_elements=max_elements, max_depth=max_depth, target=as_linear_map(target, d)
    )
    if closure.status == "found":
        return SynthesisResult(outcome=SearchOutcome.FOUND, word=_word_from_records(closure, d))
    if closure.status == "complete":
        return SynthesisResult(
            outcome=SearchOutcome.UNREACHABLE_EXHAUSTED,
            group_order=closure.size,
            diameter=len(closure.counts_by_depth) - 1,
        )
    return SynthesisResult(
        outcome=SearchOutcome.DEPTH_LIMIT,
        explored_depth=closure.stopped_depth,
        frontier_size=closure.stopped_frontier,
    )
