"""Exhaustive search in the group generated by the two CNOT permutations.

Both CNOTs act on digit pairs as the elementary matrices [[1,0],[1,1]] and
[[1,1],[0,1]] over Z_d, so every group element is a 2x2 matrix and the
search runs over 4-int matrix states; image tables are only built for
callers that ask for permutations.

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
    GENERATORS, GateKind, LinearMap2, as_linear_map, gate_perm, _check_dimension, _linear_images,
)
from .perm import CostGuardError, Perm

DEFAULT_MAX_ELEMENTS = 10_000_000
DEFAULT_MAX_DIMENSION = 31
WORD_EVAL_MAX_DIMENSION = 64
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

    With composition (p * q)(i) = p(q(i)) that is  g_k * ... * g_1.
    """
    if word.d > WORD_EVAL_MAX_DIMENSION:
        raise CostGuardError(
            f"word evaluation guard: d = {word.d} exceeds {WORD_EVAL_MAX_DIMENSION}"
        )
    acc = Perm.identity(word.d * word.d)
    for letter in word.letters:
        acc = gate_perm(letter, word.d) * acc
    return acc


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


def _closure_bfs(
    d: int,
    *,
    max_elements: int,
    max_depth: int | None = None,
    target: LinearMap2 | None = None,
) -> _Closure:
    """Deterministic breadth-first closure over {CNOT1, CNOT2}.

    Elements are 2x2 matrices (a, b, c, e) over Z_d in the ``LinearMap2``
    convention, one row of ``layers[k]`` each.  A linear map is fixed by its
    images of (1, 0) and (0, 1), so distinct matrices are distinct
    permutations and the exact key ((a*d + b)*d + c)*d + e, marked in a
    dense d**4 bitmap, is exact membership: certificates of unreachability
    rely on it, never on a lossy hash.

    Per layer the children are interleaved in (parent, CNOT1 before CNOT2)
    order and the first occurrence of each unvisited key is kept, which is
    the element a one-at-a-time insertion-order loop would have added.
    """
    weights = np.array([d**3, d**2, d, 1], dtype=np.int64)
    ident = np.array([[1 % d, 0, 0, 1 % d]], dtype=np.int64)
    visited = np.zeros(d**4, dtype=bool)
    visited[ident @ weights] = True
    layers = [ident]
    parents = [np.array([-1], dtype=np.int64)]
    letters = [np.array([-1], dtype=np.int64)]
    counts = [1]
    size = 1

    target_key = None
    if target is not None:
        target_key = ((target.a * d + target.b) * d + target.c) * d + target.e
        if visited[target_key]:
            return _Closure("found", size, layers, parents, letters, counts, found_index=0)

    frontier = ident
    start = 0  # index of the frontier's first element
    depth = 0
    while len(frontier):
        if max_depth is not None and depth >= max_depth:
            return _Closure(
                "depth_cap", size, layers, parents, letters, counts,
                stopped_depth=depth, stopped_frontier=len(frontier),
            )
        # CNOT1 * [[a, b], [c, e]] = [[a, b], [a+c, b+e]] and
        # CNOT2 * [[a, b], [c, e]] = [[a+c, b+e], [c, e]]
        sums = (frontier[:, :2] + frontier[:, 2:]) % d
        children = np.stack(
            [np.hstack([frontier[:, :2], sums]), np.hstack([sums, frontier[:, 2:]])],
            axis=1,
        ).reshape(-1, 4)
        keys = children @ weights
        fresh = np.flatnonzero(~visited[keys])
        _, first = np.unique(keys[fresh], return_index=True)
        new = fresh[np.sort(first)]  # child positions, in insertion order

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
                stopped_depth=depth, stopped_frontier=len(frontier),
            )

        frontier = children[new]
        visited[keys[new]] = True
        layers.append(frontier)
        parents.append(start + new // 2)
        letters.append(new % 2)
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


def _check_search_guards(d: int, max_dimension: int) -> None:
    _check_dimension(d)
    if d > max_dimension:
        raise CostGuardError(
            f"search guard: d = {d} exceeds {max_dimension}; "
            "raise max_dimension explicitly to override"
        )


def enumerate_group(
    d: int,
    *,
    max_elements: int = DEFAULT_MAX_ELEMENTS,
    max_dimension: int = DEFAULT_MAX_DIMENSION,
) -> GroupCensus | GroupTooLarge:
    """Enumerate the whole generated group; order, diameter, layer counts."""
    _check_search_guards(d, max_dimension)
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
    _check_search_guards(d, max_dimension)
    closure = _closure_bfs(d, max_elements=max_elements)
    if closure.status != "complete":
        raise CostGuardError(
            f"group at d = {d} exceeds the {max_elements}-element cap"
        )
    matrices = np.concatenate(closure.layers)
    out = []
    for start in range(0, len(matrices), _TABLE_SLICE):
        a, b, c, e = (col[:, None, None] for col in matrices[start : start + _TABLE_SLICE].T)
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
    map is no matrix of the group, so its search never meets it.
    """
    _check_search_guards(d, max_dimension)
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


def census_payload(census: GroupCensus) -> dict:
    """The census as plain JSON data, as the CLI emits it."""
    return {
        "d": census.d,
        "order": census.order,
        "diameter": census.diameter,
        "counts_by_depth": list(census.counts_by_depth),
    }
