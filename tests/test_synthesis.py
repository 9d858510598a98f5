import itertools
import random
import sys
import threading
import time
import tracemalloc
from dataclasses import dataclass
from math import gcd

import numpy as np
import pytest

from cnotswap.gates import (
    GATE_MATRICES, GENERATORS, GateKind, as_linear_map, gate_perm,
    _determinant, _linear_images,
)
from cnotswap.perm import CostGuardError, Perm
from cnotswap.synthesis import (
    DEFAULT_MAX_DIMENSION,
    DEFAULT_MAX_ELEMENTS,
    KEY_STATE_BUDGET,
    TABLE_CACHE_BUDGET,
    _bezout_pair,
    _bezout_table,
    _closure_bfs,
    _key_state_bytes,
    _keys,
    _kept_step_tables,
    _search_tables,
    _step,
    _step_tables,
    _table_bytes,
    GateWord,
    GroupCensus,
    GroupTooLarge,
    SearchOutcome,
    SynthesisResult,
    apply_word,
    check_search_guards,
    enumerate_group,
    find_word,
    sl2_order,
)

from group_reference import reference_elements

C1, C2, SW = GateKind.CNOT1, GateKind.CNOT2, GateKind.SWAP


def word(d, *letters):
    return GateWord(d=d, letters=tuple(letters))


def eval_letters(d, letters):
    """Test-local evaluator: explicit left fold of gate tables."""
    gates = {C1: gate_perm(C1, d), C2: gate_perm(C2, d)}
    acc = Perm.identity(d * d)
    for letter in letters:
        acc = gates[letter] * acc
    return acc


def naive_closure(d):
    """Independent oracle: repeated multiplication until no new elements.

    Returns the layers: layer k holds the elements first reached after k
    multiplications, that is the elements whose shortest word has length k.
    """
    gens = [gate_perm(C1, d), gate_perm(C2, d)]
    elems = {Perm.identity(d * d)}
    layers = [set(elems)]
    while True:
        grown = elems | {g * x for g in gens for x in elems}
        if grown == elems:
            return layers
        layers.append(grown - elems)
        elems = grown


def reference_search(d, target=None, *, max_depth=None, max_elements=DEFAULT_MAX_ELEMENTS):
    """Independent oracle: the one-element-at-a-time breadth-first search
    over image tables, in insertion order with CNOT1 before CNOT2.

    Returns the ``SynthesisResult`` for ``target``, and the census (or the
    element count at the cap) for a search without one.
    """
    gens = [(C1, gate_perm(C1, d)), (C2, gate_perm(C2, d))]
    ident = Perm.identity(d * d)
    words = {ident: ()}
    if target == ident:
        return SynthesisResult(SearchOutcome.FOUND, word=word(d))
    frontier, counts, depth = [ident], [1], 0
    while frontier:
        capped = max_depth is not None and depth >= max_depth
        new = []
        for parent in [] if capped else frontier:
            for letter, gate in gens:
                child = gate * parent
                if child in words:
                    continue
                if len(words) >= max_elements:
                    capped = True
                    break
                words[child] = words[parent] + (letter,)
                new.append(child)
                if child == target:
                    return SynthesisResult(SearchOutcome.FOUND, word=word(d, *words[child]))
            if capped:
                break
        if capped:
            if target is None:
                return GroupTooLarge(d=d, max_elements=max_elements, elements_found=len(words))
            return SynthesisResult(
                SearchOutcome.DEPTH_LIMIT, explored_depth=depth, frontier_size=len(frontier)
            )
        if new:
            counts.append(len(new))
        frontier, depth = new, depth + 1
    if target is None:
        return GroupCensus(d=d, order=len(words), diameter=len(counts) - 1,
                           counts_by_depth=tuple(counts))
    return SynthesisResult(
        SearchOutcome.UNREACHABLE_EXHAUSTED, group_order=len(words), diameter=len(counts) - 1
    )


def brute_force_least_words(d, order):
    """First word of each element in (length, lexicographic) order, CNOT1 < CNOT2."""
    least = {}
    length = 0
    while len(least) < order:
        for letters in itertools.product([C1, C2], repeat=length):
            least.setdefault(eval_letters(d, letters), letters)
        length += 1
    return least


# -- word evaluation --


def test_empty_word_is_identity():
    assert apply_word(word(3)) == Perm.identity(9)


def test_three_cnot_qubit_swap():
    assert apply_word(word(2, C1, C2, C1)) == gate_perm(SW, 2)


@pytest.mark.parametrize("d", range(1, 11))
def test_cnot_repeated_d_times_is_identity(d):
    assert apply_word(word(d, *([C1] * d))) == Perm.identity(d * d)


def test_apply_word_matches_explicit_fold():
    rng = random.Random(7)
    for _ in range(20):
        d = rng.randint(1, 5)
        letters = tuple(rng.choice([C1, C2]) for _ in range(rng.randint(0, 8)))
        assert apply_word(word(d, *letters)) == eval_letters(d, letters)
    for d in (65, 97):
        for length in (1, 8, 2 * d):
            letters = tuple(rng.choice([C1, C2]) for _ in range(length))
            assert apply_word(word(d, *letters)) == eval_letters(d, letters)


def test_word_rejects_non_generator_letters():
    with pytest.raises(ValueError):
        GateWord(d=2, letters=(GateKind.SWAP,))


def test_word_stores_its_letters_as_a_tuple():
    # a list of letters left the frozen word unhashable and unequal to the
    # same word built from a tuple
    listed = GateWord(d=2, letters=[C1, C2])
    assert listed.letters == (C1, C2) and type(listed.letters) is tuple
    assert listed == GateWord(d=2, letters=(C1, C2))
    assert hash(listed) == hash(GateWord(d=2, letters=(C1, C2)))


def test_word_rejects_dimension_zero():
    with pytest.raises(ValueError):
        GateWord(d=0, letters=())


# -- group enumeration --


def test_enumerate_degenerate_dimension():
    census = enumerate_group(1)
    assert census == GroupCensus(d=1, order=1, diameter=0, counts_by_depth=(1,))


def test_enumerate_qubit_group():
    census = enumerate_group(2)
    assert census.order == 6
    assert census.diameter == 3
    assert census.counts_by_depth == (1, 2, 2, 1)


def test_enumerate_qutrit_group():
    census = enumerate_group(3)
    assert census.order == 24
    assert census.counts_by_depth[0] == 1
    assert sum(census.counts_by_depth) == census.order
    assert census.diameter == len(census.counts_by_depth) - 1


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_order_matches_naive_closure(d):
    assert enumerate_group(d).order == sum(len(layer) for layer in naive_closure(d))


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_layer_counts_match_naive_closure(d):
    layers = naive_closure(d)
    census = enumerate_group(d)
    assert census.counts_by_depth == tuple(len(layer) for layer in layers)
    assert census.diameter == len(layers) - 1


@pytest.mark.parametrize("d", range(1, DEFAULT_MAX_DIMENSION + 1))
def test_order_matches_sl2_formula(d):
    # the generators act as the elementary 2x2 matrices over Z_d
    assert enumerate_group(d).order == sl2_order(d)


@pytest.mark.parametrize("d", range(1, DEFAULT_MAX_DIMENSION + 1))
def test_swap_is_found_exactly_for_d_up_to_2(d):
    # SWAP has determinant -1, which SL(2, Z_d) holds only where -1 = 1
    result = find_word(d, gate_perm(SW, d))
    if d <= 2:
        assert result.outcome is SearchOutcome.FOUND
        assert apply_word(result.word) == gate_perm(SW, d)
    else:
        assert result.outcome is SearchOutcome.UNREACHABLE_EXHAUSTED
        assert result.group_order == sl2_order(d)


def old_sl2_order(d):
    """Trial division by every p up to d, as sl2_order once ran."""
    order, rest = d**3, d
    for p in range(2, d + 1):
        if rest % p == 0:
            order = order * (p * p - 1) // (p * p)
            while rest % p == 0:
                rest //= p
    return order


def test_sl2_order_stops_at_the_square_root():
    assert [sl2_order(d) for d in range(1, 2001)] == [old_sl2_order(d) for d in range(1, 2001)]
    p = 10**9 + 7  # prime
    assert sl2_order(p) == p**3 - p
    # a large prime factor is left over once p*p passes the rest
    d = 12 * p
    assert sl2_order(d) == d**3 * 3 * 8 * (p * p - 1) // (4 * 9 * p * p)
    p = 10**12 + 39  # prime, below (10**6 + 1)**2: trial division ends in time
    assert sl2_order(p) == p**3 - p
    assert sl2_order(2**64) == 2**192 * 3 // 4


def test_sl2_order_bounds_its_trial_division():
    # sl2_order(2**61 - 1) trial-divided up to 1.5e9 for most of a minute
    start = time.perf_counter()
    for d in (2**61 - 1, 6 * (2**61 - 1)):
        with pytest.raises(CostGuardError, match=f"order guard: d = {d} "):
            sl2_order(d)
    assert time.perf_counter() - start < 1.0


def test_element_cap_yields_too_large():
    result = enumerate_group(3, max_elements=10)
    assert isinstance(result, GroupTooLarge)
    assert result.d == 3
    assert result.max_elements == 10
    assert result.elements_found == 10


def test_cap_equal_to_order_still_completes():
    census = enumerate_group(2, max_elements=6)
    assert isinstance(census, GroupCensus)
    assert census.order == 6
    for d in (1, 3, 5, 8):
        order = enumerate_group(d).order
        assert enumerate_group(d, max_elements=order) == enumerate_group(d)
        outcome = find_word(d, gate_perm(SW, d), max_elements=order).outcome
        assert outcome is (SearchOutcome.FOUND if d == 1 else SearchOutcome.UNREACHABLE_EXHAUSTED)
        if order > 1:
            capped = enumerate_group(d, max_elements=order - 1)
            assert capped == GroupTooLarge(d=d, max_elements=order - 1, elements_found=order - 1)


# element caps inside a layer or on a layer boundary
MID_LAYER_CAPS = [(3, 2), (3, 4), (3, 7), (3, 12), (3, 20),
                  (5, 3), (5, 10), (5, 30), (5, 60), (5, 119)]


@pytest.mark.parametrize("d,k", MID_LAYER_CAPS)
def test_element_cap_mid_layer_stops_at_exactly_the_cap(d, k):
    counts = enumerate_group(d).counts_by_depth
    boundaries = {sum(counts[:i]) for i in range(1, len(counts) + 1)}
    result = enumerate_group(d, max_elements=k)
    assert result == GroupTooLarge(d=d, max_elements=k, elements_found=k)
    if k not in boundaries:
        # the cap fired inside the layer being filled, while expanding the
        # frontier one layer above it
        filling = next(i for i in range(len(counts)) if sum(counts[:i + 1]) > k)
        capped = find_word(d, gate_perm(SW, d), max_elements=k)
        assert capped.outcome is SearchOutcome.DEPTH_LIMIT
        assert capped.explored_depth == filling - 1
        assert capped.frontier_size == counts[filling - 1]


@pytest.mark.parametrize("cap", [0, -1, 2.5, True])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_searches_reject_an_element_cap_below_one(d, cap):
    # before the check, d = 2 and cap 0 gave GroupTooLarge(elements_found=1),
    # a count over the cap, and the identity target at d = 3 was FOUND; a
    # cap of 2.5 was reported back as elements_found=2.5, and True acted as 1
    message = "max_elements must be >= 1" if type(cap) is int else "need an integer"
    searches = [
        lambda: enumerate_group(d, max_elements=cap),
        lambda: find_word(d, gate_perm(SW, d), max_elements=cap),
        lambda: find_word(d, Perm.identity(d * d), max_elements=cap),
    ]
    for search in searches:
        with pytest.raises(ValueError, match=message):
            search()


def test_dimension_guard_is_overridable():
    with pytest.raises(CostGuardError):
        enumerate_group(5, max_dimension=4)
    assert enumerate_group(5, max_dimension=5).order == 120


@pytest.mark.parametrize("d", range(2, 13))
def test_no_three_entries_identify_a_group_element(d):
    # det = 1 does not fix the fourth entry: with a = 0 it reads -bc = 1
    # and leaves e free (likewise for each other entry), so a compact
    # visited key must keep all four entries or prove itself faithful
    entries = [as_linear_map(p, d) for p in reference_elements(d)]
    assert len(set(entries)) == len(entries) == sl2_order(d)
    for kept in itertools.combinations(range(4), 3):
        keys = {tuple(x[i] for i in kept) for x in entries}
        assert len(keys) < len(entries), kept


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_every_element_is_linear_with_unit_determinant(d):
    for p in reference_elements(d):
        lm = as_linear_map(p, d)
        assert lm is not None
        assert _determinant(d, lm) == 1 % d


@pytest.mark.parametrize("d", [3, 5, 7])
def test_every_element_is_even_for_odd_dimensions(d):
    for p in reference_elements(d):
        assert p.signature() == 1


# -- shortest-word search --


def test_find_word_qubit_swap():
    result = find_word(2, gate_perm(SW, 2))
    assert result.outcome is SearchOutcome.FOUND
    assert result.word.letters == (C1, C2, C1)
    assert apply_word(result.word) == gate_perm(SW, 2)


def test_find_word_qutrit_swap_unreachable():
    result = find_word(3, gate_perm(SW, 3))
    assert result.outcome is SearchOutcome.UNREACHABLE_EXHAUSTED
    assert result.group_order == 24
    assert result.diameter == enumerate_group(3).diameter


def test_find_word_generator_at_depth_one():
    result = find_word(3, gate_perm(C1, 3))
    assert result.outcome is SearchOutcome.FOUND
    assert result.word.letters == (C1,)


def test_find_word_identity_target():
    result = find_word(3, Perm.identity(9), max_depth=0)
    assert result.outcome is SearchOutcome.FOUND
    assert result.word.letters == ()


def test_find_word_depth_limit():
    result = find_word(3, gate_perm(SW, 3), max_depth=0)
    assert result.outcome is SearchOutcome.DEPTH_LIMIT
    assert result.explored_depth == 0
    assert result.frontier_size == 1


def test_find_word_depth_boundary():
    # the qubit swap needs exactly three letters
    capped = find_word(2, gate_perm(SW, 2), max_depth=2)
    assert capped.outcome is SearchOutcome.DEPTH_LIMIT
    exact = find_word(2, gate_perm(SW, 2), max_depth=3)
    assert exact.outcome is SearchOutcome.FOUND


def test_completed_closure_beats_depth_cap():
    # the d = 2 closure finishes at depth 4 expansion; a larger cap must
    # still certify unreachability for a target outside the group
    odd_target = Perm([1, 0, 2, 3])
    result = find_word(2, odd_target, max_depth=50)
    assert result.outcome is SearchOutcome.UNREACHABLE_EXHAUSTED
    assert result.group_order == 6


def test_find_word_element_cap_is_inconclusive():
    # a truncated closure must never masquerade as an unreachability proof
    result = find_word(3, gate_perm(SW, 3), max_elements=5)
    assert result.outcome is SearchOutcome.DEPTH_LIMIT


def test_target_met_inside_the_layer_before_the_cap_fires():
    # the cap only fires when a new element would exceed it, so a target
    # that is the first element of its layer still counts as found
    capped = find_word(3, gate_perm(C1, 3), max_elements=1)
    assert capped.outcome is SearchOutcome.DEPTH_LIMIT
    assert (capped.explored_depth, capped.frontier_size) == (0, 1)
    found = find_word(3, gate_perm(C1, 3), max_elements=2)
    assert found.outcome is SearchOutcome.FOUND
    assert found.word.letters == (C1,)
    # CNOT2 is the second element of layer 1, so it needs room for three
    assert find_word(3, gate_perm(C2, 3), max_elements=2).outcome is SearchOutcome.DEPTH_LIMIT
    assert find_word(3, gate_perm(C2, 3), max_elements=3).word.letters == (C2,)


def test_find_word_size_mismatch():
    with pytest.raises(ValueError, match="on 9 points does not match d\\*d = 4"):
        find_word(2, Perm.identity(9))


def test_find_word_negative_depth():
    # a depth of 1.5 or True used to run
    for depth in (-1, 2.5, True):
        with pytest.raises(ValueError):
            find_word(2, gate_perm(SW, 2), max_depth=depth)


def test_qubit_depths_match_brute_force():
    # every d = 2 group element: BFS depth == true shortest word length
    by_perm = {}
    for length in range(0, 7):
        for letters in itertools.product([C1, C2], repeat=length):
            p = eval_letters(2, letters)
            by_perm.setdefault(p, length)
    assert len(by_perm) == 6
    for p, shortest in by_perm.items():
        result = find_word(2, p)
        assert result.outcome is SearchOutcome.FOUND
        assert len(result.word) == shortest
        assert apply_word(result.word) == p


def test_found_words_are_lexicographically_least():
    # recompute the least witness of every element by brute force
    for d in range(2, 7):
        elems = reference_elements(d)
        least = brute_force_least_words(d, len(elems))
        assert set(least) == set(elems)
        for p in elems:
            result = find_word(d, p)
            assert result.outcome is SearchOutcome.FOUND
            assert result.word.letters == least[p]


@pytest.mark.parametrize("d", range(1, 9))
def test_matrix_search_matches_image_table_reference(d):
    census = reference_search(d)
    assert enumerate_group(d) == census
    elems = reference_elements(d)
    odd = Perm([1, 0] + list(range(2, d * d))) if d > 1 else Perm([0])
    targets = [gate_perm(SW, d), odd] + elems[:: max(1, census.order // 8)]
    depth_caps = sorted({0, 1, census.diameter // 2, census.diameter})
    # a cap below 1 is refused (test_searches_reject_an_element_cap_below_one)
    element_caps = sorted({1, 2, census.order // 3, census.order - 1, census.order} - {0})
    for cap in element_caps:
        assert enumerate_group(d, max_elements=cap) == reference_search(d, max_elements=cap)
    for target in targets:
        assert find_word(d, target) == reference_search(d, target)
        for cap in depth_caps:
            assert (find_word(d, target, max_depth=cap)
                    == reference_search(d, target, max_depth=cap))
        for cap in element_caps:
            assert (find_word(d, target, max_elements=cap)
                    == reference_search(d, target, max_elements=cap))


def test_capped_searches_are_true_whenever_conclusive():
    # a depth cap may leave a search inconclusive, but every conclusive
    # answer must be independently true
    for d in (2, 3):
        elems = reference_elements(d)
        true_dist = {}
        for p in elems:
            true_dist[p] = len(find_word(d, p).word.letters)
        odd = Perm([1, 0] + list(range(2, d * d)))
        targets = elems + [odd]
        for target in targets:
            for cap in (0, 1, 2, 3, 5, 8):
                res = find_word(d, target, max_depth=cap)
                if res.outcome is SearchOutcome.FOUND:
                    assert target in true_dist
                    assert len(res.word) == true_dist[target] <= cap
                    assert apply_word(res.word) == target
                elif res.outcome is SearchOutcome.UNREACHABLE_EXHAUSTED:
                    assert target not in true_dist
                else:
                    assert true_dist.get(target, cap + 1) > cap


# -- the d**3-key kernel against the d**4-key reference --


@dataclass
class RefClosure:
    """Records of the reference kernel: every element's row (a, b, c, e), its
    parent's index in breadth-first order and its letter."""

    status: str
    size: int
    layers: list
    parents: list
    letters: list
    counts_by_depth: list
    found_index: int = -1
    stopped_depth: int = 0
    stopped_frontier: int = 0


def d4_key_closure(d, *, max_elements, max_depth=None, target=None):
    """Reference: the earlier kernel, over rows (a, b, c, e) with the exact
    key ((a*d + b)*d + c)*d + e marked in a dense d**4 bitmap and each layer
    deduplicated by ``np.unique(return_index=True)``."""
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
        a, b, c, e = target
        target_key = ((a * d + b) * d + c) * d + e
        if visited[target_key]:
            return RefClosure("found", size, layers, parents, letters, counts, found_index=0)

    frontier = ident
    start = 0
    depth = 0
    while len(frontier):
        if max_depth is not None and depth >= max_depth:
            return RefClosure(
                "depth_cap", size, layers, parents, letters, counts,
                stopped_depth=depth, stopped_frontier=len(frontier),
            )
        sums = (frontier[:, :2] + frontier[:, 2:]) % d
        children = np.stack(
            [np.hstack([frontier[:, :2], sums]), np.hstack([sums, frontier[:, 2:]])],
            axis=1,
        ).reshape(-1, 4)
        keys = children @ weights
        fresh = np.flatnonzero(~visited[keys])
        _, first = np.unique(keys[fresh], return_index=True)
        new = fresh[np.sort(first)]

        room = max(max_elements - size, 0)
        found = False
        if target_key is not None:
            hits = np.flatnonzero(keys[new] == target_key)
            found = len(hits) > 0 and hits[0] < room
        if found:
            new = new[: hits[0] + 1]
        elif len(new) > room:
            return RefClosure(
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
            return RefClosure(
                "found", size, layers, parents, letters, counts, found_index=size - 1
            )
        if len(new):
            counts.append(len(new))
        depth += 1
    return RefClosure("complete", size, layers, parents, letters, counts)


def assert_same_closure(got, ref):
    """Same stop, counts and records, read off the births as the callers read
    them: every element's parent and letter, decoded from its birth, equal the
    reference's, and since the reference builds each element as letter times
    parent, both hold the same elements and give equal least words."""
    lengths = [len(births) for births in got.births]
    assert lengths == [len(layer) for layer in ref.layers]
    if ref.status == "complete":
        # ends with one empty layer; the counts are the others
        assert got.status == "complete" and lengths[-1] == 0
        assert (lengths[:-1], sum(lengths)) == (ref.counts_by_depth, ref.size)
    elif ref.status == "found":
        # the word is read back from the last element recorded
        assert got.status == "found" and ref.found_index == ref.size - 1 == sum(lengths) - 1
    else:
        # both caps stop at the frontier held last, every layer before it counted
        assert got.status == "capped" and lengths == ref.counts_by_depth
        assert (len(lengths) - 1, lengths[-1]) == (ref.stopped_depth, ref.stopped_frontier)
        # an element cap reports the cap itself, ref.size, as the elements
        # found; the ones recorded fit under it
        if ref.status == "element_cap":
            assert sum(lengths) <= ref.size
    # a birth is a position in its layer's (parent, CNOT1 before CNOT2) order
    starts = np.cumsum([0] + lengths)
    parents = [np.array([-1])] + [
        start + births // 2 for start, births in zip(starts, got.births[1:])
    ]
    letters = [np.array([-1])] + [births % 2 for births in got.births[1:]]
    assert np.array_equal(np.concatenate(parents), np.concatenate(ref.parents))
    assert np.array_equal(np.concatenate(letters), np.concatenate(ref.letters))


def linear_perm(d, matrix):
    return Perm(_linear_images(d, *matrix).ravel())


@pytest.mark.parametrize("d", range(1, 17))
def test_kernel_matches_the_d4_key_reference(d):
    full = d4_key_closure(d, max_elements=DEFAULT_MAX_ELEMENTS)
    assert_same_closure(_closure_bfs(d, max_elements=DEFAULT_MAX_ELEMENTS), full)
    order, diameter = full.size, len(full.counts_by_depth) - 1
    elements = [tuple(row) for row in np.concatenate(full.layers).tolist()]
    targets = [None, as_linear_map(gate_perm(SW, d), d), (1 % d, 0, 0, -1 % d)]
    targets += elements[:: max(1, order // 6)] + elements[-1:]
    element_caps = {1, order - 1, order, order + 1} | {k for dd, k in MID_LAYER_CAPS if dd == d}
    element_caps.discard(0)  # refused below 1 (test_searches_reject_an_element_cap_below_one)
    for target in targets:
        for max_depth in range(diameter + 2):
            assert_same_closure(
                _closure_bfs(d, max_elements=DEFAULT_MAX_ELEMENTS, max_depth=max_depth,
                             target=target),
                d4_key_closure(d, max_elements=DEFAULT_MAX_ELEMENTS, max_depth=max_depth,
                               target=target),
            )
        for cap in element_caps:
            assert_same_closure(
                _closure_bfs(d, max_elements=cap, target=target),
                d4_key_closure(d, max_elements=cap, target=target),
            )


def det_one_matrices(d):
    """Every matrix (a, b, c, e) of determinant 1 over Z_d, without the search."""
    a, b, c, e = np.indices((d,) * 4).reshape(4, -1)
    det_one = (a * e - b * c) % d == 1 % d
    return a[det_one], b[det_one], c[det_one], e[det_one]


def random_det_one_matrices(d, count, seed):
    """Products of six random elementary matrices [[1, k], [0, 1]] and
    [[1, 0], [k, 1]] over Z_d, which generate SL(2, Z_d)."""
    rng = np.random.default_rng(seed)
    a, b, c, e = (np.full(count, 1 % d, dtype=np.int64), np.zeros(count, dtype=np.int64),
                  np.zeros(count, dtype=np.int64), np.full(count, 1 % d, dtype=np.int64))
    for _ in range(3):
        k = rng.integers(0, d, count)
        a, b = (a + k * c) % d, (b + k * e) % d
        k = rng.integers(0, d, count)
        c, e = (c + k * a) % d, (e + k * b) % d
    return a, b, c, e


@pytest.mark.parametrize("d", range(1, 13))
def test_key_is_injective_on_the_group(d):
    a, b, c, e = det_one_matrices(d)
    keys = _keys(d, _bezout_table(d), a * d + c, b * d + e)
    assert len(keys) == sl2_order(d)
    assert len(np.unique(keys)) == len(keys)
    assert 0 <= keys.min() and keys.max() < d**3


@pytest.mark.parametrize(
    "d,matrices",
    [(d, det_one_matrices) for d in range(1, 17)]
    + [(d, lambda d: random_det_one_matrices(d, 2000, seed=d)) for d in (97, 182, 254)],
    ids=[f"all-{d}" for d in range(1, 17)] + [f"random-{d}" for d in (97, 182, 254)],
)
def test_table_step_and_decoding_follow_the_matrices(d, matrices):
    # the search never sees a matrix: it splits each key into the first
    # column f and the offset t and steps them through the tables, so the
    # split must give back the matrix's first column and each step must
    # agree with the matrix product, element by element
    a, b, c, e = matrices(d)
    assert np.all((a * e - b * c) % d == 1 % d)
    bezout = _bezout_table(d)
    keys = _keys(d, bezout, a * d + c, b * d + e)
    first, t = (part.astype(np.int32) for part in np.divmod(keys, d))
    assert np.array_equal(first, a * d + c)
    for letter, table in zip(GENERATORS, _step_tables(d)):
        p, q, r, s = GATE_MATRICES[letter]
        ga, gb = (p * a + q * c) % d, (p * b + q * e) % d
        gc, ge = (r * a + s * c) % d, (r * b + s * e) % d
        expected = _keys(d, bezout, ga * d + gc, gb * d + ge)
        assert np.array_equal(_step(d, table, first, t), expected), letter


@pytest.mark.parametrize("d", range(1, 65))
def test_bezout_table_inverts_exactly_the_unimodular_columns(d):
    x, y = (t.tolist() for t in _bezout_table(d))
    for code in range(d * d):
        u, v = divmod(code, d)
        inverted = (x[code] * u + y[code] * v) % d == 1 % d
        assert inverted == (gcd(gcd(u, v), d) == 1)
        if inverted:
            # the scalar routine that keys a search's target follows the
            # table's least-k rule, so target and tables share one key
            assert _bezout_pair(d, u, v) == (x[code], y[code]), code


@pytest.mark.parametrize("d", range(3, 13))
def test_targets_of_another_determinant_exhaust_the_group(d):
    # both CNOTs have determinant 1, so a target of determinant -1 is never
    # met; diag(1, -1) shares its key with the identity and [[1, 1], [0, -1]]
    # with CNOT2, so only the determinant check keeps them apart
    bezout = _bezout_table(d)
    negate = (1, 0, 0, d - 1)
    cnot2_twin = (1, 1, 0, d - 1)
    assert _keys(d, bezout, d, d - 1) == _keys(d, bezout, d, 1)
    assert _keys(d, bezout, d, 2 * d - 1) == _keys(d, bezout, d, d + 1)
    for target in (gate_perm(SW, d), linear_perm(d, negate), linear_perm(d, cnot2_twin)):
        result = find_word(d, target)
        assert result.outcome is SearchOutcome.UNREACHABLE_EXHAUSTED
        assert result.group_order == sl2_order(d)


def test_search_finds_a_deep_word_at_d182():
    # a 12-letter word whose shortest equivalent the search must reach
    # through eleven full layers of the d = 182 closure
    d = 182
    letters = (C1, C1, C1, C2, C1, C2, C1, C2, C1, C1, C2, C2)
    gens = {C1: (1, 0, 1, 1), C2: (1, 1, 0, 1)}

    def matrix_of(word_letters):
        a, b, c, e = 1, 0, 0, 1
        for letter in word_letters:
            p, q, r, s = gens[letter]
            a, b, c, e = ((p * a + q * c) % d, (p * b + q * e) % d,
                          (r * a + s * c) % d, (r * b + s * e) % d)
        return a, b, c, e

    target = matrix_of(letters)
    result = find_word(d, linear_perm(d, target), max_depth=len(letters), max_dimension=d)
    assert result.outcome is SearchOutcome.FOUND
    assert len(result.word) <= len(letters)
    assert matrix_of(result.word.letters) == target
    shorter = find_word(d, linear_perm(d, target), max_depth=len(result.word) - 1,
                        max_dimension=d)
    assert shorter.outcome is SearchOutcome.DEPTH_LIMIT


def test_search_guard_admits_254_and_refuses_255_without_allocating():
    # the owner array and the four step tables, not the Bézout pair freed
    # before them, make the state the guard counts
    tables = _step_tables(64)
    assert _key_state_bytes(64) == 4 * 64**3 + sum(t.nbytes for pair in tables for t in pair)
    assert _key_state_bytes(254) <= KEY_STATE_BUDGET < _key_state_bytes(255)
    identity = Perm.identity(255 * 255)
    kept = _kept_step_tables.cache_info()
    tracemalloc.start()
    try:
        check_search_guards(254, 254)
        with pytest.raises(CostGuardError, match="d = 255 need 67365900 bytes"):
            enumerate_group(255, max_dimension=255)
        with pytest.raises(CostGuardError, match="d = 255 need"):
            find_word(255, identity, max_dimension=255)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert _kept_step_tables.cache_info() == kept  # a refused search builds no tables


def test_full_closure_at_d64_stays_small():
    # 196608 elements of 4 bytes (an int32 birth) and a 1.1 MB key state
    # peak at 3.9 MiB; keeping every layer's int32 keys as well peaked at
    # 4.4 MiB, the column-code kernel at 5.8 MiB and the d**4 bitmap kernel
    # at 33.6 MiB
    tracemalloc.start()
    try:
        census = enumerate_group(64, max_dimension=64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert census.order == sl2_order(64)
    assert peak < 4.5 * 2**20


def test_kept_tables_answer_like_fresh_ones():
    # every element of the group at each d <= 10, and SWAP, asked in turn
    # across d: each search against tables kept from every earlier d gives
    # what the same search gives right after the tables are dropped
    dims = range(1, 11)
    by_d = [[(d, target) for target in reference_elements(d) + [gate_perm(SW, d)]] for d in dims]
    calls = [call for turn in itertools.zip_longest(*by_d) for call in turn if call is not None]
    fresh = []
    for d, target in calls:
        _kept_step_tables.cache_clear()
        fresh.append(find_word(d, target))
    censuses = {}
    for d in dims:
        _kept_step_tables.cache_clear()
        censuses[d] = enumerate_group(d)
    for (d, target), want in zip(calls, fresh):
        assert find_word(d, target) == want, (d, target)
    assert _kept_step_tables.cache_info().currsize == len(dims)
    assert {d: enumerate_group(d) for d in reversed(dims)} == censuses
    outcomes = {result.outcome for result in fresh}
    assert outcomes == {SearchOutcome.FOUND, SearchOutcome.UNREACHABLE_EXHAUSTED}


def is_kept(d):
    return _search_tables(d) is _search_tables(d)


def test_kept_tables_are_read_only():
    for d in (5, 73):  # kept at 5, built for each search at 73
        tables = _search_tables(d)
        assert is_kept(d) == (d == 5)
        for array in (array for table in tables for array in table):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0
            with pytest.raises(ValueError):
                array += 1


def test_kept_tables_stay_within_their_budget():
    # every d of the library benchmark, [16, 40], is kept; d = 254, the
    # largest the key-state guard admits, is used and not kept
    _kept_step_tables.cache_clear()
    for d in [254, *range(40, 15, -1)]:
        find_word(d, gate_perm(C1, d), max_dimension=d)
    assert _kept_step_tables.cache_info().currsize == 25
    assert all(map(is_kept, range(16, 41))) and not is_kept(254)
    assert sum(map(_table_bytes, range(16, 41))) <= TABLE_CACHE_BUDGET


def test_kept_tables_hold_exactly_the_dimensions_up_to_72():
    # the tables of d <= 72 fit the budget together and d = 73 would take
    # them over it, so searches at every d up to 80, in any order, keep
    # exactly d = 1..72 and never drop one
    assert sum(map(_table_bytes, range(1, 73))) <= TABLE_CACHE_BUDGET
    assert sum(map(_table_bytes, range(1, 74))) > TABLE_CACHE_BUDGET
    _kept_step_tables.cache_clear()
    first = {d: find_word(d, gate_perm(C2, d), max_dimension=80) for d in range(80, 0, -1)}
    info = _kept_step_tables.cache_info()
    assert (info.misses, info.currsize) == (72, 72)
    assert [d for d in range(1, 81) if is_kept(d)] == list(range(1, 73))
    assert find_word(73, gate_perm(C2, 73), max_dimension=73) == first[73]
    assert first[73].word == word(73, C2)
    assert _kept_step_tables.cache_info()[1:] == info[1:]  # no miss, nothing kept


def test_threads_share_the_kept_tables():
    calls = [(d, target) for d in range(2, 8) for target in (gate_perm(SW, d), gate_perm(C1, d))]
    want = [find_word(d, target) for d, target in calls]
    _kept_step_tables.cache_clear()
    failures = []

    def search(seed):
        order = random.Random(seed).sample(range(len(calls)), len(calls))
        try:
            for _ in range(20):
                for i in order:
                    if find_word(*calls[i]) != want[i]:
                        failures.append(calls[i])
        except Exception as exc:  # reported below, from the test's thread
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=search, args=(seed,)) for seed in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert _kept_step_tables.cache_info().currsize == 6
    assert all(map(is_kept, range(2, 8)))
