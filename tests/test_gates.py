import tracemalloc
from dataclasses import astuple
from math import gcd

import numpy as np
import pytest

from cnotswap.gates import (
    GATE_MATRICES,
    GENERATORS,
    GateKind,
    _determinant,
    as_linear_map,
    gate_perm,
)
from cnotswap.feasibility import decide
from cnotswap.guards import CostGuardError
from cnotswap.perm import Perm
from cnotswap.synthesis import check_search_guards, enumerate_group, find_word, sl2_order

from determinant_reference import exact_determinant
from group_reference import reference_elements
from qutrit_tables import (
    CNOT1_IMAGE_D2,
    CNOT1_IMAGE_D3,
    CNOT1_INVERSE_IMAGE_D3,
    CNOT2_IMAGE_D2,
    CNOT2_IMAGE_D3,
    SWAP_IMAGE_D2,
    SWAP_IMAGE_D3,
    SWAP_LOOKALIKE_IMAGE_D3,
)


def test_gate_image_tables():
    assert gate_perm(GateKind.CNOT1, 2).table.tolist() == list(CNOT1_IMAGE_D2)
    assert gate_perm(GateKind.CNOT1, 3).table.tolist() == list(CNOT1_IMAGE_D3)
    assert gate_perm(GateKind.CNOT2, 2).table.tolist() == list(CNOT2_IMAGE_D2)
    assert gate_perm(GateKind.CNOT2, 3).table.tolist() == list(CNOT2_IMAGE_D3)
    assert gate_perm(GateKind.SWAP, 2).table.tolist() == list(SWAP_IMAGE_D2)
    assert gate_perm(GateKind.SWAP, 3).table.tolist() == list(SWAP_IMAGE_D3)


def test_degenerate_dimension_one():
    assert gate_perm(GateKind.CNOT1, 1).table.tolist() == [0]
    assert gate_perm(GateKind.CNOT2, 1).table.tolist() == [0]
    assert gate_perm(GateKind.SWAP, 1).table.tolist() == [0]


def test_dimension_zero_rejected():
    for d in (0, -3, 2.5, 3.0, True):
        for kind in GateKind:
            with pytest.raises(ValueError):
                gate_perm(kind, d)
        with pytest.raises(ValueError):
            sl2_order(d)


def test_non_integer_dimension_rejected_by_searches_and_decide():
    # rejected at the dimension check, before a report or a kernel sees d
    for call in (lambda: find_word(3.0, gate_perm(GateKind.SWAP, 3)), lambda: decide(3.0),
                 lambda: decide(True), lambda: enumerate_group(2.5),
                 lambda: sl2_order(2.5), lambda: sl2_order(True)):
        with pytest.raises(ValueError, match="need an integer"):
            call()


@pytest.mark.parametrize("kind", [np.int64, np.uint64, np.uint16, np.int32])
def test_numpy_integer_dimensions_act_as_plain_ints(kind):
    # an int64 d made the int32 search frontier int64, a uint64 d failed in
    # the Bézout table, and the report held numpy values that JSON refuses
    d = kind(3)
    report, census = decide(d).report, enumerate_group(d)
    found = find_word(d, gate_perm(GateKind.CNOT1, 3))
    assert report == decide(3).report and census == enumerate_group(3)
    assert found == find_word(3, gate_perm(GateKind.CNOT1, 3))
    assert find_word(d, gate_perm(GateKind.SWAP, 3)) == find_word(3, gate_perm(GateKind.SWAP, 3))
    # numpy integers compare equal to ints, so the types are checked apart
    assert {type(v) for v in astuple(report)} == {int}
    assert {type(found.word.d), type(census.d), type(census.order), type(census.diameter)} == {int}
    # the matrix as_linear_map recovers is a tuple of plain ints too
    matrix = as_linear_map(gate_perm(GateKind.CNOT2, d), d)
    assert type(matrix) is tuple and matrix == (1, 1, 0, 1)
    assert {type(x) for x in matrix} == {int}
    # a uint16 d**3 wrapped, and the key-state budget let d = 300 through
    with pytest.raises(CostGuardError, match="d = 300 need 109440000 bytes"):
        check_search_guards(kind(300), 300)


def test_cnot1_inverse_is_the_subtraction_table():
    assert gate_perm(GateKind.CNOT1, 3).inverse().table.tolist() == list(CNOT1_INVERSE_IMAGE_D3)


def test_swap_d3_is_not_the_lookalike_table():
    lookalike = Perm(SWAP_LOOKALIKE_IMAGE_D3)
    true_swap = gate_perm(GateKind.SWAP, 3)
    # invariants agree, the bijections do not
    assert lookalike.cycle_type() == true_swap.cycle_type() == (1, 1, 1, 2, 2, 2)
    assert lookalike.signature() == true_swap.signature() == -1
    assert lookalike != true_swap
    differing = [i for i in range(9) if lookalike.table[i] != true_swap.table[i]]
    assert differing == [1, 3, 5, 7]


def test_qutrit_cycle_structure():
    assert gate_perm(GateKind.CNOT1, 3).cycle_type() == (1, 1, 1, 3, 3)
    assert gate_perm(GateKind.CNOT2, 3).cycle_type() == (1, 1, 1, 3, 3)
    assert gate_perm(GateKind.SWAP, 3).cycle_type() == (1, 1, 1, 2, 2, 2)


def test_qutrit_signatures():
    assert gate_perm(GateKind.CNOT1, 3).signature() == 1
    assert gate_perm(GateKind.CNOT2, 3).signature() == 1
    assert gate_perm(GateKind.SWAP, 3).signature() == -1


def test_cnot_is_an_involution_only_for_qubits():
    assert gate_perm(GateKind.CNOT1, 2) * gate_perm(GateKind.CNOT1, 2) == Perm.identity(4)
    assert gate_perm(GateKind.CNOT1, 3) * gate_perm(GateKind.CNOT1, 3) != Perm.identity(9)


def test_swap_is_always_an_involution():
    for d in range(1, 13):
        assert gate_perm(GateKind.SWAP, d) * gate_perm(GateKind.SWAP, d) == Perm.identity(d * d)


@pytest.mark.parametrize("d", range(1, 51))
def test_fixed_point_counts(d):
    # CNOT1 fixes the states with m = 0, CNOT2 those with n = 0,
    # SWAP the diagonal; each is d states.
    assert len(gate_perm(GateKind.CNOT1, d).fixed_points()) == d
    assert len(gate_perm(GateKind.CNOT2, d).fixed_points()) == d
    assert len(gate_perm(GateKind.SWAP, d).fixed_points()) == d


@pytest.mark.parametrize("d", [2, 3, 5, 7, 11, 13])
def test_prime_dimension_cnot_cycle_structure(d):
    expected = (1,) * d + (d,) * (d - 1)
    assert gate_perm(GateKind.CNOT1, d).cycle_type() == expected
    assert gate_perm(GateKind.CNOT2, d).cycle_type() == expected


@pytest.mark.parametrize("d", range(1, 51))
def test_swap_transposition_count(d):
    expected = (1,) * d + (2,) * (d * (d - 1) // 2)
    assert gate_perm(GateKind.SWAP, d).cycle_type() == expected


def test_composite_dimension_cnot_cycle_type_is_computed():
    # at d = 4 the rows with m = 2 close after 2 steps, not 4
    counts = {}
    for length in gate_perm(GateKind.CNOT1, 4).cycle_type():
        counts[length] = counts.get(length, 0) + 1
    assert counts == {1: 4, 2: 2, 4: 2}
    # row m contributes gcd(d, m) cycles of length d / gcd(d, m)
    for d in range(2, 21):
        expected = sorted(
            d // gcd(d, m) for m in range(d) for _ in range(gcd(d, m))
        )
        assert list(gate_perm(GateKind.CNOT1, d).cycle_type()) == expected


@pytest.mark.parametrize("d", [96, 97, 100, 128])
def test_gate_cycle_types_match_the_closed_form(d):
    # control value m: gcd(m, d) cycles of length d / gcd(m, d), gcd(0, d) = d
    cnot = tuple(sorted(d // gcd(m, d) for m in range(d) for _ in range(gcd(m, d))))
    assert gate_perm(GateKind.CNOT1, d).cycle_type() == cnot
    assert gate_perm(GateKind.CNOT2, d).cycle_type() == cnot
    # d fixed points and d(d-1)/2 transpositions
    assert gate_perm(GateKind.SWAP, d).cycle_type() == (1,) * d + (2,) * (d * (d - 1) // 2)
    assert gate_perm(GateKind.SWAP, d).signature() == (-1 if (d * (d - 1) // 2) % 2 else 1)


@pytest.mark.parametrize("d", range(1, 21))
def test_cnot2_is_swap_conjugate_of_cnot1(d):
    s = gate_perm(GateKind.SWAP, d)
    assert gate_perm(GateKind.CNOT2, d) == s * gate_perm(GateKind.CNOT1, d) * s


# each gate's definition on one digit pair, independent of its matrix
DEFINITIONS = {
    GateKind.CNOT1: lambda d, m, n: (m, (m + n) % d),
    GateKind.CNOT2: lambda d, m, n: ((m + n) % d, n),
    GateKind.SWAP: lambda d, m, n: (n, m),
}


def kind_id(kind):
    return f"{kind.value}_perm"


@pytest.mark.parametrize("kind", DEFINITIONS, ids=kind_id)
def test_gate_tables_match_their_definitions_point_by_point(kind):
    define = DEFINITIONS[kind]
    for d in range(1, 21):
        expected = []
        for m in range(d):
            for n in range(d):
                image_m, image_n = define(d, m, n)
                expected.append(d * image_m + image_n)
        assert gate_perm(kind, d).table.tolist() == expected


@pytest.mark.parametrize("d", [181, 1000])
@pytest.mark.parametrize("kind", DEFINITIONS, ids=kind_id)
def test_gate_tables_match_their_definitions_on_the_flat_digits(kind, d):
    m, n = np.divmod(np.arange(d * d), d)
    image_m, image_n = DEFINITIONS[kind](d, m, n)
    assert np.array_equal(gate_perm(kind, d).table, d * image_m + image_n)


@pytest.mark.parametrize("kind", GateKind, ids=kind_id)
def test_gate_builders_hold_little_beyond_their_table(kind):
    # the int32 table and the constructor's int64 copy and bool mark array
    # make 1.625 tables; filling an int64 table in place made 2.125
    tracemalloc.start()
    try:
        table_bytes = gate_perm(kind, 1000).table.nbytes
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.0 * table_bytes


def test_gate_perm_dispatch():
    # each kind builds the permutation of its own matrix, read back independently
    for kind in GateKind:
        assert as_linear_map(gate_perm(kind, 3), 3) == GATE_MATRICES[kind]
    assert GateKind.SWAP not in GENERATORS


def test_gate_perm_refuses_what_is_not_a_gate_kind():
    # gate_perm("swap", 3) raised a bare KeyError from the matrix lookup
    for kind in ("swap", "SWAP", None, 0):
        with pytest.raises(ValueError, match="need a GateKind: CNOT1, CNOT2, SWAP"):
            gate_perm(kind, 3)


# -- linear-map recovery --


@pytest.mark.parametrize("d", range(1, 21))
def test_generators_and_swap_are_linear(d):
    m1 = as_linear_map(gate_perm(GateKind.CNOT1, d), d)
    m2 = as_linear_map(gate_perm(GateKind.CNOT2, d), d)
    ms = as_linear_map(gate_perm(GateKind.SWAP, d), d)
    assert m1 is not None and m2 is not None and ms is not None
    if d > 1:
        assert m1 == (1, 0, 1, 1)
        assert m2 == (1, 1, 0, 1)
        assert ms == (0, 1, 1, 0)
    assert _determinant(d, m1) == 1 % d
    assert _determinant(d, m2) == 1 % d
    assert _determinant(d, ms) == (d - 1) % d


@pytest.mark.parametrize("d", range(1, 32))
def test_determinant_matches_bareiss(d):
    # the one 2x2 determinant over Z_d against the exact integer one, on
    # entries that need reducing, negative ones included
    rng = np.random.default_rng(d)
    for a, b, c, e in rng.integers(-5 * d, 5 * d + 1, size=(40, 4)).tolist():
        assert _determinant(d, (a, b, c, e)) == exact_determinant([[a, b], [c, e]]) % d
    assert _determinant(d, GATE_MATRICES[GateKind.SWAP]) == (d - 1) % d
    for kind in GENERATORS:
        assert _determinant(d, GATE_MATRICES[kind]) == 1 % d


def test_origin_mover_is_not_linear():
    shift = Perm([(i + 1) % 4 for i in range(4)])
    assert as_linear_map(shift, 2) is None


def test_origin_fixing_nonlinear_perm_is_rejected():
    img = list(range(9))
    img[1], img[2], img[3] = 2, 3, 1  # 3-cycle on basis states 1, 2, 3
    assert as_linear_map(Perm(img), 3) is None


def per_point_linear_map(p, d):
    """Test-local oracle: the candidate checked one basis state at a time."""
    image = p.table.tolist()
    if image[0] != 0:
        return None
    if d == 1:
        return (0, 0, 0, 0)
    a, c = divmod(image[1 * d], d)
    b, e = divmod(image[1], d)
    for flat in range(d * d):
        m, n = divmod(flat, d)
        if d * ((a * m + b * n) % d) + (c * m + e * n) % d != image[flat]:
            return None
    return a, b, c, e


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_linear_map_recovery_matches_a_per_point_check(d):
    # every group element, and each of them with its last two images swapped;
    # for d >= 3 that keeps the images of (1, 0) and (0, 1), so the change is
    # caught only at the end of the table
    for g in reference_elements(d):
        assert per_point_linear_map(g, d) is not None
        assert as_linear_map(g, d) == per_point_linear_map(g, d)
        if d > 1:
            img = g.table.tolist()
            img[-1], img[-2] = img[-2], img[-1]
            changed = Perm(img)
            assert as_linear_map(changed, d) == per_point_linear_map(changed, d)
            if d >= 3:
                assert as_linear_map(changed, d) is None


def test_linear_map_size_mismatch():
    with pytest.raises(ValueError):
        as_linear_map(Perm.identity(9), 2)


def test_a_target_that_is_not_a_perm_is_refused():
    # find_word(3, list(range(9))) died with TypeError: 'list' object is not callable
    for target in (list(range(9)), np.arange(9)):
        with pytest.raises(ValueError, match="need a Perm"):
            as_linear_map(target, 3)
        with pytest.raises(ValueError, match="need a Perm"):
            find_word(3, target)
