import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnotswap.cli import _matrix_rows
from cnotswap.perm import Perm

from determinant_reference import exact_determinant


@st.composite
def perms(draw, min_n=1, max_n=12):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    return Perm(draw(st.permutations(list(range(n)))))


@st.composite
def perm_pairs(draw, max_n=12):
    n = draw(st.integers(min_value=1, max_value=max_n))
    p = Perm(draw(st.permutations(list(range(n)))))
    q = Perm(draw(st.permutations(list(range(n)))))
    return p, q


def printed_rows(p):
    """The permutation matrix as the CLI prints it, parsed back to ints."""
    return [list(map(int, row.split(","))) for row in _matrix_rows(p, ",")]


def walk_cycle_lengths(image):
    """Test-local oracle: cycle lengths by following each unvisited point."""
    seen = [False] * len(image)
    lengths = []
    for start in range(len(image)):
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = image[j]
            length += 1
        if length:
            lengths.append(length)
    return lengths


def single_cycle(order):
    """The permutation sending order[k] to order[k + 1], cyclically."""
    img = [0] * len(order)
    for a, b in zip(order, order[1:] + order[:1]):
        img[a] = b
    return Perm(img)


# -- construction and validation --


def test_identity_images():
    assert Perm.identity(4).table.tolist() == [0, 1, 2, 3]
    assert Perm.identity(1).table.tolist() == [0]


def test_identity_rejects_size_zero():
    with pytest.raises(ValueError):
        Perm.identity(0)
    # True made a one-point permutation, and 2.5 failed on the image dtype
    for n in (True, 2.5, 3.0):
        with pytest.raises(ValueError, match="need an integer"):
            Perm.identity(n)


def test_rejects_non_bijections():
    with pytest.raises(ValueError):
        Perm([0, 0, 2])
    with pytest.raises(ValueError):
        Perm([0, 2])
    with pytest.raises(ValueError):
        Perm([])
    with pytest.raises(ValueError):
        Perm([-1, 0])


@given(perms())
def test_image_is_always_a_bijection(p):
    assert sorted(p.table.tolist()) == list(range(len(p)))


def test_every_input_kind_gives_the_same_perm():
    points = [2, 0, 3, 1]
    built = [
        Perm(points),
        Perm(tuple(points)),
        Perm(v for v in points),
        Perm(np.array(points)),
        Perm(np.array(points, dtype=np.int32)),
    ]
    for p in built:
        assert p == built[0]
        assert hash(p) == hash(built[0])
    assert len({*built}) == 1


def test_source_array_mutation_does_not_reach_the_perm():
    source = np.array([1, 2, 0])
    p = Perm(source)
    source[:] = [0, 1, 2]
    assert p.table.tolist() == [1, 2, 0]
    assert not p.table.flags.writeable
    with pytest.raises(ValueError):
        p.table[0] = 0


def test_accessors_return_python_ints():
    p = Perm(np.array([1, 0, 2]))
    assert all(type(v) is int for v in p.fixed_points())
    assert all(type(v) is int for v in p.cycle_type())
    assert type(p.signature()) is int


UINT64_PAST_INT64 = np.array([2**63, 0], dtype=np.uint64)


@pytest.mark.parametrize("image", [
    [],
    np.array([], dtype=np.int64),
    [0, 3, 1],
    [-1, 0],
    np.array([0, 1, 5]),
    [2**70, 0],
    [0, 0, 2],
    np.array([1, 1]),
    [[0, 1], [1, 0]],
    np.arange(4).reshape(2, 2),
    [1.5, 0.5],
    np.array([1.9, 0.2]),
    ["1", "0"],
    [True, False],
    np.array([1 + 0j, 0j]),
    [1j, 0],
    UINT64_PAST_INT64,
])
def test_invalid_images_raise_value_error(image):
    with pytest.raises(ValueError) as info:
        Perm(image)
    if image is UINT64_PAST_INT64:
        # not the -2**63 that an int64 cast would wrap it to
        assert str(info.value) == "image value outside int64: 9223372036854775808"


# -- composition and inversion --


def test_compose_applies_right_factor_first():
    p = Perm([1, 2, 0])
    q = Perm([0, 2, 1])
    assert (p * q).table.tolist() == [1, 0, 2]
    assert (q * p).table.tolist() == [2, 1, 0]


def test_compose_size_mismatch_rejected():
    with pytest.raises(ValueError):
        Perm.identity(3) * Perm.identity(4)


@given(perms())
def test_identity_laws(p):
    e = Perm.identity(len(p))
    assert p * e == p
    assert e * p == p


@given(perms())
def test_inverse_laws(p):
    e = Perm.identity(len(p))
    assert p * p.inverse() == e
    assert p.inverse() * p == e


@given(st.integers(min_value=1, max_value=8), st.data())
def test_compose_is_associative(n, data):
    pts = list(range(n))
    p = Perm(data.draw(st.permutations(pts)))
    q = Perm(data.draw(st.permutations(pts)))
    r = Perm(data.draw(st.permutations(pts)))
    assert (p * q) * r == p * (q * r)


# -- cycle structure --


def test_cycle_type_examples():
    assert Perm.identity(9).cycle_type() == (1,) * 9
    assert Perm([1, 0, 3, 4, 2]).cycle_type() == (2, 3)


@given(perms())
def test_cycle_type_sums_to_n(p):
    ct = p.cycle_type()
    assert sum(ct) == len(p)
    assert list(ct) == sorted(ct)
    assert all(length >= 1 for length in ct)


# pointer doubling needs about log2(length) + 1 rounds, so the long cycles
# here take 12 or more
@pytest.mark.parametrize("n", [1, 2, 3, 1000, 2047, 2048, 2049, 4095, 4096])
def test_single_cycle_structure(n):
    order = list(range(n))
    random.Random(n).shuffle(order)
    p = single_cycle(order)
    assert p.cycle_type() == (n,)
    assert p.signature() == (-1 if (n - 1) % 2 else 1)
    assert p.fixed_points() == ((order[0],) if n == 1 else ())


@pytest.mark.parametrize("n", [1, 2, 4096])
def test_identity_structure(n):
    e = Perm.identity(n)
    assert e.cycle_type() == (1,) * n
    assert e.signature() == 1
    assert e.fixed_points() == tuple(range(n))


@settings(max_examples=200)
@given(perms(max_n=64))
def test_cycle_structure_matches_a_cycle_walk(p):
    img = p.table.tolist()
    lengths = walk_cycle_lengths(img)
    assert p.cycle_type() == tuple(sorted(lengths))
    assert p.signature() == (-1 if (len(p) - len(lengths)) % 2 else 1)
    assert p.fixed_points() == tuple(i for i, v in enumerate(img) if i == v)


@settings(max_examples=25)
@given(st.integers(min_value=1, max_value=4096), st.lists(st.integers(1, 64), max_size=8),
       st.randoms(use_true_random=False))
def test_long_cycles_match_a_cycle_walk(longest, others, rng):
    # one long cycle plus a few short ones, on shuffled points
    lengths = [longest] + others
    points = list(range(sum(lengths)))
    rng.shuffle(points)
    img = [0] * len(points)
    at = 0
    for length in lengths:
        cyc = points[at:at + length]
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            img[a] = b
        at += length
    p = Perm(img)
    assert p.cycle_type() == tuple(sorted(walk_cycle_lengths(img)))
    assert p.cycle_type() == tuple(sorted(lengths))
    assert p.signature() == (-1 if (len(p) - len(lengths)) % 2 else 1)


# -- signature --


def test_signature_of_identity_and_transposition():
    assert Perm.identity(9).signature() == 1
    assert Perm([1, 0]).signature() == -1


@given(perm_pairs())
def test_signature_is_a_homomorphism(pair):
    p, q = pair
    assert (p * q).signature() == p.signature() * q.signature()


@given(perms())
def test_signature_and_cycle_type_survive_inversion(p):
    assert p.signature() == p.inverse().signature()
    assert p.cycle_type() == p.inverse().cycle_type()


def test_signature_bulk_homomorphism_seeded():
    rng = random.Random(11_41)
    for _ in range(250):
        n = rng.choice([4, 9, 16, 25])
        a = list(range(n))
        b = list(range(n))
        rng.shuffle(a)
        rng.shuffle(b)
        p, q = Perm(a), Perm(b)
        assert (p * q).signature() == p.signature() * q.signature()


# -- matrices (the rows the CLI prints) and the determinant oracle --


def test_identity_matrix():
    assert printed_rows(Perm.identity(2)) == [[1, 0], [0, 1]]


def test_matrix_entry_convention():
    p = Perm([1, 2, 0])
    m = printed_rows(p)
    for j in range(3):
        for i in range(3):
            assert m[j][i] == (1 if p.table[i] == j else 0)


def test_matrix_rows_are_exact_unit_vectors():
    for n in (1, 2, 5, 64):
        p = Perm(random.Random(n).sample(range(n), n))
        image = p.table.tolist()
        assert printed_rows(p) == [[int(image[i] == j) for i in range(n)] for j in range(n)]


def test_determinant_small_cases():
    assert exact_determinant(printed_rows(Perm.identity(5))) == 1
    assert exact_determinant(printed_rows(Perm([1, 0]))) == -1
    assert exact_determinant(printed_rows(Perm([1, 2, 0]))) == 1


@pytest.mark.parametrize("rows,message", [
    ([], "empty matrix"),
    ([[1, 0], [0, 1, 0]], "matrix is not square"),
    ([[1, 0]], "matrix is not square"),
    ([[1, 0], [0, 1.0]], "entry 1.0 is not an int"),
    ([[True, False], [False, True]], "entry True is not an int"),
    ([[1, 0], [0, np.int64(1)]], "entry np.int64(1) is not an int"),
])
def test_determinant_rejects_bad_rows(rows, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        exact_determinant(rows)


@settings(max_examples=60)
@given(perms(max_n=20))
def test_determinant_matches_signature(p):
    assert exact_determinant(printed_rows(p)) == p.signature()
