"""Independent oracle for the answers the benchmark checks.

Nothing here imports ``cnotswap``.  Every generated element of the CNOT
group is a 2x2 matrix of determinant 1 over Z_d, so the group is SL(2, Z_d)
and its Cayley graph can be walked on 4-tuples instead of d*d-point image
tables.  The parity answers come from closed forms on cycle structure.

Matrices act on column vectors of digits: (m, n) -> (a*m + b*n, c*m + e*n),
stored as the tuple (a, b, c, e).  CNOT1 is (1, 0, 1, 1) and CNOT2 is
(1, 1, 0, 1); a word acts in circuit time, first letter first.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import gcd

LETTERS = ("CNOT1", "CNOT2")
IDENTITY = (1, 0, 0, 1)
SWAP = (0, 1, 1, 0)
KNOWN_SWAP_WORDS = {1: [], 2: ["CNOT1", "CNOT2", "CNOT1"]}


def prime_factors(d: int) -> list[int]:
    out, p = [], 2
    while p * p <= d:
        if d % p == 0:
            out.append(p)
            while d % p == 0:
                d //= p
        p += 1
    if d > 1:
        out.append(d)
    return out


def sl2_order(d: int) -> int:
    """|SL(2, Z_d)| = d^3 * prod over primes p | d of (1 - 1/p^2)."""
    order = d**3
    for p in prime_factors(d):
        order = order // (p * p) * (p * p - 1)
    return order


def apply_letter(mat: tuple, letter: str, d: int) -> tuple:
    """The matrix of ``mat`` followed by one more gate."""
    a, b, c, e = mat
    if letter == "CNOT1":  # (m, n) -> (m, n + m)
        return (a, b, (a + c) % d, (b + e) % d)
    if letter == "CNOT2":  # (m, n) -> (m + n, n)
        return ((a + c) % d, (b + e) % d, c, e)
    raise ValueError(f"not a generator: {letter!r}")


def evaluate(word, d: int) -> tuple:
    mat = tuple(v % d for v in IDENTITY)
    for letter in word:
        mat = apply_letter(mat, letter, d)
    return mat


def image_table(mat: tuple, d: int) -> list[int]:
    """The permutation of flat basis states d*m + n that ``mat`` induces."""
    a, b, c, e = mat
    return [
        d * ((a * m + b * n) % d) + (c * m + e * n) % d
        for m in range(d)
        for n in range(d)
    ]


@dataclass(frozen=True)
class Census:
    """Breadth-first walk of the Cayley graph in the program's visiting order.

    ``index[key]`` is the order in which the element was first reached
    (parents in insertion order, CNOT1 before CNOT2), so ``index + 1`` is the
    number of elements a search that stops at that element has built, and the
    parent chain spells the lexicographically least shortest word.
    """

    d: int
    keys: list[int]
    parent: list[int]
    letter: list[int]
    depth: list[int]
    index: dict[int, int]
    counts_by_depth: list[int]

    @property
    def order(self) -> int:
        return len(self.keys)

    @property
    def diameter(self) -> int:
        return len(self.counts_by_depth) - 1

    def key(self, mat: tuple) -> int:
        d = self.d
        a, b, c, e = (v % d for v in mat)
        return ((a * d + b) * d + c) * d + e

    def word(self, mat: tuple) -> list[str] | None:
        idx = self.index.get(self.key(mat))
        if idx is None:
            return None
        out = []
        while idx > 0:
            out.append(LETTERS[self.letter[idx]])
            idx = self.parent[idx]
        return out[::-1]


def census(d: int) -> Census:
    d3, d2 = d**3, d * d
    start = 0 if d == 1 else d3 + 1  # identity (1, 0, 0, 1); everything is 0 mod 1
    keys, parent, letter, depth = [start], [-1], [-1], [0]
    index = {start: 0}
    counts = [1]
    frontier = [0]
    level = 0
    while frontier:
        level += 1
        new = []
        for idx in frontier:
            k = keys[idx]
            a, r = divmod(k, d3)
            b, r = divmod(r, d2)
            c, e = divmod(r, d)
            c1, e1 = (a + c) % d, (b + e) % d
            for li, child in enumerate(
                (((a * d + b) * d + c1) * d + e1, ((c1 * d + e1) * d + c) * d + e)
            ):
                if child not in index:
                    index[child] = len(keys)
                    new.append(len(keys))
                    keys.append(child)
                    parent.append(idx)
                    letter.append(li)
                    depth.append(level)
        if new:
            counts.append(len(new))
        frontier = new
    return Census(d, keys, parent, letter, depth, index, counts)


def cnot_cycle_type(d: int) -> list[int]:
    """CNOT1 shifts the second digit by m: on row m that is gcd(m, d) cycles
    of length d / gcd(m, d) (gcd(0, d) = d gives the d fixed points)."""
    lengths = Counter()
    for m in range(d):
        g = gcd(m, d)
        lengths[d // g] += g
    return [length for length in sorted(lengths) for _ in range(lengths[length])]


def swap_cycle_type(d: int) -> list[int]:
    return [1] * d + [2] * (d * (d - 1) // 2)


def signature_of(cycle_type) -> int:
    return -1 if sum(length - 1 for length in cycle_type) % 2 else 1


def cnot_signature(d: int) -> int:
    return -1 if sum(d - gcd(m, d) for m in range(d)) % 2 else 1


def swap_signature(d: int) -> int:
    return -1 if (d * (d - 1) // 2) % 2 else 1


def parity_verdict(d: int) -> str:
    sig_c, sig_s = cnot_signature(d), swap_signature(d)
    obstructed = sig_c == 1 and sig_s == -1
    return "INFEASIBLE_BY_PARITY" if obstructed else "UNKNOWN_BY_PARITY"
