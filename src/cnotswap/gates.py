"""Gate permutations on the d*d basis states of a two-qudit register.

Basis states (m, n) are flattened row-major as d*m + n, with m the digit of
the first system.  CNOT1 adds the first digit into the second mod d, CNOT2
adds the second into the first, SWAP exchanges the digits.  Each gate is a
2x2 matrix over Z_d acting on digit pairs (``GATE_MATRICES``), and
``_linear_images`` is the one routine that turns a matrix into the image
table of its permutation; the gates live here as ``Perm`` objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .perm import Perm, _check_integer


class GateKind(Enum):
    CNOT1 = "cnot1"
    CNOT2 = "cnot2"
    SWAP = "swap"


# SWAP is a synthesis target only; circuits are words over these two.
GENERATORS = (GateKind.CNOT1, GateKind.CNOT2)

# (a, b, c, e) of each gate's map (m, n) -> (a*m + b*n, c*m + e*n) mod d
GATE_MATRICES = {
    GateKind.CNOT1: (1, 0, 1, 1),
    GateKind.CNOT2: (1, 1, 0, 1),
    GateKind.SWAP: (0, 1, 1, 0),
}


def _check_dimension(d: int) -> int:
    return _check_integer(d, "dimension", 1)


def basis_index(d: int, m: int, n: int) -> int:
    """Flat index d*m + n of the basis state with digits (m, n)."""
    d = _check_dimension(d)
    m, n = _check_integer(m, "digit", 0), _check_integer(n, "digit", 0)
    if m >= d or n >= d:
        raise ValueError(f"digits ({m}, {n}) outside Z_{d}")
    return d * m + n


def basis_digits(d: int, flat: int) -> tuple[int, int]:
    """Digits (m, n) of the flat basis index."""
    d = _check_dimension(d)
    flat = _check_integer(flat, "flat index", 0)
    if flat >= d * d:
        raise ValueError(f"flat index {flat} outside 0..{d * d - 1}")
    return divmod(flat, d)


def _linear_images(d: int, a, b, c, e) -> np.ndarray:
    """Image table of (m, n) -> (a*m + b*n, c*m + e*n) mod d, shape (d, d).

    Coefficients lie in 0 .. d-1.  Entry [m, n] is the image of the basis
    state d*m + n, so the table ravels in flat-index order.  The products x*m
    and y*n are reduced on the d digits before they broadcast, so each
    coordinate is one sum below 2*d on the grid, brought under d by one
    subtraction.  Tables are int32 while d*d fits.
    """
    d = _check_dimension(d)
    digits = np.arange(d, dtype=np.int32 if d * d <= 2**31 else np.int64)

    def coordinate(x, y):
        t = (x * digits % d)[..., :, None] + (y * digits % d)[..., None, :]
        np.subtract(t, d, out=t, where=t >= d)
        return t

    table = coordinate(a, b)
    table *= d
    table += coordinate(c, e)
    return table


def gate_perm(kind: GateKind, d: int) -> Perm:
    """The gate's permutation of the basis states, built from its matrix."""
    return Perm(_linear_images(d, *GATE_MATRICES[kind]).ravel())


def cnot1_perm(d: int) -> Perm:
    """(m, n) -> (m, n + m mod d); control on the first system."""
    return gate_perm(GateKind.CNOT1, d)


def cnot2_perm(d: int) -> Perm:
    """(m, n) -> (m + n mod d, n); control on the second system."""
    return gate_perm(GateKind.CNOT2, d)


def swap_perm(d: int) -> Perm:
    """(m, n) -> (n, m); an involution fixing the d diagonal states."""
    return gate_perm(GateKind.SWAP, d)


@dataclass(frozen=True)
class LinearMap2:
    """The map (m, n) -> (a*m + b*n, c*m + e*n) mod d on digit pairs."""

    d: int
    a: int
    b: int
    c: int
    e: int

    def apply(self, m: int, n: int) -> tuple[int, int]:
        return (self.a * m + self.b * n) % self.d, (self.c * m + self.e * n) % self.d

    def determinant(self) -> int:
        return (self.a * self.e - self.b * self.c) % self.d


def as_linear_map(p: Perm, d: int) -> LinearMap2 | None:
    """Recover the 2x2 table over Z_d realizing p, or None if p is not linear.

    Candidate columns are read off the images of (1, 0) and (0, 1); the
    candidate is accepted only if it reproduces p on every basis state.
    Linear maps fix the origin, so p(0) != 0 fails immediately.
    """
    d = _check_dimension(d)
    if len(p) != d * d:
        raise ValueError(f"permutation on {len(p)} points does not match d*d = {d * d}")
    if p(0) != 0:
        return None
    a, c = basis_digits(d, p(basis_index(d, 1 % d, 0)))
    b, e = basis_digits(d, p(basis_index(d, 0, 1 % d)))
    candidate = LinearMap2(d, a, b, c, e)
    return candidate if np.array_equal(_linear_images(d, a, b, c, e).ravel(), p.table) else None
