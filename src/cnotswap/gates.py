"""Gate permutations on the d*d basis states of a two-qudit register.

Basis states (m, n) are flattened row-major as d*m + n, with m the digit of
the first system.  CNOT1 adds the first digit into the second mod d, CNOT2
adds the second into the first, SWAP exchanges the digits.  All three are
bijections on basis states, so they live here as ``Perm`` objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .perm import Perm


class GateKind(Enum):
    CNOT1 = "cnot1"
    CNOT2 = "cnot2"
    SWAP = "swap"


# SWAP is a synthesis target only; circuits are words over these two.
GENERATORS = (GateKind.CNOT1, GateKind.CNOT2)


def _check_dimension(d: int) -> None:
    if d < 1:
        raise ValueError(f"invalid dimension {d}; need d >= 1")


def basis_index(d: int, m: int, n: int) -> int:
    """Flat index d*m + n of the basis state with digits (m, n)."""
    _check_dimension(d)
    if not (0 <= m < d and 0 <= n < d):
        raise ValueError(f"digits ({m}, {n}) outside Z_{d}")
    return d * m + n


def basis_digits(d: int, flat: int) -> tuple[int, int]:
    """Digits (m, n) of the flat basis index."""
    _check_dimension(d)
    if not 0 <= flat < d * d:
        raise ValueError(f"flat index {flat} outside 0..{d * d - 1}")
    return divmod(flat, d)


def _basis_digit_grid(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Digits m (a column) and n (a row) of the basis states.

    Expressions in them broadcast to d x d tables indexed [m, n], which
    ravel in flat-index order d*m + n without holding two full digit arrays.
    """
    _check_dimension(d)
    digits = np.arange(d, dtype=np.int64)
    return digits[:, None], digits[None, :]


def _linear_images(d: int, a, b, c, e) -> np.ndarray:
    """Image tables of (m, n) -> (a*m + b*n, c*m + e*n) mod d, shape (..., d, d).

    Scalar coefficients give one table; coefficient arrays of shape (k, 1, 1)
    give one per map.
    """
    m, n = _basis_digit_grid(d)
    return d * ((a * m + b * n) % d) + (c * m + e * n) % d


def cnot1_perm(d: int) -> Perm:
    """(m, n) -> (m, n + m mod d); control on the first system."""
    m, n = _basis_digit_grid(d)
    return Perm((d * m + (n + m) % d).ravel())


def cnot2_perm(d: int) -> Perm:
    """(m, n) -> (m + n mod d, n); control on the second system."""
    m, n = _basis_digit_grid(d)
    return Perm((d * ((m + n) % d) + n).ravel())


def swap_perm(d: int) -> Perm:
    """(m, n) -> (n, m); an involution fixing the d diagonal states."""
    m, n = _basis_digit_grid(d)
    return Perm((d * n + m).ravel())


_GATE_BUILDERS = {
    GateKind.CNOT1: cnot1_perm,
    GateKind.CNOT2: cnot2_perm,
    GateKind.SWAP: swap_perm,
}


def gate_perm(kind: GateKind, d: int) -> Perm:
    return _GATE_BUILDERS[kind](d)


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
    _check_dimension(d)
    if len(p) != d * d:
        raise ValueError(f"permutation on {len(p)} points does not match d*d = {d * d}")
    if p(0) != 0:
        return None
    if d == 1:
        return LinearMap2(1, 0, 0, 0, 0)
    a, c = basis_digits(d, p(basis_index(d, 1, 0)))
    b, e = basis_digits(d, p(basis_index(d, 0, 1)))
    candidate = LinearMap2(d, a, b, c, e)
    return candidate if np.array_equal(_linear_images(d, a, b, c, e).ravel(), p.table) else None
