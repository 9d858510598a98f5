"""Gate matrices over Z_d and their permutations of the two-qudit basis.

Basis states (m, n) are flattened row-major as d*m + n, with m the digit of
the first system.  CNOT1 adds the first digit into the second mod d, CNOT2
adds the second into the first, SWAP exchanges the digits.  Each gate is a
2x2 matrix over Z_d acting on digit pairs, held as the tuple (a, b, c, e)
of ints (``GATE_MATRICES``); ``_product`` and ``_determinant`` are its
arithmetic mod d, in plain ints.  The module itself needs only the standard
library: ``gate_perm`` and ``as_linear_map``, the two routines that build
an image table, load :mod:`cnotswap.perm` (``Perm`` and
``_linear_images``) and with it numpy on their first call.
"""

from __future__ import annotations

from enum import Enum

from .guards import _check_dimension


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


def _product(d: int, g, m):
    """The product g*m mod d of two matrices (a, b, c, e) of ints."""
    p, q, r, s = g
    a, b, c, e = m
    return (p * a + q * c) % d, (p * b + q * e) % d, (r * a + s * c) % d, (r * b + s * e) % d


def _determinant(d: int, matrix) -> int:
    """The determinant mod d of a matrix (a, b, c, e) of ints."""
    a, b, c, e = matrix
    return (a * e - b * c) % d


def gate_perm(kind: GateKind, d: int) -> Perm:
    """The gate's permutation of the basis states, built from its matrix."""
    if not isinstance(kind, GateKind):
        kinds = ", ".join(GateKind.__members__)
        raise ValueError(f"invalid gate {kind!r}; need a GateKind: {kinds}")
    from .perm import Perm, _linear_images

    return Perm(_linear_images(d, *GATE_MATRICES[kind]).ravel())


def as_linear_map(p: Perm, d: int) -> tuple[int, int, int, int] | None:
    """Recover the matrix (a, b, c, e) over Z_d realizing p, or None if p is
    not linear.

    Candidate columns are read off the images of (1, 0) and (0, 1), the flat
    points d and 1 (both 0 at d = 1); the candidate is accepted only if it
    reproduces p on every basis state.
    """
    from .perm import Perm, _linear_images

    d = _check_dimension(d)
    if not isinstance(p, Perm):
        raise ValueError(f"need a Perm, not {type(p).__name__}")
    table = p.table
    if len(table) != d * d:
        raise ValueError(f"permutation on {len(table)} points does not match d*d = {d * d}")
    a, c = divmod(int(table[d % (d * d)]), d)
    b, e = divmod(int(table[1 % d]), d)
    linear = (_linear_images(d, a, b, c, e).ravel() == table).all()
    return (a, b, c, e) if linear else None
