"""Exact permutation algebra on the points {0..n-1}.

Permutations are stored as image tables: ``image[i]`` is where point ``i``
goes, held as one read-only int64 numpy array so every operation runs as
whole-array arithmetic.  Composition follows the convention
(p * q)(i) = p(q(i)), i.e. the right factor acts first.  Everything here is
exact integer arithmetic; the determinant routine deliberately avoids the
parity shortcut so it can serve as an independent cross-check of
``signature`` on the matrix rows the CLI prints.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

CycleType = tuple[int, ...]

DETERMINANT_SIZE_LIMIT = 256


class CostGuardError(ValueError):
    """An operation would exceed its resource guard."""


class Perm:
    """A bijection on {0..n-1}, immutable and hashable.

    The constructor copies its input and validates bijectivity, so every
    live instance is a genuine permutation.  All operations return new
    objects.
    """

    __slots__ = ("_image", "_cycle_lengths")

    def __init__(self, image: Iterable[int]):
        # int64 conversion truncates floats, parses strings and reads bools
        # as 0 and 1, so the input itself must hold integers
        if isinstance(image, np.ndarray) and image.dtype != object:
            if image.dtype.kind not in "iu":
                raise ValueError(f"image values must be integers, not {image.dtype}")
            # the int64 cast below wraps uint64 values past the int64 maximum
            if image.dtype == np.uint64 and image.size and image.max() > np.iinfo(np.int64).max:
                raise ValueError(f"image value outside int64: {image.max()}")
        else:
            image = list(image)
        try:
            img = np.array(image, dtype=np.int64)
        except OverflowError as exc:
            raise ValueError(f"image value outside int64: {exc}") from None
        except TypeError as exc:
            raise ValueError(f"image values must be integers: {exc}") from None
        if img.ndim != 1:
            raise ValueError(f"image must be one-dimensional, got shape {img.shape}")
        n = len(img)
        if n == 0:
            raise ValueError("a permutation needs at least one point")
        if isinstance(image, list):
            for t in set(map(type, image)):
                if t is bool or not issubclass(t, (int, np.integer)):
                    raise ValueError(f"image values must be integers, not {t.__name__}")
        if img.min() < 0 or img.max() >= n:
            outside = (img < 0) | (img >= n)
            raise ValueError(f"image value {img[outside.argmax()]} outside 0..{n - 1}")
        # n values in range are a bijection exactly when they mark all n points
        marked = np.zeros(n, dtype=bool)
        marked[img] = True
        if not marked.all():
            repeated = np.bincount(img, minlength=n) > 1
            raise ValueError(f"image value {repeated.argmax()} repeated; not a bijection")
        img.flags.writeable = False
        self._image = img
        self._cycle_lengths = None

    @classmethod
    def identity(cls, n: int) -> "Perm":
        if n < 1:
            raise ValueError(f"invalid size {n}; need at least one point")
        return cls(np.arange(n))

    @property
    def image(self) -> tuple[int, ...]:
        return tuple(self._image.tolist())

    @property
    def table(self) -> np.ndarray:
        """The image table itself, as a read-only int64 array (no copy)."""
        return self._image

    def __len__(self) -> int:
        return len(self._image)

    def __call__(self, point: int) -> int:
        return int(self._image[point])

    def __iter__(self) -> Iterator[int]:
        return iter(self._image.tolist())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Perm):
            return NotImplemented
        return np.array_equal(self._image, other._image)

    def __hash__(self) -> int:
        return hash(self._image.tobytes())

    def __repr__(self) -> str:
        return f"Perm({self._image.tolist()})"

    def __mul__(self, other: "Perm") -> "Perm":
        """Compose: (self * other)(i) = self(other(i)); ``other`` acts first."""
        if len(self) != len(other):
            raise ValueError(
                f"size mismatch: cannot compose permutations on {len(self)} and {len(other)} points"
            )
        return Perm(self._image[other._image])

    def inverse(self) -> "Perm":
        inv = np.empty_like(self._image)
        inv[self._image] = np.arange(len(inv))
        return Perm(inv)

    def fixed_points(self) -> tuple[int, ...]:
        return tuple(np.flatnonzero(self._image == np.arange(len(self._image))).tolist())

    def cycles(self) -> list[list[int]]:
        """Disjoint cycles covering all points, fixed points included.

        Canonical form: each cycle starts at its minimal point and cycles
        are sorted by starting point (scanning points in order gives both).
        """
        img = self._image.tolist()
        visited = bytearray(len(img))
        out: list[list[int]] = []
        for start in range(len(img)):
            if visited[start]:
                continue
            cycle = []
            j = start
            while not visited[j]:
                visited[j] = 1
                cycle.append(j)
                j = img[j]
            out.append(cycle)
        return out

    def _sorted_cycle_lengths(self) -> np.ndarray:
        """Cycle lengths, ascending; computed once per (immutable) instance.

        Every point is labelled with the least point on its cycle by pointer
        doubling: after round k, ``label[i]`` is the least of the 2**k points
        i, p(i), ..., p^(2**k - 1)(i) and ``step`` is p^(2**k).  A round that
        changes no label ends the loop: then every window of 2**k points has
        the minimum of the window 2**k further on, and walking around the
        cycle in steps of 2**k shows all those windows, which together cover
        the cycle, share one minimum.  A cycle of length l therefore costs
        about log2(l) + 1 rounds.  The cycle count is the number of points
        labelled with themselves, and the length of each cycle is how many
        points carry its label.  Labels are points, so they are held in
        int32 whenever n - 1 fits, which halves the arrays the rounds gather;
        ``step`` indexes and stays intp.
        """
        if self._cycle_lengths is None:
            step = self._image
            n = len(step)
            label = np.arange(n, dtype=np.int32 if n - 1 <= np.iinfo(np.int32).max else np.int64)
            while True:
                lower = label[step]
                np.minimum(lower, label, out=lower)
                if np.array_equal(lower, label):
                    break
                label = lower
                step = step[step]
            del step, lower  # free the gather arrays before counting
            roots = np.flatnonzero(label == np.arange(n, dtype=label.dtype))
            self._cycle_lengths = np.sort(np.bincount(label)[roots])
        return self._cycle_lengths

    def cycle_type(self) -> CycleType:
        """Multiset of cycle lengths, ascending, summing to n."""
        return tuple(self._sorted_cycle_lengths().tolist())

    def signature(self) -> int:
        """+1 for even permutations, -1 for odd.

        Computed as (-1)**(n - c) with c the number of cycles, fixed points
        included; each length-l cycle contributes l - 1 transpositions.
        """
        return -1 if (len(self._image) - len(self._sorted_cycle_lengths())) % 2 else 1


def exact_determinant(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix, given as its rows, by
    fraction-free (Bareiss) elimination.

    Runs general integer elimination rather than reading a sign off any
    permutation structure, so on the rows of a permutation matrix it stays
    an independent oracle for ``Perm.signature``.  Guarded to
    DETERMINANT_SIZE_LIMIT rows, checked before the rows are copied,
    because the cost is cubic.
    """
    n = len(rows)
    if n > DETERMINANT_SIZE_LIMIT:
        raise CostGuardError(f"determinant guard: {n} > {DETERMINANT_SIZE_LIMIT} rows")
    a = [list(row) for row in rows]
    if n == 0:
        raise ValueError("empty matrix")
    if any(len(row) != n for row in a):
        raise ValueError("matrix is not square")
    bad = next((v for row in a for v in row if type(v) is not int), None)
    if bad is not None:
        raise ValueError(f"entry {bad!r} is not an int")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot_row = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if pivot_row is None:
                return 0
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        pivot = a[k][k]
        for i in range(k + 1, n):
            row_i = a[i]
            row_k = a[k]
            factor = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - factor * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]
