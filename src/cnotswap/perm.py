"""Exact permutation algebra on the points {0..n-1}: the numpy back end.

Permutations are stored as image tables: ``image[i]`` is where point ``i``
goes, held as one read-only int64 numpy array so every operation runs as
whole-array arithmetic.  Composition follows the convention
(p * q)(i) = p(q(i)), i.e. the right factor acts first.  Everything here is
exact integer arithmetic.  ``_linear_images`` is the one routine that turns
a 2x2 matrix over Z_d into the image table of its permutation of the d*d
basis states.  This module and :mod:`cnotswap.kernel` are the only ones that
import numpy; the front end loads them on its first table.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .guards import _check_dimension, _check_integer


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
        t = (x * digits % d)[:, None] + (y * digits % d)[None, :]
        np.subtract(t, d, out=t, where=t >= d)
        return t

    table = coordinate(a, b)
    table *= d
    table += coordinate(c, e)
    return table


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
        return cls(np.arange(_check_integer(n, "size", 1)))

    @property
    def table(self) -> np.ndarray:
        """The image table itself, as a read-only int64 array (no copy)."""
        return self._image

    def __len__(self) -> int:
        return len(self._image)

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

    def cycle_type(self) -> tuple[int, ...]:
        """Multiset of cycle lengths, ascending, summing to n."""
        return tuple(self._sorted_cycle_lengths().tolist())

    def signature(self) -> int:
        """+1 for even permutations, -1 for odd.

        Computed as (-1)**(n - c) with c the number of cycles, fixed points
        included; each length-l cycle contributes l - 1 transpositions.
        """
        return -1 if (len(self._image) - len(self._sorted_cycle_lengths())) % 2 else 1

