"""Input checks and the resource guards, in the standard library alone.

``_check_integer`` and ``_check_dimension`` check the package's inputs, and
``_check_guard`` raises every dimension guard's ``CostGuardError``.  They
sit apart from the numpy-backed modules so that a refusal answers before
numpy loads.
"""

from __future__ import annotations

import operator


class CostGuardError(ValueError):
    """An operation would exceed its resource guard."""


def _check_guard(name: str, d: int, limit: int, note: str = "") -> None:
    """CostGuardError once the dimension d exceeds the guard's limit."""
    if d > limit:
        raise CostGuardError(f"{name} guard: d = {d} exceeds {limit}{note}")


def _check_integer(value, name: str, least: int) -> int:
    """``value`` as a plain int, which numpy integers become too; ValueError
    for a bool, a non-integer or a value below ``least``."""
    try:
        if isinstance(value, bool):  # operator.index reads True as 1
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"invalid {name} {value!r}; need an integer") from None
    if value < least:
        raise ValueError(f"{name} must be >= {least}")
    return value


def _check_dimension(d: int) -> int:
    return _check_integer(d, "dimension", 1)
