"""Bitmask helpers for sets of process ids (colors 1..n <-> bits 0..n-1)."""
from __future__ import annotations

from typing import Iterable


def integer(value, what: str, error: type[Exception]) -> int:
    """The one rule for an integer input: value if it is an int, and else
    error. A bool (JSON true), a float or a string would pass for 1 in a set
    or dict, or fail later with a bare TypeError."""
    if type(value) is not int:
        raise error(f"{what} must be an integer, got {value!r}")
    return value


def mask_of(colors: Iterable[int]) -> int:
    m = 0
    for c in colors:
        m |= 1 << (c - 1)
    return m


def colors_of(mask: int) -> frozenset[int]:
    out = []
    c = 1
    while mask:
        if mask & 1:
            out.append(c)
        mask >>= 1
        c += 1
    return frozenset(out)


def iter_bits(mask: int):
    """Yield 0-based bit positions set in mask, ascending."""
    b = 0
    while mask:
        if mask & 1:
            yield b
        mask >>= 1
        b += 1


def submasks(mask: int) -> list[int]:
    """All submasks of mask, including 0 and mask itself, ascending."""
    acc = [0]
    s = mask
    while s:
        acc.append(s)
        s = (s - 1) & mask
    return sorted(acc)
