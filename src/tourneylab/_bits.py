"""Bitset helpers for vertex sets stored as Python ints (bit v = vertex v)."""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def rows_to_masks(adj: np.ndarray) -> list[int]:
    """Convert the rows of a 0/1 matrix to per-row bitsets (bit j = column j)."""
    packed = np.packbits(adj, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]
