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


def complement_rows(out_rows: list[int]) -> list[int]:
    """In-bitsets of a tournament from its out-bitsets: N-(v) = V - N+(v) - {v}."""
    full = (1 << len(out_rows)) - 1
    return [full ^ 1 << v ^ m for v, m in enumerate(out_rows)]


def rows_to_masks(adj: np.ndarray) -> list[int]:
    """Convert the rows of a 0/1 matrix to per-row bitsets (bit j = column j)."""
    packed = np.packbits(adj, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]
