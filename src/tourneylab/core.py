"""Tournament representation, validation, induced subtournaments, degree statistics.

A tournament on n vertices is stored as a dense n x n uint8 orientation
matrix with adj[i][j] = 1 iff the edge between i and j points i -> j.
A Tournament has no bitset attribute: each search that reads Python-int
bitsets (hamilton's BFS, Held–Karp and module partition, and sampling's
exact counts) builds them with one rows_to_masks call, from the helpers
here (rows_to_masks, complement_rows, iter_bits).

Vertices are dense integers 0..n-1. A Tournament holds only its matrix,
its order and its parent labels; a VertexSubset, a frozen dataclass,
holds only its universe and its members. Both are immutable after
construction and safe to share across threads.
"""

from __future__ import annotations

import operator
import os
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import (DiagonalNonzero, PairViolation, SubsetOutOfRange, TooLarge,
                     Trn1ParseError, check_integer, check_order)

MAX_VERTICES = 1 << 16
# Rows (or columns) per block of the passes that would otherwise hold an
# n x n temporary: the invariant check and TRN1's row compaction.
_BLOCK = 64


def iter_bits(mask: int) -> Iterator[int]:
    """The set bits of ``mask``, lowest first."""
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


class Tournament:
    """Immutable complete oriented graph.

    The constructor copies ``adj`` and checks both tournament invariants
    (zero diagonal, exactly one orientation per pair) on the copy, so the
    caller's array stays writable and later edits to it cannot reach the
    tournament. Internal code that builds a fresh, provably valid matrix
    sets ``_trusted`` and hands the matrix over without a copy.
    """

    __slots__ = ("n", "adj", "parent_labels")

    def __init__(self, adj, *, parent_labels: tuple[int, ...] | None = None,
                 _trusted: bool = False):
        a = np.asarray(adj)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"adjacency must be a square matrix, got shape {a.shape}")
        n = a.shape[0]
        if n < 1:
            raise ValueError("a tournament needs at least one vertex")
        if n > MAX_VERTICES:
            raise ValueError(f"n = {n} exceeds the supported maximum {MAX_VERTICES}")
        if _trusted:
            a = np.ascontiguousarray(a, dtype=np.uint8)
        else:
            _check_entries(a)
            a = a.astype(np.uint8, order="C")
            _check_invariants(a)
        a.setflags(write=False)
        self.n = n
        self.adj = a
        self.parent_labels = parent_labels

    def edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u, v])

    def out_degrees(self) -> np.ndarray:
        return self.adj.sum(axis=1, dtype=np.int64)

    def in_degrees(self) -> np.ndarray:
        return self.adj.sum(axis=0, dtype=np.int64)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Tournament):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.adj, other.adj)

    def __hash__(self):
        return hash((self.n, self.adj.tobytes()))

    def __repr__(self) -> str:
        return f"Tournament(n={self.n})"


def _check_entries(a: np.ndarray) -> None:
    """Reject entries other than 0/1 before the uint8 cast can wrap them,
    in a matrix or in hamiltonian_batch's inclusion rows; a uint8 array
    needs only its maximum, 0 when it is empty, not a full-size temporary."""
    if not (a.max(initial=0) <= 1 if a.dtype == np.uint8 else np.isin(a, (0, 1)).all()):
        raise ValueError("matrix entries must be 0 or 1")


def _check_invariants(a: np.ndarray) -> None:
    """Check a 0/1 matrix's diagonal, then its pairs; the first bad one raises."""
    bad = np.flatnonzero(np.diagonal(a))
    if bad.size:
        raise DiagonalNonzero(int(bad[0]))
    n = a.shape[0]
    # With a zero diagonal, every pair carries exactly one edge iff a has
    # n(n-1)/2 ones and a + a^T has n(n-1) nonzero entries: no pair has
    # two edges, then none has none. a + a^T is summed in row blocks, and
    # only a failing matrix pays for the n x n masks that locate its first
    # bad pair.
    block = np.empty((min(n, _BLOCK), n), dtype=np.uint8)
    nonzero = 0
    for i in range(0, n, _BLOCK):
        pairs = np.add(a[i:i + _BLOCK], a[:, i:i + _BLOCK].T, out=block[:min(_BLOCK, n - i)])
        nonzero += np.count_nonzero(pairs)
    if np.count_nonzero(a) != n * (n - 1) // 2 or nonzero != n * (n - 1):
        pairs = a + a.T
        i, j = divmod(int(np.flatnonzero(np.triu(pairs != 1, 1))[0]), n)
        raise PairViolation(i, j)


def validate(raw_matrix) -> Tournament:
    """Build a Tournament from a raw square 0/1 matrix, checking both invariants.

    Raises DiagonalNonzero or PairViolation identifying the first offending
    cell (row-major over the diagonal, then lexicographic over pairs).
    """
    return Tournament(raw_matrix)


def _vertex_labels(n: int, vertices) -> tuple[int, ...]:
    """``vertices`` as Python ints; each must be an integer in 0..n-1
    (operator.index, so 0.7 is a TypeError), else SubsetOutOfRange."""
    labels = tuple(map(operator.index, vertices))
    for v in labels:
        if not 0 <= v < n:
            raise SubsetOutOfRange(f"vertex {v} outside universe of size {n}")
    return labels


@dataclass(frozen=True)
class VertexSubset:
    """Ordered, duplicate-free set of vertex labels inside a fixed universe."""

    universe_n: int
    members: tuple[int, ...]

    def __post_init__(self):
        n = check_integer("universe_n", self.universe_n, 0)
        mem = _vertex_labels(n, self.members)
        if len(set(mem)) != len(mem):
            raise ValueError("duplicate members in vertex subset")
        object.__setattr__(self, "universe_n", n)
        object.__setattr__(self, "members", mem)

    @classmethod
    def full(cls, n: int) -> "VertexSubset":
        return cls(n, range(n))

    @classmethod
    def from_mask(cls, universe_n: int, mask: int) -> "VertexSubset":
        universe_n = check_integer("universe_n", universe_n, 0)
        mask = check_integer("mask", mask)
        if mask < 0 or mask >> universe_n:
            raise SubsetOutOfRange(f"mask has bits outside universe {universe_n}")
        return cls(universe_n, iter_bits(mask))

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, v) -> bool:
        """Membership of a Python or numpy integer; False outside the universe."""
        return operator.index(v) in self.members

    def __iter__(self):
        return iter(self.members)


@dataclass(frozen=True)
class SemidegreeProfile:
    """Per-vertex in/out degrees plus the minimum semidegree and a witness."""

    out_degrees: tuple[int, ...]
    in_degrees: tuple[int, ...]
    min_semidegree: int
    witness: int


def semidegrees(T: Tournament) -> SemidegreeProfile:
    """Exact degree statistics; witness is the lowest vertex attaining the minimum."""
    out = T.out_degrees()
    inn = T.in_degrees()
    per_vertex = np.minimum(out, inn)
    w = int(per_vertex.argmin())
    return SemidegreeProfile(
        out_degrees=tuple(int(x) for x in out),
        in_degrees=tuple(int(x) for x in inn),
        min_semidegree=int(per_vertex[w]),
        witness=w,
    )


def _check_universe(T: Tournament, part, what: str = "subset") -> None:
    """SubsetOutOfRange unless ``part``, a VertexSubset or a Partition,
    is over V(T); ``what`` names it in the message."""
    if part.universe_n != T.n:
        raise SubsetOutOfRange(
            f"{what} universe {part.universe_n} does not match tournament n={T.n}")


def induced(T: Tournament, S: VertexSubset) -> Tournament:
    """Subtournament T[S], vertices relabeled 0..|S|-1 in S's order.

    The returned tournament keeps ``parent_labels`` (new label i came from
    S.members[i]) so certificates can be translated back to T's labels.
    """
    _check_universe(T, S)
    idx = np.fromiter(S.members, dtype=np.intp, count=len(S.members))
    sub = T.adj[idx][:, idx]  # two plain gathers are several times faster than np.ix_
    return Tournament(sub, parent_labels=S.members, _trusted=True)


# TRN1 text format: line 1 = "TRN1 <n>", lines 2..n+1 = rows of adj as
# n characters '0'/'1'. No trailing garbage is allowed.

def format_trn1(T: Tournament) -> str:
    n = T.n
    cells = np.full((n, n + 1), ord("\n"), dtype=np.uint8)
    np.add(T.adj, ord("0"), out=cells[:, :n])
    return f"TRN1 {n}\n" + cells.tobytes().decode("ascii")


def parse_trn1(text: str | bytes | bytearray) -> Tournament:
    """Parse TRN1 text, enforcing both tournament invariants.

    ``text`` may also be bytes, read as ASCII: a byte above 127 is an
    invalid character, named by the lone surrogate that surrogateescape
    decodes it to. A bytearray is handed over: the matrix is built in its
    memory, so the caller must not use it again.

    Structural problems raise Trn1ParseError with the 1-based line number;
    orientation problems raise DiagonalNonzero/PairViolation.
    """
    if isinstance(text, str):
        # "replace" encodes each character as one byte, so an offset into
        # the buffer is an offset into text, where messages find what the
        # text had there.
        buf = bytearray(text, "ascii", "replace")
        decode = text.__getitem__
    else:
        buf = text if isinstance(text, bytearray) else bytearray(text)

        def decode(span: slice) -> str:
            return buf[span].decode("ascii", "surrogateescape")
    if not buf:
        raise Trn1ParseError(1, "empty file")
    end = buf.find(b"\n")
    stop = len(buf) if end < 0 else end
    header = decode(slice(0, stop)).split()
    if len(header) != 2 or header[0] != "TRN1":
        raise Trn1ParseError(1, "expected header 'TRN1 <n>'")
    # The count is ASCII digits: int() would also take a sign, underscores
    # and other scripts' digits. Past the cap's width only the width is named.
    if not (header[1].isascii() and header[1].isdigit()):
        raise Trn1ParseError(1, f"vertex count {header[1]!r} is not an integer")
    digits = header[1].lstrip("0")
    if len(digits) > len(str(MAX_VERTICES)):
        raise TooLarge(f"a {len(digits)}-digit number", MAX_VERTICES)
    n = int(digits or "0")
    if n < 1:
        raise Trn1ParseError(1, f"vertex count must be >= 1, got {n}")
    check_order(n, MAX_VERTICES)  # before any row work: the rows alone would be n^2 bytes
    start = stop if end < 0 else stop + 1
    if len(buf) - start not in (n * (n + 1) - 1, n * (n + 1)):
        raise _trn1_error(buf, start, n, decode)
    # Row i's cells begin at start + i(n+1) and a '\n' follows them; the
    # last row's '\n' may be missing. Both checks read the buffer in place.
    cells = np.ndarray((n, n), np.uint8, buf, start, (n + 1, 1))
    newlines = np.frombuffer(buf, np.uint8, offset=start + n)[::n + 1]
    if not ((newlines == ord("\n")).all() and cells.min() >= ord("0") and cells.max() <= ord("1")):
        raise _trn1_error(buf, start, n, decode)
    # Slide the rows down into the first n^2 bytes as 0/1, block by block:
    # later blocks' cells lie after the bytes a block writes, so none is
    # overwritten before it is read, and numpy's copy of a block that
    # overlaps its own output is the only temporary.
    adj = np.ndarray((n, n), np.uint8, buf)
    for i in range(0, n, _BLOCK):
        np.subtract(cells[i:i + _BLOCK], ord("0"), out=adj[i:i + _BLOCK])
    T = Tournament(adj, _trusted=True)
    _check_invariants(T.adj)
    return T


def _trn1_error(buf: bytearray, start: int, n: int, decode) -> Trn1ParseError:
    """The first error in file order of TRN1 rows from ``start`` on that
    are not n rows of n cells; found by a scan of the newlines."""
    body = np.frombuffer(buf, np.uint8, offset=start)
    newlines = np.flatnonzero(body == ord("\n"))
    rows = newlines.size + int(body.size > 0 and body[-1] != ord("\n"))
    if rows < n:
        return Trn1ParseError(rows + 2, f"expected {n} matrix rows, found {rows}")
    if rows > n:
        return Trn1ParseError(n + 2, "trailing garbage after matrix rows")
    ends = np.append(newlines, body.size)[:n]
    lengths = ends - np.append(0, ends[:-1] + 1)
    wrong = np.flatnonzero(lengths != n)
    good = int(wrong[0]) if wrong.size else n
    # Rows before the first one of the wrong length are checked cell by
    # cell first, so the first error in file order is the one reported.
    cells = np.ndarray((good, n), np.uint8, buf, start, (n + 1, 1))
    bad = np.flatnonzero((cells < ord("0")) | (cells > ord("1")))
    if bad.size:
        i, j = divmod(int(bad[0]), n)
        at = start + i * (n + 1) + j
        return Trn1ParseError(i + 2, f"invalid character {decode(slice(at, at + 1))!r} at column {j}")
    return Trn1ParseError(good + 2, f"row has {lengths[good]} characters, expected {n}")


def read_trn1(path) -> Tournament:
    # The file's bytes go into one buffer, which parse_trn1 turns into the
    # matrix in place. Line ends are read as text mode reads them.
    with open(path, "rb") as fh:
        buf = bytearray(os.fstat(fh.fileno()).st_size)
        del buf[fh.readinto(buf):]
        buf += fh.read()  # all of a pipe, whose size reads 0
    if b"\r" in buf:
        buf = buf.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    return parse_trn1(buf)


def write_trn1(T: Tournament, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_trn1(T))


def edge_count(T: Tournament, frm: Sequence[int], to: Sequence[int]) -> int:
    """Number of edges directed from ``frm`` into ``to`` (the parts may overlap).
    Both lists are read as VertexSubset reads its members."""
    a = np.array(_vertex_labels(T.n, frm), dtype=np.intp)
    b = np.array(_vertex_labels(T.n, to), dtype=np.intp)
    return int(T.adj[a][:, b].sum(dtype=np.int64))
