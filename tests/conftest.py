"""Shared independent oracles for the test suite.

These deliberately avoid the package's optimized code paths: matching by
exhaustive recursion, reachability by plain per-vertex BFS over
adjacency lists, the balanced cut by enumerating every split, the exact
size counts by Held–Karp on every induced subtournament, and a
non-Hamiltonian verdict by a dominating split, so they can referee the
fast implementations. The test inputs and the per-p score
kernel count that several modules share live here too.
"""

from __future__ import annotations

import re
from collections import deque
from itertools import combinations

import numpy as np
import pytest

from tourneylab import (Tournament, VertexSubset, brute_force_hamiltonian,
                        hamiltonian_batch, induced)
from tourneylab.core import MAX_VERTICES
from tourneylab.errors import (DiagonalNonzero, PairViolation, TooLarge,
                               Trn1ParseError)
from tourneylab.sampling import BLOCK_TRIALS, _block_uniforms, _word_threshold


def brute_force_max_matching(edges: list[tuple[int, int]]) -> int:
    """Maximum matching size by exhaustive assignment of left vertices."""
    lefts = sorted({u for u, _ in edges})
    nbrs = {u: [v for x, v in edges if x == u] for u in lefts}

    def go(i: int, used: frozenset) -> int:
        if i == len(lefts):
            return 0
        best = go(i + 1, used)  # leave lefts[i] unmatched
        for v in nbrs[lefts[i]]:
            if v not in used:
                best = max(best, 1 + go(i + 1, used | {v}))
        return best

    return go(0, frozenset())


def brute_force_balanced_cut(T: Tournament) -> float:
    """Max of e(A,B)/(|A||B|) over every split with |A| in {n//2, n - n//2},
    counting the A->B edges of each split directly."""
    n = T.n
    best = 0.0
    for size in {n // 2, n - n // 2}:
        for a in combinations(range(n), size):
            b = [v for v in range(n) if v not in a]
            e = sum(int(T.adj[u, v]) for u in a for v in b)
            best = max(best, e / (size * (n - size)))
    return best


def brute_force_size_counts(T: Tournament) -> np.ndarray:
    """counts[s] = number of s-element subsets S whose induced tournament
    has a Hamilton cycle, by Held–Karp on each T[S] (none below 3 vertices)."""
    counts = np.zeros(T.n + 1, dtype=np.int64)
    for size in range(3, T.n + 1):
        for S in combinations(range(T.n), size):
            counts[size] += brute_force_hamiltonian(induced(T, VertexSubset(T.n, S)))
    return counts


def bfs_reachable(T: Tournament, start: int, allowed: set[int]) -> set[int]:
    """Plain queue BFS inside the ``allowed`` vertex set."""
    seen = {start}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for v in range(T.n):
            if v in allowed and v not in seen and T.adj[u, v]:
                seen.add(v)
                queue.append(v)
    return seen


def strongly_connected_by_bfs(T: Tournament) -> bool:
    """Mutual reachability of every ordered pair, the slow way."""
    everyone = set(range(T.n))
    return all(bfs_reachable(T, v, everyone) == everyone for v in range(T.n))


def splits(T: Tournament, S: VertexSubset, C) -> bool:
    """True iff C is a nonempty proper subset of S and every vertex of C
    beats every vertex of S - C, read from T.adj alone: the witness that
    T[S] is not strong, so not Hamiltonian."""
    inside, members = set(C), set(S.members)
    rest = sorted(members - inside)
    return bool(inside) and inside < members and bool(T.adj[np.ix_(sorted(inside), rest)].all())


def tournament_from_bits(n: int, code: int) -> Tournament:
    """Orient the pairs (i, j), i < j, by the bits of ``code``."""
    adj = np.zeros((n, n), dtype=np.uint8)
    bit = 0
    for i in range(n):
        for j in range(i + 1, n):
            if code >> bit & 1:
                adj[i, j] = 1
            else:
                adj[j, i] = 1
            bit += 1
    return Tournament(adj, _trusted=True)


def reference_trn1(text: str) -> np.ndarray:
    """The 0/1 matrix of TRN1 text by splitting it into lines and checking
    them one character at a time. The first error in file order is raised
    as the package raises it: structure and cells first, then the diagonal,
    then the pairs in lexicographic order."""
    if not text:
        raise Trn1ParseError(1, "empty file")
    header = text.split("\n", 1)[0].split()
    if len(header) != 2 or header[0] != "TRN1":
        raise Trn1ParseError(1, "expected header 'TRN1 <n>'")
    if not re.fullmatch("[0-9]+", header[1]):
        raise Trn1ParseError(1, f"vertex count {header[1]!r} is not an integer")
    digits = header[1].lstrip("0")
    if len(digits) > 5:
        raise TooLarge(f"a {len(digits)}-digit number", MAX_VERTICES)
    n = int(digits or "0")
    if n < 1:
        raise Trn1ParseError(1, f"vertex count must be >= 1, got {n}")
    if n > MAX_VERTICES:
        raise TooLarge(n, MAX_VERTICES)
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    if len(lines) < n + 1:
        raise Trn1ParseError(len(lines) + 1, f"expected {n} matrix rows, found {len(lines) - 1}")
    if len(lines) > n + 1:
        raise Trn1ParseError(n + 2, "trailing garbage after matrix rows")
    for i, row in enumerate(lines[1:]):
        if len(row) != n:
            raise Trn1ParseError(i + 2, f"row has {len(row)} characters, expected {n}")
        for j, c in enumerate(row):
            if c not in "01":
                raise Trn1ParseError(i + 2, f"invalid character {c!r} at column {j}")
    adj = np.array([[int(c) for c in row] for row in lines[1:]], dtype=np.uint8)
    for i in range(n):
        if adj[i, i]:
            raise DiagonalNonzero(i)
    for i in range(n):
        for j in range(i + 1, n):
            if adj[i, j] + adj[j, i] != 1:
                raise PairViolation(i, j)
    return adj


def path_tournament(n: int) -> Tournament:
    """i -> i+1, and j -> i for j >= i + 2: the strong subsets are the runs
    of consecutive vertices, and a closure from a run's lowest member takes
    one BFS level per vertex."""
    adj = np.tril(np.ones((n, n), dtype=np.uint8), -2)
    adj[np.arange(n - 1), np.arange(1, n)] = 1
    return Tournament(adj)


def kernel_count(T: Tournament, p: float, trials: int, master_seed: int) -> int:
    """The success count of the score kernel run on T for every row, with
    every block drawn again for this p alone."""
    successes = 0
    for start in range(0, trials, BLOCK_TRIALS):
        rows = min(BLOCK_TRIALS, trials - start)
        words = _block_uniforms(master_seed, start // BLOCK_TRIALS, rows, T.n)
        successes += int(hamiltonian_batch(T, words < _word_threshold(p)).sum())
    return successes


def planted_blocks(seed: int) -> Tournament:
    """Strong random blocks of sizes 1 or >= 3 on a transitive skeleton
    (every edge between blocks points from the earlier block to the later),
    with the vertex labels permuted, on at most 299 vertices. Each block of
    size >= 3 gets a forced Hamilton cycle, so the blocks are exactly the
    strong components."""
    rng = np.random.default_rng(seed)
    sizes: list[int] = []
    while sum(sizes) < 260 and (len(sizes) < 2 or rng.random() > 0.2):
        sizes.append(int(rng.choice([1, 3, 4, 7, 12, 25, 40])))
    n = sum(sizes)
    adj = np.triu(np.ones((n, n), dtype=np.uint8), 1)
    start = 0
    for size in sizes:
        block = slice(start, start + size)
        if size >= 3:
            upper = np.triu(rng.integers(0, 2, (size, size), dtype=np.uint8), 1)
            inner = upper + np.tril(1 - upper.T, -1)
            cycle = np.arange(size)
            inner[cycle, np.roll(cycle, -1)] = 1
            inner[np.roll(cycle, -1), cycle] = 0
            adj[block, block] = inner
        start += size
    perm = rng.permutation(n)
    return Tournament(adj[np.ix_(perm, perm)])


@pytest.fixture(scope="session")
def triangle() -> Tournament:
    return Tournament(np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=np.uint8))
