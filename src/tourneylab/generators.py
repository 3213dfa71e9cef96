"""Deterministic tournament families: regular, near-regular, transitive,
random, and the three extremal block constructions whose sampled
Hamiltonicity probabilities the estimator reproduces.

Every generator checks its integer parameters and its order (MAX_VERTICES)
before it allocates anything, the block families before they build parts.

Block layouts are contiguous: extremal generators place A first, then B,
then X (or the hub vertex), and expose the ranges so callers can build
partitions and cuts without re-deriving offsets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import MAX_VERTICES, Tournament, semidegrees
from .errors import BadParams, check_integer, check_order


def rotational_tournament(k: int) -> Tournament:
    """Circulant tournament on n = 2k+1 vertices: i -> j iff (j-i) mod n in 1..k."""
    k = check_integer("k", k, 1)
    n = 2 * k + 1
    check_order(n, MAX_VERTICES)
    # vertex 0's row twice over: row i of the matrix is row[n - i:2n - i]
    row = np.zeros(2 * n, dtype=np.uint8)
    row[1:k + 1] = row[n + 1:n + k + 1] = 1
    windows = np.lib.stride_tricks.sliding_window_view(row, n)
    return Tournament(windows[n:0:-1].copy(), _trusted=True)


def transitive_tournament(n: int) -> Tournament:
    """i -> j iff i < j; the unique acyclic tournament up to isomorphism."""
    n = check_integer("n", n, 1)
    check_order(n, MAX_VERTICES)
    # n zeros then n - 1 ones: row i of the matrix is step[n - 1 - i:2n - 1 - i]
    step = np.zeros(2 * n - 1, dtype=np.uint8)
    step[n:] = 1
    windows = np.lib.stride_tricks.sliding_window_view(step, n)
    return Tournament(windows[::-1].copy(), _trusted=True)


def random_tournament(n: int, seed: int) -> Tournament:
    """Each pair oriented by an independent fair coin; same seed, same matrix."""
    n = check_integer("n", n, 1)
    seed = check_integer("seed", seed, 0)
    check_order(n, MAX_VERTICES)
    rng = np.random.default_rng(seed)
    # one draw for all pairs, in row-major order over i < j: splitting it
    # would change numpy's buffered stream, and so the matrix
    bits = rng.integers(0, 2, size=n * (n - 1) // 2, dtype=np.uint8)
    adj = np.zeros((n, n), dtype=np.uint8)
    start = 0
    for i in range(n - 1):
        row = bits[start:start + n - 1 - i]
        adj[i, i + 1:] = row
        np.subtract(1, row, out=adj[i + 1:, i])
        start += n - 1 - i
    return Tournament(adj, _trusted=True)


def near_regular_tournament(m: int) -> Tournament:
    """Tournament on m vertices with min_semidegree = floor((m-1)/2).

    Odd m: rotational. Even m: rotational on m-1 vertices plus one apex
    with out-edges to the first ceil((m-1)/2) of them and in-edges from
    the rest.
    """
    m = check_integer("m", m, 1)
    check_order(m, MAX_VERTICES)
    if m <= 2:
        return transitive_tournament(m)
    if m % 2 == 1:
        return rotational_tournament((m - 1) // 2)
    base = rotational_tournament((m - 2) // 2).adj
    adj = np.zeros((m, m), dtype=np.uint8)
    adj[: m - 1, : m - 1] = base
    half = (m - 1 + 1) // 2  # ceil((m-1)/2)
    adj[m - 1, :half] = 1
    adj[half : m - 1, m - 1] = 1
    return Tournament(adj, _trusted=True)


def _blocks(parts: list[Tournament], arcs: list[tuple[int, int]]) -> Tournament:
    """Block tournament: the parts on the diagonal in order, and for each
    (i, j) in ``arcs`` every vertex of part i beats every vertex of part j.
    ``arcs`` must hold each pair of parts once, in one direction."""
    ends = np.cumsum([0] + [part.n for part in parts])
    adj = np.zeros((ends[-1], ends[-1]), dtype=np.uint8)
    for i, part in enumerate(parts):
        adj[ends[i]:ends[i + 1], ends[i]:ends[i + 1]] = part.adj
    for i, j in arcs:
        adj[ends[i]:ends[i + 1], ends[j]:ends[j + 1]] = 1
    return Tournament(adj, _trusted=True)


def extremal_theorem1_even(k: int) -> Tournament:
    """n = 4k+2 block construction A -> B with k-regular halves.

    Every vertex has min semidegree exactly k, and e(B, A) = 0, so an
    induced subtournament meeting both halves is never strongly connected.
    """
    k = check_integer("k", k, 1)
    check_order(4 * k + 2, MAX_VERTICES)
    half = rotational_tournament(k)
    return _blocks([half, half], [(0, 1)])


def extremal_theorem1_odd(k: int) -> Tournament:
    """n = 4k+3 construction A -> B -> v -> A with k-regular halves.

    The hub v (last vertex) is the unique route from B back to A, so a
    subset meeting both halves induces a Hamiltonian tournament iff it
    contains v.
    """
    k = check_integer("k", k, 1)
    check_order(4 * k + 3, MAX_VERTICES)
    half = rotational_tournament(k)
    T = _blocks([half, half, transitive_tournament(1)], [(0, 1), (1, 2), (2, 0)])
    assert semidegrees(T).min_semidegree == k + 1
    return T


def extremal_main_blocks(n: int, t: int) -> tuple[range, range, range]:
    """Vertex ranges (A, B, X) of extremal_main's layout."""
    t = check_integer("t", t, 1)
    n = check_integer("n", n, t + 6)
    a = (n - t) // 2
    b = (n - t) - a
    return range(0, a), range(a, a + b), range(a + b, n)


def extremal_main(n: int, t: int) -> Tournament:
    """Cyclic block construction A -> B -> X -> A with |X| = t.

    Near-regular tournaments fill A and B, a transitive one fills X, and
    min_semidegree >= floor((n-t-2)/4) + t (attained by A's in-degrees).
    Every B -> A edge is absent.
    """
    ra, rb, rx = extremal_main_blocks(n, t)
    check_order(n, MAX_VERTICES)
    parts = [near_regular_tournament(len(ra)), near_regular_tournament(len(rb)),
             transitive_tournament(len(rx))]
    return _blocks(parts, [(0, 1), (1, 2), (2, 0)])


# family -> (builder, its integer parameters in call order); random also takes the seed
_BUILDERS = {
    "rotational": (rotational_tournament, ("k",)),
    "near-regular": (near_regular_tournament, ("m",)),
    "transitive": (transitive_tournament, ("n",)),
    "random": (random_tournament, ("n",)),
    "theorem1-even": (extremal_theorem1_even, ("k",)),
    "theorem1-odd": (extremal_theorem1_odd, ("k",)),
    "main": (extremal_main, ("n", "t")),
}
FAMILIES = tuple(_BUILDERS)


@dataclass(frozen=True)
class ExtremalSpec:
    """Named generator family plus its parameters, as used by the CLI."""

    family: str
    params: dict = field(default_factory=dict)
    seed: int | None = None

    def build(self) -> Tournament:
        if self.family not in _BUILDERS:
            raise BadParams(f"unknown family {self.family!r}; choose from {FAMILIES}")
        builder, names = _BUILDERS[self.family]
        if set(self.params) != set(names):
            raise BadParams(f"family {self.family!r} takes exactly the parameters "
                            f"{names}, got {tuple(self.params)}")
        seed = (self.seed,) if self.family == "random" else ()
        return builder(*(self.params[name] for name in names), *seed)
