"""Deterministic tournament families: regular, near-regular, transitive,
random, and the three extremal block constructions whose sampled
Hamiltonicity probabilities the estimator reproduces.

Every generator checks its order against MAX_VERTICES before it allocates
anything, the block families before they build their parts.

Block layouts are contiguous: extremal generators place A first, then B,
then X (or the hub vertex), and expose the ranges so callers can build
partitions and cuts without re-deriving offsets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import MAX_VERTICES, Tournament, semidegrees
from .errors import BadParams, TooLarge, check_integer


def _check_order(n: int) -> None:
    """Raise TooLarge for an order past MAX_VERTICES, before any n x n array."""
    if n > MAX_VERTICES:
        raise TooLarge(n, MAX_VERTICES)


def rotational_tournament(k: int) -> Tournament:
    """Circulant tournament on n = 2k+1 vertices: i -> j iff (j-i) mod n in 1..k."""
    if k < 1:
        raise BadParams(f"rotational tournament needs k >= 1, got {k}")
    n = 2 * k + 1
    _check_order(n)
    # vertex 0's row twice over: row i of the matrix is row[n - i:2n - i]
    row = np.zeros(2 * n, dtype=np.uint8)
    row[1:k + 1] = row[n + 1:n + k + 1] = 1
    windows = np.lib.stride_tricks.sliding_window_view(row, n)
    return Tournament(windows[n:0:-1].copy(), _trusted=True)


def transitive_tournament(n: int) -> Tournament:
    """i -> j iff i < j; the unique acyclic tournament up to isomorphism."""
    if n < 1:
        raise BadParams(f"transitive tournament needs n >= 1, got {n}")
    _check_order(n)
    return Tournament(np.triu(np.ones((n, n), dtype=np.uint8), 1), _trusted=True)


def random_tournament(n: int, seed: int) -> Tournament:
    """Each pair oriented by an independent fair coin; same seed, same matrix."""
    if n < 1:
        raise BadParams(f"random tournament needs n >= 1, got {n}")
    _check_order(n)
    rng = np.random.default_rng(seed)
    adj = np.zeros((n, n), dtype=np.uint8)
    iu = np.triu_indices(n, 1)
    bits = rng.integers(0, 2, size=iu[0].size, dtype=np.uint8)
    adj[iu] = bits
    adj.T[iu] = 1 - bits
    return Tournament(adj, _trusted=True)


def near_regular_tournament(m: int) -> Tournament:
    """Tournament on m vertices with min_semidegree = floor((m-1)/2).

    Odd m: rotational. Even m: rotational on m-1 vertices plus one apex
    with out-edges to the first ceil((m-1)/2) of them and in-edges from
    the rest.
    """
    if m < 1:
        raise BadParams(f"near-regular tournament needs m >= 1, got {m}")
    _check_order(m)
    if m == 1:
        return Tournament(np.zeros((1, 1), dtype=np.uint8), _trusted=True)
    if m == 2:
        return transitive_tournament(2)
    if m % 2 == 1:
        return rotational_tournament((m - 1) // 2)
    base = rotational_tournament((m - 2) // 2).adj
    adj = np.zeros((m, m), dtype=np.uint8)
    adj[: m - 1, : m - 1] = base
    half = (m - 1 + 1) // 2  # ceil((m-1)/2)
    adj[m - 1, :half] = 1
    adj[half : m - 1, m - 1] = 1
    return Tournament(adj, _trusted=True)


def extremal_theorem1_even(k: int) -> Tournament:
    """n = 4k+2 block construction A -> B with k-regular halves.

    Every vertex has min semidegree exactly k, and e(B, A) = 0, so an
    induced subtournament meeting both halves is never strongly connected.
    """
    if k < 1:
        raise BadParams(f"even construction needs k >= 1, got {k}")
    h = 2 * k + 1
    _check_order(2 * h)
    half = rotational_tournament(k).adj
    adj = np.zeros((2 * h, 2 * h), dtype=np.uint8)
    adj[:h, :h] = half
    adj[h:, h:] = half
    adj[:h, h:] = 1
    return Tournament(adj, _trusted=True)


def extremal_theorem1_odd(k: int) -> Tournament:
    """n = 4k+3 construction A -> B -> v -> A with k-regular halves.

    The hub v (last vertex) is the unique route from B back to A, so a
    subset meeting both halves induces a Hamiltonian tournament iff it
    contains v.
    """
    if k < 1:
        raise BadParams(f"odd construction needs k >= 1, got {k}")
    h = 2 * k + 1
    n = 2 * h + 1
    _check_order(n)
    half = rotational_tournament(k).adj
    adj = np.zeros((n, n), dtype=np.uint8)
    adj[:h, :h] = half
    adj[h : 2 * h, h : 2 * h] = half
    adj[:h, h : 2 * h] = 1  # A -> B
    adj[h : 2 * h, n - 1] = 1  # B -> v
    adj[n - 1, :h] = 1  # v -> A
    T = Tournament(adj, _trusted=True)
    assert semidegrees(T).min_semidegree == k + 1
    return T


def extremal_main_blocks(n: int, t: int) -> tuple[range, range, range]:
    """Vertex ranges (A, B, X) of extremal_main's layout."""
    if t < 1 or n - t < 6:
        raise BadParams(f"main construction needs t >= 1 and n - t >= 6, got n={n}, t={t}")
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
    _check_order(n)
    adj = np.zeros((n, n), dtype=np.uint8)
    adj[np.ix_(ra, ra)] = near_regular_tournament(len(ra)).adj
    adj[np.ix_(rb, rb)] = near_regular_tournament(len(rb)).adj
    adj[np.ix_(rx, rx)] = transitive_tournament(len(rx)).adj
    adj[np.ix_(ra, rb)] = 1
    adj[np.ix_(rb, rx)] = 1
    adj[np.ix_(rx, ra)] = 1
    return Tournament(adj, _trusted=True)


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
        args = [self.params[name] for name in names]
        for name, value in zip(names, args):
            check_integer(name, value)
        if self.family == "random":
            check_integer("random family's seed", self.seed, 0)
            args.append(self.seed)
        return builder(*args)
