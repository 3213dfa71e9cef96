"""Hamiltonicity decisions, certificates, and the independent brute-force oracle.

A tournament is Hamiltonian iff it is strongly connected and has at least
3 vertices (Moon/Camion). Three distinct decision routes live here on
purpose:

* ``is_hamiltonian`` — forward+backward bitset BFS from one vertex
  (``sampling.hamiltonian_subset_size_counts`` runs the same closure for
  all 2^n vertex subsets at once, as numpy sweeps over int32 bitsets);
* ``brute_force_hamiltonian`` — Held–Karp dynamic programming over
  (visited-subset, endpoint) states, the trust anchor for small n;
* ``hamiltonian_batch`` — vectorized score-sequence test (a tournament is
  strong iff every proper prefix sum of its sorted score sequence strictly
  exceeds k(k-1)/2, Moon/Landau), used by the Monte Carlo estimator. One
  float32 product with adj^T - n*I shifts the members' scores below every
  non-member's value, and a row is strong iff the first k at which the
  sorted int32 prefix sums meet C(k,2) - n*k is k = |S| (int64 only once
  n^2 >= 2^31); ``scc`` cuts the sorted score sequence where that prefix
  sum is equal.

They are cross-checked against each other in the test suite.
``hamilton_cycle`` builds the certificate: a Hamilton path by binary
insertion (Rédei), closed into a cycle and grown by absorbing the rest of
the path (Camion). Certificates are validated edge-by-edge, so the
construction never has to be trusted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._bits import iter_bits
from .core import Tournament, VertexSubset
from .errors import InvalidCertificate, TooLarge

BRUTE_FORCE_MAX_N = 20


@dataclass(frozen=True)
class HamiltonCertificate:
    """Cyclic vertex sequence claimed to be a directed Hamilton cycle."""

    order: tuple[int, ...]

    def translate(self, labels: tuple[int, ...]) -> "HamiltonCertificate":
        """Map an induced-subtournament certificate back to parent labels."""
        return HamiltonCertificate(tuple(labels[v] for v in self.order))

    def to_text(self) -> str:
        return ",".join(str(v) for v in self.order)

    @classmethod
    def from_text(cls, text: str) -> "HamiltonCertificate":
        parts = [p.strip() for p in text.strip().split(",") if p.strip() != ""]
        try:
            return cls(tuple(int(p) for p in parts))
        except ValueError:
            raise InvalidCertificate(0, "certificate token is not a vertex index") from None


def check_certificate(T: Tournament, cert: HamiltonCertificate) -> None:
    """Raise InvalidCertificate at the first failing position, else return.

    Position i refers to the cyclic edge order[i] -> order[(i+1) % n].
    """
    order = cert.order
    n = T.n
    if len(order) != n or n < 3:
        raise InvalidCertificate(
            0, f"certificate has {len(order)} vertices, tournament has {n} (need >= 3)")
    if sorted(order) != list(range(n)):
        raise InvalidCertificate(0, "certificate is not a permutation of 0..n-1")
    for i in range(n):
        u, v = order[i], order[(i + 1) % n]
        if not T.adj[u, v]:
            raise InvalidCertificate(i, f"edge {u}->{v} at position {i} is reversed")


def is_valid_certificate(T: Tournament, cert: HamiltonCertificate) -> bool:
    try:
        check_certificate(T, cert)
    except InvalidCertificate:
        return False
    return True


def reach_on_mask(rows: list[int], mask: int, start_mask: int) -> int:
    """Bitset BFS: vertices of ``mask`` reachable from the ``start_mask`` set
    (which is included) along the ``rows`` adjacency bitsets."""
    reached = start_mask & mask
    frontier = reached
    while frontier:
        nxt = 0
        for v in iter_bits(frontier):
            nxt |= rows[v]
        frontier = nxt & mask & ~reached
        reached |= frontier
    return reached


def strong_on_mask(out_rows: list[int], in_rows: list[int], mask: int) -> bool:
    """Is the sub-digraph induced on the ``mask`` vertices strongly connected?

    Strong connectivity holds iff every vertex is reachable from one fixed
    vertex and that vertex is reachable from every vertex, hence one
    forward and one backward BFS suffice. Empty masks count as strong.
    """
    if mask == 0:
        return True
    start = mask & -mask
    if reach_on_mask(out_rows, mask, start) != mask:
        return False
    return reach_on_mask(in_rows, mask, start) == mask


def strongly_connected(T: Tournament) -> bool:
    return strong_on_mask(T.out_masks, T.in_masks, (1 << T.n) - 1)


def is_hamiltonian(T: Tournament) -> bool:
    """True iff n >= 3 and T is strongly connected.

    Tournaments with n <= 2 are non-Hamiltonian by convention: a directed
    cycle in a digon-free digraph needs length >= 3.
    """
    return T.n >= 3 and strongly_connected(T)


@dataclass(frozen=True)
class SccDecomposition:
    """Strongly connected components with the condensation's (unique) order.

    Component ids are numbered source-first: every edge between distinct
    components goes from the lower id to the higher one, so
    ``topological_order`` is always ``(0, 1, ..., component_count - 1)``.
    """

    component_of: tuple[int, ...]
    component_count: int
    topological_order: tuple[int, ...]


def scc(T: Tournament) -> SccDecomposition:
    """Components from the score sequence (Landau 1953), source-first.

    A set of k vertices dominates the other n-k iff its scores sum to
    k(k-1)/2 + k(n-k), the most any k vertices can score; such a set is
    exactly the k highest scorers. The components are therefore the runs
    of the descending score order between those tie points.
    """
    n = T.n
    scores = T.out_degrees()
    order = np.argsort(-scores, kind="stable")
    k = np.arange(1, n + 1, dtype=np.int64)
    cut = np.cumsum(scores[order]) == k * (k - 1) // 2 + k * (n - k)
    component_of = np.empty(n, dtype=np.int64)
    component_of[order] = np.cumsum(cut) - cut
    count = int(cut.sum())
    return SccDecomposition(tuple(component_of.tolist()), count, tuple(range(count)))


def hamilton_cycle(T: Tournament) -> HamiltonCertificate | None:
    """Explicit Hamilton cycle, or None when T is not Hamiltonian.

    Rédei (1934): binary insertion builds a Hamilton path, each vertex
    going between a path vertex that beats it and one it beats. The path
    closes into a cycle at the last vertex that beats path[0]. Camion
    (1959): the rest of the path is absorbed in order. A vertex with an
    edge into the cycle goes in at the first flip c_i -> w -> c_{i+1}; a
    vertex the whole cycle beats goes in with the stretch of path up to
    the first vertex that has an edge into the cycle, just before that
    vertex's first out-neighbour on the cycle. The construction stops
    early exactly when T is not strong: with no closing vertex, path[0]
    is a source; with no edge from the rest of the path into the cycle,
    the cycle dominates it. The output always passes check_certificate.
    """
    n = T.n
    if n < 3:
        return None
    adj = T.adj
    path = [0]
    for v in range(1, n):
        # path[lo] -> v -> path[hi], where -1 and len(path) are open ends
        lo, hi = -1, len(path)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if adj[path[mid], v]:
                lo = mid
            else:
                hi = mid
        path.insert(hi, v)
    order = np.array(path)
    closers = np.flatnonzero(np.take(adj[:, order[0]], order))
    if closers.size == 0:
        return None
    # order[:k] is the cycle and order[k:] the path still outside it.
    # order[0] beats every vertex outside, because the closing vertex is
    # the last one that beats it.
    k = int(closers[-1]) + 1
    while k < n:
        m = k
        while (into := np.take(adj[:, order[m]], order[:k])).all():
            m += 1
            if m == n:
                return None
        # into[0] = 1, so the first 0 follows a 1. Alone, order[m] goes in
        # at that flip; a stretch goes in before that out-neighbour of
        # order[m], after a cycle vertex, which beats order[k] as all do.
        pos = int(np.argmin(into))
        order[pos:m + 1] = np.concatenate((order[k:m + 1], order[pos:k]))
        k = m + 1
    cert = HamiltonCertificate(tuple(order.tolist()))
    check_certificate(T, cert)
    return cert


_LAYER_CACHE: dict[int, list[np.ndarray]] = {}


def _odd_mask_layers(n: int) -> list[np.ndarray]:
    """Masks containing bit 0, grouped by popcount; layers[k] has popcount k."""
    layers = _LAYER_CACHE.get(n)
    if layers is None:
        masks = np.arange(1, 1 << n, 2, dtype=np.int64)
        pop = np.bitwise_count(masks)
        layers = [masks[pop == k] for k in range(n + 1)]
        _LAYER_CACHE[n] = layers
    return layers


def brute_force_hamiltonian(T: Tournament) -> bool:
    """Exact Hamiltonicity by Held–Karp dynamic programming (n <= 20).

    f[mask] is the bitset of endpoints e reachable by a directed path from
    vertex 0 covering exactly ``mask``; a Hamilton cycle exists iff some
    full-cover endpoint has an edge back to 0. Layers are processed with
    vectorized gathers so the n * 2^n state space stays cheap in Python.
    """
    n = T.n
    if n > BRUTE_FORCE_MAX_N:
        raise TooLarge(n, BRUTE_FORCE_MAX_N)
    if n < 3:
        return False
    in_masks = np.array(T.in_masks, dtype=np.int64)
    f = np.zeros(1 << n, dtype=np.int64)
    f[1] = 1
    layers = _odd_mask_layers(n)
    for k in range(1, n):
        layer = layers[k]
        fk = f[layer]
        live = fk != 0
        if not live.any():
            continue
        layer = layer[live]
        fk = fk[live]
        for v in range(1, n):
            bit = 1 << v
            sel = ((layer & bit) == 0) & ((fk & in_masks[v]) != 0)
            if sel.any():
                targets = layer[sel] | bit
                f[targets] |= bit
    closing = int(f[(1 << n) - 1]) & T.in_masks[0]
    return closing != 0


def _prefix_dtype(n: int) -> np.dtype:
    """Integer dtype of the shifted prefix sums: every prefix lies in
    [-n^2, 0], so int32 holds it unless n^2 >= 2^31 (n > 46340)."""
    return np.dtype(np.int64 if n * n >= 1 << 31 else np.int32)


def hamiltonian_batch(T: Tournament, inclusion: np.ndarray) -> np.ndarray:
    """Per-row Hamiltonicity of T[S] for a batch of subsets of V(T).

    ``inclusion`` is a (batch, n) boolean matrix; row r encodes subset
    S_r. Returns a boolean vector: T[S_r] Hamiltonian, with |S| <= 2
    counting as non-Hamiltonian.

    Kernel: one float32 product with M = adj^T - n*I gives each member v
    of S its score inside S minus n (in [-n, -1]) and each non-member its
    out-degree into S (>= 0), so after an ascending sort the members come
    first, in score order, and no sentinel is needed. Compare the prefix
    sums with C(k,2) - n*k for k = 1..n. Up to k = |S| this is Landau's
    test: the k lowest scores sum to at least C(k,2), with equality at
    k = |S|, and equality at a smaller k means those k members have all
    their out-edges among themselves. Past |S| every step adds n - k + 1
    or more to the gap, so no tie follows. T[S] is therefore strong iff
    its first tie is at k = |S|.

    Exact: |score - n| <= n <= 2^16 is far inside float32's 2^24, and the
    prefixes lie in [-n^2, 0], int32 unless n^2 >= 2^31 (_prefix_dtype).
    """
    if inclusion.ndim != 2 or inclusion.shape[1] != T.n:
        raise ValueError(f"inclusion must be (batch, {T.n}), got {inclusion.shape}")
    n = T.n
    # one n x n copy per call, small beside the (batch, n) x (n, n) product
    shifted = T.adj.T.astype(np.float32)
    np.fill_diagonal(shifted, -n)
    dtype = _prefix_dtype(n)
    prefix = (inclusion.astype(np.float32) @ shifted).astype(dtype)
    prefix.sort(axis=1)
    np.cumsum(prefix, axis=1, out=prefix)
    k = np.arange(1, n + 1, dtype=dtype)
    first_tie = (prefix == k * (k - 1) // 2 - n * k).argmax(axis=1) + 1
    sizes = inclusion.sum(axis=1)
    return (first_tie == sizes) & (sizes >= 3)


def hamiltonian_on_subset(T: Tournament, S: VertexSubset) -> bool:
    """is_hamiltonian(T[S]) without materializing the induced tournament."""
    if len(S) < 3:
        return False
    return strong_on_mask(T.out_masks, T.in_masks, S.mask)
