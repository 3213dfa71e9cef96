"""Hamiltonicity decisions, certificates, and the independent brute-force oracle.

A tournament is Hamiltonian iff it is strongly connected and has at least
3 vertices (Moon/Camion). Three distinct decision routes live here on
purpose:

* ``is_hamiltonian`` — forward+backward bitset BFS from one vertex
  (``sampling.hamiltonian_subset_size_counts`` runs the same closure at
  once on every candidate source component, the strong sets with a
  common out-neighbour, and ``sampling._strong_masks`` on all 2^n
  subsets);
* ``brute_force_hamiltonian`` — Held–Karp dynamic programming over
  (visited-subset, endpoint) states, the trust anchor for small n;
* ``hamiltonian_batch`` — vectorized score-sequence test (a tournament is
  strong iff every proper prefix sum of its sorted score sequence strictly
  exceeds k(k-1)/2, Moon/Landau), used by the Monte Carlo estimator; its
  docstring gives the kernel, and ``sampling.estimate_sweep``'s the rows
  the sweep decides without it. ``scc`` reads the same score order
  through ``_top_scorers``.

``_module_partition`` splits V into modules (strong components, or the
maximal modules of a strong T), and the estimator runs the score kernel
on the quotient with one vertex per part, and on a part alone for a
subset inside it. That is the same kernel on a smaller matrix, not a
fourth route.

They are cross-checked against each other in the test suite.
``hamilton_cycle`` builds the certificate: a Hamilton path by binary
insertion (Rédei), closed into a cycle and grown by absorbing the rest of
the path (Camion). Certificates are validated edge-by-edge, so the
construction never has to be trusted.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .core import (Tournament, VertexSubset, _check_entries, _check_universe,
                   complement_rows, induced, iter_bits, rows_to_masks)
from .errors import InvalidCertificate, check_order

BRUTE_FORCE_MAX_N = 20
_HK_CHUNK = 4096  # masks per Held–Karp gather; bounds its (chunk, n) temporaries


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
        """Comma-separated vertex indices: each token, stripped of whitespace,
        must be non-empty ASCII decimal digits (no sign, no underscore)."""
        tokens = [token.strip() for token in text.split(",")]
        try:
            if all(token.isascii() and token.isdigit() for token in tokens):
                return cls(tuple(int(token) for token in tokens))
        except ValueError:  # a token longer than int() converts
            pass
        raise InvalidCertificate(0, "certificate token is not a vertex index")


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


def strongly_connected(T: Tournament) -> bool:
    """T is strong iff every vertex is reachable from vertex 0 and vertex 0
    from every vertex: one forward and one backward BFS, the backward one
    on the in-bitsets N-(v) = V - N+(v) - {v} of the same read of the rows."""
    out, full = rows_to_masks(T.adj), (1 << T.n) - 1
    return (reach_on_mask(out, full, 1) == full
            and reach_on_mask(complement_rows(out), full, 1) == full)


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


def _top_scorers(T: Tournament) -> tuple[np.ndarray, np.ndarray]:
    """(order, e_top): the vertices by descending score, ties to the lower
    label, and e_top[k - 1] = the number of edges from the k highest
    scorers to the other n - k.

    Each pair among k vertices carries one edge, so k vertices send out
    their score sum minus k(k-1)/2, and no k vertices send out more than
    the k highest scorers (Landau 1953).
    """
    scores = T.out_degrees()
    order = np.argsort(-scores, kind="stable")
    k = np.arange(1, T.n + 1, dtype=np.int64)
    return order, np.cumsum(scores[order]) - k * (k - 1) // 2


def scc(T: Tournament) -> SccDecomposition:
    """Components from the score sequence (Landau 1953), source-first.

    A set of k vertices dominates the other n-k iff it sends them all
    k(n-k) edges, and only the k highest scorers can (_top_scorers). The
    components are therefore the runs of the descending score order
    between the k where e_top = k(n-k).
    """
    n = T.n
    order, e_top = _top_scorers(T)
    k = np.arange(1, n + 1, dtype=np.int64)
    cut = e_top == k * (n - k)
    component_of = np.empty(n, dtype=np.int64)
    component_of[order] = np.cumsum(cut) - cut
    count = int(cut.sum())
    return SccDecomposition(tuple(component_of.tolist()), count, tuple(range(count)))


def _module_partition(T: Tournament) -> np.ndarray:
    """One label per vertex, the parts numbered by their lowest vertex;
    every part is a module, a set that each outside vertex beats entirely
    or loses to entirely.

    When T is not strong the parts are its strong components, so the
    quotient Q (one vertex per part) is transitive. When T is strong with
    n >= 3 they are its maximal modules (_maximal_modules), which
    partition V with a prime Q. If S meets two or more parts, T[S] is
    strong iff Q on the parts it meets is: a path of Q lifts to T[S], and
    a split of Q into a dominating set and the rest splits T[S].
    """
    components = scc(T)
    if components.component_count > 1 or T.n < 3:
        labels = np.array(components.component_of)
    else:
        labels = _maximal_modules(T)
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(len(first))
    return rank[inverse]


def _maximal_modules(T: Tournament) -> np.ndarray:
    """Labels of the maximal modules of a strong T with n >= 3.

    The maximal modules avoiding vertex 0 are the coarsest partition of
    V - {0} into modules. Refinement finds it from V - {0}: a part whose
    members agree on every outside vertex but some pivots is split by
    their rows on the pivots, and each piece is then split in turn by its
    former siblings, the only outside vertices it has not been split by.
    A part no pivot splits is a module. No module avoiding 0 is ever
    split, since its members agree on every vertex outside it. Two
    vertices meet as part and pivot only at the split that separates
    them, so all the keys together hold fewer than n^2 bits.

    The maximal module M(0) holding 0 is 0 plus the parts Y whose smallest
    module holding 0 and Y is not V. That module is 0 plus the parts Y
    reaches in the forcing digraph F on the parts, where Z forces Y when Y
    has an edge each way to {0, Z}: 0 -> Y -> Z or Z -> Y -> 0. So the
    parts outside M(0), which reach every part, form the source component
    of F; it is the one there, as Q is prime and M(0) != V.
    """
    adj = T.adj
    n = T.n
    labels = np.zeros(n, dtype=np.intp)
    count = 1
    work = [(np.arange(1, n), np.zeros(1, dtype=np.intp))]  # (part, pivots)
    while work:
        part, pivots = work.pop()
        keys = np.packbits(adj[np.ix_(part, pivots)], axis=1)
        keys = keys.view(np.dtype((np.void, keys.shape[1]))).ravel()
        order = np.argsort(keys, kind="stable")
        keys, part = keys[order], part[order]
        cuts = [0, *(np.flatnonzero(keys[1:] != keys[:-1]) + 1).tolist(), len(part)]
        for lo, hi in zip(cuts, cuts[1:]):
            if hi - lo == 1 or len(cuts) == 2:  # a single vertex, or a part no pivot splits
                labels[part[lo:hi]] = count
                count += 1
            else:
                work.append((part[lo:hi], np.concatenate((part[:lo], part[hi:]))))
    _, reps = np.unique(labels, return_index=True)
    out = rows_to_masks(adj[np.ix_(reps[1:], reps[1:])])
    inn = complement_rows(out)
    beaten = rows_to_masks(adj[:1, reps[1:]])[0]  # the parts 0 beats
    forces = [i & beaten | m & ~beaten for m, i in zip(out, inn)]
    forced_by = [m if beaten >> y & 1 else i for y, (m, i) in enumerate(zip(out, inn))]
    source = reach_on_mask(forced_by, (1 << len(out)) - 1, 1 << _last_finished(forces))
    outside_m0 = np.zeros(count, dtype=bool)
    outside_m0[[y + 1 for y in iter_bits(source)]] = True
    return np.where(outside_m0[labels], labels, 0)


def _last_finished(rows: list[int]) -> int:
    """The vertex a depth-first search along the ``rows`` out-bitsets
    finishes last; it lies in a source component (Kosaraju)."""
    unvisited = (1 << len(rows)) - 1
    last = 0
    while unvisited:
        stack = [(unvisited & -unvisited).bit_length() - 1]
        unvisited &= unvisited - 1
        while stack:
            ahead = rows[stack[-1]] & unvisited
            if ahead:
                low = ahead & -ahead
                unvisited ^= low
                stack.append(low.bit_length() - 1)
            else:
                last = stack.pop()
    return last


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
    early exactly when T is not strong or n = 1: with no closing vertex,
    path[0] is a source or alone; with no edge from the rest of the path
    into the cycle, the cycle dominates it. The output always passes
    check_certificate.
    """
    n = T.n
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


@cache
def _odd_mask_layers(n: int) -> tuple[np.ndarray, ...]:
    """Masks containing bit 0, grouped by popcount; layers[k] has popcount k."""
    masks = np.arange(1, 1 << n, 2, dtype=np.int32)
    pop = np.bitwise_count(masks)
    layers = tuple(masks[pop == k] for k in range(n + 1))
    for layer in layers:
        layer.flags.writeable = False  # shared by every call for this n
    return layers


def brute_force_hamiltonian(T: Tournament) -> bool:
    """Exact Hamiltonicity by Held–Karp dynamic programming (n <= 20).

    f[mask] is the bitset of endpoints e reachable by a directed path from
    vertex 0 covering exactly ``mask``; a Hamilton cycle exists iff some
    full-cover endpoint has an edge back to 0, so a vertex 0 with no in-
    or no out-neighbour answers False at once. Each popcount layer is one
    pull step over chunks of masks: v != 0 ends a path on ``mask`` iff
    f[mask ^ v] holds an in-neighbour of v, and for v outside ``mask``,
    mask ^ v lies in the next layer, still 0. One float32 product ORs the
    distinct bits 2^v < 2^20, exactly.
    """
    n = T.n
    check_order(n, BRUTE_FORCE_MAX_N)
    into_0, *into = complement_rows(rows_to_masks(T.adj))
    if into_0 in (0, (1 << n) - 2):
        return False
    into = np.array(into, dtype=np.int32)
    bits = np.left_shift(1, np.arange(1, n, dtype=np.int32))
    weights = bits.astype(np.float32)
    f = np.zeros(1 << n, dtype=np.int32)
    f[1] = 1
    for layer in _odd_mask_layers(n)[2:]:
        for start in range(0, layer.size, _HK_CHUNK):
            masks = layer[start:start + _HK_CHUNK]
            ends = (f[masks[:, None] ^ bits] & into) != 0
            f[masks] = ends @ weights
    return int(f[-1]) & into_0 != 0


def _prefix_dtype(n: int) -> np.dtype:
    """Integer dtype of the shifted prefix sums: every prefix lies in
    [-n^2, 0], so int32 holds it unless n^2 >= 2^31 (n > 46340)."""
    return np.dtype(np.int64 if n * n >= 1 << 31 else np.int32)


def hamiltonian_batch(T: Tournament, inclusion: np.ndarray) -> np.ndarray:
    """Per-row Hamiltonicity of T[S] for a batch of subsets of V(T).

    ``inclusion`` is a (batch, n) matrix of 0/1 entries, boolean or
    numeric, as an array or nested lists; row r encodes subset S_r, and
    any other entry raises Tournament's ValueError (core._check_entries).
    Returns a boolean vector: T[S_r] Hamiltonian, with |S| <= 2 counting
    as non-Hamiltonian.

    Kernel: one float32 product with M = adj^T - n*I gives each member v
    of S its score inside S minus n (in [-n, -1]) and each non-member its
    out-degree into S (>= 0), so after an ascending sort the members come
    first, in score order, and no sentinel is needed. M carries one more
    column of ones, so the product's last column is |S|. Compare the
    prefix sums with C(k,2) - n*k for k = 1..width, where width is the
    largest |S| in the batch. Up to k = |S| this is Landau's test: the k
    lowest scores sum to at least C(k,2), with equality at k = |S|, and
    equality at a smaller k means those k members have all their
    out-edges among themselves. Past |S| every step adds n - k + 1 or
    more to the gap, so no tie follows, and the columns past width need
    no prefix at all. So for |S| >= 1 the tie at k = |S| is the last,
    and T[S] is strong iff it is the only one among k = 1..width.

    Exact: the product's entries are integers of magnitude <= n <= 2^16,
    far inside float32's 2^24, so they are sorted as float32; the prefixes
    lie in [-n^2, 0] and are summed in int32 unless n^2 >= 2^31
    (_prefix_dtype).

    The product (_shifted_adjacency) and the prefix test (_landau_strong)
    are separate so that sampling.estimate_sweep builds M once per sweep
    and skips the test on the rows it decides by absorption.
    """
    inclusion = np.asarray(inclusion)
    if inclusion.ndim != 2 or inclusion.shape[1] != T.n:
        raise ValueError(f"inclusion must be (batch, {T.n}), got {inclusion.shape}")
    _check_entries(inclusion)
    return _landau_strong(inclusion.astype(np.float32) @ _shifted_adjacency(T.adj))


def _shifted_adjacency(adj: np.ndarray) -> np.ndarray:
    """M = adj^T - n*I in float32 with one more column of ones, (n, n + 1):
    the right-hand side of hamiltonian_batch's product. ``adj`` is the 0/1
    matrix of a tournament on n vertices; sampling.estimate_sweep passes
    the matrices of its module quotient and of its parts, which it takes
    from T.adj without building a Tournament."""
    n = len(adj)
    shifted = np.ones((n, n + 1), dtype=np.float32)
    shifted[:, :n] = adj.T
    np.fill_diagonal(shifted[:, :n], -n)
    return shifted


def _landau_strong(product: np.ndarray) -> np.ndarray:
    """hamiltonian_batch's prefix test on product = inclusion @ M (see
    _shifted_adjacency): True where T[S_r] is Hamiltonian. Sorts the
    product's score columns in place."""
    n = product.shape[1] - 1
    dtype = _prefix_dtype(n)
    sizes = product[:, n]
    width = int(sizes.max(initial=0))  # 0 for a batch of no rows
    scores = product[:, :n]
    scores.sort(axis=1)
    # head[k - 1] holds every row's k-th prefix sum: the running sum adds
    # whole rows, which is faster than numpy's cumsum along a short axis.
    head = scores[:, :width].T.astype(dtype, order="C")
    for i in range(1, width):
        head[i] += head[i - 1]
    k = np.arange(1, width + 1, dtype=dtype)[:, None]
    ties = np.count_nonzero(head == k * (k - 1) // 2 - n * k, axis=0)
    return (ties == 1) & (sizes >= 3)


def hamiltonian_on_subset(T: Tournament, S: VertexSubset) -> bool:
    """is_hamiltonian(T[S]), decided on T[S]: building it costs |S|^2,
    where T's bitsets cost n^2."""
    _check_universe(T, S)
    return len(S) >= 3 and is_hamiltonian(induced(T, S))
