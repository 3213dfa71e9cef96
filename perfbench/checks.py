"""Output checks for the benchmark, computed apart from tourneylab.

Every function takes plain data (numpy matrices, parsed JSON, tuples) and
returns a list of problems; an empty list means the output passed. This
module never imports tourneylab, so a fault in the program cannot hide in
the code that referees it.
"""

from __future__ import annotations

import math
import re

import numpy as np

# Two-sided normal quantile of the 99.7% envelope used by the acceptance suite.
Z997 = 2.9677379253417944
# Documented reproducibility contract: trial i draws row i % 2048 of the
# Philox stream keyed by (master_seed, i // 2048).
BLOCK_TRIALS = 2048
REL_TOL = 1e-12


def parse_trn1(text: str) -> np.ndarray:
    """The 0/1 orientation matrix of a TRN1 file, read with numpy alone."""
    header, _, body = text.partition("\n")
    tag, n_text = header.split()
    if tag != "TRN1":
        raise ValueError("not a TRN1 file")
    n = int(n_text)
    raw = np.frombuffer(body.replace("\n", "").encode("ascii"), dtype=np.uint8)
    if raw.size != n * n:
        raise ValueError(f"expected {n * n} matrix cells, found {raw.size}")
    return (raw - ord("0")).reshape(n, n)


def is_tournament(adj: np.ndarray) -> bool:
    return not adj.diagonal().any() and bool(((adj + adj.T) == 1 - np.eye(len(adj), dtype=adj.dtype)).all())


def _strong(adj: np.ndarray) -> bool:
    """Strong connectivity of a small digraph by repeated boolean squaring."""
    m = len(adj)
    reach = (adj | np.eye(m, dtype=adj.dtype)).astype(np.int64)
    for _ in range(max(1, math.ceil(math.log2(m)))):
        reach = (reach @ reach > 0).astype(np.int64)
    return bool(reach.all())


# ---- estimate ---------------------------------------------------------

def main_blocks(n: int, t: int) -> tuple[range, range, range]:
    """Block ranges (A, B, X) of the cyclic family A -> B -> X -> A, |X| = t."""
    a = (n - t) // 2
    return range(0, a), range(a, n - t), range(n - t, n)


def check_main_family(adj: np.ndarray, t: int) -> list[str]:
    """The matrix really is the block family: a tournament with A -> B -> X -> A."""
    ra, rb, rx = main_blocks(len(adj), t)
    problems = [] if is_tournament(adj) else ["family matrix is not a tournament"]
    for src, dst, label in ((ra, rb, "A->B"), (rb, rx, "B->X"), (rx, ra, "X->A")):
        if not adj[src.start:src.stop, dst.start:dst.stop].all():
            problems.append(f"family is missing {label} edges")
    return problems


def closed_form(n: int, t: int, p: float) -> tuple[float, float]:
    """P[T[S] Hamiltonian] of the block family, as an interval.

    S meeting all three blocks is strong (the quotient is a 3-cycle); S
    missing exactly one block is not. S inside A or inside B may or may
    not be strong, which adds at most the chance of missing the others.
    """
    ra, rb, rx = main_blocks(n, t)
    low = 1.0
    for block in (ra, rb, rx):
        low *= 1.0 - (1.0 - p) ** len(block)
    return low, low + (1.0 - p) ** (n - len(ra)) + (1.0 - p) ** (n - len(rb))


def wilson(successes: int, trials: int, z: float) -> tuple[float, float]:
    ph = successes / trials
    denom = 1.0 + z * z / trials
    center = (ph + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(ph * (1 - ph) / trials + z * z / (4 * trials * trials))
    return center - half, center + half


def in_envelope(successes: int, trials: int, p_low: float, p_high: float,
                z: float = Z997) -> bool:
    """Does the Wilson interval of successes/trials meet [p_low, p_high]?"""
    lo, hi = wilson(successes, trials, z)
    return lo <= p_high and p_low <= hi


def recount_main_family(adj: np.ndarray, t: int, p: float, trials: int, seed: int) -> int:
    """Success count of an estimate on the block family, from the Philox
    stream of the reproducibility contract and the block structure alone."""
    n = len(adj)
    ra, rb, rx = main_blocks(n, t)
    successes = 0
    for block in range((trials + BLOCK_TRIALS - 1) // BLOCK_TRIALS):
        rows = min(BLOCK_TRIALS, trials - block * BLOCK_TRIALS)
        key = np.array([seed, block], dtype=np.uint64)
        keep = np.random.Generator(np.random.Philox(key=key)).random((rows, n)) < p
        hits = [keep[:, r.start:r.stop].any(axis=1) for r in (ra, rb, rx)]
        successes += int((hits[0] & hits[1] & hits[2]).sum())
        alone = (hits[0].astype(int) + hits[1] + hits[2]) == 1
        for row in np.flatnonzero(alone):
            members = np.flatnonzero(keep[row])
            if len(members) >= 3 and _strong(adj[np.ix_(members, members)]):
                successes += 1
    return successes


def check_estimate_report(report: dict, n: int, t: int, ps, trials: int,
                          expected: dict[float, int]) -> list[str]:
    """Rows of a sweep report against the recount and the closed form."""
    problems = []
    rows = report.get("rows", [])
    if [row.get("p") for row in rows] != list(ps):
        return [f"report rows cover p = {[row.get('p') for row in rows]}, expected {list(ps)}"]
    if report.get("n") != n:
        problems.append(f"report n = {report.get('n')}, expected {n}")
    for row in rows:
        p, k = row["p"], row["successes"]
        if row["trials"] != trials:
            problems.append(f"p={p}: {row['trials']} trials, expected {trials}")
            continue
        if k != expected[p]:
            problems.append(f"p={p}: {k} successes, the recount gives {expected[p]}")
        if not in_envelope(k, trials, *closed_form(n, t, p)):
            problems.append(f"p={p}: {k}/{trials} lies outside the 99.7% Wilson envelope "
                            f"of the closed form {closed_form(n, t, p)[0]:.6f}")
        if row["estimate"] != k / trials:
            problems.append(f"p={p}: estimate {row['estimate']} != {k}/{trials}")
    return problems


# ---- exact ------------------------------------------------------------

def landau_counts(adj: np.ndarray) -> np.ndarray:
    """counts[s] = number of s-subsets inducing a strong tournament (s >= 3).

    Landau's score test over every mask at once: T[S] is strong iff no
    proper prefix of its ascending score sequence sums to C(k, 2).
    """
    n = len(adj)
    masks = np.arange(1 << n, dtype=np.int64)
    out_bits = (adj.astype(np.int64) << np.arange(n, dtype=np.int64)).sum(axis=1)
    member = ((masks[:, None] >> np.arange(n)) & 1).astype(bool)
    scores = np.bitwise_count(masks[:, None] & out_bits[None, :]).astype(np.int64)
    scores[~member] = n * n
    scores.sort(axis=1)
    prefix = scores.cumsum(axis=1)[:, : n - 1]
    k = np.arange(1, n)
    sizes = member.sum(axis=1)
    tie = (prefix == k * (k - 1) // 2) & (k < sizes[:, None])
    strong = (sizes >= 3) & ~tie.any(axis=1)
    return np.bincount(sizes[strong], minlength=n + 1)


def moon_three_cycles(adj: np.ndarray) -> int:
    """Number of cyclic triples: C(n, 3) - sum_i C(s_i, 2) (Moon 1968)."""
    scores = adj.sum(axis=1).astype(np.int64)
    return math.comb(len(adj), 3) - int((scores * (scores - 1) // 2).sum())


def probability_from_counts(counts, p: float) -> float:
    n = len(counts) - 1
    return float(sum(int(c) * p**s * (1 - p) ** (n - s) for s, c in enumerate(counts)))


def check_exact_counts(adj: np.ndarray, program_counts, reference) -> list[str]:
    """The program's counts by size against ``reference`` (landau_counts of
    the same matrix) and Moon's 3-cycle count."""
    problems = []
    if list(map(int, program_counts)) != list(map(int, reference)):
        problems.append(f"counts by size {list(map(int, program_counts))} differ from "
                        f"the score test's {list(map(int, reference))}")
    moon = moon_three_cycles(adj)
    if int(program_counts[3]) != moon:
        problems.append(f"counts[3] = {int(program_counts[3])}, Moon's count is {moon}")
    return problems


def check_exact_report(report: dict, counts, ps) -> list[str]:
    """Each reported probability against the independent counts."""
    rows = report.get("rows", [])
    if [row.get("p") for row in rows] != list(ps):
        return [f"report rows cover p = {[row.get('p') for row in rows]}, expected {list(ps)}"]
    problems = []
    for row in rows:
        want = probability_from_counts(counts, row["p"])
        if not math.isclose(row["probability"], want, rel_tol=REL_TOL):
            problems.append(f"p={row['p']}: probability {row['probability']!r}, "
                            f"the counts give {want!r}")
    return problems


# ---- analyze ----------------------------------------------------------

_CHECK_LINE = re.compile(r"n=(\d+) min_semidegree=(\d+) \(witness vertex (\d+)\) "
                         r"hamiltonian=(True|False)")


def check_profile_line(adj: np.ndarray, line: str, strong: bool) -> list[str]:
    """The `check` command's n, minimum semidegree, witness and verdict."""
    m = _CHECK_LINE.search(line)
    if m is None:
        return [f"unexpected check output {line!r}"]
    n, semi, witness, ham = int(m[1]), int(m[2]), int(m[3]), m[4] == "True"
    per_vertex = np.minimum(adj.sum(axis=1), adj.sum(axis=0))
    problems = []
    if n != len(adj):
        problems.append(f"check reports n={n}, the matrix has {len(adj)}")
    if semi != int(per_vertex.min()):
        problems.append(f"min semidegree {semi}, recomputed {int(per_vertex.min())}")
    if witness != int(per_vertex.argmin()):
        problems.append(f"witness {witness}, first vertex attaining the minimum is "
                        f"{int(per_vertex.argmin())}")
    if ham != (strong and len(adj) >= 3):
        problems.append(f"check says hamiltonian={ham}, strong connectivity says {strong}")
    return problems


def _is_partition(n: int, parts) -> bool:
    flat = [v for part in parts for v in part]
    return sorted(flat) == list(range(n))


def check_cut(adj: np.ndarray, cut: dict) -> list[str]:
    A, B = cut["A"], cut["B"]
    if not _is_partition(len(adj), (A, B)):
        return ["cut sides do not partition the vertex set"]
    density = int(adj[np.ix_(A, B)].sum()) / (len(A) * len(B))
    if not math.isclose(cut["density"], density, rel_tol=REL_TOL):
        return [f"cut density {cut['density']!r}, recomputed {density!r}"]
    return []


def check_partition(n: int, part: dict) -> list[str]:
    if not _is_partition(n, (part["A"], part["B"], part["X"])):
        return ["A, B and X do not partition the vertex set"]
    return []


def max_matching_size(adj: np.ndarray, B, A) -> int:
    """Maximum B->A matching by scipy's Hopcroft-Karp."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_bipartite_matching

    if not len(A) or not len(B):
        return 0
    bi = csr_matrix(adj[np.ix_(B, A)])
    return int((maximum_bipartite_matching(bi, perm_type="column") >= 0).sum())


def check_matching(adj: np.ndarray, part: dict, matching) -> list[str]:
    """Matched pairs are B->A edges, vertex-disjoint, and maximum."""
    A, B = set(part["A"]), set(part["B"])
    problems = []
    for b, a in matching:
        if b not in B or a not in A:
            problems.append(f"pair ({b}, {a}) is not a B x A pair")
        elif not adj[b, a]:
            problems.append(f"pair ({b}, {a}) is not a B->A edge")
    used = [v for pair in matching for v in pair]
    if len(set(used)) != len(used):
        problems.append("a vertex is used twice in the matching")
    best = max_matching_size(adj, part["B"], part["A"])
    if len(matching) != best:
        problems.append(f"matching has {len(matching)} pairs, the maximum is {best}")
    return problems


def check_connectors(adj: np.ndarray, part: dict, k: int, connectors) -> list[str]:
    """Connectors are the vertices with >= k out-neighbours in A and >= k
    in-neighbours in B."""
    A, B = part["A"], part["B"]
    if A and B:
        want = np.flatnonzero((adj[:, A].sum(axis=1) >= k) & (adj[B, :].sum(axis=0) >= k))
    else:
        want = np.array([], dtype=np.int64)
    if sorted(connectors) != want.tolist():
        return [f"connectors {sorted(connectors)[:10]}... differ from the recomputed "
                f"{want.tolist()[:10]}..."]
    return []


def networkx_components(adj: np.ndarray) -> list[set[int]]:
    import networkx as nx

    graph = nx.DiGraph()
    graph.add_nodes_from(range(len(adj)))
    src, dst = np.nonzero(adj)
    graph.add_edges_from(zip(src.tolist(), dst.tolist()))
    return [set(c) for c in nx.strongly_connected_components(graph)]


def check_scc(adj: np.ndarray, component_of, count: int, order, reference) -> list[str]:
    """An SCC decomposition against networkx's components (``reference``),
    with every cross edge running from an earlier to a later component."""
    n = len(adj)
    if len(component_of) != n or sorted(set(component_of)) != list(range(count)):
        return ["component labels are not 0..count-1 over all vertices"]
    ours = {frozenset(np.flatnonzero(np.asarray(component_of) == c).tolist())
            for c in range(count)}
    if ours != {frozenset(c) for c in reference}:
        return [f"{count} components differ from networkx's {len(reference)}"]
    if sorted(order) != list(range(count)):
        return ["topological order is not a permutation of the components"]
    rank = np.empty(count, dtype=np.int64)
    rank[list(order)] = np.arange(count)
    r = rank[np.asarray(component_of)]
    src, dst = np.nonzero(adj)
    if (r[src] > r[dst]).any():
        return ["an edge runs from a later component to an earlier one"]
    return []


def check_cycle(adj: np.ndarray, cycle) -> list[str]:
    """The cycle visits every vertex once and each consecutive pair is an edge."""
    n = len(adj)
    if sorted(cycle) != list(range(n)):
        return ["cycle is not a permutation of the vertices"]
    c = np.asarray(cycle)
    bad = np.flatnonzero(adj[c, np.roll(c, -1)] == 0)
    if bad.size:
        i = int(bad[0])
        return [f"cycle edge {c[i]}->{c[(i + 1) % n]} at position {i} is not an edge"]
    return []
