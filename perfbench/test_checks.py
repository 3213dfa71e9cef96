"""The benchmark's output checks must pass right outputs and flag wrong ones.

    python3 -m pytest perfbench/test_checks.py

Fixtures are built with numpy alone and refereed by networkx, so these
tests hold the checks to account without tourneylab.
"""

from __future__ import annotations

import itertools

import networkx as nx
import numpy as np
import pytest

import checks


def random_tournament(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.integers(0, 2, (n, n), dtype=np.uint8), 1)
    return upper + np.triu(1 - upper, 1).T


def rotational(k: int) -> np.ndarray:
    n = 2 * k + 1
    d = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n
    return ((d >= 1) & (d <= k)).astype(np.uint8)


def block_family(n: int, t: int, seed: int) -> np.ndarray:
    """A -> B -> X -> A with random tournaments inside each block."""
    ra, rb, rx = checks.main_blocks(n, t)
    adj = np.zeros((n, n), dtype=np.uint8)
    for i, r in enumerate((ra, rb, rx)):
        adj[r.start:r.stop, r.start:r.stop] = random_tournament(len(r), seed + i)
    for src, dst in ((ra, rb), (rb, rx), (rx, ra)):
        adj[src.start:src.stop, dst.start:dst.stop] = 1
    return adj


def strong(adj: np.ndarray, members) -> bool:
    graph = nx.DiGraph()
    graph.add_nodes_from(members)
    graph.add_edges_from((u, v) for u in members for v in members if adj[u, v])
    return len(members) >= 3 and nx.is_strongly_connected(graph)


def test_parse_trn1_reads_the_matrix():
    adj = random_tournament(6, 1)
    text = "TRN1 6\n" + "".join("".join(map(str, row)) + "\n" for row in adj)
    assert np.array_equal(checks.parse_trn1(text), adj)
    assert checks.is_tournament(adj)
    adj[0, 1] = adj[1, 0] = 1
    assert not checks.is_tournament(adj)


# ---- estimate ---------------------------------------------------------

def sweep_report(n, t, successes: dict[float, int], trials: int) -> dict:
    return {"n": n, "rows": [{"p": p, "trials": trials, "successes": k, "estimate": k / trials}
                             for p, k in successes.items()]}


def test_recount_matches_networkx_on_a_small_family():
    # Blocks of 4, 4 and 1 vertices: many subsets fall inside one block,
    # so the recount's rare path is exercised too.
    n, t, p, trials, seed = 9, 1, 0.3, 3000, 5
    adj = block_family(n, t, seed=2)
    assert checks.check_main_family(adj, t) == []
    want = 0
    for block in range((trials + checks.BLOCK_TRIALS - 1) // checks.BLOCK_TRIALS):
        rows = min(checks.BLOCK_TRIALS, trials - block * checks.BLOCK_TRIALS)
        key = np.array([seed, block], dtype=np.uint64)
        keep = np.random.Generator(np.random.Philox(key=key)).random((rows, n)) < p
        want += sum(strong(adj, np.flatnonzero(row).tolist()) for row in keep)
    assert checks.recount_main_family(adj, t, p, trials, seed) == want


def test_check_main_family_flags_a_reversed_block_edge():
    adj = block_family(12, 2, seed=3)
    adj[0, 6], adj[6, 0] = 0, 1
    assert any("A->B" in p for p in checks.check_main_family(adj, 2))


def test_success_count_outside_the_envelope_is_flagged():
    n, t, p, trials = 203, 2, 0.5, 100_000
    low, _ = checks.closed_form(n, t, p)
    inside = round(low * trials)
    outside = inside - 2000
    ok = sweep_report(n, t, {p: inside}, trials)
    assert checks.check_estimate_report(ok, n, t, [p], trials, {p: inside}) == []
    # The recount agrees with the wrong count, so only the envelope can object.
    bad = sweep_report(n, t, {p: outside}, trials)
    problems = checks.check_estimate_report(bad, n, t, [p], trials, {p: outside})
    assert len(problems) == 1 and "envelope" in problems[0]


def test_success_count_off_by_one_is_flagged():
    n, t, p, trials = 203, 2, 0.3, 100_000
    k = round(checks.closed_form(n, t, p)[0] * trials)
    bad = sweep_report(n, t, {p: k + 1}, trials)
    problems = checks.check_estimate_report(bad, n, t, [p], trials, {p: k})
    assert len(problems) == 1 and "recount" in problems[0]


def test_estimate_rows_for_the_wrong_p_values_are_flagged():
    report = sweep_report(203, 2, {0.3: 1, 0.5: 2}, 10)
    assert checks.check_estimate_report(report, 203, 2, [0.3, 0.5, 0.7], 10, {}) != []


# ---- exact ------------------------------------------------------------

def brute_counts(adj: np.ndarray) -> list[int]:
    n = len(adj)
    counts = [0] * (n + 1)
    for size in range(3, n + 1):
        counts[size] = sum(strong(adj, list(c)) for c in itertools.combinations(range(n), size))
    return counts


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_landau_counts_and_moon_match_networkx(seed):
    adj = random_tournament(8, seed)
    counts = checks.landau_counts(adj)
    assert counts.tolist() == brute_counts(adj)
    assert counts[3] == checks.moon_three_cycles(adj)
    assert checks.check_exact_counts(adj, counts, counts) == []


def test_exact_count_off_by_one_is_flagged():
    adj = random_tournament(8, 4)
    reference = checks.landau_counts(adj)
    wrong = reference.copy()
    wrong[5] += 1
    assert len(checks.check_exact_counts(adj, wrong, reference)) == 1
    wrong = reference.copy()
    wrong[3] -= 1
    problems = checks.check_exact_counts(adj, wrong, reference)
    assert len(problems) == 2 and "Moon" in problems[1]


def test_exact_probability_off_by_one_subset_is_flagged():
    adj = random_tournament(8, 5)
    counts = checks.landau_counts(adj)
    ps = [0.3, 0.7]
    rows = [{"p": p, "probability": checks.probability_from_counts(counts, p)} for p in ps]
    assert checks.check_exact_report({"rows": rows}, counts, ps) == []
    off = counts.copy()
    off[6] += 1
    rows[1]["probability"] = checks.probability_from_counts(off, 0.7)
    assert len(checks.check_exact_report({"rows": rows}, counts, ps)) == 1


# ---- analyze ----------------------------------------------------------

def two_block_tournament() -> tuple[np.ndarray, dict]:
    """Rotational A (7 vertices) above rotational B (7), one B->A edge
    reversed in each of three rows, and an X of one vertex."""
    adj = np.zeros((15, 15), dtype=np.uint8)
    adj[:7, :7] = rotational(3)
    adj[7:14, 7:14] = rotational(3)
    adj[:7, 7:14] = 1
    for b, a in ((7, 0), (8, 0), (9, 1)):
        adj[a, b], adj[b, a] = 0, 1
    adj[14, :7] = 1  # X beats A
    adj[7:14, 14] = 1  # B beats X
    part = {"A": list(range(7)), "B": list(range(7, 14)), "X": [14]}
    return adj, part


def test_matching_with_a_pair_that_is_not_an_edge_is_flagged():
    adj, part = two_block_tournament()
    good = [[7, 0], [9, 1]]
    assert checks.check_matching(adj, part, good) == []
    problems = checks.check_matching(adj, part, [[7, 0], [9, 2]])
    assert any("not a B->A edge" in p for p in problems)


def test_matching_reusing_a_vertex_or_too_small_is_flagged():
    adj, part = two_block_tournament()
    assert any("twice" in p for p in checks.check_matching(adj, part, [[7, 0], [8, 0]]))
    assert any("maximum" in p for p in checks.check_matching(adj, part, [[7, 0]]))


def test_cycle_with_one_edge_reversed_is_flagged():
    adj = rotational(3)
    cycle = list(range(7))
    assert checks.check_cycle(adj, cycle) == []
    cycle[2], cycle[3] = cycle[3], cycle[2]  # 1->3 fine, 3->2 runs backwards
    assert any("3->2" in p for p in checks.check_cycle(adj, cycle))
    assert checks.check_cycle(adj, [0, 1, 2, 3, 4, 5]) != []


def test_scc_against_networkx():
    adj, _ = two_block_tournament()
    assert checks.check_scc(adj, [0] * 15, 1, (0,), checks.networkx_components(adj)) == []
    # A beats B and X, B beats X: three components in the order A, B, X.
    adj = np.zeros((15, 15), dtype=np.uint8)
    adj[:7, :7] = rotational(3)
    adj[7:14, 7:14] = rotational(3)
    adj[:7, 7:] = 1
    adj[7:14, 14] = 1
    reference = checks.networkx_components(adj)
    labels = [0] * 7 + [1] * 7 + [2]
    assert checks.check_scc(adj, labels, 3, (0, 1, 2), reference) == []
    assert checks.check_scc(adj, [0] * 14 + [1], 2, (0, 1), reference) != []
    assert any("later component" in p
               for p in checks.check_scc(adj, labels, 3, (1, 0, 2), reference))


def test_partition_cut_connectors_and_profile():
    adj, part = two_block_tournament()
    assert checks.check_partition(15, part) == []
    assert checks.check_partition(15, {"A": [0, 1], "B": [1], "X": []}) != []
    cut = {"A": list(range(7)), "B": list(range(7, 15))}
    density = int(adj[np.ix_(cut["A"], cut["B"])].sum()) / 56
    assert checks.check_cut(adj, {**cut, "density": density}) == []
    assert checks.check_cut(adj, {**cut, "density": density + 1e-6}) != []
    want = [v for v in range(15)
            if adj[v, part["A"]].sum() >= 2 and adj[part["B"], v].sum() >= 2]
    assert checks.check_connectors(adj, part, 2, want) == []
    assert checks.check_connectors(adj, part, 2, want + [3]) != []
    per_vertex = np.minimum(adj.sum(axis=0), adj.sum(axis=1))
    semi, witness = int(per_vertex.min()), int(per_vertex.argmin())
    line = "valid TRN1 tournament: n=15 min_semidegree={} (witness vertex {}) hamiltonian={}"
    assert checks.check_profile_line(adj, line.format(semi, witness, True), strong=True) == []
    assert checks.check_profile_line(adj, line.format(semi + 1, witness, True), True) != []
    assert checks.check_profile_line(adj, line.format(semi, witness, False), True) != []
