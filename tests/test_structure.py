import dataclasses
import math
import random
import sys

import numpy as np
import pytest
from conftest import (bfs_reachable, brute_force_balanced_cut,
                      brute_force_max_matching, tournament_from_bits)

from tourneylab import (Partition, Tournament, VertexSubset, bad_events,
                        balanced_cut_search, clean_to_good_partition,
                        default_connector_k, evaluate_goodness, extremal_main,
                        extremal_main_blocks, extremal_theorem1_even,
                        extremal_theorem1_odd, hamilton, hamiltonian_on_subset,
                        hamiltonicity_from_no_bad_events, induced,
                        k_connectors, low_indegree_census, max_BA_matching,
                        random_tournament, refine_partition, removal_sets,
                        rotational_tournament, sample_subset, semidegrees,
                        structure, transitive_tournament)
from tourneylab.errors import BadParams, EmptyPart


def main_blocks_partition(n, t):
    ra, rb, rx = extremal_main_blocks(n, t)
    return Partition.from_members(n, ra, rb, rx)


def natural_balanced_cut(n, t):
    """Block cut of extremal_main with X split as evenly as balance allows."""
    ra, rb, rx = extremal_main_blocks(n, t)
    xs = list(rx)
    g = (t - (len(ra) - len(rb))) // 2  # X vertices handed to the A side
    a0 = list(ra) + xs[t - g:]
    b0 = list(rb) + xs[:t - g]
    assert abs(len(a0) - len(b0)) <= 1
    return VertexSubset(n, a0), VertexSubset(n, b0)


class TestPartition:
    def test_disjoint_cover_enforced(self):
        with pytest.raises(BadParams):
            Partition.from_members(4, [0, 1], [1, 2], [3])
        with pytest.raises(BadParams):
            Partition.from_members(4, [0], [1], [2])

    def test_json_round_trip(self):
        P = Partition.from_members(6, [0, 2], [1, 3], [4, 5])
        data = P.to_json_dict()
        assert data == {"A": [0, 2], "B": [1, 3], "X": [4, 5]}
        Q = Partition.from_json_dict(6, data)
        assert (Q.A, Q.B, Q.X) == (P.A, P.B, P.X)

    def test_equal_members_equal_partitions(self):
        # equality was identity: two builds of one partition differed
        P = Partition.from_members(6, [0, 2], [1, 3], [4, 5])
        assert P == Partition.from_members(6, [0, 2], [1, 3], [4, 5])
        assert hash(P) == hash(Partition.from_json_dict(6, P.to_json_dict()))
        assert P != Partition.from_members(6, [2, 0], [1, 3], [4, 5])
        assert repr(P) == "Partition(|A|=2, |B|=2, |X|=2)"

    @pytest.mark.parametrize("part", ["A", "B", "X", "size"])
    def test_parts_cannot_be_assigned(self, part):
        # assignment skipped the disjoint-cover check; a name that is not
        # a field raised TypeError from slots' __setattr__
        P = Partition.from_members(4, [0], [1, 2], [3])
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(P, part, VertexSubset(4, []))
        assert P.to_json_dict() == {"A": [0], "B": [1, 2], "X": [3]}


class TestBalancedCutSearch:
    def test_two_block_construction_is_perfect(self):
        T = extremal_theorem1_even(3)  # n = 14
        cut = balanced_cut_search(T)
        assert cut.density == 1.0
        assert set(cut.A.members) == set(range(7))

    def test_regular_tournament_has_no_almost_directed_cut(self):
        cut = balanced_cut_search(rotational_tournament(7))  # n = 15
        assert cut.density < 0.9
        # in a k-regular tournament every balanced cut carries the same flow
        assert cut.density == pytest.approx(0.5)

    def test_density_matches_brute_force(self):
        rng = random.Random(4)
        for n in range(2, 13):
            inputs = [random_tournament(n, seed) for seed in range(4)]
            inputs += [tournament_from_bits(n, rng.getrandbits(n * (n - 1) // 2))
                       for _ in range(4)]
            for T in inputs:
                cut = balanced_cut_search(T)
                assert cut.density == brute_force_balanced_cut(T)
                assert abs(len(cut.A) - len(cut.B)) <= 1
                assert set(cut.A.members) | set(cut.B.members) == set(range(n))
                e = int(T.adj[np.ix_(cut.A.members, cut.B.members)].sum())
                assert cut.density == e / (len(cut.A) * len(cut.B))
        with pytest.raises(BadParams):
            balanced_cut_search(transitive_tournament(1))

    def test_top_scorers_form_a_at_n203(self):
        # swapping a in A with b in B changes e(A,B) by d+(b) - d+(a), so the
        # cut is optimal iff every score in A is at least every score in B
        main = extremal_main(203, 2)
        for T in (main, random_tournament(203, 5)):
            cut = balanced_cut_search(T)
            out = T.out_degrees()
            assert out[list(cut.A.members)].min() >= out[list(cut.B.members)].max()
            assert abs(len(cut.A) - len(cut.B)) <= 1
        assert balanced_cut_search(main).density >= 0.97


class TestCleanToGoodPartition:
    def test_main_construction_cleans_to_good(self):
        T = extremal_main(203, 2)
        A0, B0 = natural_balanced_cut(203, 2)
        part, report = clean_to_good_partition(T, A0, B0, 1e-3)
        assert report.is_good
        assert report.eps == pytest.approx(1e-1)
        assert set(part.X.members) == set(extremal_main_blocks(203, 2)[2])

    def test_removal_bounds_on_main_construction(self):
        T = extremal_main(203, 2)
        A0, B0 = natural_balanced_cut(203, 2)
        eps = 1e-3
        delta = math.sqrt(eps)
        a_minus, a_plus, b_plus, b_minus = removal_sets(T, A0, B0, eps)
        assert len(a_minus) <= delta * 203 / 4
        assert len(a_plus) <= 15 * delta * 203
        assert len(b_plus) <= delta * 203 / 4
        assert len(b_minus) <= 15 * delta * 203

    def test_larger_x_block_still_cleans_to_good(self):
        # with t=3 one side of the natural cut absorbs two X vertices;
        # the cleaner still lands on a good partition at eps^(1/3)
        T = extremal_main(203, 3)
        A0, B0 = natural_balanced_cut(203, 3)
        part, report = clean_to_good_partition(T, A0, B0, 1e-3)
        assert report.is_good
        assert set(part.X.members) == set(extremal_main_blocks(203, 3)[2])

    def test_regular_halves_lose_nothing(self):
        T = extremal_theorem1_even(25)  # n = 102
        A0 = VertexSubset(102, range(51))
        B0 = VertexSubset(102, range(51, 102))
        part, report = clean_to_good_partition(T, A0, B0, 1e-3)
        assert len(part.X) == 0
        assert report.size_ok and report.semidegree_ok and report.density_ok

    def test_dense_both_ways_fails_honestly(self):
        T = random_tournament(60, seed=9)
        A0 = VertexSubset(60, range(30))
        B0 = VertexSubset(60, range(30, 60))
        _, report = clean_to_good_partition(T, A0, B0, 1e-3)
        assert not report.density_ok

    def test_eps_cap(self):
        T = random_tournament(10, 0)
        halves = (VertexSubset(10, range(5)), VertexSubset(10, range(5, 10)))
        with pytest.raises(BadParams):
            clean_to_good_partition(T, *halves, eps=0.5)

    def test_unbalanced_cut_rejected(self):
        T = random_tournament(10, 0)
        with pytest.raises(BadParams):
            clean_to_good_partition(T, VertexSubset(10, range(7)),
                                    VertexSubset(10, range(7, 10)), 1e-3)


class TestRefinePartition:
    def test_main_construction_unchanged(self):
        T = extremal_main(51, 2)
        P = main_blocks_partition(51, 2)
        result = refine_partition(T, P, k=5, t=2)
        assert not result.short_circuit
        assert result.moved == ()
        assert result.partition.A.members == P.A.members

    def test_planted_heavy_vertex_moves_to_x(self):
        # flip k+t edges from distinct A vertices onto one B vertex so it
        # crosses the out-degree threshold into A
        k, t = 1, 2
        T = extremal_main(51, t)
        ra, rb, _ = extremal_main_blocks(51, t)
        adj = np.array(T.adj)
        b = rb[0]
        for a in list(ra)[: k + t]:
            adj[a, b], adj[b, a] = 0, 1
        T2 = Tournament(adj)
        result = refine_partition(T2, main_blocks_partition(51, t), k=k, t=t)
        assert not result.short_circuit
        assert result.moved == (b,)
        assert b in result.partition.X

    def test_short_circuit_on_many_connectors(self):
        k, t = 2, 1
        T = extremal_main(51, t)
        ra, rb, _ = extremal_main_blocks(51, t)
        adj = np.array(T.adj)
        for b in list(rb)[: t + 1]:  # t+1 qualifying B vertices
            for a in list(ra)[: k + t]:
                adj[a, b], adj[b, a] = 0, 1
        T2 = Tournament(adj)
        P = main_blocks_partition(51, t)
        result = refine_partition(T2, P, k=k, t=t)
        assert result.short_circuit
        assert result.partition is P
        assert result.moved == ()


class TestConnectorParams:
    @pytest.mark.parametrize("call", [
        lambda T, P: k_connectors(T, P, 0),
        lambda T, P: refine_partition(T, P, 0, 0),
        lambda T, P: refine_partition(T, P, -5, 1),
        lambda T, P: refine_partition(T, P, 3, 0),
    ])
    def test_k_and_t_below_one_rejected(self, call):
        # before the check, k = 0 made every vertex a connector and the
        # refinements short-circuited because every vertex qualified
        T = random_tournament(20, 1)
        P = Partition.from_members(20, range(8), range(8, 16), range(16, 20))
        with pytest.raises(BadParams):
            call(T, P)

    def test_numpy_k_and_t_compute_as_python_ints(self):
        # k + t overflowed uint8
        T = random_tournament(20, 1)
        P = Partition.from_members(20, range(8), range(8, 16), range(16, 20))
        got = refine_partition(T, P, np.uint8(250), np.uint8(10))
        assert got == refine_partition(T, P, 250, 10)


class TestPartitionUniverse:
    @pytest.mark.parametrize("call", [
        lambda T, P: evaluate_goodness(T, P, 0.1),
        lambda T, P: refine_partition(T, P, 1, 1),  # returned a 4-vertex partition
        lambda T, P: k_connectors(T, P, 1),         # returned (0, 3, 4, 5)
        lambda T, P: max_BA_matching(T, P),
        lambda T, P: bad_events(T, P, VertexSubset.full(6)),
    ], ids=["goodness", "refine", "connectors", "matching", "bad_events"])
    @pytest.mark.parametrize("m", [4, 8])
    def test_partition_over_another_universe_rejected(self, call, m):
        T = random_tournament(6, 2)
        P = Partition.from_members(m, [0, 1], [2], range(3, m))
        with pytest.raises(BadParams, match="partition universe"):
            call(T, P)


class TestSharedChecks:
    @pytest.mark.parametrize("call", [
        lambda T, P: default_connector_k(0.5, 1.5),
        lambda T, P: default_connector_k(0.5, 1, "0.01"),
        lambda T, P: refine_partition(T, P, 2.5, 1),
        lambda T, P: refine_partition(T, P, 3, 1.5),
        lambda T, P: k_connectors(T, P, 2.5),
        lambda T, P: k_connectors(T, P, True),
        lambda T, P: low_indegree_census(T, "0.3"),
    ])
    def test_non_integer_or_non_real_rejected(self, call):
        # before the shared checks a fractional k or t ran as a threshold,
        # and a string met a raw TypeError
        T = random_tournament(20, 1)
        P = Partition.from_members(20, range(8), range(8, 16), range(16, 20))
        with pytest.raises(BadParams):
            call(T, P)


class TestKConnectors:
    def test_hub_is_connector(self):
        T = extremal_theorem1_odd(5)  # n = 23, hub = 22
        P = Partition.from_members(23, range(11), range(11, 22), [22])
        assert 22 in k_connectors(T, P, 5)

    def test_main_x_vertices_are_connectors(self):
        T = extremal_main(43, 3)
        P = main_blocks_partition(43, 3)
        k = min(len(P.A), len(P.B))
        conns = k_connectors(T, P, k)
        assert set(P.X.members) <= set(conns.members)

    def test_matches_naive_recount(self):
        T = random_tournament(24, seed=14)
        P = Partition.from_members(24, range(10), range(10, 20), range(20, 24))
        for k in (1, 3, 5):
            naive = []
            for v in range(24):
                out_a = sum(T.adj[v, a] for a in P.A.members)
                in_b = sum(T.adj[b, v] for b in P.B.members)
                if out_a >= k and in_b >= k:
                    naive.append(v)
            assert list(k_connectors(T, P, k).members) == naive

    @pytest.mark.parametrize("a, b", [([], range(12)), (range(12), [])])
    def test_empty_part_moves_and_connects_nothing(self, a, b):
        T = random_tournament(16, 3)
        P = Partition.from_members(16, a, b, range(12, 16))
        assert k_connectors(T, P, 1).members == ()
        result = refine_partition(T, P, 1, 1)
        assert result.partition is P
        assert result.moved == () and not result.short_circuit

    def test_antitone_in_k(self):
        T = random_tournament(30, seed=4)
        P = Partition.from_members(30, range(13), range(13, 26), range(26, 30))
        prev = None
        for k in (1, 2, 4, 7, 11):
            cur = set(k_connectors(T, P, k).members)
            if prev is not None:
                assert cur <= prev
            prev = cur


class TestMaxBAMatching:
    def test_main_construction_empty(self):
        T = extremal_main(43, 2)
        mc = max_BA_matching(T, main_blocks_partition(43, 2))
        assert mc.matching == ()
        assert mc.cover == ()

    def test_planted_disjoint_matching(self):
        t = 1
        T = extremal_main(25, t)
        ra, rb, _ = extremal_main_blocks(25, t)
        adj = np.array(T.adj)
        pairs = list(zip(list(rb)[:5], list(ra)[:5]))
        for b, a in pairs:
            adj[a, b], adj[b, a] = 0, 1
        mc = max_BA_matching(Tournament(adj), main_blocks_partition(25, t))
        assert len(mc.matching) >= 5

    def test_against_brute_force(self):
        for seed in range(25):
            T = random_tournament(13, seed)
            P = Partition.from_members(13, range(6), range(6, 12), [12])
            edges = [(b, a) for b in P.B.members for a in P.A.members if T.adj[b, a]]
            mc = max_BA_matching(T, P)
            assert len(mc.matching) == brute_force_max_matching(edges)

    def test_koenig_on_random_instances(self):
        rng = np.random.default_rng(31)
        for _ in range(60):
            n = int(rng.integers(8, 30))
            T = random_tournament(n, int(rng.integers(0, 2**31)))
            labels = rng.permutation(n)
            third = n // 3
            P = Partition.from_members(
                n, sorted(labels[:third]), sorted(labels[third : 2 * third]),
                sorted(labels[2 * third :]))
            mc = max_BA_matching(T, P)
            assert len(mc.matching) == len(mc.cover)
            cover = set(mc.cover)
            for b in P.B.members:
                for a in P.A.members:
                    if T.adj[b, a]:
                        assert b in cover or a in cover
            seen = [v for e in mc.matching for v in e]
            assert len(seen) == len(set(seen))


    def test_certificate_at_n2000(self):
        # a random tournament at its top-score cut (X empty) and the main
        # family with reversed A->B pairs: the certificate is checked whole
        inputs = []
        for seed in (0, 1):
            T = random_tournament(2000, seed)
            cut = balanced_cut_search(T)
            inputs.append((T, Partition(cut.A, cut.B, VertexSubset(2000, []))))
        adj = np.array(extremal_main(2000, 2).adj)
        ra, rb, _ = extremal_main_blocks(2000, 2)
        rng = np.random.default_rng(3)
        a = rng.integers(ra.start, ra.stop, 2000)
        b = rng.integers(rb.start, rb.stop, 2000)
        adj[a, b], adj[b, a] = 0, 1
        inputs.append((Tournament(adj), main_blocks_partition(2000, 2)))
        limit = sys.getrecursionlimit()
        for T, P in inputs:
            mc = max_BA_matching(T, P)
            assert sys.getrecursionlimit() == limit
            pairs = np.array(mc.matching, dtype=np.intp).reshape(-1, 2)
            assert np.isin(pairs[:, 0], P.B.members).all()
            assert np.isin(pairs[:, 1], P.A.members).all()
            assert T.adj[pairs[:, 0], pairs[:, 1]].all()
            assert len(np.unique(pairs)) == 2 * len(pairs)
            assert len(mc.cover) == len(mc.matching) > 0
            covered = np.zeros(T.n, dtype=bool)
            covered[list(mc.cover)] = True
            ib, ia = np.array(P.B.members), np.array(P.A.members)
            beats = T.adj[np.ix_(ib, ia)].astype(bool)
            assert not (beats & ~covered[ib][:, None] & ~covered[ia][None, :]).any()


class TestDegreeIdentities:
    """Goodness, removal sets and refinement against counts taken straight
    from the induced submatrices."""

    @staticmethod
    def naive_min_semidegree(T, S):
        if len(S) < 2:
            return 0
        sub = T.adj[np.ix_(S, S)].astype(np.int64)
        return min(sub.sum(axis=1).min(), sub.sum(axis=0).min())

    def test_matches_naive_recount(self):
        rng = np.random.default_rng(17)
        for case in range(100):
            n = int(rng.integers(5, 61))
            cut_a, cut_b = np.sort(rng.integers(0, n + 1, 2))
            if case % 2:  # near-halves and a small X
                cut_a, cut_b = n // 2 - int(rng.integers(0, 2)), n - int(rng.integers(0, 3))
            if case % 4 == 0:
                cut_b = n  # empty X
            adj = np.triu(rng.integers(0, 2, (n, n), dtype=np.uint8), 1)
            adj += np.tril(1 - adj.T, -1)
            if case % 2:  # nearly all A -> B, a few pairs reversed
                adj[:cut_a, cut_a:cut_b], adj[cut_a:cut_b, :cut_a] = 1, 0
                for _ in range(int(rng.integers(0, 6))):
                    i, j = int(rng.integers(0, n)), int(rng.integers(0, n))
                    if i != j:
                        adj[i, j], adj[j, i] = adj[j, i], adj[i, j]
            perm = rng.permutation(n)
            T = Tournament(adj[np.ix_(perm, perm)])
            inv = np.argsort(perm)  # new label of each old vertex
            A = sorted(inv[:cut_a].tolist())
            B = sorted(inv[cut_a:cut_b].tolist())
            X = sorted(inv[cut_b:].tolist())
            P = Partition.from_members(n, A, B, X)
            eps = float(rng.choice([1e-3, 1e-2, 0.1, 0.3]))

            e_ab = int(T.adj[np.ix_(A, B)].sum())
            e_ba = int(T.adj[np.ix_(B, A)].sum())
            semi = (self.naive_min_semidegree(T, A) >= (1 / 6 - eps) * n
                    and self.naive_min_semidegree(T, B) >= (1 / 6 - eps) * n)
            g = evaluate_goodness(T, P, eps)
            assert (g.e_AB, g.e_BA) == (e_ab, e_ba)
            assert g.size_ok == (len(A) >= (1 - eps) * n / 2 and len(B) >= (1 - eps) * n / 2)
            assert g.semidegree_ok == semi
            assert g.density_ok == (e_ab >= (1 - eps) * len(A) * len(B))

            want = []
            for S, low_in in ((A, True), (B, False)):
                sub = T.adj[np.ix_(S, S)].astype(np.int64)
                out, inn = sub.sum(axis=1), sub.sum(axis=0)
                scarce, fifth = (inn, out) if low_in else (out, inn)
                want.append([v for v, d in zip(S, scarce) if d <= (0.25 - math.sqrt(eps)) * n])
                want.append([v for v, d in zip(S, fifth) if d <= n / 5])
            assert list(removal_sets(T, P.A, P.B, eps)) == want

            k, t = int(rng.integers(1, 6)), int(rng.integers(1, 4))
            beats = T.adj[np.ix_(B, A)].astype(np.int64)
            move_b = [v for v, d in zip(B, beats.sum(axis=1)) if A and d >= k + t]
            move_a = [v for v, d in zip(A, beats.sum(axis=0)) if B and d >= k + t]
            r = refine_partition(T, P, k, t)
            if len(move_b) > t or len(move_a) > t:
                assert r.short_circuit and r.partition is P and r.moved == ()
                continue
            moved = set(move_a) | set(move_b)
            assert not r.short_circuit
            assert r.moved == tuple(sorted(moved))
            assert r.partition.to_json_dict() == {
                "A": [v for v in A if v not in moved], "B": [v for v in B if v not in moved],
                "X": sorted(set(X) | moved)}


class TestBadEvents:
    def test_full_set_on_main_construction(self):
        T = extremal_main(203, 2)
        P = main_blocks_partition(203, 2)
        flags = bad_events(T, P, VertexSubset.full(203))
        assert not (flags.b1 or flags.b2 or flags.b3 or flags.b4)

    def test_sample_inside_a_only(self):
        T = extremal_main(203, 2)
        P = main_blocks_partition(203, 2)
        with pytest.raises(EmptyPart):
            bad_events(T, P, VertexSubset(203, range(10)))

    def test_no_return_path_sets_b4(self):
        T = extremal_theorem1_even(10)  # n = 42
        h = 21
        P = Partition.from_members(42, range(h), range(h, 42), [])
        S = VertexSubset(42, list(range(5)) + list(range(h, h + 5)))
        flags = bad_events(T, P, S)
        assert flags.b4 and not flags.b3

    def test_reachability_flags_match_bfs_recount(self):
        # b3/b4 against a BFS inside T[S], b1/b2 against member counts and
        # semidegrees counted edge by edge; the extremal families with fresh
        # random labels per sample, and small samples, make b3 and b4 common
        rng = np.random.default_rng(6)
        random_input = (random_tournament(26, seed=3),
                        Partition.from_members(26, range(11), range(11, 22), range(22, 26)))
        samples = [(*random_input, 0.5)] * 60
        for T in (extremal_theorem1_even(4), extremal_theorem1_odd(4), extremal_main(23, 2)):
            for p in (0.1, 0.2, 0.4):
                for _ in range(120):
                    label = rng.integers(0, 3, T.n)
                    P = Partition.from_members(T.n, *(np.flatnonzero(label == k).tolist()
                                                      for k in range(3)))
                    samples.append((T, P, p))

        def semidegree(T, W):
            return min((min(sum(T.edge(v, w) for w in W), sum(T.edge(w, v) for w in W))
                        for v in W), default=0)

        checked = positives_b3 = positives_b4 = 0
        for T, P, p in samples:
            S = sample_subset(T.n, p, rng)
            sa = [v for v in S.members if v in P.A]
            sb = [v for v in S.members if v in P.B]
            if not sa or not sb:
                with pytest.raises(EmptyPart):
                    bad_events(T, P, S)
                continue
            checked += 1
            flags = bad_events(T, P, S)
            allowed = set(S.members)
            reach_a = set().union(*(bfs_reachable(T, a, allowed) for a in sa))
            reach_b = set().union(*(bfs_reachable(T, b, allowed) for b in sb))
            assert flags.b3 == (not reach_a & set(sb))
            assert flags.b4 == (not reach_b & set(sa))
            assert flags.b1 == (5 * (len(S) - len(sa) - len(sb)) >= len(S))
            assert flags.b2 == (10 * semidegree(T, sa) < 3 * len(sa)
                                or 10 * semidegree(T, sb) < 3 * len(sb)
                                or 5 * semidegree(T, S.members) < len(S))
            positives_b3 += flags.b3
            positives_b4 += flags.b4
        assert checked >= 400 and positives_b3 >= 50 and positives_b4 >= 50, \
            (checked, positives_b3, positives_b4)


class TestClaimImplication:
    def test_sweep_on_main_construction(self):
        T = extremal_main(103, 2)
        P = main_blocks_partition(103, 2)
        rng = np.random.default_rng(12)
        applicable = 0
        for _ in range(200):
            S = sample_subset(103, 0.5, rng)
            try:
                assert hamiltonicity_from_no_bad_events(T, P, S)
            except EmptyPart:
                continue
            applicable += 1
        assert applicable >= 150

    def test_all_clear_sample_builds_its_subtournament_once(self, monkeypatch):
        T = extremal_main(203, 2)
        P = main_blocks_partition(203, 2)
        S = sample_subset(203, 0.5, np.random.default_rng(3))
        assert not bad_events(T, P, S).any and hamiltonian_on_subset(T, S)
        calls = []

        def counting(*args):
            calls.append(args)
            return induced(*args)

        for module in (structure, hamilton):
            monkeypatch.setattr(module, "induced", counting)
        assert hamiltonicity_from_no_bad_events(T, P, S)
        assert len(calls) == 1

    def test_vacuous_when_flagged(self):
        T = extremal_theorem1_even(10)
        P = Partition.from_members(42, range(21), range(21, 42), [])
        S = VertexSubset(42, list(range(4)) + list(range(21, 25)))
        assert bad_events(T, P, S).b4
        assert hamiltonicity_from_no_bad_events(T, P, S)


class TestLowInDegreeCensus:
    def test_rotational_zero(self):
        assert low_indegree_census(rotational_tournament(5), 0.4) == 0

    def test_transitive_counts_prefix(self):
        assert low_indegree_census(transitive_tournament(10), 0.25) == 3

    def test_stability_claim_on_two_block_family(self):
        # non-Hamiltonian with delta0 >= (1/4 - d^2) n must expose many
        # low in-degree vertices at the (1/4 + 2d) n threshold
        d = 0.1
        T = extremal_theorem1_even(25)  # n = 102, delta0 = 25
        n = T.n
        assert semidegrees(T).min_semidegree >= (0.25 - d * d) * n
        assert low_indegree_census(T, 0.25 + 2 * d) >= (0.5 - 2 * d) * n

    def test_beta_range(self):
        with pytest.raises(BadParams):
            low_indegree_census(transitive_tournament(4), 1.2)


class TestGoodnessAndDefaults:
    def test_goodness_flags_on_handmade_partition(self):
        T = extremal_main(103, 1)
        P = main_blocks_partition(103, 1)
        report = evaluate_goodness(T, P, 0.1)
        assert report.is_good
        assert report.e_BA == 0
        assert report.e_AB == len(P.A) * len(P.B)

    def test_default_connector_k(self):
        k = default_connector_k(0.5, 1, 0.01)
        assert k == math.ceil(2 * math.log(2 / 0.01) / math.log(1 / 0.75))
        with pytest.raises(BadParams):
            default_connector_k(0.5, 0)

    def test_default_connector_k_small_p(self):
        # ln(1/(1 - p^2)) = p^2 + p^4/2 + ...; the exact k at p = 1e-4 is
        # 1,059,663,469, and 1 - p^2 rounds it away for smaller p
        assert default_connector_k(1e-4, 1, 0.01) == 1_059_663_469
        k = default_connector_k(1e-8, 1, 0.01)
        assert k == pytest.approx(2 * math.log(200) / (1e-16 + 1e-32 / 2), rel=1e-12)
        assert default_connector_k(1e-9, 1, 0.01) > 10**19
        for p in (1e-154, 1e-200, 5e-324):  # k overflows a float, or p^2 is 0
            with pytest.raises(BadParams):
                default_connector_k(p, 1)

    @pytest.mark.parametrize("p, t, sigma, want", [
        (0.3, 1, 0.01, 113), (0.5, 1, 0.01, 37), (0.7, 1, 0.01, 16),
        (0.5, 2, 0.01, 40), (0.3, 3, 0.05, 93), (0.9, 7, 0.5, 4),
        (1e-4, 5, 0.2, 680_239_473), (0.5, 10**300, 0.01, 4835),
        (0.5, 10**306, 0.01, 4931)])
    def test_default_connector_k_pinned(self, p, t, sigma, want):
        assert default_connector_k(p, t, sigma) == want

    @pytest.mark.parametrize("t", [10**307, 10**310, 10**400])
    def test_default_connector_k_huge_t(self, t):
        # (t + 1) / sigma overflows to inf, or t + 1 has no float at all
        with pytest.raises(BadParams, match="t is too large"):
            default_connector_k(0.5, t)

    def test_default_connector_k_numpy_t(self):
        # t + 1 overflowed uint8 before the float division
        assert default_connector_k(0.5, np.uint8(255)) == default_connector_k(0.5, 255)
        assert default_connector_k(0.5, np.int64(7)) == default_connector_k(0.5, 7)

    def test_flat_json_serializations(self):
        T = extremal_main(24, 2)
        P = main_blocks_partition(24, 2)
        g = evaluate_goodness(T, P, 0.1).to_json_dict()
        assert all(not isinstance(v, (dict, list)) for v in g.values())
        flags = bad_events(T, P, VertexSubset.full(24)).to_json_dict()
        assert set(flags) == {"b1", "b2", "b3", "b4"}
        assert all(isinstance(v, bool) for v in flags.values())
