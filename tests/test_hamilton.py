from itertools import permutations

import numpy as np
import pytest
from conftest import (bfs_reachable, planted_blocks,
                      strongly_connected_by_bfs, tournament_from_bits)
from hypothesis import given, settings
from hypothesis import strategies as st

from tourneylab import (HamiltonCertificate, Tournament, VertexSubset,
                        brute_force_hamiltonian, check_certificate,
                        extremal_main, extremal_main_blocks,
                        extremal_theorem1_even, extremal_theorem1_odd,
                        hamilton_cycle,
                        hamiltonian_batch, hamiltonian_on_subset, induced,
                        is_hamiltonian, is_valid_certificate,
                        random_tournament, rotational_tournament, scc,
                        strongly_connected, transitive_tournament)
from tourneylab import core, hamilton
from tourneylab.core import rows_to_masks
from tourneylab.core import MAX_VERTICES
from tourneylab.errors import InvalidCertificate, TooLarge
from tourneylab.hamilton import _HK_CHUNK, _odd_mask_layers, _prefix_dtype


def strong_tournaments(max_n=11):
    return (st.integers(3, max_n)
            .flatmap(lambda n: st.integers(0, 2 ** (n * (n - 1) // 2) - 1)
                     .map(lambda code: tournament_from_bits(n, code)))
            .filter(strongly_connected))


class TestScc:
    def test_triangle_single_component(self, triangle):
        assert scc(triangle).component_count == 1

    def test_transitive_source_to_sink(self):
        d = scc(transitive_tournament(5))
        assert d.component_count == 5
        # vertex 0 is the source, so its component leads the order
        assert [d.topological_order.index(d.component_of[v]) for v in range(5)] == list(range(5))

    def test_two_block_construction_oracle(self):
        # A -> B with 5-vertex rotational halves: exactly the two blocks
        T = extremal_theorem1_even(2)
        d = scc(T)
        assert d.component_count == 2
        first = d.topological_order[0]
        assert {v for v in range(10) if d.component_of[v] == first} == set(range(5))
        # cross-check components against mutual BFS reachability
        everyone = set(range(T.n))
        for v in range(T.n):
            mutual = {w for w in bfs_reachable(T, v, everyone)
                      if v in bfs_reachable(T, w, everyone)}
            assert mutual == {w for w in range(T.n)
                              if d.component_of[w] == d.component_of[v]}

    def test_components_match_mutual_reachability(self):
        rng = np.random.default_rng(88)
        inputs = [random_tournament(int(rng.integers(2, 25)), int(rng.integers(0, 2**31)))
                  for _ in range(30)]
        # random tournaments this small are nearly always strong; planted
        # blocks give many components and n up to ~300
        inputs += [planted_blocks(seed) for seed in range(8)]
        for T in inputs:
            d = scc(T)
            everyone = set(range(T.n))
            backward = Tournament(T.adj.T)
            # each claimed component must be the mutual-reachability class
            # of one of its members; the components cover every vertex
            for c in set(d.component_of):
                members = {v for v in range(T.n) if d.component_of[v] == c}
                v = min(members)
                mutual = bfs_reachable(T, v, everyone) & bfs_reachable(backward, v, everyone)
                assert mutual == members

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(
        st.integers(1, 9).flatmap(lambda n: st.integers(0, 2 ** (n * (n - 1) // 2) - 1)
                                  .map(lambda code: tournament_from_bits(n, code))),
        st.integers(0, 2**32 - 1).map(planted_blocks)))
    def test_condensation_is_transitive(self, T):
        d = scc(T)
        rank = {c: i for i, c in enumerate(d.topological_order)}
        assert sorted(rank) == list(range(d.component_count))
        r = np.array([rank[c] for c in d.component_of])
        cross = T.adj.astype(bool) & (r[:, None] != r[None, :])
        assert (r[:, None] < r[None, :])[cross].all()


class TestIsHamiltonian:
    def test_triangle(self, triangle):
        assert is_hamiltonian(triangle)

    def test_tiny_never_hamiltonian(self):
        assert not is_hamiltonian(transitive_tournament(1))
        assert not is_hamiltonian(transitive_tournament(2))

    def test_equals_component_count_one(self):
        for seed in range(40):
            T = random_tournament(12, seed)
            assert is_hamiltonian(T) == (scc(T).component_count == 1)

    def test_exhaustive_n_le_5_against_bfs_and_held_karp(self):
        for n in range(1, 6):
            for code in range(2 ** (n * (n - 1) // 2)):
                T = tournament_from_bits(n, code)
                expect = n >= 3 and strongly_connected_by_bfs(T)
                assert is_hamiltonian(T) == expect
                assert brute_force_hamiltonian(T) == expect

    def test_random_oracle_agreement(self):
        rng = np.random.default_rng(2024)
        for _ in range(300):
            n = int(rng.integers(4, 17))
            T = random_tournament(n, int(rng.integers(0, 2**32)))
            assert is_hamiltonian(T) == brute_force_hamiltonian(T)

    def test_out_bitsets_are_read_once_per_call(self, monkeypatch):
        # the in-bitsets are the out-bitsets' complements, so one read serves
        # both searches; is_hamiltonian at n = 2000 read them twice
        calls = []

        def counting(adj):
            calls.append(adj.shape)
            return rows_to_masks(adj)

        monkeypatch.setattr(core, "rows_to_masks", counting)
        monkeypatch.setattr(hamilton, "rows_to_masks", counting)
        T = random_tournament(30, 4)
        for decide, shape in ((lambda: strongly_connected(T), (30, 30)),
                              (lambda: is_hamiltonian(T), (30, 30)),
                              (lambda: hamiltonian_on_subset(T, VertexSubset(30, range(0, 30, 2))),
                               (15, 15))):  # T[S]'s bitsets, not T's
            calls.clear()
            decide()
            assert calls == [shape]
        assert is_hamiltonian(T) == strongly_connected_by_bfs(T)


class TestBruteForce:
    def test_triangle(self, triangle):
        assert brute_force_hamiltonian(triangle)

    def test_sink_vertex(self):
        # vertex 3 loses every edge, so no cycle covers it
        adj = np.zeros((4, 4), dtype=np.uint8)
        adj[0, 1] = adj[1, 2] = adj[2, 0] = 1
        adj[0, 3] = adj[1, 3] = adj[2, 3] = 1
        assert not brute_force_hamiltonian(Tournament(adj))

    def test_size_cap(self):
        with pytest.raises(TooLarge):
            brute_force_hamiltonian(transitive_tournament(21))


def _with_vertex_0(T: Tournament, source: bool) -> Tournament:
    """T with vertex 0 turned into a source (or a sink)."""
    adj = T.adj.copy()
    adj[0, 1:] = source
    adj[1:, 0] = not source
    return Tournament(adj)


def _with_sink_appended(T: Tournament) -> Tournament:
    """T plus one vertex that every vertex of T beats."""
    adj = np.zeros((T.n + 1, T.n + 1), dtype=np.uint8)
    adj[:T.n, :T.n] = T.adj
    adj[:T.n, T.n] = 1
    return Tournament(adj)


def _relabelled(adj: np.ndarray, seed: int) -> Tournament:
    perm = np.random.default_rng(seed).permutation(len(adj))
    return Tournament(adj[np.ix_(perm, perm)])


def _one_cycle(n: int, seed: int) -> Tournament:
    """The transitive tournament with its edge 0 -> n-1 reversed, relabelled.
    Its one Hamilton cycle is the transitive order closed by that edge, so
    Held–Karp must find every state on one chain of masks."""
    adj = transitive_tournament(n).adj.copy()
    adj[0, n - 1], adj[n - 1, 0] = 0, 1
    return _relabelled(adj, seed)


def _held_karp_large_cases():
    for n in range(17, 21):
        yield pytest.param(lambda n=n: _one_cycle(n, n), id=f"one-cycle-{n}")
        yield pytest.param(lambda n=n: _relabelled(transitive_tournament(n).adj, n),
                           id=f"transitive-relabelled-{n}")
    for n in range(17, 21):
        for seed in (0, 1):
            yield pytest.param(lambda n=n, seed=seed: random_tournament(n, seed),
                               id=f"random-{n}-{seed}")
    yield pytest.param(lambda: extremal_main(20, 1), id="main-20-1")
    yield pytest.param(lambda: extremal_theorem1_odd(4), id="theorem1-odd-4")
    yield pytest.param(lambda: transitive_tournament(20), id="transitive-20")
    yield pytest.param(lambda: _with_vertex_0(random_tournament(20, 3), source=True),
                       id="vertex-0-source")
    yield pytest.param(lambda: _with_vertex_0(random_tournament(20, 3), source=False),
                       id="vertex-0-sink")
    yield pytest.param(lambda: _with_sink_appended(random_tournament(19, 4)),
                       id="vertex-19-sink")


@pytest.mark.parametrize("build", _held_karp_large_cases())
def test_held_karp_n17_to_20_agrees_with_bfs(build):
    T = build()
    assert 17 <= T.n <= 20
    assert brute_force_hamiltonian(T) == is_hamiltonian(T)


def _path_tournament(n: int) -> np.ndarray:
    """i -> i+1, and j -> i for j >= i + 2. Vertex i's only out-neighbour
    above it is i + 1, so 0 -> 1 -> ... -> n-1 -> 0 is its one Hamilton cycle."""
    adj = np.tril(np.ones((n, n), dtype=np.uint8), -2)
    adj[np.arange(n - 1), np.arange(1, n)] = 1
    return adj


@pytest.mark.parametrize("n", range(3, 10))
def test_path_tournament_has_one_hamilton_cycle(n):
    adj = _path_tournament(n).tolist()
    cycles = sum(all(adj[c[i - 1]][c[i]] for i in range(n))
                 for c in ((0, *rest) for rest in permutations(range(1, n))))
    assert cycles == 1


@pytest.mark.parametrize("n", range(17, 21))
def test_held_karp_keeps_the_last_mask_of_a_chunk(n):
    # Relabel the path tournament so that a prefix of its one 0-rooted
    # Hamilton path is the mask in the last slot of a full chunk: one
    # dropped state there loses the only cycle.
    layer = _odd_mask_layers(n)[(n + 1) // 2]
    assert layer.size >= _HK_CHUNK
    mask = int(layer[layer.size // _HK_CHUNK * _HK_CHUNK - 1])
    order = ([v for v in range(n) if mask >> v & 1]
             + [v for v in range(n) if not mask >> v & 1])
    adj = np.empty((n, n), dtype=np.uint8)
    adj[np.ix_(order, order)] = _path_tournament(n)  # order[i] plays vertex i
    T = Tournament(adj)
    assert brute_force_hamiltonian(T)
    assert is_hamiltonian(T)


class TestHamiltonCycle:
    def test_triangle_rotation(self, triangle):
        cert = hamilton_cycle(triangle)
        assert cert is not None
        assert sorted(cert.order) == [0, 1, 2]
        check_certificate(triangle, cert)

    def test_transitive_none(self):
        assert hamilton_cycle(transitive_tournament(6)) is None

    @pytest.mark.parametrize("adj", [[[0]], [[0, 1], [0, 0]], [[0, 0], [1, 0]]])
    def test_below_three_vertices_none(self, adj):
        T = Tournament(adj)
        assert hamilton_cycle(T) is None
        assert not brute_force_hamiltonian(T)

    def test_rotational_9(self):
        T = rotational_tournament(4)
        cert = hamilton_cycle(T)
        assert cert is not None
        check_certificate(T, cert)

    def test_present_iff_hamiltonian(self):
        for seed in range(60):
            T = random_tournament(10, seed)
            cert = hamilton_cycle(T)
            assert (cert is not None) == is_hamiltonian(T)
            if cert is not None:
                check_certificate(T, cert)

    @settings(max_examples=50, deadline=None)
    @given(strong_tournaments())
    def test_soundness_on_strong_tournaments(self, T):
        cert = hamilton_cycle(T)
        assert cert is not None
        check_certificate(T, cert)

    def test_large_instances(self):
        for seed in (0, 1):
            T = random_tournament(400, seed)
            if not is_hamiltonian(T):
                continue
            cert = hamilton_cycle(T)
            check_certificate(T, cert)

    def test_planted_block_members(self):
        for seed in range(4):
            T = planted_blocks(seed)
            comps = scc(T)
            assert (hamilton_cycle(T) is None) == (comps.component_count > 1)
            labels = np.array(comps.component_of)
            for c in range(comps.component_count):
                members = np.flatnonzero(labels == c)
                if len(members) < 3:
                    continue
                U = induced(T, VertexSubset(T.n, members))
                cert = hamilton_cycle(U)
                assert cert is not None
                check_certificate(U, cert)

    def test_main_family_with_reversed_pairs(self):
        # the analyze benchmark's input shape at n = 300: main family with
        # random A->B edges turned around, so insertions meet many flips
        n = 300
        adj = np.array(extremal_main(n, 2).adj)
        ra, rb, _ = extremal_main_blocks(n, 2)
        rng = np.random.default_rng(3)
        a = rng.integers(ra.start, ra.stop, n)
        b = rng.integers(rb.start, rb.stop, n)
        adj[a, b] = 0
        adj[b, a] = 1
        T = Tournament(adj)
        cert = hamilton_cycle(T)
        assert cert is not None
        check_certificate(T, cert)


class TestCertificates:
    def test_text_round_trip(self):
        cert = HamiltonCertificate((0, 2, 1, 3))
        assert cert.to_text() == "0,2,1,3"
        assert HamiltonCertificate.from_text("0, 2, 1, 3\n") == cert

    def test_text_round_trip_at_n2000(self):
        cert = HamiltonCertificate(tuple(np.random.default_rng(1).permutation(2000).tolist()))
        assert HamiltonCertificate.from_text(cert.to_text() + "\n") == cert

    def test_reversed_edge_position(self, triangle):
        with pytest.raises(InvalidCertificate) as exc:
            check_certificate(triangle, HamiltonCertificate((0, 2, 1)))
        assert exc.value.position == 0  # 0 -> 2 is the first reversed edge

    def test_not_a_permutation(self, triangle):
        assert not is_valid_certificate(triangle, HamiltonCertificate((0, 1, 1)))
        assert not is_valid_certificate(triangle, HamiltonCertificate((0, 1)))

    def test_valid_cycles_pass(self, triangle):
        assert is_valid_certificate(triangle, HamiltonCertificate((0, 1, 2)))
        T = rotational_tournament(3)
        assert is_valid_certificate(T, hamilton_cycle(T))

    def test_translate_through_induced(self):
        T = random_tournament(12, seed=9)
        S = VertexSubset(12, [1, 3, 4, 7, 8, 10, 11])
        U = induced(T, S)
        cert = hamilton_cycle(U)
        if cert is not None:
            lifted = cert.translate(U.parent_labels)
            for i in range(len(lifted.order)):
                u = lifted.order[i]
                v = lifted.order[(i + 1) % len(lifted.order)]
                assert T.adj[u, v]


class TestBatchKernel:
    def test_matches_per_trial_route(self):
        rng = np.random.default_rng(77)
        for T in (random_tournament(30, 5), extremal_theorem1_even(4),
                  transitive_tournament(25), rotational_tournament(12)):
            inc = rng.random((300, T.n)) < 0.4
            fast = hamiltonian_batch(T, inc)
            for i in range(300):
                S = VertexSubset(T.n, np.flatnonzero(inc[i]))
                want = is_hamiltonian(induced(T, S)) if len(S) else False
                assert fast[i] == want

    def test_subset_shortcut_matches_induced(self):
        rng = np.random.default_rng(11)
        T = random_tournament(40, 13)
        for _ in range(100):
            S = VertexSubset(40, np.flatnonzero(rng.random(40) < 0.3))
            if len(S) == 0:
                assert not hamiltonian_on_subset(T, S)
            else:
                assert hamiltonian_on_subset(T, S) == is_hamiltonian(induced(T, S))

    def test_edge_sizes_and_tied_prefixes(self):
        # rows with |S| = 0, 1, 2, 3 and n on the n = 1 and n = 2 tournaments
        # and on planted blocks, whose sorted prefixes tie at every block
        # boundary a row covers; single blocks and unions of two are rows too
        rng = np.random.default_rng(3)
        for T in (transitive_tournament(1), transitive_tournament(2),
                  *(planted_blocks(seed) for seed in (2, 5, 8))):
            n = T.n
            rows = [np.zeros(n, dtype=bool), np.ones(n, dtype=bool)]
            for size in (1, 2, 3):
                if size <= n:
                    for _ in range(4):
                        rows.append(np.isin(np.arange(n), rng.choice(n, size, replace=False)))
            comp = np.array(scc(T).component_of)
            for c in range(max(comp) + 1):
                rows.append(comp == c)
                rows.append((comp == c) | (comp == c + 1))
            for p in (0.02, 0.2, 0.6):
                rows.extend(rng.random((10, n)) < p)
            inclusion = np.array(rows)
            batch = hamiltonian_batch(T, inclusion)
            for row, got in zip(inclusion, batch):
                S = VertexSubset(n, np.flatnonzero(row))
                assert got == (len(S) > 0 and is_hamiltonian(induced(T, S)))

    def test_prefix_dtype_widens_past_int32(self):
        # the prefixes lie in [-n^2, 0]; checked from n alone, since the
        # n x n matrix at n = 46341 would take 2 GiB
        assert _prefix_dtype(46340) == np.int32
        assert _prefix_dtype(46341) == np.int64
        assert _prefix_dtype(MAX_VERTICES) == np.int64

    def test_shape_check(self):
        T = rotational_tournament(2)
        with pytest.raises(ValueError):
            hamiltonian_batch(T, np.zeros((4, 3), dtype=bool))

    def test_nested_lists_give_the_arrays_verdicts(self):
        # a nested list raised AttributeError on its missing ndim
        assert hamiltonian_batch(transitive_tournament(4), [[1, 1, 1, 1]]).tolist() == [False]
        T = random_tournament(6, 1)
        rows = [[m >> v & 1 for v in range(6)] for m in range(64)]
        assert (hamiltonian_batch(T, rows).tolist()
                == hamiltonian_batch(T, np.array(rows)).tolist())
        assert (hamiltonian_batch(T, [[bool(x) for x in row] for row in rows]).tolist()
                == hamiltonian_batch(T, np.array(rows, dtype=bool)).tolist())
        with pytest.raises(ValueError):
            hamiltonian_batch(T, [1, 0, 1, 0, 1, 0])

    def test_entries_other_than_zero_or_one_rejected(self):
        T = random_tournament(7, 3)
        inclusion = np.array([[m >> v & 1 for v in range(7)] for m in range(128)])
        want = hamiltonian_batch(T, inclusion.astype(bool))
        for dtype in (np.uint8, np.int64, np.float32, np.float64):
            assert hamiltonian_batch(T, inclusion.astype(dtype)).tolist() == want.tolist()
        # rows scaled by 2 gave 78 wrong verdicts out of 128; integer 2s on
        # the transitive tournament raised a bare IndexError
        for bad in (2.0 * inclusion, 0.5 * inclusion, np.where(inclusion, np.nan, 0.0),
                    -inclusion[1:]):
            with pytest.raises(ValueError):
                hamiltonian_batch(T, bad)
        with pytest.raises(ValueError):
            hamiltonian_batch(transitive_tournament(6), np.full((3, 6), 2))

    @pytest.mark.parametrize("dtype", [np.uint8, np.int64, np.float64])
    def test_entry_of_two_reads_as_in_a_matrix(self, dtype):
        # one 0/1 rule serves the matrix and the inclusion rows
        bad = np.array([[0, 1, 2], [0, 0, 1], [1, 0, 0]], dtype=dtype)
        with pytest.raises(ValueError) as matrix:
            Tournament(bad)
        with pytest.raises(ValueError) as batch:
            hamiltonian_batch(random_tournament(3, 1), bad)
        assert str(batch.value) == str(matrix.value) == "matrix entries must be 0 or 1"

    def test_all_subsets_of_small_parents(self):
        # every one of the 2^n subsets, checked against both other routes
        for seed in range(6):
            T = random_tournament(5, seed)
            inclusion = np.array([[m >> v & 1 for v in range(5)]
                                  for m in range(32)], dtype=bool)
            batch = hamiltonian_batch(T, inclusion)
            for m in range(32):
                members = [v for v in range(5) if m >> v & 1]
                if len(members) >= 1:
                    want = is_hamiltonian(induced(T, VertexSubset(5, members)))
                else:
                    want = False
                assert batch[m] == want
                if len(members) >= 3:
                    sub = induced(T, VertexSubset(5, members))
                    assert batch[m] == brute_force_hamiltonian(sub)


class TestPathAndAbsorb:
    def test_present_iff_hamiltonian_on_all_five_vertex_tournaments(self):
        for code in range(2 ** 10):
            T = tournament_from_bits(5, code)
            assert (hamilton_cycle(T) is None) == (not is_hamiltonian(T))

    def test_present_iff_hamiltonian_on_random_orders(self):
        for n in range(3, 41):
            for seed in range(5):
                T = random_tournament(n, 1000 * n + seed)
                assert (hamilton_cycle(T) is None) == (not is_hamiltonian(T))

    def test_source_vertex_leaves_nothing_to_close(self):
        # vertex 0 of the transitive tournament beats every other vertex
        assert hamilton_cycle(transitive_tournament(7)) is None

    def test_dominated_tail_without_a_source(self):
        # every vertex has in- and out-degree >= 2, yet A -> B: the cycle
        # closes inside one half and the rest of the path never gets back
        T = extremal_theorem1_even(2)
        assert T.in_degrees().min() >= 2
        assert hamilton_cycle(T) is None

    def test_certificates_at_n_2000(self):
        n = 2000
        adj = np.array(extremal_main(n, 2).adj)
        ra, rb, _ = extremal_main_blocks(n, 2)
        rng = np.random.default_rng(0)
        a = rng.integers(ra.start, ra.stop, n)
        b = rng.integers(rb.start, rb.stop, n)
        adj[a, b] = 0
        adj[b, a] = 1
        for T in (random_tournament(n, 5), Tournament(adj)):
            cert = hamilton_cycle(T)
            assert cert is not None
            check_certificate(T, cert)
