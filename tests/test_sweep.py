"""One Philox draw per block for a whole p sweep, and the batch kernel's
edge batches: the sweep's counts equal a per-p draw's, bit for bit, and
the witnessed verdicts of a block's rows."""

import tracemalloc

import numpy as np
import pytest
from conftest import kernel_count as per_p_count
from conftest import splits

from tourneylab import (SamplePlan, VertexSubset, estimate_hamiltonian_probability,
                        estimate_sweep, extremal_main, extremal_theorem1_odd,
                        hamilton_cycle, hamiltonian_batch, induced,
                        random_tournament, scc, transitive_tournament)
from tourneylab import Tournament, sampling
from tourneylab.errors import BadParams
from tourneylab.hamilton import _landau_strong
from tourneylab.sampling import BLOCK_TRIALS, _block_uniforms, _word_threshold

SWEEP_PS = [0.7, 0.05, 0.5, 0.5]  # unsorted, with a duplicate
TRIALS = 5_000  # two full blocks and a partial one


class TestSweep:
    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("T", [random_tournament(40, 3), extremal_main(31, 1)],
                             ids=["random40", "main31"])
    def test_equals_the_per_p_estimator(self, T, threads):
        reports = estimate_sweep(T, SWEEP_PS, TRIALS, 11, threads=threads)
        assert [r.p for r in reports] == SWEEP_PS
        for p, rep in zip(SWEEP_PS, reports):
            one = estimate_hamiltonian_probability(
                T, SamplePlan(p=p, trials=TRIALS, master_seed=11), threads=threads)
            assert rep.to_json_dict() == one.to_json_dict()
            assert rep.successes == per_p_count(T, p, TRIALS, 11)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_pinned_success_counts(self, threads):
        for T, seed, trials, ps, want in (
                (extremal_main(203, 2), 42, 10_000, (0.3, 0.5, 0.7), [5164, 7506, 9080]),
                (random_tournament(40, 3), 7, 5_000, (0.05, 0.15), [520, 3053])):
            reports = estimate_sweep(T, ps, trials, seed, threads=threads)
            assert [r.successes for r in reports] == want

    def test_each_block_is_drawn_once(self, monkeypatch):
        draws = []

        def counting(*args):
            draws.append(args)
            return _block_uniforms(*args)

        monkeypatch.setattr(sampling, "_block_uniforms", counting)
        estimate_sweep(random_tournament(40, 3), [0.3, 0.5, 0.7], TRIALS, 5, threads=1)
        assert sorted(args[1] for args in draws) == [0, 1, 2]

    def test_counts_equal_at_any_worker_count(self, monkeypatch):
        # 7 full blocks and a partial one: worker counts that do not divide
        # the block count, and more workers than blocks
        T, ps, trials = random_tournament(20, 2), [0.3, 0.6], 7 * BLOCK_TRIALS + 100
        draws = []

        def counting(*args):
            draws.append(args[1])
            return _block_uniforms(*args)

        monkeypatch.setattr(sampling, "_block_uniforms", counting)
        want = [per_p_count(T, p, trials, 3) for p in ps]
        for threads in (1, 2, 3, 4, 8):
            draws.clear()
            reports = estimate_sweep(T, ps, trials, 3, threads=threads)
            assert [r.successes for r in reports] == want
            assert sorted(draws) == list(range(8))  # every block exactly once

    def test_pending_blocks_do_not_grow_with_trials(self):
        # each block handed to the pool at once holds about 1.9 KB until it
        # runs: 1000 blocks handed over together peak near 2.5 MB
        T = transitive_tournament(3)
        estimate_sweep(T, [0.5], 1, 1, threads=2)  # the first call's one-off allocations
        tracemalloc.start()
        try:
            estimate_sweep(T, [0.5], 1000 * BLOCK_TRIALS, 1, threads=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_a_block_holds_its_words_and_few_levels(self):
        # only each part's lowest word is leveled: a one-block sweep on
        # main(2003, 2) holds its words and the quotient's two part matrices
        # (0.24 of the words), and no level per vertex
        T, ps = extremal_main(2003, 2), [0.3, 0.5, 0.7]
        estimate_sweep(T, ps, BLOCK_TRIALS, 1, threads=1)  # the first call's one-off allocations
        tracemalloc.start()
        try:
            estimate_sweep(T, ps, BLOCK_TRIALS, 1, threads=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.3 * BLOCK_TRIALS * T.n * 8

    def test_reports_share_the_sweep_wall_time(self):
        reports = estimate_sweep(random_tournament(12, 1), [0.2, 0.8], 100, 1)
        assert reports[0].wall_time == reports[1].wall_time >= 0

    @pytest.mark.parametrize("ps", [[], [0.5, 1.0], [0.5, "0.5"], [0.5, True]])
    def test_bad_p_values_rejected(self, ps):
        with pytest.raises(BadParams):
            estimate_sweep(random_tournament(12, 1), ps, 100, 1)


def _with_vertex_appended(T, sink):
    """T plus one vertex that every vertex of T beats (a sink) or that
    beats every vertex of T (a source)."""
    adj = np.zeros((T.n + 1, T.n + 1), dtype=np.uint8)
    adj[:T.n, :T.n] = T.adj
    adj[:T.n, T.n] = sink
    adj[T.n, :T.n] = not sink
    return Tournament(adj)


class TestAbsorption:
    """The sweep counts a row strong without the kernel when it only adds
    vertices with an in- and an out-neighbour in a smaller strong subset;
    every count must still equal the kernel's own on that p's draw."""

    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("T, ps, trials", [
        # the sink has no out-neighbour (the source no in-neighbour) in any
        # subset, so a row that gains it must go back to the kernel
        (_with_vertex_appended(random_tournament(30, 4), sink=True),
         [0.3, 0.5, 0.7, 0.9], TRIALS),
        (_with_vertex_appended(random_tournament(30, 4), sink=False),
         [0.3, 0.5, 0.7, 0.9], TRIALS),
        # lower levels hold empty and 1-2 vertex rows
        (random_tournament(40, 3), [0.001, 0.01, 0.03, 0.1, 0.6], TRIALS),
        (transitive_tournament(25), [0.2, 0.5, 0.8], TRIALS),
        # 300 distinct thresholds: the levels are uint16
        (random_tournament(20, 5), list(np.linspace(0.05, 0.95, 300)), 300),
    ], ids=["sink", "source", "tiny-p", "transitive", "300-levels"])
    def test_counts_equal_the_per_p_kernel(self, T, ps, trials, threads):
        reports = estimate_sweep(T, ps, trials, 23, threads=threads)
        assert [r.successes for r in reports] == [
            per_p_count(T, p, trials, 23) for p in ps]

    def test_levels_after_the_first_see_fewer_rows(self, monkeypatch):
        seen = []

        def counting(product):
            seen.append(len(product))
            return _landau_strong(product)

        monkeypatch.setattr(sampling, "_landau_strong", counting)
        T = random_tournament(40, 3)
        estimate_sweep(T, [0.3, 0.5, 0.7], BLOCK_TRIALS, 5, threads=1)
        assert seen[0] == BLOCK_TRIALS and len(seen) == 3
        assert all(0 < rows < BLOCK_TRIALS for rows in seen[1:])
        seen.clear()
        estimate_sweep(T, [0.5], TRIALS, 5, threads=1)
        assert seen == [BLOCK_TRIALS, BLOCK_TRIALS, TRIALS - 2 * BLOCK_TRIALS]


class TestBatchKernelEdges:
    def test_batch_of_no_rows(self):
        got = hamiltonian_batch(random_tournament(10, 2), np.zeros((0, 10), dtype=bool))
        assert got.dtype == bool and got.shape == (0,)

    def test_uint8_batch_of_no_rows(self):
        # the uint8 entry check reads a maximum, which an empty array has not
        got = hamiltonian_batch(random_tournament(5, 2), np.zeros((0, 5), dtype=np.uint8))
        assert got.dtype == bool and got.shape == (0,)

    @pytest.mark.parametrize("n", [1, 2, 10])
    def test_all_empty_rows(self, n):
        got = hamiltonian_batch(random_tournament(n, 2), np.zeros((5, n), dtype=bool))
        assert got.dtype == bool and got.tolist() == [False] * 5

    def test_batch_of_pairs_only(self):
        # |S| <= 2 in every row: no row can reach the prefix test
        inclusion = np.zeros((3, 6), dtype=bool)
        inclusion[0, 0] = inclusion[1, [1, 2]] = inclusion[2, [3, 5]] = True
        assert not hamiltonian_batch(transitive_tournament(6), inclusion).any()


CERTIFIED_ROWS = 1024


class TestTwoSidedCertificates:
    @pytest.mark.parametrize("build, ps", [
        (lambda: extremal_main(203, 1), (0.3, 0.5, 0.7)),
        (lambda: extremal_main(203, 2), (0.3, 0.5, 0.7)),
        (lambda: extremal_main(203, 3), (0.3, 0.5, 0.7)),
        (lambda: extremal_theorem1_odd(49), (0.5,)),
    ], ids=["main203-1", "main203-2", "main203-3", "theorem1-odd49"])
    def test_every_verdict_is_witnessed(self, build, ps):
        # at n ~ 200, past the exhaustive oracles' n <= 20, each of block
        # 0's first rows proves its verdict: a Hamilton cycle whose edges
        # check on T, or a part of S that beats the rest of S; the proven
        # verdicts must then add up to the sweep's counts
        T = build()
        words = _block_uniforms(42, 0, CERTIFIED_ROWS, T.n)
        yes = []
        for p in ps:
            yes.append(0)
            for row in words < _word_threshold(p):
                S = VertexSubset(T.n, np.flatnonzero(row))
                sub = induced(T, S)
                cycle = hamilton_cycle(sub)
                if cycle is None:
                    top = scc(sub).component_of
                    assert splits(T, S, [v for v, c in zip(S.members, top) if c == 0])
                else:
                    order = np.array(cycle.translate(sub.parent_labels).order)
                    assert len(order) >= 3 and sorted(order) == sorted(S.members)
                    assert T.adj[order, np.roll(order, -1)].all()
                    yes[-1] += 1
        assert yes == [r.successes for r in estimate_sweep(T, ps, CERTIFIED_ROWS, 42)]
