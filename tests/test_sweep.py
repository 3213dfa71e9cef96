"""One Philox draw per block for a whole p sweep, and the batch kernel's
edge batches: the sweep's counts equal a per-p draw's, bit for bit."""

import numpy as np
import pytest

from tourneylab import (SamplePlan, estimate_hamiltonian_probability,
                        estimate_sweep, extremal_main, hamiltonian_batch,
                        random_tournament, transitive_tournament)
from tourneylab import sampling
from tourneylab.errors import BadParams
from tourneylab.sampling import BLOCK_TRIALS, _block_uniforms, _word_threshold

SWEEP_PS = [0.7, 0.05, 0.5, 0.5]  # unsorted, with a duplicate
TRIALS = 5_000  # two full blocks and a partial one


def per_p_count(T, p, trials, master_seed):
    """The success count of a sweep that draws every block again per p."""
    successes = 0
    for start in range(0, trials, BLOCK_TRIALS):
        rows = min(BLOCK_TRIALS, trials - start)
        words = _block_uniforms(master_seed, start // BLOCK_TRIALS, rows, T.n)
        successes += int(hamiltonian_batch(T, words < _word_threshold(p)).sum())
    return successes


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

    def test_reports_share_the_sweep_wall_time(self):
        reports = estimate_sweep(random_tournament(12, 1), [0.2, 0.8], 100, 1)
        assert reports[0].wall_time == reports[1].wall_time >= 0

    @pytest.mark.parametrize("ps", [[], [0.5, 1.0], [0.5, "0.5"], [0.5, True]])
    def test_bad_p_values_rejected(self, ps):
        with pytest.raises(BadParams):
            estimate_sweep(random_tournament(12, 1), ps, 100, 1)


class TestBatchKernelEdges:
    def test_batch_of_no_rows(self):
        got = hamiltonian_batch(random_tournament(10, 2), np.zeros((0, 10), dtype=bool))
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
