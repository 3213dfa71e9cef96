import dataclasses
import math

import numpy as np
import pytest
from numpy.random import Generator, Philox
from conftest import brute_force_size_counts, planted_blocks

from tourneylab import (EstimateReport, SamplePlan, VertexSubset,
                        estimate_hamiltonian_probability, estimate_sweep,
                        exact_hamiltonian_probability, extremal_main,
                        extremal_theorem1_even, extremal_theorem1_odd,
                        induced, is_hamiltonian, near_regular_tournament,
                        random_tournament, sample_subset, theoretical_bound,
                        transitive_tournament, trial_subset,
                        uniform_subset_probability, wilson_interval)
from tourneylab import sampling
from tourneylab.errors import BadParams, TooLarge
from tourneylab.sampling import (BLOCK_TRIALS, Z95, Z997, _block_uniforms,
                                 _word_threshold, hamiltonian_subset_size_counts)


class TestSamplePlan:
    def test_validation(self):
        with pytest.raises(BadParams):
            SamplePlan(p=0.0, trials=10, master_seed=1)
        with pytest.raises(BadParams):
            SamplePlan(p=1.0, trials=10, master_seed=1)
        with pytest.raises(BadParams):
            SamplePlan(p=0.5, trials=0, master_seed=1)
        with pytest.raises(BadParams):
            SamplePlan(p=0.5, trials=10, master_seed=-1)

    @pytest.mark.parametrize("p, trials, master_seed", [
        (0.5, 3000, 1.5),      # would run as seed 1 and echo 1.5
        (0.5, True, 1),        # would run one trial and echo true
        (0.5, 3000.0, 1),
        (0.5, "3000", 1),
        (0.5, 3000, False),
        (0.5, 3000, "1"),
        (0.5, 3000, None),
        (True, 3000, 1),
        ("0.5", 3000, 1),
        (None, 3000, 1),
        (0.5 + 0j, 3000, 1),
    ])
    def test_rejects_wrong_types(self, p, trials, master_seed):
        with pytest.raises(BadParams):
            SamplePlan(p=p, trials=trials, master_seed=master_seed)

    def test_numpy_numbers_accepted(self):
        T = random_tournament(9, seed=4)
        plain = estimate_hamiltonian_probability(
            T, SamplePlan(p=0.5, trials=3000, master_seed=1), threads=1)
        for plan in (SamplePlan(p=np.float64(0.5), trials=np.int64(3000),
                                master_seed=np.uint64(1)),
                     SamplePlan(p=0.5, trials=np.int32(3000), master_seed=np.int64(1))):
            assert estimate_hamiltonian_probability(
                T, plan, threads=1).successes == plain.successes


class TestWilson:
    def test_basic_properties(self):
        for s, t in [(0, 10), (10, 10), (3, 10), (500, 1000)]:
            lo, hi = wilson_interval(s, t)
            assert 0.0 <= lo <= s / t <= hi <= 1.0

    def test_narrower_at_95_than_997(self):
        lo95, hi95 = wilson_interval(40, 100, Z95)
        lo997, hi997 = wilson_interval(40, 100, Z997)
        assert lo997 < lo95 and hi95 < hi997

    @pytest.mark.parametrize("z", [-1.96, 0, 0.0, math.nan, math.inf, -math.inf])
    def test_z_must_be_finite_and_positive(self, z):
        # a z <= 0 gave (0.4, 0.4) for 40/100, and nan or inf gave (0.0, 1.0)
        with pytest.raises(BadParams):
            wilson_interval(40, 100, z)

    @pytest.mark.parametrize("z", ["1.96", True, None, 1.96j, [1.96]])
    def test_z_must_be_a_real_number(self, z):
        # "1.96" raised a raw TypeError, and True ran as z = 1
        with pytest.raises(BadParams):
            wilson_interval(40, 100, z)

    @pytest.mark.parametrize("z", [np.float64(Z95), np.float32(2.5), np.int64(2), 2])
    def test_numpy_and_integer_z_accepted(self, z):
        assert wilson_interval(40, 100, z) == wilson_interval(40, 100, float(z))


class TestEstimateReport:
    def test_holds_only_what_it_is_built_from(self):
        assert [f.name for f in dataclasses.fields(EstimateReport)] == [
            "successes", "trials", "p", "master_seed", "wall_time"]

    @pytest.mark.parametrize("s, t", [(0, 10), (40, 100), (3, 7), (5000, 5000)])
    def test_estimate_and_interval_derive_from_the_counts(self, s, t):
        rep = EstimateReport(s, t, 0.5, 9, 1.25)
        assert rep.point_estimate == s / t
        assert (rep.ci_low, rep.ci_high) == wilson_interval(s, t)
        assert rep.to_json_dict() == {
            "p": 0.5, "trials": t, "seed": 9, "successes": s, "estimate": s / t,
            "ci_low": wilson_interval(s, t)[0], "ci_high": wilson_interval(s, t)[1]}


class TestSampleSubset:
    def test_replay_determinism(self):
        a = sample_subset(50, 0.3, np.random.default_rng(99))
        b = sample_subset(50, 0.3, np.random.default_rng(99))
        assert a == b

    def test_size_concentration(self):
        # binomial tail: P[|X - np| > 4 sigma] ~ 6e-5, so expect ~0 misses
        n, p = 10_000, 0.5
        sigma = math.sqrt(n * p * (1 - p))
        inside = 0
        for seed in range(1000):
            size = len(sample_subset(n, p, np.random.default_rng(seed)))
            if abs(size - n * p) <= 4 * sigma:
                inside += 1
        assert inside >= 990

    def test_mean_matches_binomial(self):
        n, p = 60, 0.35
        rng = np.random.default_rng(5)
        total = sum(len(sample_subset(n, p, rng)) for _ in range(100_000))
        assert abs(total / 100_000 - n * p) <= 0.01 * n * p

    def test_p_range(self):
        with pytest.raises(BadParams):
            sample_subset(10, 1.5, np.random.default_rng(0))


class TestEstimate:
    def test_triangle_eighth(self, triangle):
        plan = SamplePlan(p=0.5, trials=40_000, master_seed=11)
        rep = estimate_hamiltonian_probability(triangle, plan)
        assert rep.ci_low <= 0.125 <= rep.ci_high
        assert abs(rep.point_estimate - 0.125) < 0.02

    def test_two_block_family_rarely_hamiltonian(self):
        T = extremal_theorem1_even(12)  # n = 50
        plan = SamplePlan(p=0.5, trials=100_000, master_seed=3)
        rep = estimate_hamiltonian_probability(T, plan)
        assert rep.point_estimate < 0.01

    def test_against_exact_enumeration(self):
        T = random_tournament(16, seed=21)
        plan = SamplePlan(p=0.4, trials=100_000, master_seed=8)
        rep = estimate_hamiltonian_probability(T, plan)
        exact = exact_hamiltonian_probability(T, 0.4)
        half_width = (rep.ci_high - rep.ci_low) / 2
        assert abs(rep.point_estimate - exact) <= 3 * half_width

    def test_bit_identical_replay_and_threads(self):
        T = extremal_main(31, 1)
        plan = SamplePlan(p=0.5, trials=7_000, master_seed=123)
        r1 = estimate_hamiltonian_probability(T, plan, threads=1)
        r2 = estimate_hamiltonian_probability(T, plan, threads=1)
        r3 = estimate_hamiltonian_probability(T, plan, threads=3)
        assert r1.to_json_dict() == r2.to_json_dict() == r3.to_json_dict()

    def test_trials_match_trial_subset_route(self):
        # the batch estimator must count exactly what the per-trial
        # definition (sample, induce, decide) would; trials chosen to
        # cross a block boundary of the per-trial stream derivation
        T = random_tournament(12, seed=2)
        plan = SamplePlan(p=0.45, trials=2200, master_seed=77)
        rep = estimate_hamiltonian_probability(T, plan)
        manual = 0
        for i in range(plan.trials):
            S = trial_subset(T.n, plan.p, plan.master_seed, i)
            if len(S) >= 3 and is_hamiltonian(induced(T, S)):
                manual += 1
        assert rep.successes == manual

    @pytest.mark.parametrize("threads", [1, 2])
    def test_pinned_success_counts(self, threads):
        # any change to the Philox stream, the inclusion test or the kernel
        # moves these counts
        for T, seed, trials, ps, want in (
                (extremal_main(203, 2), 42, 10_000, (0.3, 0.5, 0.7), [5164, 7506, 9080]),
                (random_tournament(40, 3), 7, 5_000, (0.05, 0.15), [520, 3053])):
            got = [estimate_hamiltonian_probability(
                T, SamplePlan(p=p, trials=trials, master_seed=seed), threads=threads).successes
                for p in ps]
            assert got == want

    def test_report_fields(self, triangle):
        rep = estimate_hamiltonian_probability(
            triangle, SamplePlan(p=0.5, trials=100, master_seed=4))
        d = rep.to_json_dict()
        assert set(d) == {"p", "trials", "seed", "successes", "estimate",
                          "ci_low", "ci_high"}
        assert 0 <= d["ci_low"] <= d["estimate"] <= d["ci_high"] <= 1
        assert rep.wall_time >= 0

    def test_degenerate_tiny_tournaments(self):
        # nothing below 3 vertices ever counts as a success
        rep = estimate_hamiltonian_probability(
            transitive_tournament(2), SamplePlan(p=0.9, trials=2000, master_seed=1))
        assert rep.successes == 0


class TestWordThreshold:
    PS = (2.0**-53, 0.1, 0.3, 0.5, 1 - 2.0**-53)

    @pytest.mark.parametrize("p", PS)
    def test_agrees_with_uniform_compare(self, p):
        # Generator.random() is (x >> 11) * 2^-53 for the raw word x, so the
        # integer threshold must split the words exactly where p does
        c = math.ceil(p * 2**53)
        words = np.array([0, (c << 11) - 1, c << 11, (c << 11) + 1, 2**64 - 1],
                         dtype=np.uint64)
        uniform = (words >> np.uint64(11)).astype(np.float64) * 2.0**-53
        assert ((words < _word_threshold(p)) == (uniform < p)).all()
        assert (words < _word_threshold(p)).tolist() == [True, True, False, False, False]

    @pytest.mark.parametrize("p", PS)
    def test_full_block_matches_generator(self, p):
        words = _block_uniforms(42, 3, BLOCK_TRIALS, 50)
        key = np.array([42, 3], dtype=np.uint64)
        u = Generator(Philox(key=key)).random((BLOCK_TRIALS, 50))
        assert np.array_equal(words < _word_threshold(p), u < p)

    def test_p_outside_open_interval_rejected(self):
        # 1 << 64 would not fit the word, so p = 1 is refused like p = 0
        for p in (0.0, 1.0, 1.5):
            with pytest.raises(BadParams):
                trial_subset(5, p, 1, 0)


class TestExact:
    def test_triangle(self, triangle):
        assert exact_hamiltonian_probability(triangle, 0.5) == pytest.approx(0.125)

    def test_transitive_always_zero(self):
        for n in (3, 7, 12):
            assert exact_hamiltonian_probability(transitive_tournament(n), 0.37) == 0.0

    def test_hub_construction_decomposition(self):
        # n = 11 hub construction: Hamiltonian essentially iff the hub is
        # sampled and both halves are hit
        T = extremal_theorem1_odd(2)
        value = exact_hamiltonian_probability(T, 0.5)
        assert 0.45 < value < 0.55
        p_hub = 0.5
        p_miss_half = 2 * 0.5**5
        assert value <= p_hub + p_miss_half

    def test_size_cap(self):
        with pytest.raises(TooLarge):
            exact_hamiltonian_probability(transitive_tournament(21), 0.5)

    def test_probability_sums_over_sizes(self, triangle):
        # p + (1-p) decomposition sanity at an asymmetric p
        value = exact_hamiltonian_probability(triangle, 0.25)
        assert value == pytest.approx(0.25**3)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_counts_match_referee(self, n):
        planted = planted_blocks(n)  # its labels are permuted: take any n
        for T in (random_tournament(n, seed=n), random_tournament(n, seed=100 + n),
                  induced(planted, VertexSubset(planted.n, range(n))),
                  transitive_tournament(n)):
            counts = hamiltonian_subset_size_counts(T)
            assert counts.tolist() == brute_force_size_counts(T).tolist()

    def test_cap_n20(self):
        T = random_tournament(20, seed=5)
        counts = hamiltonian_subset_size_counts(T)
        scores = T.out_degrees().astype(np.int64)
        # Moon: a 3-set is a 3-cycle unless one member beats the other two
        assert counts[3] == math.comb(20, 3) - int((scores * (scores - 1) // 2).sum())
        assert counts[20] == is_hamiltonian(T)
        assert counts[:3].tolist() == [0, 0, 0]

    def test_monotone_in_p_for_main_family(self):
        T = extremal_main(16, 2)
        assert (exact_hamiltonian_probability(T, 0.6)
                >= exact_hamiltonian_probability(T, 0.4))


class TestUniform:
    def test_triangle(self, triangle):
        assert uniform_subset_probability(triangle) == pytest.approx(1 / 8)

    def test_matches_direct_enumeration(self):
        T = extremal_theorem1_even(1)  # n = 6
        count = 0
        for mask in range(1, 64):
            members = [v for v in range(6) if mask >> v & 1]
            if len(members) >= 3 and is_hamiltonian(induced(T, VertexSubset(6, members))):
                count += 1
        assert uniform_subset_probability(T) == pytest.approx(count / 64)

    def test_near_regular_11_at_least_045(self):
        assert uniform_subset_probability(near_regular_tournament(11)) >= 0.45


class TestTheoreticalBound:
    def test_plain_case(self):
        b = theoretical_bound(12, 1, 0.5)
        assert b.bound_value == pytest.approx(0.5)
        assert not b.improved  # 11 mod 4 = 3

    def test_improved_case(self):
        b = theoretical_bound(14, 1, 0.5)
        assert b.improved  # 13 mod 4 = 1
        assert b.bound_value == pytest.approx(0.75)

    def test_limit_toward_one(self):
        assert theoretical_bound(40, 2, 0.999).bound_value > 0.999

    def test_monotone_in_t_and_p(self):
        values_t = [theoretical_bound(103, t, 0.4).bound_value for t in (1, 2, 5, 9)]
        assert values_t == sorted(values_t)
        values_p = [theoretical_bound(103, 2, p).bound_value
                    for p in (0.1, 0.3, 0.5, 0.7, 0.9)]
        assert values_p == sorted(values_p)

    def test_bad_params(self):
        with pytest.raises(BadParams):
            theoretical_bound(10, 0, 0.5)
        with pytest.raises(BadParams):
            theoretical_bound(10, 1, 0.0)


class TestCountArguments:
    @pytest.mark.parametrize("call", [
        lambda: trial_subset(30, 0.5, 1.5, 5),    # returned seed 1's subset
        lambda: trial_subset(30, 0.5, 1, -1),     # raw OverflowError
        lambda: trial_subset(30, 0.5, 1, 2.7),    # raw TypeError
        lambda: trial_subset(30, 0.5, True, 5),
        lambda: theoretical_bound(203, 1.5, 0.5),  # 0.646 from a fractional exponent
        lambda: theoretical_bound(203.0, 1, 0.5),
        lambda: wilson_interval(5.5, 10),
        lambda: wilson_interval(11, 10),          # complex square root
    ])
    def test_non_integer_or_out_of_range_rejected(self, call):
        with pytest.raises(BadParams):
            call()


class _FirstBlock(Exception):
    pass


class TestNumpyCounts:
    """A numpy integer computes as its Python int: arithmetic in its own
    dtype overflowed, which the suite's warning filter turns into errors."""

    def test_theoretical_bound(self):
        # n - t and t + 1 overflowed uint8
        assert theoretical_bound(300, np.uint8(255), 0.5) == theoretical_bound(300, 255, 0.5)

    def test_wilson_interval(self):
        # 4 * trials * trials overflowed int32
        assert (wilson_interval(np.int32(40_000), np.int32(100_000))
                == wilson_interval(40_000, 100_000))

    def test_estimate_sweep_trials(self, monkeypatch, triangle):
        # trials + BLOCK_TRIALS - 1 overflowed int32 before the first block;
        # the stub stops each run at its first block, which both runs reach
        firsts = []

        def first_block(*args):
            firsts.append(args)
            raise _FirstBlock
        monkeypatch.setattr(sampling, "_block_uniforms", first_block)
        for trials in (np.int32(2**31 - 1), 2**31 - 1):
            with pytest.raises(_FirstBlock):
                estimate_sweep(triangle, [0.5], trials, 1, threads=1)
        assert firsts[0] == (1, 0, BLOCK_TRIALS, 3)
        assert firsts[:len(firsts) // 2] == firsts[len(firsts) // 2:]


class TestThreadsArgument:
    @pytest.mark.parametrize("threads", [0, -3, True, 2.5, "2"])
    def test_bad_worker_counts_rejected(self, threads):
        # 0, -3 and True ran as one worker, 2.5 ran, "2" raised TypeError
        plan = SamplePlan(p=0.5, trials=100, master_seed=1)
        with pytest.raises(BadParams, match="threads"):
            estimate_hamiltonian_probability(near_regular_tournament(5), plan, threads=threads)

    def test_none_reads_the_environment(self, monkeypatch):
        monkeypatch.setenv("TOURNEYLAB_THREADS", "0")
        plan = SamplePlan(p=0.5, trials=100, master_seed=1)
        with pytest.raises(BadParams, match="TOURNEYLAB_THREADS"):
            estimate_hamiltonian_probability(near_regular_tournament(5), plan)
