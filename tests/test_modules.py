"""The module partition behind the estimator's quotient: its parts against
brute-force modules and known block structures, and the sweep's per-row
verdicts on the quotient against the score kernel run on T itself."""

from itertools import combinations

import numpy as np
import pytest
from conftest import (kernel_count, path_tournament, planted_blocks,
                      strongly_connected_by_bfs, tournament_from_bits)

from tourneylab import (Tournament, estimate_sweep, extremal_main,
                        extremal_main_blocks, extremal_theorem1_even,
                        extremal_theorem1_odd, hamiltonian_batch,
                        random_tournament, transitive_tournament)
from tourneylab.hamilton import _module_partition
from tourneylab.sampling import (BLOCK_TRIALS, _block_uniforms, _block_verdicts,
                                 _quotient, _word_threshold)


def by_lowest_vertex(labels) -> list[int]:
    """Renumber a labelling so that parts are numbered by their lowest vertex."""
    first: dict = {}
    return [first.setdefault(label, len(first)) for label in labels]


def is_module(T: Tournament, part: list[int]) -> bool:
    inside = np.zeros(T.n, dtype=bool)
    inside[part] = True
    cols = T.adj[~inside][:, inside]
    return bool(np.all(cols.min(axis=1) == cols.max(axis=1)))


def reachability(T: Tournament) -> np.ndarray:
    """reach[u, v]: a directed path from u to v, by boolean matrix squaring."""
    reach = T.adj.astype(bool) | np.eye(T.n, dtype=bool)
    while True:
        grown = (reach.astype(np.int64) @ reach.astype(np.int64)) > 0
        if np.array_equal(grown, reach):
            return reach
        reach = grown


def components(T: Tournament) -> list[int]:
    reach = reachability(T)
    mutual = reach & reach.T
    return by_lowest_vertex(int(np.argmax(row)) for row in mutual)


def brute_force_partition(T: Tournament) -> list[int]:
    """The strong components when T is not strong or n < 3, else the
    maximal proper modules, found among all 2^n vertex sets."""
    n = T.n
    if n < 3 or not strongly_connected_by_bfs(T):
        return components(T)
    modules = [set(part) for size in range(1, n) for part in combinations(range(n), size)
               if is_module(T, list(part))]
    maximal = [m for m in modules if not any(m < other for other in modules)]
    labels = [None] * n
    for i, m in enumerate(maximal):
        for v in m:
            assert labels[v] is None  # the maximal modules of a strong T are disjoint
            labels[v] = i
    return by_lowest_vertex(labels)


def permuted(T: Tournament, seed: int) -> tuple[Tournament, np.ndarray]:
    """T with its labels permuted, and perm: new vertex i is old perm[i]."""
    perm = np.random.default_rng(seed).permutation(T.n)
    return Tournament(T.adj[np.ix_(perm, perm)]), perm


def substitution(seed: int, parts: int | None = None) -> tuple[Tournament, list[int]]:
    """Random blocks substituted into a random prime quotient of ``parts``
    vertices (3-6 at random when None), labels permuted; returns T and each
    vertex's block."""
    rng = np.random.default_rng(seed)
    while True:
        m = int(rng.integers(3, 7)) if parts is None else parts
        Q = random_tournament(m, int(rng.integers(2**32)))
        if brute_force_partition(Q) == list(range(m)) and strongly_connected_by_bfs(Q):
            break
    sizes = [int(s) for s in rng.integers(1, 9, size=m)]
    blocks = [random_tournament(size, int(rng.integers(2**32))) for size in sizes]
    block_of = np.repeat(np.arange(m), sizes)
    adj = Q.adj[np.ix_(block_of, block_of)].copy()
    start = 0
    for B in blocks:
        adj[start:start + B.n, start:start + B.n] = B.adj
        start += B.n
    T, perm = permuted(Tournament(adj), seed)
    return T, by_lowest_vertex(block_of[perm])


class TestModulePartition:
    def test_exhaustive_up_to_five_vertices(self):
        for n in range(1, 6):
            for code in range(1 << n * (n - 1) // 2):
                T = tournament_from_bits(n, code)
                assert _module_partition(T).tolist() == brute_force_partition(T), (n, code)

    def test_random_tournaments_of_six_to_eight_vertices(self):
        rng = np.random.default_rng(5)
        for _ in range(150):
            n = int(rng.integers(6, 9))
            T = tournament_from_bits(n, int(rng.integers(1 << n * (n - 1) // 2)))
            assert _module_partition(T).tolist() == brute_force_partition(T)

    @pytest.mark.parametrize("seed", range(12))
    def test_substitutions_give_their_blocks(self, seed):
        T, blocks = substitution(seed)
        got = _module_partition(T).tolist()
        assert got == blocks
        if T.n <= 8:
            assert got == brute_force_partition(T)

    @pytest.mark.parametrize("build, blocks", [
        (lambda: extremal_main(31, 1), extremal_main_blocks(31, 1)),
        (lambda: extremal_main(203, 2), extremal_main_blocks(203, 2)),
        (lambda: extremal_main(40, 5), extremal_main_blocks(40, 5)),
        (lambda: extremal_theorem1_even(1), (range(3), range(3, 6))),
        (lambda: extremal_theorem1_even(4), (range(9), range(9, 18))),
        (lambda: extremal_theorem1_odd(1), (range(3), range(3, 6), range(6, 7))),
        (lambda: extremal_theorem1_odd(5), (range(11), range(11, 22), range(22, 23))),
    ], ids=["main31", "main203", "main40", "even1", "even4", "odd1", "odd5"])
    def test_block_families_give_their_blocks(self, build, blocks):
        block_of = np.concatenate([[i] * len(r) for i, r in enumerate(blocks)])
        for seed in range(3):
            T, perm = permuted(build(), seed)
            assert _module_partition(T).tolist() == by_lowest_vertex(block_of[perm])

    @pytest.mark.parametrize("seed", range(6))
    def test_planted_blocks_give_their_components(self, seed):
        T = planted_blocks(seed)
        labels = _module_partition(T)
        assert labels.tolist() == components(T)
        assert all(is_module(T, np.flatnonzero(labels == b).tolist())
                   for b in range(labels.max() + 1))

    @pytest.mark.parametrize("T", [*(random_tournament(40, seed) for seed in range(4)),
                                   random_tournament(203, 1), transitive_tournament(25),
                                   path_tournament(8), path_tournament(300)],
                             ids=["random40-0", "random40-1", "random40-2", "random40-3",
                                  "random203", "transitive25", "path8", "path300"])
    def test_inputs_without_modules_give_singletons(self, T):
        # each split of the path tournament separates one vertex, whose
        # edges then split the rest
        assert _module_partition(T).tolist() == list(range(T.n))
        if T.n <= 8:
            assert brute_force_partition(T) == list(range(T.n))


def block_levels(T: Tournament, ps: list[float], master_seed: int):
    """Block 0's words and the sweep's sorted distinct thresholds."""
    words = _block_uniforms(master_seed, 0, BLOCK_TRIALS, T.n)
    distinct = np.unique([_word_threshold(p) for p in ps])
    return words, distinct


REFEREE_PS = [0.02, 0.05, 0.1, 0.2, 0.35, 0.6]


def referee_inputs() -> dict[str, Tournament]:
    inputs = {f"even{k}": permuted(extremal_theorem1_even(k), k)[0] for k in (1, 2, 3)}
    inputs |= {f"odd{k}": permuted(extremal_theorem1_odd(k), k)[0] for k in (1, 2, 3)}
    inputs |= {"main31": permuted(extremal_main(31, 1), 1)[0], "main40": extremal_main(40, 5),
               "planted2": planted_blocks(2), "planted5": planted_blocks(5),
               "random30": random_tournament(30, 2), "transitive12": transitive_tournament(12)}
    inputs |= {f"substitution{seed}": substitution(seed)[0] for seed in range(4)}
    # prime quotients of 12 parts, decided by table lookup, and of 13, by
    # the kernel; at these seeds some rows inside one part are Hamiltonian
    inputs |= {f"quotient{parts}": substitution(seed, parts)[0]
               for seed, parts in ((3, 12), (2, 13))}
    return inputs


REFEREE_INPUTS = referee_inputs()


class TestQuotientVerdicts:
    """Row by row, the sweep's verdicts on the quotient equal the score
    kernel on T itself, at every level of a block."""

    @pytest.mark.parametrize("name", REFEREE_INPUTS)
    def test_each_row_equals_the_kernel_on_T(self, name):
        T = REFEREE_INPUTS[name]
        words, distinct = block_levels(T, REFEREE_PS, 17)
        verdicts = _block_verdicts(words, distinct, _quotient(T))
        for j, threshold in enumerate(distinct):
            want = hamiltonian_batch(T, words < threshold)
            assert np.array_equal(verdicts[j], want), (name, j)

    @pytest.mark.parametrize("name, table", [("quotient12", True), ("quotient13", False)])
    def test_both_paths_see_hamiltonian_rows_inside_one_part(self, name, table):
        T = REFEREE_INPUTS[name]
        quotient = _quotient(T)
        assert (quotient.table is not None) == table
        labels = _module_partition(T)
        words, distinct = block_levels(T, REFEREE_PS, 17)
        hamiltonian_inside = 0
        for threshold in distinct:
            rows = words < threshold
            inside = [len(set(labels[row])) == 1 for row in rows]
            hamiltonian_inside += np.count_nonzero(hamiltonian_batch(T, rows)[inside])
        assert hamiltonian_inside and quotient.inner

    def test_table_is_the_kernel_on_every_subset_of_Q(self):
        T = REFEREE_INPUTS["quotient12"]
        lowest = np.unique(_module_partition(T), return_index=True)[1]
        Q = Tournament(T.adj[np.ix_(lowest, lowest)])  # vertex b is part b's lowest vertex
        subsets = np.arange(1 << Q.n)[:, None] >> np.arange(Q.n) & 1
        assert np.array_equal(_quotient(T).table, hamiltonian_batch(Q, subsets))

    def test_rows_inside_one_block_are_decided_there(self):
        # at p = 0.1 on theorem1-even(3) most nonempty rows lie in one half;
        # their verdicts come from the kernel on that half alone
        T = permuted(extremal_theorem1_even(3), 4)[0]
        words, distinct = block_levels(T, [0.1, 0.3], 3)
        labels = _module_partition(T)
        inside = np.array([len(set(labels[row < distinct[0]])) == 1 for row in words])
        assert inside.sum() > BLOCK_TRIALS // 4
        verdicts = _block_verdicts(words, distinct, _quotient(T))
        want = hamiltonian_batch(T, words < distinct[0])
        assert want[inside].any()
        assert np.array_equal(verdicts[0], want)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_permuted_families_sweep_like_the_kernel(self, threads):
        trials = 2 * BLOCK_TRIALS + 300
        for T in (permuted(extremal_theorem1_odd(2), 0)[0], permuted(extremal_main(31, 1), 2)[0]):
            reports = estimate_sweep(T, [0.4, 0.05, 0.15], trials, 9, threads=threads)
            assert [r.successes for r in reports] == [
                kernel_count(T, r.p, trials, 9) for r in reports]
