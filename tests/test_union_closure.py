"""The exact route's subset-union table and closure, its source-component
count refereed by the 2^n closure route, and the counts pinned to those
the Gauss–Seidel sweep closure gave on the same inputs."""

import tracemalloc

import numpy as np
import pytest
from conftest import brute_force_size_counts, planted_blocks
from conftest import path_tournament as long_path

from tourneylab import (Tournament, VertexSubset, extremal_main,
                        extremal_theorem1_even, extremal_theorem1_odd, induced,
                        is_hamiltonian, near_regular_tournament,
                        random_tournament, transitive_tournament)
from tourneylab.core import rows_to_masks
from tourneylab.hamilton import reach_on_mask
from tourneylab.sampling import (_closure, _strong_masks, _union_table,
                                 hamiltonian_subset_size_counts)


class TestUnionTable:
    @pytest.mark.parametrize("n", range(0, 11))
    def test_every_mask_is_the_or_of_its_members_rows(self, n):
        rng = np.random.default_rng(n)
        rows = [int(r) for r in rng.integers(0, 1 << max(n, 1), size=n)]
        table = _union_table(rows)
        assert table.dtype == np.int32 and table.shape == (1 << n,)
        for m in range(1 << n):
            direct = 0
            for v in range(n):
                if m >> v & 1:
                    direct |= rows[v]
            assert table[m] == direct


CLOSURE_CASES = {
    "random9-1": lambda: random_tournament(9, 1),
    "random9-2": lambda: random_tournament(9, 2),
    "main9-1": lambda: extremal_main(9, 1),
    "long-path10": lambda: long_path(10),
}


class TestClosure:
    @pytest.mark.parametrize("direction", ["out_masks", "in_masks"])
    @pytest.mark.parametrize("name", CLOSURE_CASES)
    def test_every_mask_matches_bitset_bfs(self, name, direction):
        # the closed-neighbourhood table _strong_masks builds, against the
        # per-mask BFS over the open rows
        adj = CLOSURE_CASES[name]().adj
        rows = rows_to_masks(adj if direction == "out_masks" else adj.T)
        table = _union_table([row | 1 << v for v, row in enumerate(rows)])
        masks = np.arange(1 << len(rows), dtype=np.int32)
        expected = [reach_on_mask(rows, m, m & -m) for m in range(1 << len(rows))]
        assert _closure(table, masks).tolist() == expected


class TestStrongMasks:
    def test_yields_exactly_the_strong_subsets_in_order(self):
        T = random_tournament(8, seed=11)
        got = np.concatenate(list(_strong_masks(T)))
        assert got.dtype == np.int32
        members = [[v for v in range(8) if m >> v & 1] for m in range(1 << 8)]
        expected = [m for m, S in enumerate(members)
                    if len(S) >= 3 and is_hamiltonian(induced(T, VertexSubset(8, S)))]
        assert got.tolist() == expected


# count vectors of the sweep closure, recorded before the union table
PINNED_COUNTS = {
    "random17-1": (lambda: random_tournament(17, 1),
                   [0, 0, 0, 166, 882, 3229, 8299, 15448, 21496, 22899, 18954, 12261,
                    6172, 2379, 680, 136, 17, 1]),
    "random17-7": (lambda: random_tournament(17, 7),
                   [0, 0, 0, 179, 959, 3542, 9025, 16431, 22309, 23321, 19090, 12286,
                    6174, 2379, 680, 136, 17, 1]),
    "main17-1": (lambda: extremal_main(17, 1),
                 [0, 0, 0, 104, 548, 1784, 4312, 7968, 11426, 12868, 11440, 8008,
                  4368, 1820, 560, 120, 16, 1]),
    "random20-5": (lambda: random_tournament(20, 5),
                   [0, 0, 0, 275, 1752, 7901, 25265, 59459, 107070, 152211, 174293,
                    162486, 123771, 76868, 38626, 15487, 4844, 1140, 190, 20, 1]),
    "main20-3": (lambda: extremal_main(20, 3),
                 [0, 0, 0, 266, 1976, 8413, 25222, 57038, 101020, 143377, 165231,
                  155571, 119781, 75140, 38080, 15368, 4828, 1139, 190, 20, 1]),
    "long-path16": (lambda: long_path(16),
                    [0, 0, 0, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1]),
}


class TestPinnedCounts:
    @pytest.mark.parametrize("name", PINNED_COUNTS)
    def test_counts_match_recorded_vector(self, name):
        build, counts = PINNED_COUNTS[name]
        assert hamiltonian_subset_size_counts(build()).tolist() == counts

    @pytest.mark.parametrize("n", range(1, 10))
    def test_long_path_matches_referee(self, n):
        T = long_path(n)
        counts = hamiltonian_subset_size_counts(T)
        assert counts.tolist() == brute_force_size_counts(T).tolist()
        assert counts[3:].tolist() == list(range(n - 2, 0, -1))


def _planted(seed: int, n: int) -> Tournament:
    planted = planted_blocks(seed)  # its labels are permuted: take any n
    return induced(planted, VertexSubset(planted.n, range(n)))


REFEREE_CASES = {
    **{f"random{n}-{seed}": (lambda n=n, seed=seed: random_tournament(n, seed))
       for n in range(1, 21) for seed in (1, 2, 3)},
    **{f"main{n}-{t}": (lambda n=n, t=t: extremal_main(n, t))
       for n, t in ((7, 1), (12, 2), (17, 1), (19, 4), (20, 3))},
    **{f"theorem1-even{k}": (lambda k=k: extremal_theorem1_even(k)) for k in range(1, 5)},
    **{f"theorem1-odd{k}": (lambda k=k: extremal_theorem1_odd(k)) for k in range(1, 5)},
    **{f"transitive{n}": (lambda n=n: transitive_tournament(n)) for n in (1, 2, 3, 7, 12, 20)},
    **{f"long-path{n}": (lambda n=n: long_path(n)) for n in (3, 10, 20)},
    **{f"near-regular{m}": (lambda m=m: near_regular_tournament(m)) for m in (5, 8, 13, 18, 20)},
    **{f"planted{seed}-{n}": (lambda seed=seed, n=n: _planted(seed, n))
       for seed, n in ((1, 12), (2, 17), (3, 20), (4, 20))},
}


def _variants(T: Tournament) -> list[Tournament]:
    """T as built, with its labels permuted, and reversed."""
    perm = np.random.default_rng(T.n).permutation(T.n)
    return [T, Tournament(T.adj[np.ix_(perm, perm)]), Tournament(T.adj.T)]


def _sink_form(T: Tournament) -> bool:
    """Whether the count runs over sink components: sum_v 2^out(v) is the
    smaller candidate total."""
    out = T.out_degrees()
    return int((2 ** out).sum()) < int((2 ** (T.n - 1 - out)).sum())


class TestSourceComponents:
    @pytest.mark.parametrize("name", REFEREE_CASES)
    def test_counts_equal_the_all_subsets_route(self, name):
        for T in _variants(REFEREE_CASES[name]()):
            strong = np.concatenate(list(_strong_masks(T)))
            expected = np.bincount(np.bitwise_count(strong), minlength=T.n + 1)
            assert hamiltonian_subset_size_counts(T).tolist() == expected.tolist()

    def test_cases_run_both_forms(self):
        # as built, permuted and reversed, some cases count source components
        # and some sink components
        forms = [[_sink_form(T) for T in _variants(build())] for build in REFEREE_CASES.values()]
        for variant in zip(*forms):
            assert set(variant) == {False, True}

    @pytest.mark.parametrize("build", [lambda: transitive_tournament(20),
                                       lambda: random_tournament(20, 5),
                                       lambda: extremal_main(20, 3)],
                             ids=["transitive20", "random20-5", "main20-3"])
    def test_memory_at_the_cap(self, build):
        # the two 4 MB union tables, and candidates CLOSURE_CHUNK at a time
        T = build()
        tracemalloc.start()
        try:
            hamiltonian_subset_size_counts(T)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12_000_000
