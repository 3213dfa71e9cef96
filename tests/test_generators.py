import hashlib
import tracemalloc

import numpy as np
import pytest

from tourneylab import (ExtremalSpec, VertexSubset, brute_force_hamiltonian,
                        edge_count, extremal_main, extremal_main_blocks,
                        extremal_theorem1_even, extremal_theorem1_odd,
                        induced, is_hamiltonian, near_regular_tournament,
                        random_tournament, rotational_tournament, scc,
                        semidegrees, transitive_tournament, validate)
from tourneylab.errors import BadParams
from tourneylab.generators import FAMILIES


class TestRotational:
    def test_k1_is_directed_triangle(self, triangle):
        assert rotational_tournament(1) == triangle

    def test_k3_regular(self):
        prof = semidegrees(rotational_tournament(3))
        assert prof.out_degrees == (3,) * 7
        assert prof.in_degrees == (3,) * 7

    def test_k5_strongly_connected(self):
        assert scc(rotational_tournament(5)).component_count == 1
        assert is_hamiltonian(rotational_tournament(5))

    def test_cyclic_shift_is_automorphism(self):
        T = rotational_tournament(4)
        n = T.n
        shifted = np.empty_like(T.adj)
        for i in range(n):
            for j in range(n):
                shifted[(i + 1) % n, (j + 1) % n] = T.adj[i, j]
        assert np.array_equal(shifted, T.adj)

    def test_needs_positive_k(self):
        with pytest.raises(BadParams):
            rotational_tournament(0)


class TestNearRegular:
    def test_odd_is_rotational(self):
        assert near_regular_tournament(7) == rotational_tournament(3)
        assert semidegrees(near_regular_tournament(7)).min_semidegree == 3

    def test_even_8(self):
        assert semidegrees(near_regular_tournament(8)).min_semidegree == 3

    def test_two_vertices(self):
        assert semidegrees(near_regular_tournament(2)).min_semidegree == 0

    @pytest.mark.parametrize("m", list(range(1, 26)))
    def test_achieves_floor_bound(self, m):
        T = near_regular_tournament(m)
        assert T.n == m
        assert semidegrees(T).min_semidegree == (m - 1) // 2


class TestTransitive:
    def test_examples(self):
        assert not is_hamiltonian(transitive_tournament(3))
        assert semidegrees(transitive_tournament(5)).min_semidegree == 0
        assert scc(transitive_tournament(4)).component_count == 4


class TestRandom:
    def test_deterministic(self):
        a = random_tournament(25, seed=123)
        b = random_tournament(25, seed=123)
        assert a == b
        assert a != random_tournament(25, seed=124)

    def test_complete_orientation_large(self):
        T = random_tournament(1000, seed=0)
        assert int(T.adj.sum()) == 1000 * 999 // 2

    def test_oracle_agreement_over_seeds(self):
        for seed in range(100):
            T = random_tournament(15, seed)
            assert is_hamiltonian(T) == brute_force_hamiltonian(T)


class TestTheorem1Even:
    def test_k1_not_hamiltonian(self):
        T = extremal_theorem1_even(1)
        assert T.n == 6
        assert not is_hamiltonian(T)
        assert scc(T).component_count == 2

    def test_k2_min_semidegree(self):
        assert semidegrees(extremal_theorem1_even(2)).min_semidegree == 2

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_no_back_edges(self, k):
        T = extremal_theorem1_even(k)
        h = 2 * k + 1
        assert edge_count(T, range(h, 2 * h), range(h)) == 0


class TestTheorem1Odd:
    def test_k1_full_set_hamiltonian(self):
        assert is_hamiltonian(extremal_theorem1_odd(1))

    def test_without_hub_not_hamiltonian(self):
        T = extremal_theorem1_odd(1)  # n = 7, hub = 6
        S = VertexSubset(7, [0, 1, 3, 4])  # hits both halves, misses the hub
        assert not is_hamiltonian(induced(T, S))

    def test_k3_min_semidegree(self):
        assert semidegrees(extremal_theorem1_odd(3)).min_semidegree == 4


class TestExtremalMain:
    def test_small_hamiltonian_until_x_removed(self):
        T = extremal_main(11, 1)
        assert is_hamiltonian(T)
        S = VertexSubset(11, range(10))  # drop the single X vertex
        assert scc(induced(T, S)).component_count == 2

    def test_min_semidegree_formula(self):
        # floor((|A|-1)/2) + t is what the block structure guarantees;
        # for n=43, t=2 that is 11 (and 11 is the maximum attainable here)
        prof = semidegrees(extremal_main(43, 2))
        ra, _, _ = extremal_main_blocks(43, 2)
        assert prof.min_semidegree >= (len(ra) - 1) // 2 + 2 == 11
        assert prof.min_semidegree >= (43 - 2 - 2) // 4 + 2

    @pytest.mark.parametrize("n,t", [(11, 1), (43, 2), (30, 3)])
    def test_no_b_to_a_edges(self, n, t):
        T = extremal_main(n, t)
        ra, rb, _ = extremal_main_blocks(n, t)
        assert edge_count(T, rb, ra) == 0

    def test_hamiltonicity_needs_x_when_both_halves_hit(self):
        T = extremal_main(24, 2)
        ra, rb, rx = extremal_main_blocks(24, 2)
        rng = np.random.default_rng(7)
        seen_both = 0
        for _ in range(200):
            S = VertexSubset(24, np.flatnonzero(rng.random(24) < 0.5))
            hits_a = any(v in ra for v in S.members)
            hits_b = any(v in rb for v in S.members)
            if not (hits_a and hits_b):
                continue
            seen_both += 1
            if len(S) >= 3 and is_hamiltonian(induced(T, S)):
                assert any(v in rx for v in S.members)
        assert seen_both >= 100

    def test_bad_params(self):
        with pytest.raises(BadParams):
            extremal_main(10, 0)
        with pytest.raises(BadParams):
            extremal_main(7, 2)  # n - t = 5 < 6


class TestEverythingValidates:
    @pytest.mark.parametrize("build", [
        lambda: rotational_tournament(6),
        lambda: near_regular_tournament(12),
        lambda: transitive_tournament(9),
        lambda: random_tournament(20, 77),
        lambda: extremal_theorem1_even(3),
        lambda: extremal_theorem1_odd(2),
        lambda: extremal_main(25, 2),
    ])
    def test_generator_output_validates(self, build):
        T = build()
        assert validate(np.asarray(T.adj)) == T


class TestExtremalSpec:
    def test_families(self):
        assert ExtremalSpec("rotational", {"k": 2}).build().n == 5
        assert ExtremalSpec("near-regular", {"m": 6}).build().n == 6
        assert ExtremalSpec("transitive", {"n": 4}).build().n == 4
        assert ExtremalSpec("random", {"n": 9}, seed=4).build().n == 9
        assert ExtremalSpec("theorem1-even", {"k": 1}).build().n == 6
        assert ExtremalSpec("theorem1-odd", {"k": 1}).build().n == 7
        assert ExtremalSpec("main", {"n": 15, "t": 1}).build().n == 15

    def test_unknown_family(self):
        with pytest.raises(BadParams):
            ExtremalSpec("petersen", {}).build()

    def test_missing_param(self):
        with pytest.raises(BadParams):
            ExtremalSpec("rotational", {}).build()

    def test_random_needs_seed(self):
        with pytest.raises(BadParams):
            ExtremalSpec("random", {"n": 5}).build()

    def test_non_numeric_param(self):
        with pytest.raises(BadParams):
            ExtremalSpec("rotational", {"k": "lots"}).build()

    @pytest.mark.parametrize("family, params", [
        ("main", {"n": 31.5, "t": 1}),     # built n = 31
        ("main", {"n": "31", "t": 1}),     # parsed to n = 31
        ("main", {"n": True, "t": 1}),     # ran as n = 1
        ("rotational", {"k": 3, "n": 99}),  # n was ignored
    ])
    def test_params_are_named_integers(self, family, params):
        with pytest.raises(BadParams, match="must be an integer|takes exactly"):
            ExtremalSpec(family, params).build()


# SHA-256 of each family's matrices over the grid below (random also over
# seeds 0, 1 and 7): a faster builder must give the same matrices
PINNED_GRID = {
    "rotational": [{"k": k} for k in range(1, 40)],
    "near-regular": [{"m": m} for m in range(1, 25)],
    "transitive": [{"n": n} for n in range(1, 11)],
    "random": [{"n": n} for n in (1, 2, 3, 7, 16)],
    "theorem1-even": [{"k": k} for k in range(1, 7)],
    "theorem1-odd": [{"k": k} for k in range(1, 7)],
    "main": [{"n": n, "t": t} for n in range(7, 21) for t in range(1, n - 5)],
}
PINNED_SHA256 = {
    "rotational": "f6a87db4fb1fb111e5d95bcfa9389263bbcfa1d6583505f9914a7550d7a8b313",
    "near-regular": "98b5bcc63c7b93c50f17fdc63a5945e7f6660c0aa794c827a714720e16592cdb",
    "transitive": "fa05de7fe47fdfe756c99e0ff7a4d45374f3447753657470c136b07b460c3e68",
    "random": "7098c8d23b4e127e1e92d0d1c0c4a23b4fbd3f252139792b0f799e0c3a05c963",
    "theorem1-even": "69132571b26f32ee090d1b4ad5294f1eb2c7f8aa2515e527ed1e6beb5f9f2f12",
    "theorem1-odd": "6847832d19edb7d450a08dd3e68b9887e39775d249838d16d81deaf356ba3d82",
    "main": "34138f9d4b80d38b896df3eefbf8271b5135f13e37a3c410256ce7aba1157533",
}


class TestPinnedMatrices:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_grid_matches_recorded_hash(self, family):
        digest = hashlib.sha256()
        for params in PINNED_GRID[family]:
            for seed in ((0, 1, 7) if family == "random" else (None,)):
                digest.update(ExtremalSpec(family, params, seed).build().adj.tobytes())
        assert digest.hexdigest() == PINNED_SHA256[family]


class TestRotationalMemory:
    def test_one_matrix_and_no_index_array(self):
        tracemalloc.start()
        try:
            T = rotational_tournament(1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * T.n ** 2
