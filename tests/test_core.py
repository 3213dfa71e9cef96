import dataclasses
import random
import tracemalloc

import numpy as np
import pytest
from conftest import reference_trn1, tournament_from_bits
from hypothesis import given, settings
from hypothesis import strategies as st

from tourneylab import (Tournament, VertexSubset, edge_count, format_trn1,
                        induced, parse_trn1, random_tournament, read_trn1,
                        rotational_tournament, semidegrees,
                        transitive_tournament, validate, write_trn1)
from tourneylab.core import complement_rows, rows_to_masks
from tourneylab.core import _check_invariants
from tourneylab.errors import (BadParams, DiagonalNonzero, PairViolation,
                               SubsetOutOfRange, TooLarge, TourneyLabError,
                               Trn1ParseError)

TRIANGLE = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]


def tournaments(max_n=10):
    return st.integers(1, max_n).flatmap(
        lambda n: st.integers(0, 2 ** (n * (n - 1) // 2) - 1).map(
            lambda code: tournament_from_bits(n, code)))


class TestValidate:
    def test_directed_triangle_is_valid(self):
        T = validate(TRIANGLE)
        assert T.n == 3
        assert T.edge(0, 1) and T.edge(1, 2) and T.edge(2, 0)

    def test_digon_rejected(self):
        m = [[0, 1, 0], [1, 0, 1], [1, 0, 0]]
        with pytest.raises(PairViolation) as exc:
            validate(m)
        assert (exc.value.i, exc.value.j) == (0, 1)

    def test_self_loop_rejected(self):
        m = [[0, 1, 0], [0, 0, 1], [1, 0, 1]]
        with pytest.raises(DiagonalNonzero) as exc:
            validate(m)
        assert exc.value.i == 2

    def test_missing_edge_rejected(self):
        m = [[0, 0, 0], [0, 0, 1], [1, 0, 0]]
        with pytest.raises(PairViolation):
            validate(m)

    def test_digon_and_missing_edge_rejected(self):
        # the edge count is right: the extra 1 -> 0 fills the gap at {1, 2}
        m = [[0, 1, 0], [1, 0, 0], [1, 0, 0]]
        with pytest.raises(PairViolation) as exc:
            validate(m)
        assert (exc.value.i, exc.value.j) == (0, 1)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            validate([[0, 1], [0, 0], [1, 1]])

    def test_no_vertices_rejected(self):
        with pytest.raises(ValueError):
            Tournament(np.zeros((0, 0)))

    def test_non_binary_entries_rejected(self):
        with pytest.raises(ValueError):
            validate([[0, 2], [0, 0]])

    @pytest.mark.parametrize("m", [[[0, 255, 1], [2, 0, 1], [0, 0, 0]], [[0, 3], [-2, 0]]])
    def test_constructor_rejects_wrapping_entries(self, m):
        # each pair sums to 1 modulo 256, so a check after the uint8 cast passes
        for a in (np.array(m), np.array(m).astype(np.uint8)):
            with pytest.raises(ValueError, match="0 or 1"):
                Tournament(a)
            with pytest.raises(ValueError, match="0 or 1"):
                validate(a)

    def test_equality_with_another_type_is_not_implemented(self):
        T = rotational_tournament(2)
        assert T != "x"
        assert T.__eq__(5) is NotImplemented

    def test_repr_gives_the_order(self):
        assert repr(rotational_tournament(2)) == "Tournament(n=5)"

    @settings(max_examples=60, deadline=None)
    @given(tournaments())
    def test_generated_tournaments_validate(self, T):
        again = validate(np.asarray(T.adj))
        assert again == T


class TestSemidegrees:
    def test_rotational_7_is_3_regular(self):
        prof = semidegrees(rotational_tournament(3))
        assert prof.min_semidegree == 3
        assert prof.out_degrees == (3,) * 7 and prof.in_degrees == (3,) * 7

    def test_transitive_has_min_zero(self):
        for n in (2, 5, 9):
            prof = semidegrees(transitive_tournament(n))
            assert prof.min_semidegree == 0

    def test_witness_attains_minimum(self):
        T = random_tournament(17, seed=5)
        prof = semidegrees(T)
        w = prof.witness
        assert min(prof.out_degrees[w], prof.in_degrees[w]) == prof.min_semidegree

    @settings(max_examples=50, deadline=None)
    @given(tournaments())
    def test_degree_sums(self, T):
        prof = semidegrees(T)
        n = T.n
        assert sum(prof.out_degrees) == n * (n - 1) // 2
        for v in range(n):
            assert prof.out_degrees[v] + prof.in_degrees[v] == n - 1


class TestInduced:
    def test_full_subset_is_identity(self):
        T = random_tournament(9, seed=1)
        S = VertexSubset.full(9)
        U = induced(T, S)
        assert U == T
        assert U.parent_labels == tuple(range(9))
        assert semidegrees(U) == semidegrees(T)

    def test_triangle_pair_restriction(self):
        T = validate(TRIANGLE)
        U = induced(T, VertexSubset(3, [0, 2]))
        assert U.n == 2
        # orientation follows adj[0][2] = 0, i.e. 2 -> 0 becomes 1 -> 0
        assert U.edge(1, 0) and not U.edge(0, 1)

    def test_rotational_matches_pairwise_lookup(self):
        T = rotational_tournament(3)
        S = VertexSubset(7, [0, 1, 2, 3])
        U = induced(T, S)
        for i, u in enumerate(S.members):
            for j, v in enumerate(S.members):
                assert U.adj[i, j] == T.adj[u, v]

    def test_out_of_range_subset(self):
        T = validate(TRIANGLE)
        with pytest.raises(SubsetOutOfRange):
            induced(T, VertexSubset(5, [0, 4]))

    @settings(max_examples=40, deadline=None)
    @given(tournaments(max_n=9), st.data())
    def test_composition(self, T, data):
        outer = data.draw(st.sets(st.integers(0, T.n - 1), min_size=1))
        S1 = VertexSubset(T.n, sorted(outer))
        inner = data.draw(st.sets(st.integers(0, len(S1) - 1), min_size=1))
        S2 = VertexSubset(len(S1), sorted(inner))
        twice = induced(induced(T, S1), S2)
        composed = induced(T, VertexSubset(T.n, [S1.members[i] for i in S2.members]))
        assert twice == composed


class TestVertexSubset:
    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            VertexSubset(5, [1, 1])

    def test_out_of_range_rejected(self):
        with pytest.raises(SubsetOutOfRange):
            VertexSubset(3, [3])

    def test_mask_round_trip(self):
        s = VertexSubset(8, [0, 3, 7])
        assert VertexSubset.from_mask(8, 0b10001001) == s
        assert 3 in s and 4 not in s

    @pytest.mark.parametrize("mask", [1 << 8, -1])
    def test_from_mask_outside_universe(self, mask):
        with pytest.raises(SubsetOutOfRange):
            VertexSubset.from_mask(8, mask)

    @pytest.mark.parametrize("mask, members", [(np.uint8(3), (0, 1)), (np.int64(5), (0, 2))])
    def test_from_mask_takes_numpy_integers(self, mask, members):
        # both ended in AttributeError: a numpy integer has no bit_length
        s = VertexSubset.from_mask(8, mask)
        assert s.members == members and all(type(v) is int for v in s.members)

    @pytest.mark.parametrize("mask", [True, 2.5, "1"])
    def test_from_mask_must_be_an_integer(self, mask):
        # True gave the subset {0}; 2.5 and "1" raised TypeError
        with pytest.raises(BadParams, match="mask must be an integer"):
            VertexSubset.from_mask(8, mask)

    def test_contains_takes_any_integer(self):
        s = VertexSubset(100, [3, 90])
        assert 3 in s and np.int64(3) in s and np.uint8(90) in s
        assert 4 not in s and np.int32(4) not in s
        assert -1 not in s and 100 not in s and np.int64(-1) not in s
        assert 1 << 70 not in s

    @pytest.mark.parametrize("member", [1.7, 1.0, np.float64(1), "1"])
    def test_members_must_be_integers(self, member):
        with pytest.raises(TypeError):  # 1.7 became vertex 1
            VertexSubset(5, [member])

    def test_members_take_numpy_integers(self):
        s = VertexSubset(5, np.array([4, 1]))
        assert s.members == (4, 1) and all(type(v) is int for v in s.members)
        assert VertexSubset(5, [np.uint8(3)]).members == (3,)

    def test_repr_hash_and_equality(self):
        s = VertexSubset(5, [1, 3])
        assert repr(s) == "VertexSubset(universe_n=5, members=(1, 3))"
        assert hash(s) == hash((5, (1, 3)))
        assert s == VertexSubset(5, (1, 3)) and s != VertexSubset(5, (3, 1))
        assert s != VertexSubset(6, (1, 3)) and s != (5, (1, 3))

    @pytest.mark.parametrize("name, value", [("members", (0,)), ("mask", 1),
                                             ("universe_n", 9), ("size", 2)])
    def test_fields_cannot_be_assigned(self, name, value):
        # assigning members left the cached mask stale: 0 in s read False;
        # a name that is not a field raised TypeError from slots' __setattr__
        s = VertexSubset(5, [1, 3])
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(s, name, value)
        assert s.members == (1, 3) and 1 in s and 0 not in s

    @pytest.mark.parametrize("universe", [2.5, True, -1, "3", None])
    def test_universe_must_be_a_non_negative_integer(self, universe):
        # each was accepted: 2.5 gave a subset whose universe_n read 2.5;
        # from_mask raised TypeError or ValueError from its shift
        with pytest.raises(BadParams, match="universe_n"):
            VertexSubset(universe, [])
        with pytest.raises(BadParams, match="universe_n"):
            VertexSubset.from_mask(universe, 0)

    def test_universe_is_stored_as_a_python_int(self):
        s = VertexSubset(np.int8(5), [4])
        assert type(s.universe_n) is int
        assert repr(s) == "VertexSubset(universe_n=5, members=(4,))"
        assert s == VertexSubset(5, [4]) and hash(s) == hash(VertexSubset(5, [4]))


class TestEdgeCount:
    def test_blocks(self):
        T = validate(TRIANGLE)
        assert edge_count(T, [0], [1, 2]) == 1
        assert edge_count(T, [1, 2], [0]) == 1
        assert edge_count(T, [], [0]) == 0

    def test_empty_target(self):
        assert edge_count(validate(TRIANGLE), [0, 1], []) == 0

    def test_numpy_labels_count_as_ints(self):
        T = transitive_tournament(6)
        assert edge_count(T, np.array([0, 1]), [np.int8(2), 3]) == 4

    @pytest.mark.parametrize("frm, to, error", [
        ([0.7], [1], TypeError),        # counted as vertex 0
        ([1], [2.0], TypeError),
        ([-1], [1], SubsetOutOfRange),  # counted as vertex 5
        ([0], [6], SubsetOutOfRange),   # numpy's IndexError
        ([np.int64(6)], [0], SubsetOutOfRange),
    ])
    def test_labels_read_as_subset_members(self, frm, to, error):
        T = transitive_tournament(6)
        with pytest.raises(error):
            edge_count(T, frm, to)
        with pytest.raises(error):
            VertexSubset(6, frm + to)


class TestSizeCap:
    def test_vertex_count_limit(self):
        too_many = (1 << 16) + 1
        with pytest.raises(ValueError):
            Tournament(np.zeros((too_many, too_many), dtype=np.uint8), _trusted=True)

    def test_immutable_adjacency(self):
        T = validate(TRIANGLE)
        with pytest.raises(ValueError):
            T.adj[0, 1] = 0

    def test_caller_array_is_copied(self):
        # the caller's uint8 array stays writable, and editing it reaches
        # neither the matrix, the degrees nor the hash of the tournament
        a = np.array(TRIANGLE, dtype=np.uint8)
        T = Tournament(a)
        before = hash(T)
        a[0, 1], a[1, 0] = 0, 1
        assert T.adj[0, 1] == 1 and T.adj[1, 0] == 0
        assert T.out_degrees().tolist() == [1, 1, 1]
        assert hash(T) == before == hash(validate(TRIANGLE))


class TestTrn1:
    def test_round_trip(self):
        T = random_tournament(11, seed=3)
        assert parse_trn1(format_trn1(T)) == T

    def test_header_line(self):
        assert format_trn1(validate(TRIANGLE)).splitlines()[0] == "TRN1 3"

    def test_bad_header(self):
        with pytest.raises(Trn1ParseError) as exc:
            parse_trn1("TRNX 3\n010\n001\n100\n")
        assert exc.value.line == 1

    def test_header_past_int_digit_limit(self):
        # int() refuses more than 4300 digits: too large, not malformed
        with pytest.raises(TooLarge, match="a 5000-digit number"):
            parse_trn1("TRN1 " + "9" * 5000 + "\n")
        # leading zeros count toward that limit, but not toward n
        assert parse_trn1("TRN1 " + "0" * 5000 + "3\n010\n001\n100\n") == validate(TRIANGLE)
        with pytest.raises(Trn1ParseError, match="is not an integer"):
            parse_trn1("TRN1 " + "9" * 5000 + "x\n")

    @pytest.mark.parametrize("count", ["+3", "1_0", "\uff13", "-1", "3\u0663"],
                             ids=["plus", "underscore", "fullwidth", "minus", "arabic-indic"])
    def test_header_count_is_ascii_digits(self, count):
        # int() took a sign, underscores and other scripts' digits
        with pytest.raises(Trn1ParseError, match="is not an integer") as exc:
            parse_trn1(f"TRN1 {count}\n010\n001\n100\n")
        assert str(exc.value) == f"line 1: vertex count {count!r} is not an integer"

    def test_header_count_past_the_cap(self):
        # a count past 5 digits is named by its width; 100000 was echoed whole
        with pytest.raises(TooLarge) as exc:
            parse_trn1("TRN1 100000\n")
        assert str(exc.value) == "n = a 6-digit number exceeds the size cap 65536"
        with pytest.raises(TooLarge) as exc:
            parse_trn1("TRN1 70000\n")
        assert str(exc.value) == "n = 70000 exceeds the size cap 65536"
        with pytest.raises(TooLarge) as exc:
            parse_trn1("TRN1 000070000\n")
        assert str(exc.value) == "n = 70000 exceeds the size cap 65536"

    def test_bad_character_names_line(self):
        with pytest.raises(Trn1ParseError) as exc:
            parse_trn1("TRN1 3\n010\n0x1\n100\n")
        assert exc.value.line == 3

    def test_short_row(self):
        with pytest.raises(Trn1ParseError) as exc:
            parse_trn1("TRN1 3\n010\n00\n100\n")
        assert exc.value.line == 3

    def test_trailing_garbage(self):
        with pytest.raises(Trn1ParseError) as exc:
            parse_trn1("TRN1 3\n010\n001\n100\nextra\n")
        assert exc.value.line == 5

    def test_missing_rows(self):
        with pytest.raises(Trn1ParseError):
            parse_trn1("TRN1 3\n010\n001\n")

    def test_invariants_enforced(self):
        with pytest.raises(PairViolation):
            parse_trn1("TRN1 3\n010\n101\n100\n")
        with pytest.raises(DiagonalNonzero):
            parse_trn1("TRN1 3\n110\n001\n100\n")

    def test_single_vertex_file(self):
        assert parse_trn1("TRN1 1\n0\n").n == 1

    @pytest.mark.parametrize("data", [
        b"TRN1 3\r\n010\r\n001\r\n100\r\n",
        b"TRN1 3\r010\r001\r100\r",
        b"TRN1 3\n010\n001\n100",
        b"TRN1 3\r\n010\n001\n100\n",
    ], ids=["crlf", "lone-cr", "no-final-newline", "crlf-header"])
    def test_line_ends_read_as_lf(self, tmp_path, data):
        path = tmp_path / "t.trn"
        path.write_bytes(data)
        assert read_trn1(path) == parse_trn1("TRN1 3\n010\n001\n100\n") == validate(TRIANGLE)

    def test_crlf_header_in_text(self):
        assert parse_trn1("TRN1 3\r\n010\n001\n100\n") == validate(TRIANGLE)

    def test_non_ascii_byte_names_its_surrogate(self, tmp_path):
        path = tmp_path / "t.trn"
        path.write_bytes(b"TRN1 3\n010\n0\xc31\n100\n")
        for parse, arg in ((read_trn1, path), (parse_trn1, path.read_bytes())):
            with pytest.raises(Trn1ParseError) as exc:
                parse(arg)
            assert str(exc.value) == "line 3: invalid character '\\udcc3' at column 1"

    def test_bytes_parse_as_text(self):
        text = format_trn1(random_tournament(9, seed=4))
        assert parse_trn1(text) == parse_trn1(text.encode())

    def test_bytearray_becomes_the_matrix(self):
        buf = bytearray(format_trn1(random_tournament(9, seed=5)), "ascii")
        T = parse_trn1(buf)
        assert T == random_tournament(9, seed=5)
        assert np.shares_memory(T.adj, np.frombuffer(buf, np.uint8))


MUTATIONS = ["0", "1", "\n", "\r", "x", " ", "\u00e9", "\udcff", "\t", "\x1c"]


def _outcome(parse, arg):
    try:
        adj = parse(arg)
    except TourneyLabError as exc:
        return type(exc), str(exc)
    return np.asarray(getattr(adj, "adj", adj)).tolist()


def _mutated_trn1(rng: random.Random) -> str:
    chars = list(format_trn1(random_tournament(rng.randint(1, 7), seed=rng.randrange(1 << 30))))
    for _ in range(rng.randint(1, 3)):
        op, pos = rng.randrange(3), rng.randint(0, len(chars))
        if op == 0:
            chars.insert(pos, rng.choice(MUTATIONS))
        elif pos < len(chars):
            if op == 1:
                del chars[pos]
            else:
                chars[pos] = rng.choice(MUTATIONS)
    return "".join(chars)


def test_parse_matches_line_splitting_reference(tmp_path):
    """Seeded mutations of small valid files: text, bytes and file routes
    give the reference's matrix, or its exception type and message. The
    file's reference reads it as text mode does: ASCII with surrogateescape
    and universal newlines."""
    rng = random.Random(20261018)
    path = tmp_path / "fuzz.trn"
    outcomes = set()
    for _ in range(2500):
        text = _mutated_trn1(rng)
        expected = _outcome(reference_trn1, text)
        assert _outcome(parse_trn1, text) == expected, repr(text)
        data = text.encode("utf-8", "surrogateescape")
        assert _outcome(parse_trn1, data) == _outcome(
            reference_trn1, data.decode("ascii", "surrogateescape")), repr(data)
        path.write_bytes(data)
        with open(path, encoding="ascii", errors="surrogateescape") as fh:
            expected = _outcome(reference_trn1, fh.read())
        assert _outcome(read_trn1, path) == expected, repr(data)
        outcomes.add(expected[0] if isinstance(expected, tuple) else "valid")
    assert len(outcomes) == 5  # every error type, and valid files


class TestTrn1Memory:
    def test_read_peak_is_the_matrix(self, tmp_path):
        n = 1000
        path = tmp_path / "t.trn"
        write_trn1(random_tournament(n, seed=1), path)
        tracemalloc.start()
        try:
            T = read_trn1(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert T.n == n
        assert peak <= 1.2 * n ** 2

    def test_invariant_check_allocates_no_square(self):
        n = 1000
        adj = random_tournament(n, seed=2).adj
        tracemalloc.start()
        try:
            _check_invariants(adj)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.2 * n ** 2

    @pytest.mark.parametrize("bad, first", [
        ([(70, 140)], (70, 140)),
        ([(70, 140), (100, 149)], (70, 140)),
        ([(3, 9), (70, 140)], (3, 9)),
    ])
    def test_pair_violation_names_first_bad_pair(self, bad, first):
        adj = random_tournament(150, seed=3).adj.copy()
        for i, j in bad:
            adj[i, j] = adj[j, i]
        with pytest.raises(PairViolation) as exc:
            Tournament(adj)
        assert (exc.value.i, exc.value.j) == first


def test_tournament_holds_only_its_matrix():
    # the bitsets were cached in two extra slots, then rebuilt by two
    # properties on each access; each search now builds its own
    assert Tournament.__slots__ == ("n", "adj", "parent_labels")
    T = random_tournament(9, seed=1)
    assert not hasattr(T, "out_masks") and not hasattr(T, "in_masks")


@pytest.mark.parametrize("n", [1, 7, 64, 65, 200])
def test_in_masks_are_the_columns(n):
    T = random_tournament(n, seed=n)
    assert complement_rows(rows_to_masks(T.adj)) == rows_to_masks(T.adj.T)
