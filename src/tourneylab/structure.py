"""Structural machinery: almost-directed cut search, partition cleaning to
goodness, refinement, connector enumeration, B->A matching with a König
cover, bad-event evaluation on sampled subsets, and degree diagnostics.

Everything operates on a three-part partition V(T) = A + B + X. The
dichotomy driving the analysis CLI: either no balanced bipartition is
almost-directed (dense both ways, nothing to do), or one is, in which
case it cleans to a good partition whose B->A traffic is carried by
either many connectors or a large matching. The cut search decides
which side holds exactly, at every n, from the score sequence: the
densest balanced cut puts the highest scorers in A.

Every count before the matching is a degree from one row sum per vertex
set, by the tournament identities. The matching grows from a greedy start
by phases of augmenting search; the last phase gives the König cover.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from math import ceil, inf, log, log1p, sqrt

import numpy as np

from .core import Tournament, VertexSubset, _check_universe, induced
from .errors import BadParams, EmptyPart, check_integer, check_probability
from .hamilton import _top_scorers, is_hamiltonian, scc


@dataclass(frozen=True, repr=False)
class Partition:
    """Disjoint cover V(T) = A + B + X."""

    A: VertexSubset
    B: VertexSubset
    X: VertexSubset

    def __post_init__(self):
        A, B, X = self.A, self.B, self.X
        if not (A.universe_n == B.universe_n == X.universe_n):
            raise BadParams("partition parts live in different universes")
        # each part is duplicate-free, so a count above 1 is an overlap
        counts = np.bincount(np.array(A.members + B.members + X.members, dtype=np.intp),
                             minlength=A.universe_n)
        if counts.max(initial=0) > 1:
            raise BadParams("partition parts are not disjoint")
        if not counts.all():
            raise BadParams("partition parts do not cover the vertex set")

    @classmethod
    def from_members(cls, n: int, a, b, x) -> "Partition":
        return cls(VertexSubset(n, a), VertexSubset(n, b), VertexSubset(n, x))

    @property
    def universe_n(self) -> int:
        return self.A.universe_n

    def move_to_x(self, vertices) -> "Partition":
        """The partition with ``vertices`` taken out of A and B into X. A
        and B keep their order; X comes out sorted."""
        moved = set(vertices)
        return Partition.from_members(self.universe_n,
                                      [v for v in self.A if v not in moved],
                                      [v for v in self.B if v not in moved],
                                      sorted(moved.union(self.X)))

    def to_json_dict(self) -> dict:
        return {name: list(getattr(self, name).members) for name in "ABX"}

    @classmethod
    def from_json_dict(cls, n: int, data: dict) -> "Partition":
        return cls.from_members(n, data["A"], data["B"], data["X"])

    def __repr__(self) -> str:
        return f"Partition(|A|={len(self.A)}, |B|={len(self.B)}, |X|={len(self.X)})"


@dataclass(frozen=True)
class GoodnessReport:
    """Flags of the goodness test at tolerance ``eps``.

    A partition is eps-good iff the parts are near-halves, both induced
    halves have linear minimum semidegree, and nearly all A-B pairs point
    A -> B: |A|,|B| >= (1-eps)n/2, semidegrees >= (1/6-eps)n, and
    e(A,B) >= (1-eps)|A||B|.
    """

    eps: float
    size_ok: bool
    semidegree_ok: bool
    density_ok: bool
    e_AB: int
    e_BA: int

    @property
    def is_good(self) -> bool:
        return self.size_ok and self.semidegree_ok and self.density_ok

    def to_json_dict(self) -> dict:
        return {**asdict(self), "is_good": self.is_good}


@dataclass(frozen=True)
class CutResult:
    """Max-density balanced directed bipartition and its density e(A,B)/(|A||B|)."""

    A: VertexSubset
    B: VertexSubset
    density: float

    def to_json_dict(self) -> dict:
        return {"A": list(self.A.members), "B": list(self.B.members),
                "density": self.density}


@dataclass(frozen=True)
class MatchingCover:
    """Maximum B->A matching plus a König cover certifying optimality."""

    matching: tuple[tuple[int, int], ...]
    cover: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {"matching": [list(e) for e in self.matching], "cover": list(self.cover)}


@dataclass(frozen=True)
class BadEventFlags:
    """The four events whose joint absence forces T[S] Hamiltonian."""

    b1: bool
    b2: bool
    b3: bool
    b4: bool

    @property
    def any(self) -> bool:
        return self.b1 or self.b2 or self.b3 or self.b4

    def to_json_dict(self) -> dict:
        return asdict(self)


def _in_from(T: Tournament, members) -> tuple[np.ndarray, np.ndarray]:
    """(members as an index array, every vertex's in-degree from members)."""
    idx = np.fromiter(members, dtype=np.intp, count=len(members))
    return idx, T.adj[idx].sum(axis=0, dtype=np.int64)


def _min_semidegree(idx: np.ndarray, in_from: np.ndarray) -> int:
    """Minimum semidegree of T[idx] from ``_in_from``; 0 below two vertices."""
    if len(idx) < 2:
        return 0
    inn = in_from[idx]
    return int(min(inn.min(), len(idx) - 1 - inn.max()))


def evaluate_goodness(T: Tournament, P: Partition, eps: float) -> GoodnessReport:
    _check_universe(T, P, "partition")
    n = T.n
    a, b = len(P.A), len(P.B)
    ia, in_a = _in_from(T, P.A.members)
    ib, in_b = _in_from(T, P.B.members)
    e_ab = int(in_a[ib].sum())
    size_ok = a >= (1 - eps) * n / 2 and b >= (1 - eps) * n / 2
    semi_ok = (_min_semidegree(ia, in_a) >= (1 / 6 - eps) * n
               and _min_semidegree(ib, in_b) >= (1 / 6 - eps) * n)
    density_ok = e_ab >= (1 - eps) * a * b
    return GoodnessReport(eps=eps, size_ok=size_ok, semidegree_ok=semi_ok,
                          density_ok=density_ok, e_AB=e_ab, e_BA=a * b - e_ab)


def balanced_cut_search(T: Tournament) -> CutResult:
    """Max-density balanced directed cut, exact for every n >= 2.

    The best A of each size is the set of highest scorers, ties in score
    to the lower label, and e_top gives its e(A,B) (_top_scorers). For odd
    n both sizes n//2 and n - n//2 have the same |A||B|, so the larger
    e(A,B) wins, n//2 on a tie.
    """
    n = T.n
    if n < 2:
        raise BadParams("cut search needs n >= 2")
    order, e_top = _top_scorers(T)
    k = max((n // 2, n - n // 2), key=lambda k: e_top[k - 1])
    a = VertexSubset(n, sorted(order[:k].tolist()))
    b = VertexSubset(n, sorted(order[k:].tolist()))
    return CutResult(A=a, B=b, density=int(e_top[k - 1]) / (k * (n - k)))


def removal_sets(
    T: Tournament, A0: VertexSubset, B0: VertexSubset, eps: float
) -> tuple[list[int], list[int], list[int], list[int]]:
    """The cleaning procedure's four removal sets (A0-, A0+, B0+, B0-).

    With delta = eps^(1/2): A0- holds A0 vertices with at most (1/4-delta)n
    in-neighbors inside A0, A0+ those with at most n/5 out-neighbors inside
    A0; B0's sets mirror this with in/out swapped.
    """
    _check_universe(T, A0)
    _check_universe(T, B0)
    n = T.n
    delta = sqrt(eps)
    scarce = (0.25 - delta) * n
    fifth = n / 5

    ia, in_a = _in_from(T, A0.members)
    ib, in_b = _in_from(T, B0.members)
    in_a, in_b = in_a[ia], in_b[ib]  # out-degree inside the part: size - 1 - in
    return (ia[in_a <= scarce].tolist(), ia[len(ia) - 1 - in_a <= fifth].tolist(),
            ib[len(ib) - 1 - in_b <= scarce].tolist(), ib[in_b <= fifth].tolist())


def _check_cleaning_eps(eps: float) -> None:
    if not 0.0 < eps <= 0.01:
        raise BadParams(f"cleaning tolerance must be in (0, 0.01], got {eps}")


def _check_connector_params(k: int, t: int = 1) -> tuple[int, int]:
    """(k, t) as Python ints. k < 1 makes every vertex a connector; t < 1
    removes the room for moved vertices that refinement assumes."""
    return check_integer("k", k, 1), check_integer("t", t, 1)


def clean_to_good_partition(
    T: Tournament, A0: VertexSubset, B0: VertexSubset, eps: float
) -> tuple[Partition, GoodnessReport]:
    """Strip low-degree vertices from a balanced almost-directed cut and
    report goodness of the result at the relaxed tolerance eps^(1/3).

    The procedure always runs; when the input cut is not actually
    almost-directed, the report's flags come back false honestly.
    """
    _check_cleaning_eps(eps)
    cut = Partition(A0, B0, VertexSubset(T.n, []))  # checks (A0, B0) partitions V(T)
    if abs(len(A0) - len(B0)) > 1:
        raise BadParams("(A0, B0) must be balanced")
    part = cut.move_to_x(v for drop in removal_sets(T, A0, B0, eps) for v in drop)
    return part, evaluate_goodness(T, part, eps ** (1 / 3))


@dataclass(frozen=True)
class RefineResult:
    """Refinement outcome: the partition, what moved, and the short-circuit
    flag raised when more than t vertices on one side already connect."""

    partition: Partition
    moved: tuple[int, ...]
    short_circuit: bool


def refine_partition(T: Tournament, P: Partition, k: int, t: int) -> RefineResult:
    """Move heavy cross-traffic vertices out of A and B into X.

    A vertex b in B with at least k+t out-neighbors in A (or a in A with
    k+t in-neighbors in B) stays a k-connector even after t of its targets
    move, so it belongs in X. If more than t vertices qualify on either
    side the partition is returned unchanged with short_circuit set: that
    many connectors already settle the probability bound.
    """
    _check_universe(T, P, "partition")
    k, t = _check_connector_params(k, t)
    ia, in_a = _in_from(T, P.A.members)
    ib, in_b = _in_from(T, P.B.members)
    thresh = k + t
    move_b = ib[len(ia) - in_a[ib] >= thresh].tolist()
    move_a = ia[in_b[ia] >= thresh].tolist()
    if len(move_b) > t or len(move_a) > t:
        return RefineResult(P, (), True)
    if not move_b and not move_a:
        return RefineResult(P, (), False)
    moved = move_a + move_b
    return RefineResult(P.move_to_x(moved), tuple(sorted(moved)), False)


def k_connectors(T: Tournament, P: Partition, k: int) -> VertexSubset:
    """Vertices with at least k out-neighbors in A and k in-neighbors in B."""
    _check_universe(T, P, "partition")
    _check_connector_params(k)
    ia = np.fromiter(P.A.members, dtype=np.intp, count=len(P.A))
    out_to_a = T.adj[:, ia].sum(axis=1, dtype=np.int64)
    _, in_from_b = _in_from(T, P.B.members)
    return VertexSubset(T.n, np.flatnonzero((out_to_a >= k) & (in_from_b >= k)).tolist())


def max_BA_matching(T: Tournament, P: Partition) -> MatchingCover:
    """Maximum matching of B->A edges with a minimum vertex cover.

    Left = B, right = A, edge iff b beats a. A greedy matching grows by
    phases of iterative augmenting search from every free B vertex, the
    marks on A shared across a phase, until a phase finds no path. That
    phase changed nothing, so its marks are the set Z that alternating
    paths reach from the free B vertices, and the cover is (B minus Z)
    plus (A intersect Z). König equality and full coverage are asserted.
    """
    _check_universe(T, P, "partition")
    ia = np.fromiter(P.A.members, dtype=np.intp, count=len(P.A))
    ib = np.fromiter(P.B.members, dtype=np.intp, count=len(P.B))
    beats = T.adj[ib][:, ia]  # two plain gathers are several times faster than np.ix_
    nbrs = [np.flatnonzero(row).tolist() for row in beats]
    match_b = [-1] * len(ib)
    match_a = [-1] * len(ia)
    for i, row in enumerate(nbrs):
        j = next((j for j in row if match_a[j] == -1), -1)
        if j != -1:
            match_b[i], match_a[j] = j, i

    grew = True
    while grew:
        grew = False
        seen = bytearray(len(ia))
        for root in range(len(ib)):
            if match_b[root] != -1:
                continue
            # path alternates B and A; its[d] walks the d-th B vertex's neighbours
            path, its = [root], [iter(nbrs[root])]
            while its:
                for j in its[-1]:
                    if not seen[j]:
                        break
                else:
                    its.pop()
                    del path[-2:]
                    continue
                seen[j] = 1
                path.append(j)
                if match_a[j] == -1:
                    for i, j in zip(path[::2], path[1::2]):
                        match_b[i], match_a[j] = j, i
                    grew = True
                    break
                path.append(match_a[j])
                its.append(iter(nbrs[match_a[j]]))

    z_a = np.frombuffer(seen, dtype=bool)
    z_b = np.array(match_b, dtype=np.intp) == -1
    z_b[np.array(match_a, dtype=np.intp)[z_a]] = True  # every marked A vertex is matched
    matching = tuple(sorted((P.B.members[i], P.A.members[j])
                            for i, j in enumerate(match_b) if j != -1))
    cover = tuple(sorted(ib[~z_b].tolist() + ia[z_a].tolist()))
    if len(cover) != len(matching):
        raise AssertionError(
            f"König equality violated: |matching|={len(matching)} |cover|={len(cover)}")
    if beats[z_b][:, ~z_a].any():
        raise AssertionError("cover misses a B->A edge")
    return MatchingCover(matching=matching, cover=cover)


def bad_events(T: Tournament, P: Partition, S: VertexSubset) -> BadEventFlags:
    """Evaluate the four bad events on a concrete sampled subset S.

    b1: X got too big a share of S. b2: a semidegree floor fails in
    T[A&S], T[B&S], or T[S]. b3/b4: one direction between the sampled
    halves is unreachable inside T[S]. Raises EmptyPart when S misses A
    or B entirely (the path events presuppose both ends exist).

    Each question is asked of U = T[S]. Its components are numbered
    source-first and each beats every later one (scc), so the vertices
    reachable from a set are those of the components from its lowest on:
    A&S reaches no vertex of B&S iff every B&S component comes before
    every A&S component.
    """
    return _sample_events(T, P, S)[0]


def _sample_events(
    T: Tournament, P: Partition, S: VertexSubset
) -> tuple[BadEventFlags, Tournament]:
    """bad_events' flags, and the U = T[S] they were read from."""
    _check_universe(T, P, "partition")
    _check_universe(T, S, "sample")
    side = np.empty(T.n, dtype=np.int8)
    for label, part in enumerate((P.A, P.B, P.X)):
        side[list(part.members)] = label
    labels = side[list(S.members)]  # 0, 1, 2 for A, B, X at each position of S
    sa, sb = np.flatnonzero(labels == 0), np.flatnonzero(labels == 1)
    if not (sa.size and sb.size):
        raise EmptyPart("sample misses part A or part B")
    b1 = 5 * (len(S) - sa.size - sb.size) >= len(S)

    U = induced(T, S)
    b2 = (10 * _min_semidegree(*_in_from(U, sa)) < 3 * len(sa)
          or 10 * _min_semidegree(*_in_from(U, sb)) < 3 * len(sb)
          or 5 * _min_semidegree(*_in_from(U, range(U.n))) < U.n)

    component = np.array(scc(U).component_of)
    b3 = component[sb].max() < component[sa].min()
    b4 = component[sa].max() < component[sb].min()
    return BadEventFlags(b1=b1, b2=b2, b3=bool(b3), b4=bool(b4)), U


def hamiltonicity_from_no_bad_events(T: Tournament, P: Partition, S: VertexSubset) -> bool:
    """Consistency check: no bad events must force T[S] Hamiltonian.

    Returns True when the implication holds for this sample (vacuously,
    if some event occurred); False is a counterexample to the claim and
    should never happen.
    """
    flags, U = _sample_events(T, P, S)  # T[S] is built once for both questions
    if flags.any:
        return True
    return len(S) >= 3 and is_hamiltonian(U)


def low_indegree_census(T: Tournament, beta: float) -> int:
    """How many vertices have in-degree at most beta * n."""
    check_probability(beta, "beta")
    return int((T.in_degrees() <= beta * T.n).sum())


def default_connector_k(p: float, t: int, sigma: float = 0.01) -> int:
    """Default connector threshold: ceil(2 log((t+1)/sigma) base 1/(1-p^2))."""
    check_probability(p, "p")
    t = check_integer("t", t, 1)
    check_probability(sigma, "sigma")
    try:
        ratio = (t + 1) / sigma
    except OverflowError:  # t + 1 does not convert to a float
        ratio = inf
    if ratio == inf:
        raise BadParams("t is too large for a connector threshold")
    # 1 - p^2 drops the low digits of p^2 as p -> 0; log1p keeps them
    rate = -log1p(-p * p)
    k = 2 * log(ratio) / rate if rate else inf
    if k == inf:  # p^2 underflows to 0, or k overflows a float
        raise BadParams(f"p = {p} is too small for a connector threshold")
    return ceil(k)
