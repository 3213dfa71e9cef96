"""p-biased subset sampling, Monte Carlo estimation with Wilson intervals,
exact probabilities by subset enumeration, and the closed-form bounds.

The exact route counts the strong subsets of each size by source
components: a non-strong subset is its strong source component C plus a
nonempty set of the vertices all of C beats, so only the strong C with
a common out-neighbour are enumerated, as int32 bitsets inside each
in-neighbourhood (see hamiltonian_subset_size_counts). A candidate's
forward and backward reachability closures grow from its lowest member
by one buffered gather and one AND per BFS level from a subset-union
table (table[m] = the union of the closed out- or in-neighbourhoods of
m's members, so table[m] contains m; 2^n int32 entries each).
_strong_masks runs the same closures on all 2^n subsets and referees the
count. The exact route reads only adjacency bitsets, never scores, so it
shares no code with the estimator's score kernel and referees it.

Reproducibility contract: trial i of an estimate draws its inclusion
vector from a Philox stream keyed by (master_seed, i // BLOCK_TRIALS) at
row i % BLOCK_TRIALS. Blocks have a fixed size, are independent streams,
and are reduced by an integer sum, so the report is bit-identical for any
thread count and any scheduling order. Vertex v is in S iff the raw
64-bit Philox word x drawn for it is below ceil(p * 2^53) << 11. That is
exactly ``Generator.random() < p`` on the same stream, since random()
returns (x >> 11) * 2^-53, so the counts equal those of the uniform draw.
A block's words do not depend on p, only the threshold does, so a sweep
over several p draws each block once and every p's count equals that of
a one-p estimate. The sweep's subsets are nested, S(p) growing with p
at one block row, so a larger p counts some rows by absorption without
the score kernel; estimate_sweep gives the rule, which is exact.
"""

from __future__ import annotations

import math
import os
import time
from collections.abc import Iterable, Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .core import Tournament, VertexSubset, complement_rows, iter_bits, rows_to_masks
from .errors import BadParams, check_integer, check_order, check_probability, check_real
from .hamilton import _landau_strong, _module_partition, _shifted_adjacency

EXACT_MAX_N = 20
CLOSURE_CHUNK = 1 << 14
BLOCK_TRIALS = 2048
_MAX_SEED = (1 << 64) - 1  # the Philox key holds the master seed in one 64-bit word

# Two-sided normal quantiles: 95% for reported intervals, 99.7% for the
# oracle-agreement envelope used in the acceptance suite.
Z95 = 1.959963984540054
Z997 = 2.9677379253417944


@dataclass(frozen=True)
class SamplePlan:
    """Inclusion probability, trial count, and the 64-bit master seed."""

    p: float
    trials: int
    master_seed: int

    def __post_init__(self):
        check_probability(self.p)
        check_integer("trials", self.trials, 1)
        check_integer("master_seed", self.master_seed, 0, _MAX_SEED)


@dataclass(frozen=True)
class EstimateReport:
    """Monte Carlo outcome: the success count of ``trials`` trials at ``p``
    under ``master_seed``. The estimate and its 95% Wilson interval are
    derived from the counts on access; wall_time is informational and
    never serialized."""

    successes: int
    trials: int
    p: float
    master_seed: int
    wall_time: float

    @property
    def point_estimate(self) -> float:
        return self.successes / self.trials

    @property
    def ci_low(self) -> float:
        return wilson_interval(self.successes, self.trials)[0]

    @property
    def ci_high(self) -> float:
        return wilson_interval(self.successes, self.trials)[1]

    def to_json_dict(self) -> dict:
        return {"p": self.p, "trials": self.trials, "seed": self.master_seed,
                "successes": self.successes, "estimate": self.point_estimate,
                "ci_low": self.ci_low, "ci_high": self.ci_high}


@dataclass(frozen=True)
class BoundSpec:
    """Theoretical lower bound 1-(1-p)^t, sharpened to t+1 when n-t = 1 mod 4."""

    n: int
    t: int
    p: float
    bound_value: float
    improved: bool


def wilson_interval(successes: int, trials: int, z: float = Z95) -> tuple[float, float]:
    """Score interval for a binomial proportion; well-behaved near 0 and 1.
    ``z`` is the normal quantile, a finite and positive real number."""
    check_real("z", z)
    if not 0 < z < math.inf:
        raise BadParams(f"z must be finite and positive, got {z}")
    trials = check_integer("trials", trials, 1)
    successes = check_integer("successes", successes, 0, trials)
    ph = successes / trials
    denom = 1.0 + z * z / trials
    center = (ph + z * z / (2 * trials)) / denom
    half = (z / denom) * ((ph * (1 - ph) / trials + z * z / (4 * trials * trials)) ** 0.5)
    # the score interval always contains ph; keep that true under rounding
    lo = min(max(0.0, center - half), ph)
    hi = max(min(1.0, center + half), ph)
    return lo, hi


def sample_subset(n: int, p: float, rng: Generator) -> VertexSubset:
    """One p-biased subset of 0..n-1 drawn from the given generator."""
    check_probability(p)
    keep = rng.random(n) < p
    return VertexSubset(n, np.flatnonzero(keep))


def _block_uniforms(master_seed: int, block: int, rows: int, n: int) -> np.ndarray:
    """Raw uint64 words for one trial block: Philox keyed by (master_seed, block).

    The name predates the raw draw; perfbench's ``sampling.draw`` layer wraps it."""
    key = np.array([master_seed, block], dtype=np.uint64)
    return Philox(key=key).random_raw((rows, n))


def _word_threshold(p: float) -> np.uint64:
    """The word below which a vertex is included: x < ceil(p * 2^53) << 11
    iff (x >> 11) * 2^-53 < p. It fits in 64 bits for every p < 1."""
    check_probability(p)
    return np.uint64(math.ceil(p * 2**53) << 11)


def trial_subset(n: int, p: float, master_seed: int, trial_index: int) -> VertexSubset:
    """The exact subset estimate_sweep uses for one trial at this p."""
    check_integer("master_seed", master_seed, 0, _MAX_SEED)
    check_integer("trial_index", trial_index, 0)
    block, row = divmod(trial_index, BLOCK_TRIALS)
    words = _block_uniforms(master_seed, block, row + 1, n)
    return VertexSubset(n, np.flatnonzero(words[row] < _word_threshold(p)))


def thread_cap() -> int:
    """Worker cap from TOURNEYLAB_THREADS (default: CPU count)."""
    raw = os.environ.get("TOURNEYLAB_THREADS", "").strip()
    if raw:
        try:
            cap = int(raw)
        except ValueError:
            raise BadParams(f"TOURNEYLAB_THREADS must be an integer, got {raw!r}") from None
        check_integer("TOURNEYLAB_THREADS", cap, 1)
        return cap
    return os.cpu_count() or 1


@dataclass(frozen=True)
class _Quotient:
    """T's module quotient Q as estimate_sweep reads it (see
    hamilton._module_partition). ``order`` lists the vertices part by
    part, and part b starts at ``starts[b]`` in it; ``order`` is None when
    that list is 0..n-1. ``shifted`` is Q's shifted matrix, whose vertex b
    is part b's lowest vertex. ``table`` holds the score kernel's verdict
    on Q restricted to every subset of its parts, indexed by the subset's
    bitmask (bit b for part b), when Q has at most _TABLE_MAX_PARTS parts,
    and is None otherwise. ``inner`` holds (b, members, shifted matrix of
    T[b]) for each part b of 3 or more vertices. With all parts
    singletons, Q is T and ``starts`` is None."""

    order: np.ndarray | None
    starts: np.ndarray | None
    shifted: np.ndarray
    table: np.ndarray | None
    inner: tuple[tuple[int, np.ndarray, np.ndarray], ...]


# Q's verdicts are looked up in a table of 2^k entries up to this many
# parts; past it, the kernel and absorption decide each level.
_TABLE_MAX_PARTS = 12


def _quotient(T: Tournament) -> _Quotient:
    """T's module quotient, its verdict table and its parts'
    sub-tournaments, built once per sweep."""
    labels = _module_partition(T)
    if labels[-1] == T.n - 1:  # parts are numbered by their lowest vertex
        order, starts, Q, inner = None, None, T.adj, ()
    else:
        order = np.argsort(labels, kind="stable")
        starts = np.flatnonzero(np.diff(labels[order], prepend=-1))
        inner = tuple((b, v, _shifted_adjacency(T.adj[np.ix_(v, v)]))
                      for b, v in enumerate(np.split(order, starts[1:])) if len(v) >= 3)
        Q = T.adj[np.ix_(order[starts], order[starts])]  # vertex b is part b's lowest vertex
        if np.all(labels[1:] >= labels[:-1]):
            order = None
    shifted = _shifted_adjacency(Q)
    k = len(Q)
    table = None
    if k <= _TABLE_MAX_PARTS:
        subsets = np.arange(1 << k)[:, None] >> np.arange(k) & 1
        table = _landau_strong(subsets.astype(np.float32) @ shifted)
    return _Quotient(order, starts, shifted, table, inner)


def _block_verdicts(words: np.ndarray, distinct: np.ndarray, quotient: _Quotient) -> np.ndarray:
    """verdicts[j, r]: T[S] Hamiltonian for the subset S of block row r's
    vertices whose words are below distinct[j], the sweep's j-th smallest
    threshold (see estimate_sweep).

    A row meets a part iff the part's lowest word is below the threshold,
    so only the k parts of Q are leveled: a part's level is the number of
    thresholds at or below its lowest word, and the row meets it at index
    j iff that level is at most j. The subset S'_j of parts a row meets
    grows with j as S does. A row that meets two or more parts is strong
    iff Q on them is; a row inside one part b of 3 or more vertices is
    decided by the kernel on T[b], from b's member words.

    With a ``table`` (k <= _TABLE_MAX_PARTS), Q's verdict on S'_j is read
    from it by S'_j's bitmask. Otherwise the levels run in ascending order
    on Q. If Q[S'_b] is strong and every part of S'_j ∖ S'_b has an in-
    and an out-neighbour in S'_b, then Q[S'_j] is strong (absorption, as
    in Camion's cycle growth), so the score kernel runs at level j only on
    the rows this cannot decide. Each row keeps whether its last
    kernel-checked S'_b was strong and the lowest level of a part blocked
    by S'_b, one with no in- or no out-neighbour in S'_b; in the kernel's
    product a non-member's entry is its out-degree into S'_b, so it is
    blocked iff that entry is 0 or |S'_b|. The last level computes no
    blocked parts. A row inside one part is never absorbed at the next
    level.
    """
    last = len(distinct) - 1
    if quotient.starts is None:
        lowest = words
    else:
        # take() keeps rows contiguous, where words[:, order] would lay the
        # gather out column by column and slow reduceat's row scans 4-fold
        grouped = words if quotient.order is None else words.take(quotient.order, axis=1)
        lowest = np.minimum.reduceat(grouped, quotient.starts, axis=1)
        del grouped
    level = np.zeros(lowest.shape, dtype=np.min_scalar_type(len(distinct)))
    for threshold in distinct:
        level += lowest >= threshold
    del lowest
    if not quotient.inner:
        # No row needs a member's word: the words are freed before the
        # kernel allocates, since holding them too lifts a block's heap
        # peak past the C allocator's trim threshold, and each block then
        # faults its pages in afresh.
        del words
    rows, k = level.shape
    verdicts = np.ones((last + 1, rows), dtype=bool)

    def decide_inside(j: int, hit: np.ndarray, members: np.ndarray, shifted: np.ndarray) -> None:
        # block rows ``hit`` meet one part at level j, whose members are given
        inside = words[np.ix_(hit, members)] < distinct[j]
        verdicts[j, hit] = _landau_strong(inside.astype(np.float32) @ shifted)

    if quotient.table is not None:
        bits = 1 << np.arange(k, dtype=np.uint16)
        for j in range(last + 1):
            mask = (level <= j) @ bits
            verdicts[j] = quotient.table[mask]
            for b, members, shifted in quotient.inner:
                hit = np.flatnonzero(mask == 1 << b)
                if len(hit):
                    decide_inside(j, hit, members, shifted)
        return verdicts
    # Row r is Hamiltonian at every level below reach[r] by absorption
    # into its last kernel-checked subset; 0 while that is not strong.
    reach = np.zeros(rows, dtype=level.dtype)
    for j in range(last + 1):
        redo = reach <= j
        row_level = level[redo] if j else level  # all rows at the first level
        product = (row_level <= j).astype(np.float32) @ quotient.shifted
        if j < last:
            # out-degree 0 or |S'| into S': no out- or no in-neighbour
            # there (members' entries are negative and never block)
            out = product[:, :k]
            blocked = (out == 0) | (out == product[:, k:])
            first_blocked = row_level.min(axis=1, where=blocked, initial=last + 1)
        alone = np.flatnonzero(product[:, k] == 1) if quotient.inner else ()
        strong = _landau_strong(product)
        if j < last:
            reach[redo] = np.where(strong, first_blocked, 0)
        verdicts[j, redo] = strong
        if len(alone):
            part = row_level[alone].argmin(axis=1)
            block_rows = np.flatnonzero(redo)[alone]
            for b, members, shifted in quotient.inner:
                hit = block_rows[part == b]
                if len(hit):
                    decide_inside(j, hit, members, shifted)
    return verdicts


def estimate_sweep(
    T: Tournament, p_values: Iterable[float], trials: int, master_seed: int,
    threads: int | None = None,
) -> list[EstimateReport]:
    """Monte Carlo estimates of P[T[S] Hamiltonian], one report per p in the
    order given, all from the same Philox blocks.

    Each trial samples S by independent Bernoulli(p) draws and counts a
    success iff T[S] is Hamiltonian (|S| <= 2 never succeeds). Trials are
    processed in fixed blocks through the vectorized score-sequence
    kernel; the success counts are invariant to the worker count, which is
    ``threads`` (an integer >= 1) or, when that is None, thread_cap().
    The pool gets one task per worker, at most one per block: task w runs
    blocks w, w + workers, w + 2 * workers, ... and sums their counts, so
    only the running blocks are held at any trial count, and the total is
    the same integer sum over every block in any order.

    A block's words do not depend on p, so each block is drawn once for
    the whole sweep. Each row's words are reduced to one small-integer
    ``level`` per part of the module quotient below: the number of the
    sweep's distinct thresholds the part's lowest word reaches. With those
    thresholds ascending, the row meets the part at index j iff its level
    is at most j, so block memory does not grow with the number of p.
    Every report's wall_time is the whole sweep's.

    The kernel runs on the module quotient Q of T, one vertex per part of
    hamilton._module_partition: T[S] is strong iff Q is strong on the
    parts S meets, when it meets two or more, and iff T[b] is strong on S
    when S lies inside part b. On the main family Q has 3 vertices in
    place of n, and with no nontrivial module Q is T. With at most
    _TABLE_MAX_PARTS parts, Q's verdicts are looked up in a table of the
    kernel's verdicts on every subset of its parts, built once per sweep;
    with more, _block_verdicts gives the rows each level decides by
    absorption without the kernel, and a one-p estimate runs the kernel
    once on every row. Every count is still the kernel's own on T.
    """
    plans = [SamplePlan(p=p, trials=trials, master_seed=master_seed) for p in p_values]
    if not plans:
        raise BadParams("an estimate sweep needs at least one p value")
    trials = check_integer("trials", trials, 1)
    workers = thread_cap() if threads is None else check_integer("threads", threads, 1)
    n = T.n
    n_blocks = (trials + BLOCK_TRIALS - 1) // BLOCK_TRIALS
    start = time.perf_counter()
    thresholds = np.array([_word_threshold(plan.p) for plan in plans], dtype=np.uint64)
    distinct = np.unique(thresholds)
    quotient = _quotient(T)

    def run_block(b: int) -> np.ndarray:
        rows = min(BLOCK_TRIALS, trials - b * BLOCK_TRIALS)
        # passed unnamed, the words have _block_verdicts as their only holder
        # (CPython 3.11 and later), so that it can free them
        verdicts = _block_verdicts(_block_uniforms(master_seed, b, rows, n), distinct, quotient)
        return np.count_nonzero(verdicts, axis=1)

    def run_task(w: int) -> np.ndarray:
        return sum(run_block(b) for b in range(w, n_blocks, workers))

    # the pool starts at most one thread per task, so never more than blocks
    with ThreadPoolExecutor(max_workers=workers) as pool:
        counts = sum(pool.map(run_task, range(min(workers, n_blocks))))

    wall_time = time.perf_counter() - start
    return [EstimateReport(int(counts[j]), trials, plan.p, master_seed, wall_time)
            for plan, j in zip(plans, np.searchsorted(distinct, thresholds))]


def estimate_hamiltonian_probability(
    T: Tournament, plan: SamplePlan, threads: int | None = None
) -> EstimateReport:
    """Monte Carlo estimate of P[T[S] Hamiltonian] at one p: a one-p
    estimate_sweep, so its counts equal that p's in any sweep."""
    return estimate_sweep(T, [plan.p], plan.trials, plan.master_seed, threads)[0]


def _union_table(rows: list[int]) -> np.ndarray:
    """table[m] = OR of rows[v] over the members v of m, for all 2^n masks.

    Built in n slice steps: the masks in [2^v, 2^(v+1)) are the masks below
    2^v with v added, so each half-table is the one before it OR rows[v].
    Over closed neighbourhoods (rows[v] includes v), as the exact route
    passes them, table[m] ⊇ m. Over single bits (rows[i] = 1 << v_i) it
    lists every subset of {v_i}, in full-universe bits, which is how
    _nonempty_subsets enumerates the candidate source components.
    """
    table = np.zeros(1 << len(rows), dtype=np.int32)
    for v, row in enumerate(rows):
        np.bitwise_or(table[: 1 << v], row, out=table[1 << v : 2 << v])
    return table


def _closure(table: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """For each mask, the vertices of the mask reachable from its lowest
    member along the closed-neighbourhood bitsets that ``table`` (see
    _union_table) unites. Since table[m] ⊇ m, one BFS level is
    ``table[reached] & masks``; levels repeat until one adds nothing.

    Each level gathers into one of two buffers that swap, so no level
    allocates. ``mode="wrap"`` never wraps: every index is a subset of a
    mask below 2^n = len(table); it only skips numpy's bounds-checking path.
    """
    reached = masks & -masks
    grown = np.empty_like(reached)
    while True:
        np.take(table, reached, out=grown, mode="wrap")
        grown &= masks
        if np.array_equal(grown, reached):
            return reached
        reached, grown = grown, reached


def _strong_masks(T: Tournament) -> Iterator[np.ndarray]:
    """Yield, chunk by chunk, the int32 bitsets S of at least 3 vertices with
    T[S] strong, over all 2^n subsets in increasing order (n <= 20).

    The subsets are taken in chunks of CLOSURE_CHUNK, and a subset is strong
    iff its forward and its backward closure from its lowest member (see
    _closure) are the whole subset; the backward closure runs only on the
    forward survivors.
    """
    n = T.n
    check_order(n, EXACT_MAX_N)
    # closed neighbourhoods from one read of the rows: N+[v] = N+(v) + {v},
    # and N-[v] = V - N+(v)
    out = rows_to_masks(T.adj)
    out_table = _union_table([row | 1 << v for v, row in enumerate(out)])
    in_table = _union_table([(1 << n) - 1 ^ row for row in out])
    for start in range(0, 1 << n, CLOSURE_CHUNK):
        masks = np.arange(start, min(start + CLOSURE_CHUNK, 1 << n), dtype=np.int32)
        masks = masks[np.bitwise_count(masks) >= 3]
        masks = masks[_closure(out_table, masks) == masks]
        yield masks[_closure(in_table, masks) == masks]


def _nonempty_subsets(row: int) -> Iterator[np.ndarray]:
    """The nonempty subsets of the bitset ``row`` as int32 masks, in slices
    of at most CLOSURE_CHUNK: each slice unites one subset of row's high
    members with every subset of its log2(CLOSURE_CHUNK) lowest ones."""
    bits = [1 << v for v in iter_bits(row)]
    split = CLOSURE_CHUNK.bit_length() - 1
    low = _union_table(bits[:split])
    yield low[1:]
    for high in _union_table(bits[split:])[1:]:
        yield low | high


def _batches(slices: Iterable[np.ndarray], size: int) -> Iterator[np.ndarray]:
    """The arrays of ``slices``, each at most ``size`` long, joined in
    order into batches of at most ``size`` entries."""
    held: list[np.ndarray] = []
    count = 0
    for part in slices:
        if count + len(part) > size:
            yield np.concatenate(held)
            held, count = [], 0
        held.append(part)
        count += len(part)
    if held:
        yield np.concatenate(held)


def hamiltonian_subset_size_counts(T: Tournament) -> np.ndarray:
    """counts[s] = number of s-element subsets S with T[S] Hamiltonian
    (n <= 20), counted by source components.

    T[S] is Hamiltonian iff |S| >= 3 and T[S] is strong. A non-strong S has
    one source component C, a single vertex or a strong set of 3 or more,
    and S - C is a nonempty subset X of D(C), the vertices all of C beats;
    every such pair (C, X) gives one S. So the non-strong s-sets number the
    sum of binom(|D(C)|, s - |C|) over the strong C with D(C) nonempty
    (Moon's recurrence for strong tournaments, over the subsets of one
    tournament). Such a C lies in N-(w) for w = min D(C), so the
    candidates are the nonempty subsets of each in-neighbourhood N-(w),
    kept when no vertex below w is in D(C) = V - in_table[C]: sum_w
    2^in(w) sets in place of 2^n. A kept C is strong iff its forward and
    backward closures (see _closure) are all of C, as in _strong_masks (a
    single vertex passes, a 2-set fails); they run on at most
    CLOSURE_CHUNK candidates at a time. When sum_v 2^out(v) is the
    smaller, the out- and in-rows swap and the count runs over sink
    components, since T[S] is strong iff its reverse is. Only adjacency
    bitsets are read, no scores, so this path is disjoint from the
    estimator's score kernel and referees it.
    """
    n = T.n
    check_order(n, EXACT_MAX_N)
    full = (1 << n) - 1
    succ = rows_to_masks(T.adj)
    pred = complement_rows(succ)
    if sum(1 << row.bit_count() for row in succ) < sum(1 << row.bit_count() for row in pred):
        succ, pred = pred, succ
    # closed neighbourhoods, as in _strong_masks
    out_table = _union_table([row | 1 << v for v, row in enumerate(succ)])
    in_table = _union_table([row | 1 << v for v, row in enumerate(pred)])

    def candidates() -> Iterator[np.ndarray]:
        for w, row in enumerate(pred):
            for C in _nonempty_subsets(row):
                D = full ^ in_table[C]  # w is in D(C), since C is in N-(w)
                yield C[(D & (1 << w) - 1) == 0]

    # pairs[|C|, |D(C)|] over the strong C, flattened
    pairs = np.zeros((n + 1) ** 2, dtype=np.int64)
    for C in _batches(candidates(), CLOSURE_CHUNK):
        C = C[_closure(out_table, C) == C]
        C = C[_closure(in_table, C) == C]
        key = np.bitwise_count(C) * np.intp(n + 1) + np.bitwise_count(full ^ in_table[C])
        pairs += np.bincount(key, minlength=len(pairs))
    binom = np.array([[math.comb(d, k) for k in range(n + 1)] for d in range(n + 1)])
    grown = pairs.reshape(n + 1, n + 1) @ binom  # grown[c, k]: sets C + X with |X| = k
    counts = binom[n].copy()
    for c in range(1, n):
        counts[c + 1:] -= grown[c, 1:n + 1 - c]
    counts[:3] = 0
    return counts


def probability_from_counts(counts: np.ndarray, p: float) -> float:
    """Sum of c_s p^s (1-p)^(n-s) over the size counts of
    hamiltonian_subset_size_counts, so one enumeration serves every p."""
    check_probability(p)
    n = len(counts) - 1
    return float(sum(counts[s] * p**s * (1 - p) ** (n - s) for s in range(n + 1)))


def exact_hamiltonian_probability(T: Tournament, p: float) -> float:
    """Sum of p^|S| (1-p)^(n-|S|) over all Hamiltonian-inducing subsets (n <= 20)."""
    check_probability(p)
    return probability_from_counts(hamiltonian_subset_size_counts(T), p)


def uniform_subset_probability(T: Tournament) -> float:
    """P[T[S] Hamiltonian] for a uniformly random subset S (p = 1/2)."""
    return exact_hamiltonian_probability(T, 0.5)


def theoretical_bound(n: int, t: int, p: float) -> BoundSpec:
    """The closed-form probability target 1 - (1 - p)^t; the exponent
    improves to t+1 when n - t = 1 mod 4.

    The bound is a function of (n, t, p) alone and reads no tournament:
    run_sweep passes T's order and the config's t, whatever T is, so a
    negative gap in a sweep report is not sampling error."""
    n = check_integer("n", n, 1)
    t = check_integer("t", t, 1)
    check_probability(p)
    improved = (n - t) % 4 == 1
    expo = t + 1 if improved else t
    try:
        bound_value = 1.0 - (1.0 - p) ** expo
    except OverflowError:  # the exponent does not convert to a float
        raise BadParams("t is too large for the bound 1 - (1 - p)^t") from None
    return BoundSpec(n=n, t=t, p=p, bound_value=bound_value, improved=improved)
