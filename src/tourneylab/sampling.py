"""p-biased subset sampling, Monte Carlo estimation with Wilson intervals,
exact probabilities by subset enumeration, and the closed-form bounds.

The exact route counts the strong subsets of each size for all 2^n
subsets at once: each subset is an int32 bitset, and numpy sweeps grow
its forward and backward reachability closures from its lowest member.
It reads only adjacency bitsets, never scores, so it shares no code with
the estimator's score kernel and referees it.

Reproducibility contract: trial i of an estimate draws its inclusion
vector from a Philox stream keyed by (master_seed, i // BLOCK_TRIALS) at
row i % BLOCK_TRIALS. Blocks have a fixed size, are independent streams,
and are reduced by an integer sum, so the report is bit-identical for any
thread count and any scheduling order. Vertex v is in S iff the raw
64-bit Philox word x drawn for it is below ceil(p * 2^53) << 11. That is
exactly ``Generator.random() < p`` on the same stream, since random()
returns (x >> 11) * 2^-53, so the counts equal those of the uniform draw.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .core import Tournament, VertexSubset
from .errors import BadParams, TooLarge, check_integer, check_probability
from .hamilton import hamiltonian_batch

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
    """Monte Carlo outcome; wall_time is informational and never serialized."""

    successes: int
    trials: int
    point_estimate: float
    ci_low: float
    ci_high: float
    p: float
    master_seed: int
    wall_time: float

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "trials": self.trials,
            "seed": self.master_seed,
            "successes": self.successes,
            "estimate": self.point_estimate,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
        }


@dataclass(frozen=True)
class BoundSpec:
    """Theoretical lower bound 1-(1-p)^t, sharpened to t+1 when n-t = 1 mod 4."""

    n: int
    t: int
    p: float
    bound_value: float
    improved: bool


def wilson_interval(successes: int, trials: int, z: float = Z95) -> tuple[float, float]:
    """Score interval for a binomial proportion; well-behaved near 0 and 1."""
    check_integer("trials", trials, 1)
    check_integer("successes", successes, 0, trials)
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
    """The exact subset estimate_hamiltonian_probability uses for one trial."""
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


def estimate_hamiltonian_probability(
    T: Tournament, plan: SamplePlan, threads: int | None = None
) -> EstimateReport:
    """Monte Carlo estimate of P[T[S] Hamiltonian] under p-biased sampling.

    Each trial samples S by independent Bernoulli(p) draws and counts a
    success iff T[S] is Hamiltonian (|S| <= 2 never succeeds). Trials are
    processed in fixed blocks through the vectorized score-sequence
    kernel; the success count is invariant to the worker count, which is
    ``threads`` (an integer >= 1) or, when that is None, thread_cap().
    """
    if threads is not None:
        check_integer("threads", threads, 1)
    workers = thread_cap() if threads is None else threads
    n = T.n
    n_blocks = (plan.trials + BLOCK_TRIALS - 1) // BLOCK_TRIALS
    start = time.perf_counter()
    threshold = _word_threshold(plan.p)

    def run_block(b: int) -> int:
        rows = min(BLOCK_TRIALS, plan.trials - b * BLOCK_TRIALS)
        # The words are freed before the kernel allocates: holding them too
        # lifts a block's heap peak past the C allocator's trim threshold,
        # and each block then faults its pages in afresh.
        inclusion = _block_uniforms(plan.master_seed, b, rows, n) < threshold
        return int(hamiltonian_batch(T, inclusion).sum())

    if workers == 1 or n_blocks == 1:
        successes = sum(run_block(b) for b in range(n_blocks))
    else:
        with ThreadPoolExecutor(max_workers=min(workers, n_blocks)) as pool:
            successes = sum(pool.map(run_block, range(n_blocks)))

    lo, hi = wilson_interval(successes, plan.trials)
    return EstimateReport(
        successes=successes,
        trials=plan.trials,
        point_estimate=successes / plan.trials,
        ci_low=lo,
        ci_high=hi,
        p=plan.p,
        master_seed=plan.master_seed,
        wall_time=time.perf_counter() - start,
    )


def _closure(rows: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """For each mask, the vertices of the mask reachable from its lowest
    member along the ``rows`` adjacency bitsets.

    Gauss–Seidel sweeps over v = 0..n-1: a mask whose closure holds v gains
    v's neighbours inside the mask, and a vertex reached early in a sweep
    already spreads later in the same sweep. Sweeps repeat until one
    changes nothing.
    """
    reached = masks & -masks
    while True:
        before = reached.copy()
        for v, row in enumerate(rows):
            reached |= -((reached >> v) & 1) & row & masks
        if np.array_equal(reached, before):
            return reached


def hamiltonian_subset_size_counts(T: Tournament) -> np.ndarray:
    """counts[s] = number of s-element subsets S with T[S] Hamiltonian.

    Decides strong connectivity for all 2^n subsets at once: the subsets
    are int32 bitsets, taken in chunks of CLOSURE_CHUNK, and a subset is
    strong iff its forward and its backward reachability closure from its
    lowest member (see _closure) are the whole subset. The closure uses
    adjacency bitsets only, no scores, so this path is disjoint from the
    estimator's score kernel and doubles as the independent oracle for the
    Monte Carlo route. Requires n <= 20.
    """
    n = T.n
    if n > EXACT_MAX_N:
        raise TooLarge(n, EXACT_MAX_N)
    out_rows = np.array(T.out_masks, dtype=np.int32)
    in_rows = np.array(T.in_masks, dtype=np.int32)
    counts = np.zeros(n + 1, dtype=np.int64)
    for start in range(0, 1 << n, CLOSURE_CHUNK):
        masks = np.arange(start, min(start + CLOSURE_CHUNK, 1 << n), dtype=np.int32)
        masks = masks[np.bitwise_count(masks) >= 3]
        masks = masks[_closure(out_rows, masks) == masks]
        masks = masks[_closure(in_rows, masks) == masks]
        counts += np.bincount(np.bitwise_count(masks), minlength=n + 1)
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
    """The closed-form probability target for tournaments with the requisite
    minimum semidegree; exponent improves to t+1 when n - t = 1 mod 4."""
    check_integer("n", n, 1)
    check_integer("t", t, 1)
    check_probability(p)
    improved = (n - t) % 4 == 1
    expo = t + 1 if improved else t
    return BoundSpec(n=n, t=t, p=p, bound_value=1.0 - (1.0 - p) ** expo, improved=improved)
