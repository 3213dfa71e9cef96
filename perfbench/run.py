#!/usr/bin/env python3
"""One benchmark run of tourneylab's estimate, exact and analyze paths.

    python3 perfbench/run.py --workload estimate-n203 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from its
``src`` directory. The run builds the workload's inputs from ``--seed``,
repeats the workload's operation through ``tourneylab.cli.main`` (and the
library calls named below) for ``--seconds`` after one untimed warm-up,
checks every output against computations in ``checks.py``, and prints one
JSON object as its last line. ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` reports the per-layer metrics from wrapped layer functions.
See README.md for the workloads, metrics and measured spread.
"""

import os

# One estimator worker and one BLAS thread, set before numpy is imported.
# With the defaults, each of the estimator's cpu_count workers calls a
# multi-threaded OpenBLAS matmul and per-process medians wander by ~45%.
for _var in ("TOURNEYLAB_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
             "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
from tracing import Layer, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
SETUP_REPEATS = 3


def import_program() -> SimpleNamespace:
    """tourneylab's modules, from this checkout's sources and nowhere else."""
    package = SRC / "tourneylab"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: no tourneylab sources at {package}")
    sys.path.insert(0, str(SRC))
    import tourneylab
    from tourneylab import cli, core, generators, hamilton, sampling, structure

    if Path(tourneylab.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: imported tourneylab from {tourneylab.__file__}, not {package}")
    return SimpleNamespace(cli=cli, core=core, generators=generators,
                           hamilton=hamilton, sampling=sampling, structure=structure)


def run_cli(tl, argv: list[str]) -> tuple[int, str]:
    """``tourneylab.cli.main`` in-process: (exit code, captured stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = tl.cli.main(argv)
    return code, buf.getvalue()


# ---- workloads ---------------------------------------------------------
#
# Each workload: setup() writes the inputs, op() is one timed operation,
# collect() turns its result into comparable data after the clock stops,
# and check() lists the problems of one collected output.

class EstimateSweep:
    """`estimate` on the main family: the Philox draw and the score kernel
    do nearly all the work; structure and TRN1 I/O do none. The three p
    values change the subset size."""

    name = "estimate-n203"
    N, T, PS, TRIALS = 203, 2, (0.3, 0.5, 0.7), 100_000
    # The report's 99.7% envelope check rejects about 0.3% of correct rows,
    # so the Philox key is fixed instead of following --seed (see README).
    MASTER_SEED = 42
    units = len(PS) * TRIALS  # trials per operation
    exact_commands = 0

    def __init__(self):
        self._expected: dict[float, int] | None = None

    def setup(self, tl, inputs: Path, seed: int) -> None:
        config = {"family": "main", "params": {"n": self.N, "t": self.T},
                  "p_values": list(self.PS), "t": self.T, "trials": self.TRIALS,
                  "master_seed": self.MASTER_SEED}
        (inputs / "sweep.json").write_text(json.dumps(config), encoding="ascii")

    def op(self, tl, inputs: Path, out: Path):
        return run_cli(tl, ["estimate", "--config", str(inputs / "sweep.json"),
                            "--out", str(out / "report")])

    def collect(self, out: Path, raw):
        return raw[0], (out / "report.json").read_bytes(), (out / "report.csv").read_bytes()

    def check(self, tl, inputs: Path, output) -> list[str]:
        code, report_json, _ = output
        if code != 0:
            return [f"estimate exited with {code}"]
        if self._expected is None:
            family = np.array(tl.generators.ExtremalSpec(
                "main", {"n": self.N, "t": self.T}).build().adj)
            problems = checks.check_main_family(family, self.T)
            if problems:
                return problems
            self._expected = {p: checks.recount_main_family(
                family, self.T, p, self.TRIALS, self.MASTER_SEED) for p in self.PS}
        return checks.check_estimate_report(json.loads(report_json), self.N, self.T,
                                            self.PS, self.TRIALS, self._expected)

    def reference(self, runner) -> str:
        """The sweep at 2 workers against 1, BLAS still on one thread."""
        walls: dict[int, list[float]] = {1: [], 2: []}
        try:
            for workers in (1, 2, 1, 2):
                os.environ["TOURNEYLAB_THREADS"] = str(workers)
                walls[workers].append(runner.op())
        finally:
            os.environ["TOURNEYLAB_THREADS"] = "1"
        one, two = statistics.median(walls[1]), statistics.median(walls[2])
        return (f"reference: estimate sweep {one:.3f} s at 1 worker, {two:.3f} s at "
                f"2 workers ({one / two:.2f}x), one BLAS thread")


class ExactEnumeration:
    """`exact` at n=17: the pure-Python bitset BFS over all 2^17 subsets
    does nearly all the work. The two inputs differ in their share of
    strong subsets, on which the BFS's early exit depends."""

    name = "exact-n17"
    N, PS = 17, (0.3, 0.5, 0.7)
    FILES = ("random17.trn", "main17.trn")
    units = len(PS) * 2**N * len(FILES)  # p values x subsets per operation
    exact_commands = len(FILES)

    def __init__(self):
        self._counts: dict[str, np.ndarray] = {}

    def setup(self, tl, inputs: Path, seed: int) -> None:
        families = (["random", "--n", str(self.N), "--seed", str(seed)],
                    ["main", "--n", str(self.N), "--t", "1"])
        for f, argv in zip(self.FILES, families):
            code, _ = run_cli(tl, ["gen", *argv, "--out", str(inputs / f)])
            if code != 0:
                raise RuntimeError(f"{' '.join(argv)} exited with {code}")

    def op(self, tl, inputs: Path, out: Path):
        p_args = [arg for p in self.PS for arg in ("--p", repr(p))]
        return [run_cli(tl, ["exact", "--file", str(inputs / f), *p_args,
                             "--out", str(out / f"{f}.json")]) for f in self.FILES]

    def collect(self, out: Path, raw):
        return tuple((code, (out / f"{f}.json").read_bytes())
                     for (code, _), f in zip(raw, self.FILES))

    def check(self, tl, inputs: Path, output) -> list[str]:
        problems = []
        for f, (code, report) in zip(self.FILES, output):
            if code != 0:
                problems.append(f"exact on {f} exited with {code}")
                continue
            adj = checks.parse_trn1((inputs / f).read_text(encoding="ascii"))
            if f not in self._counts:
                reference = checks.landau_counts(adj)
                program = tl.sampling.hamiltonian_subset_size_counts(
                    tl.core.read_trn1(inputs / f))
                problems += [f"{f}: {p}" for p in
                             checks.check_exact_counts(adj, program, reference)]
                self._counts[f] = reference
            problems += [f"{f}: {p}" for p in checks.check_exact_report(
                json.loads(report), self._counts[f], self.PS)]
        return problems


class AnalyzeSession:
    """A structural session at n=2000: TRN1 parsing, cut search, matching,
    SCC and certificates do the work; the estimator does none. Reversed
    A->B pairs keep the cut almost-directed at eps=0.01 while making the
    B->A matching non-trivial."""

    name = "analyze-n2000"
    N, T, FLIPS, EPS = 2000, 2, 2000, 0.01
    FILE = "perturbed2000.trn"
    units = 5 * N * N  # matrix cells per step: check, analyze, scc, cycle, verify
    exact_commands = 0

    def __init__(self):
        self._adj: np.ndarray | None = None
        self._components: list[set[int]] | None = None

    def setup(self, tl, inputs: Path, seed: int) -> None:
        adj = np.array(tl.generators.ExtremalSpec(
            "main", {"n": self.N, "t": self.T}).build().adj)
        ra, rb, _ = checks.main_blocks(self.N, self.T)
        rng = np.random.default_rng(seed)
        a = rng.integers(ra.start, ra.stop, self.FLIPS)
        b = rng.integers(rb.start, rb.stop, self.FLIPS)
        adj[a, b] = 0
        adj[b, a] = 1
        tl.core.write_trn1(tl.core.Tournament(adj), inputs / self.FILE)

    def op(self, tl, inputs: Path, out: Path):
        path = str(inputs / self.FILE)
        checked = run_cli(tl, ["check", "--file", path])
        analyzed = run_cli(tl, ["analyze", "--file", path, "--eps", repr(self.EPS),
                                "--out", str(out / "analyze.json")])
        T = tl.core.read_trn1(path)
        comps = tl.hamilton.scc(T)
        cycle = tl.hamilton.hamilton_cycle(T)
        cert = out / "cycle.txt"
        cert.write_text(cycle.to_text() if cycle is not None else "", encoding="ascii")
        verified = run_cli(tl, ["verify", "--file", path, "--certificate", str(cert)])
        return (checked, analyzed[0],
                (comps.component_of, comps.component_count, comps.topological_order),
                cycle.order if cycle is not None else None, verified)

    def collect(self, out: Path, raw):
        checked, analyzed, comps, cycle, verified = raw
        return checked, analyzed, (out / "analyze.json").read_bytes(), comps, cycle, verified

    def check(self, tl, inputs: Path, output) -> list[str]:
        (c_code, c_text), a_code, report, comps, cycle, (v_code, v_text) = output
        if self._adj is None:
            self._adj = checks.parse_trn1((inputs / self.FILE).read_text(encoding="ascii"))
            self._components = checks.networkx_components(self._adj)
        adj, reference = self._adj, self._components
        problems = [] if checks.is_tournament(adj) else ["input is not a tournament"]
        if c_code != 0:
            problems.append(f"check exited with {c_code}")
        problems += checks.check_profile_line(adj, c_text, len(reference) == 1)
        if a_code != 0:
            problems.append(f"analyze exited with {a_code}")
        else:
            result = json.loads(report)
            if result["branch"] != "almost-directed cut":
                problems.append(f"analyze took branch {result['branch']!r}")
            else:
                part = result["partition"]
                problems += checks.check_cut(adj, result["cut"])
                problems += checks.check_partition(self.N, part)
                problems += checks.check_matching(adj, part, result["matching"]["matching"])
                problems += checks.check_connectors(adj, part, result["k"],
                                                    result["connectors"])
                if result["connector_count"] != len(result["connectors"]):
                    problems.append("connector_count differs from the connector list")
        problems += checks.check_scc(adj, *comps, reference)
        problems += (checks.check_cycle(adj, cycle) if cycle is not None
                     else ["hamilton_cycle returned no cycle"])
        if v_code != 0 or v_text.strip() != "ok":
            problems.append(f"verify exited with {v_code}: {v_text.strip()!r}")
        return problems


WORKLOADS = {w.name: w for w in (EstimateSweep, ExactEnumeration, AnalyzeSession)}


# ---- running operations -----------------------------------------------

@dataclass(frozen=True)
class Raised:
    """The output of an operation that raised: its traceback."""

    text: str


class Runner:
    """Runs a workload's operations and keeps every collected output."""

    def __init__(self, workload, tl, inputs: Path, out: Path):
        self.workload, self.tl, self.inputs, self.out = workload, tl, inputs, out
        self.outputs: list = []

    def op(self) -> float:
        """One operation; returns its wall time in seconds."""
        gc.collect()
        start = time.perf_counter()
        try:
            raw = self.workload.op(self.tl, self.inputs, self.out)
        except Exception:  # an operation that raises is counted as failed
            wall = time.perf_counter() - start
            self.outputs.append(Raised(traceback.format_exc()))
            return wall
        wall = time.perf_counter() - start
        self.outputs.append(self.workload.collect(self.out, raw))
        return wall

    def timed(self, seconds: float) -> list[float]:
        walls: list[float] = []
        start = time.perf_counter()
        while not walls or time.perf_counter() - start < seconds:
            walls.append(self.op())
        return walls

    def failures(self) -> int:
        """Operations whose output fails a check or differs from the first."""
        verdicts: dict = {}
        failed = 0
        for i, output in enumerate(self.outputs):
            if isinstance(output, Raised):
                problems = [output.text]
            else:
                if output not in verdicts:
                    verdicts[output] = self.workload.check(self.tl, self.inputs, output)
                problems = list(verdicts[output])
                if output != self.outputs[0]:
                    problems.append("output differs from the first operation's")
            if problems:
                failed += 1
                print(f"operation {i} failed: " + "; ".join(problems), file=sys.stderr)
        return failed


def timed_setup(name: str, seed: int, inputs: Path) -> float:
    """Seconds from starting a fresh process until its inputs are written."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--setup-only", str(inputs)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        proc.wait(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up process exited with {proc.returncode}")
    return ready - start


def end_to_end(workload, tl, inputs: Path, out: Path, seed: int, seconds: float):
    setups = [timed_setup(workload.name, seed, inputs) for _ in range(SETUP_REPEATS)]
    runner = Runner(workload, tl, inputs, out)
    runner.op()  # warm-up
    walls = runner.timed(seconds)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed = runner.failures()
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "work_per_s": (workload.units * len(walls) / sum(walls), "1/s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    print(f"{len(walls)} timed operations, walls {[round(w, 3) for w in walls]}")
    return len(runner.outputs), failed, metrics


def layers(tl) -> list[Layer]:
    cli, core, hamilton, sampling = tl.cli, tl.core, tl.hamilton, tl.sampling
    return [
        Layer("sampling.estimate", lambda: cli, "estimate_hamiltonian_probability"),
        Layer("sampling.draw", lambda: sampling, "_block_uniforms", extra_name="bytes",
              extra=lambda args, r: r.shape[0] * r.shape[1] * 8),
        Layer("hamilton.batch", lambda: sampling, "hamiltonian_batch", extra_name="rows",
              extra=lambda args, r: len(r)),
        Layer("cli.report", lambda: cli, "write_sweep_report"),
        Layer("cli.report", lambda: cli.json, "dump"),
        Layer("generators.build", lambda: tl.generators.ExtremalSpec, "build"),
        Layer("sampling.exact_counts", lambda: sampling, "hamiltonian_subset_size_counts"),
        Layer("hamilton.strong_on_mask", lambda: sampling, "strong_on_mask", timed=False),
        Layer("hamilton.strong_on_mask", lambda: hamilton, "strong_on_mask", timed=False),
        Layer("core.parse_trn1", lambda: core, "parse_trn1"),
        Layer("core.format_trn1", lambda: core, "format_trn1"),
        Layer("core.rows_to_masks", lambda: core, "rows_to_masks"),
        Layer("hamilton.is_hamiltonian", lambda: cli, "is_hamiltonian"),
        Layer("hamilton.scc", lambda: hamilton, "scc"),
        Layer("hamilton.cycle", lambda: hamilton, "hamilton_cycle"),
        Layer("hamilton.check_certificate", lambda: cli, "check_certificate"),
        Layer("hamilton.check_certificate", lambda: hamilton, "check_certificate"),
        Layer("structure.cut_search", lambda: cli, "balanced_cut_search"),
        Layer("structure.hill_climb", lambda: tl.structure, "_hill_climb", timed=False),
        Layer("structure.clean", lambda: cli, "clean_to_good_partition"),
        Layer("structure.refine", lambda: cli, "refine_partition"),
        Layer("structure.connectors", lambda: cli, "k_connectors"),
        Layer("structure.matching", lambda: cli, "max_BA_matching", extra_name="size",
              extra=lambda args, r: len(r.matching)),
    ]


# Per-layer metric -> (unit, tracer summary key). Values are per operation,
# plus what one set-up spends in the layer (generators.build and
# core.format_trn1 run in set-up on exact-n17 and analyze-n2000).
PER_LAYER = {
    "sampling.draw_s": ("s", "sampling.draw.busy"),
    "sampling.draw_bytes": ("bytes", "sampling.draw.bytes"),
    "hamilton.batch_s": ("s", "hamilton.batch.busy"),
    "hamilton.batch_rows": ("count", "hamilton.batch.rows"),
    "sampling.estimate_self_s": ("s", "sampling.estimate.self"),
    "cli.report_s": ("s", "cli.report.busy"),
    "generators.build_s": ("s", "generators.build.busy"),
    "sampling.exact_counts_s": ("s", "sampling.exact_counts.busy"),
    "sampling.enumerations_per_file": ("count", "sampling.exact_counts.calls"),  # / exact commands
    "hamilton.strong_on_mask_calls": ("count", "hamilton.strong_on_mask.calls"),
    "core.parse_trn1_s": ("s", "core.parse_trn1.busy"),
    "core.parse_trn1_calls": ("count", "core.parse_trn1.calls"),
    "core.format_trn1_s": ("s", "core.format_trn1.busy"),
    "core.rows_to_masks_s": ("s", "core.rows_to_masks.busy"),
    "hamilton.is_hamiltonian_s": ("s", "hamilton.is_hamiltonian.busy"),
    "hamilton.scc_s": ("s", "hamilton.scc.busy"),
    "hamilton.cycle_s": ("s", "hamilton.cycle.busy"),
    "hamilton.check_certificate_s": ("s", "hamilton.check_certificate.busy"),
    "structure.cut_search_s": ("s", "structure.cut_search.busy"),
    "structure.hill_climb_calls": ("count", "structure.hill_climb.calls"),
    "structure.clean_s": ("s", "structure.clean.busy"),
    "structure.refine_s": ("s", "structure.refine.busy"),
    "structure.connectors_s": ("s", "structure.connectors.busy"),
    "structure.matching_s": ("s", "structure.matching.busy"),
    "structure.matching_size": ("count", "structure.matching.size"),
}


def per_layer(workload, tl, inputs: Path, out: Path, seed: int, seconds: float):
    """Traced set-up, then untraced and traced operations in turn."""
    tracer = Tracer(layers(tl))
    mark = tracer.mark()
    tracer.install()
    try:
        workload.setup(tl, inputs, seed)
    finally:
        tracer.uninstall()
    in_setup = tracer.summary(mark)

    runner = Runner(workload, tl, inputs, out)
    runner.op()  # warm-up
    plain: list[float] = []
    traced: list[float] = []
    mark = tracer.mark()
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(runner.op())
        tracer.install()
        try:
            traced.append(runner.op())
        finally:
            tracer.uninstall()
    in_ops = tracer.summary(mark)
    if tracer.absent:
        print("absent layers (reported as 0): " + ", ".join(tracer.absent))
    if tracer.unmeasured:
        print("unmeasured quantities (reported as 0): " + ", ".join(sorted(tracer.unmeasured)))
    if hasattr(workload, "reference"):
        print(workload.reference(runner))
    failed = runner.failures()

    metrics = {metric: (in_setup.get(key, 0.0) + in_ops.get(key, 0.0) / len(traced), unit)
               for metric, (unit, key) in PER_LAYER.items()}
    calls, unit = metrics["sampling.enumerations_per_file"]
    metrics["sampling.enumerations_per_file"] = (
        calls / workload.exact_commands if workload.exact_commands else 0.0, unit)
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
    print(f"{len(plain)} untraced and {len(traced)} traced operations")
    return len(runner.outputs), failed, metrics


def machine_line() -> str:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return (f"machine: cpus={os.cpu_count()} python={platform.python_version()} "
            f"numpy={np.__version__} blas={blas.get('name', '?')} {blas.get('version', '?')} "
            f"threads: estimator=1 blas=1")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR",
                        help="only write the inputs into DIR and print 'ready'")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    seed = args.seed % 2**63
    tl = import_program()
    workload = WORKLOADS[args.workload]()
    if args.setup_only:
        with contextlib.redirect_stdout(io.StringIO()):
            workload.setup(tl, Path(args.setup_only), seed)
        print("ready", flush=True)
        return 0

    print(machine_line())
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_ROOT))
    try:
        inputs, out = work / "inputs", work / "out"
        inputs.mkdir()
        out.mkdir()
        measure = per_layer if args.trace else end_to_end
        attempted, failed, metrics = measure(workload, tl, inputs, out, seed, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
