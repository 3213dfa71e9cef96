"""Command-line front end: generate families, run estimation sweeps, exact
enumeration, structural analysis, and certificate verification.

Sweeps are configured by a single JSON document so they can be archived
and replayed; command-line flags override individual fields. Reports
embed the master seed and artifact version, and everything runs offline.

Exit codes: 0 success; 2 bad parameters or configuration; 3 I/O failure;
4 malformed tournament input; 5 certificate failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass, field, fields

from . import __version__, sampling
from .core import Tournament, read_trn1, semidegrees, write_trn1
from .errors import (BadConfig, BadParams, DiagonalNonzero, EmptyPart,
                     InvalidCertificate, PairViolation, SubsetOutOfRange,
                     TooLarge, Trn1ParseError, check_integer, check_probability)
from .generators import _BUILDERS, FAMILIES, ExtremalSpec
from .hamilton import HamiltonCertificate, check_certificate, is_hamiltonian
from .sampling import (SamplePlan, estimate_hamiltonian_probability,
                       theoretical_bound)
from .structure import (_check_cleaning_eps, _check_connector_params,
                        balanced_cut_search, clean_to_good_partition,
                        default_connector_k, k_connectors, max_BA_matching,
                        refine_partition)

EXIT_OK = 0
EXIT_BAD_PARAMS = 2
EXIT_IO = 3
EXIT_PARSE = 4
EXIT_CERTIFICATE = 5

# every generator family's parameter names, each one a `gen` flag: k, m, n, t
_GEN_PARAMS = sorted({name for _, names in _BUILDERS.values() for name in names})


@dataclass
class ExperimentConfig:
    """One estimation sweep: a tournament source, p values, and trial budget."""

    p_values: list[float]
    t: int = 1
    trials: int = 10000
    master_seed: int = 0
    family: str | None = None
    params: dict = field(default_factory=dict)
    seed: int | None = None
    tournament_path: str | None = None
    output_path: str | None = None

    def __post_init__(self):
        # JSON can put any type in any field: a float seed would reach the
        # Philox key truncated, an int path would open() a file descriptor.
        # The numbers go through the package's shared checks; the family's
        # params are checked when the spec builds.
        if not isinstance(self.p_values, list) or not self.p_values:
            raise BadConfig(f"p_values must be a non-empty list, got {self.p_values!r}")
        for name in ("family", "tournament_path", "output_path"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, str):
                raise BadConfig(f"{name} must be a string, got {value!r}")
        if not isinstance(self.params, dict):
            raise BadConfig(f"params must be an object, got {self.params!r}")
        if (self.family is None) == (self.tournament_path is None):
            raise BadConfig("config needs exactly one of 'family' or 'tournament_path'")
        try:
            for p in self.p_values:
                check_probability(p, "p values")
            check_integer("t", self.t, 1)
            check_integer("trials", self.trials, 1)
            check_integer("master_seed", self.master_seed)
            if self.seed is not None:
                check_integer("seed", self.seed)
        except BadParams as exc:
            raise BadConfig(str(exc)) from None

    @classmethod
    def from_json_dict(cls, data: dict) -> "ExperimentConfig":
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise BadConfig(f"unknown config fields: {sorted(unknown)}")
        if "p_values" not in data:
            raise BadConfig("config is missing 'p_values'")
        return cls(**data)

    def to_json_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def load_tournament(self) -> Tournament:
        if self.tournament_path is not None:
            return read_trn1(self.tournament_path)
        return ExtremalSpec(self.family, self.params, self.seed).build()


def run_sweep(config: ExperimentConfig) -> dict:
    """Execute the sweep and return the SweepReport as a plain dict."""
    T = config.load_tournament()
    rows = []
    for p in config.p_values:
        plan = SamplePlan(p=p, trials=config.trials, master_seed=config.master_seed)
        est = estimate_hamiltonian_probability(T, plan)
        bound = theoretical_bound(T.n, config.t, p)
        row = est.to_json_dict()
        row["bound"] = bound.bound_value
        row["improved"] = bound.improved
        row["gap"] = est.point_estimate - bound.bound_value
        rows.append(row)
    echo = config.to_json_dict()
    echo.pop("output_path")  # where the report lands is not part of the experiment
    return {
        "artifact_version": __version__,
        "config": echo,
        "n": T.n,
        "rows": rows,
    }


def _write_json(payload: dict, path: str | None) -> None:
    """Indented, key-sorted JSON with a final newline, to ``path`` or stdout."""
    if path:
        with open(path, "w", encoding="ascii") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    else:
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        print()


def write_sweep_report(report: dict, base_path: str) -> tuple[str, str]:
    json_path = base_path + ".json"
    csv_path = base_path + ".csv"
    _write_json(report, json_path)
    with open(csv_path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["p", "estimate", "ci_low", "ci_high", "bound", "gap"])
        for row in report["rows"]:
            writer.writerow([repr(row[c]) for c in
                             ("p", "estimate", "ci_low", "ci_high", "bound", "gap")])
    return json_path, csv_path


def _gen_spec(args) -> ExtremalSpec:
    """The flags given; a flag the family does not take fails the build."""
    params = {name: getattr(args, name) for name in _GEN_PARAMS
              if getattr(args, name) is not None}
    return ExtremalSpec(args.family, params, args.seed)


def _cmd_gen(args) -> int:
    T = _gen_spec(args).build()
    write_trn1(T, args.out)
    prof = semidegrees(T)
    print(f"wrote {args.out}: n={T.n} min_semidegree={prof.min_semidegree}")
    return EXIT_OK


def _cmd_estimate(args) -> int:
    if args.config is not None:
        with open(args.config, "r", encoding="ascii") as fh:
            try:
                data = json.load(fh)
            except UnicodeDecodeError as exc:
                raise BadConfig(f"config is not ASCII: {exc}") from None
        if not isinstance(data, dict):
            raise BadConfig("config must be a JSON object")
    else:
        data = {"p_values": []}
    if args.p:
        data["p_values"] = args.p
    if args.trials is not None:
        data["trials"] = args.trials
    if args.seed is not None:
        data["master_seed"] = args.seed
    if args.t is not None:
        data["t"] = args.t
    if args.file is not None:
        data["tournament_path"] = args.file
        data.pop("family", None)
        data.pop("params", None)
    if args.out is not None:
        data["output_path"] = args.out
    config = ExperimentConfig.from_json_dict(data)
    report = run_sweep(config)
    if config.output_path:
        json_path, csv_path = write_sweep_report(report, config.output_path)
        print(f"wrote {json_path} and {csv_path}")
    else:
        _write_json(report, None)
    return EXIT_OK


def _cmd_exact(args) -> int:
    for p in args.p:
        check_probability(p)
    T = read_trn1(args.file)
    counts = sampling.hamiltonian_subset_size_counts(T)
    rows = [{"p": p, "probability": sampling.probability_from_counts(counts, p)}
            for p in args.p]
    _write_json({"artifact_version": __version__, "n": T.n, "rows": rows}, args.out)
    if args.out:
        print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_analyze(args) -> int:
    _check_cleaning_eps(args.eps)
    k = args.k if args.k is not None else default_connector_k(args.p, args.t, args.sigma)
    _check_connector_params(k, args.t)
    T = read_trn1(args.file)
    cut = balanced_cut_search(T)
    result: dict = {
        "artifact_version": __version__,
        "n": T.n,
        "eps": args.eps,
        "k": k,
        "t": args.t,
        "cut": cut.to_json_dict(),
    }
    if cut.density >= 1 - args.eps:
        result["branch"] = "almost-directed cut"
        part, goodness = clean_to_good_partition(T, cut.A, cut.B, args.eps)
        refined = refine_partition(T, part, k, args.t)
        conns = k_connectors(T, refined.partition, k)
        mc = max_BA_matching(T, refined.partition)
        result["goodness"] = goodness.to_json_dict()
        result["partition"] = refined.partition.to_json_dict()
        result["moved_to_x"] = list(refined.moved)
        result["short_circuit"] = refined.short_circuit
        result["connectors"] = list(conns.members)
        result["connector_count"] = len(conns)
        result["matching"] = mc.to_json_dict()
    else:
        result["branch"] = "no almost-directed cut"
    _write_json(result, args.out)
    if args.out:
        print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    T = read_trn1(args.file)
    # as in read_trn1, a non-ASCII byte decodes to a lone surrogate, which
    # from_text rejects as a token that is not a vertex index
    with open(args.certificate, "r", encoding="ascii", errors="surrogateescape") as fh:
        cert = HamiltonCertificate.from_text(fh.read())
    try:
        check_certificate(T, cert)
    except InvalidCertificate as exc:
        print(f"fail at position {exc.position}: {exc}")
        return EXIT_CERTIFICATE
    print("ok")
    return EXIT_OK


def _cmd_check(args) -> int:
    T = read_trn1(args.file)
    prof = semidegrees(T)
    print(f"valid TRN1 tournament: n={T.n} min_semidegree={prof.min_semidegree} "
          f"(witness vertex {prof.witness}) hamiltonian={is_hamiltonian(T)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tourneylab",
        description="Tournament Hamiltonicity laboratory under random vertex sampling.")
    parser.add_argument("--version", action="version", version=f"tourneylab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a tournament family into a TRN1 file")
    p_gen.add_argument("family", choices=FAMILIES)
    for name in _GEN_PARAMS:
        p_gen.add_argument(f"--{name}", type=int)
    p_gen.add_argument("--seed", type=int)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=_cmd_gen)

    p_est = sub.add_parser("estimate", help="Monte Carlo sweep over p values")
    p_est.add_argument("--config", help="JSON config; flags override its fields")
    p_est.add_argument("--file", help="TRN1 tournament (overrides config family)")
    p_est.add_argument("--p", type=float, action="append", default=[])
    p_est.add_argument("--trials", type=int)
    p_est.add_argument("--seed", type=int)
    p_est.add_argument("--t", type=int)
    p_est.add_argument("--out", help="basename for .json/.csv report files")
    p_est.set_defaults(func=_cmd_estimate)

    p_exact = sub.add_parser("exact", help="exact probability by subset enumeration (n <= 20)")
    p_exact.add_argument("--file", required=True)
    p_exact.add_argument("--p", type=float, action="append", required=True)
    p_exact.add_argument("--out")
    p_exact.set_defaults(func=_cmd_exact)

    p_an = sub.add_parser("analyze", help="cut search, cleaning, connectors, matching")
    p_an.add_argument("--file", required=True)
    p_an.add_argument("--eps", type=float, default=1e-3)
    p_an.add_argument("--k", type=int, help="connector threshold (default from --p/--sigma)")
    p_an.add_argument("--t", type=int, default=1)
    p_an.add_argument("--p", type=float, default=0.5)
    p_an.add_argument("--sigma", type=float, default=0.01)
    p_an.add_argument("--out")
    p_an.set_defaults(func=_cmd_analyze)

    p_ver = sub.add_parser("verify", help="check a Hamilton-cycle certificate")
    p_ver.add_argument("--file", required=True)
    p_ver.add_argument("--certificate", required=True)
    p_ver.set_defaults(func=_cmd_verify)

    p_chk = sub.add_parser("check", help="validate a TRN1 file and print its profile")
    p_chk.add_argument("--file", required=True)
    p_chk.set_defaults(func=_cmd_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (BadParams, BadConfig, TooLarge, EmptyPart) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_PARAMS
    except (Trn1ParseError, DiagonalNonzero, PairViolation, SubsetOutOfRange) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except InvalidCertificate as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATE
    except json.JSONDecodeError as exc:
        print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
        return EXIT_BAD_PARAMS
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
