import csv
import json
import subprocess
import sys
import tracemalloc

import pytest

from tourneylab import (cli, hamilton_cycle, is_hamiltonian, read_trn1,
                        semidegrees, validate)
from tourneylab.cli import (EXIT_BAD_PARAMS, EXIT_CERTIFICATE, EXIT_IO,
                            EXIT_OK, EXIT_PARSE, ExperimentConfig,
                            build_parser, main)
from tourneylab.errors import (BadConfig, BadParams, DiagonalNonzero,
                               InvalidCertificate, PairViolation,
                               SubsetOutOfRange, TourneyLabError,
                               Trn1ParseError)
from tourneylab.sampling import thread_cap

TRIANGLE_TRN1 = "TRN1 3\n010\n001\n100\n"


def write(path, text):
    path.write_text(text, encoding="ascii")
    return str(path)


class TestGen:
    def test_rotational_round_trips(self, tmp_path, capsys):
        out = tmp_path / "rot.trn"
        assert main(["gen", "rotational", "--k", "3", "--out", str(out)]) == EXIT_OK
        text = out.read_text()
        assert text.splitlines()[0] == "TRN1 7"
        T = read_trn1(out)
        assert validate(T.adj.copy()) == T

    def test_main_family_semidegree(self, tmp_path):
        out = tmp_path / "main.trn"
        assert main(["gen", "main", "--n", "43", "--t", "2", "--out", str(out)]) == EXIT_OK
        assert semidegrees(read_trn1(out)).min_semidegree >= 11

    def test_theorem1_odd_is_hamiltonian(self, tmp_path):
        out = tmp_path / "odd.trn"
        assert main(["gen", "theorem1-odd", "--k", "1", "--out", str(out)]) == EXIT_OK
        T = read_trn1(out)
        assert T.n == 7 and is_hamiltonian(T)

    def test_bad_params_exit_code(self, tmp_path):
        assert main(["gen", "rotational", "--k", "0",
                     "--out", str(tmp_path / "x.trn")]) == EXIT_BAD_PARAMS

    def test_flag_the_family_does_not_take(self, tmp_path, capsys):
        # before the family table, --n was silently ignored for rotational
        out = tmp_path / "x.trn"
        assert main(["gen", "rotational", "--k", "3", "--n", "5",
                     "--out", str(out)]) == EXIT_BAD_PARAMS
        assert not out.exists()

    @pytest.mark.parametrize("family, flags", [
        ("transitive", ["--n", "65537"]),
        ("transitive", ["--n", "70000"]),
        ("random", ["--n", "70000", "--seed", "1"]),
        ("rotational", ["--k", "40000"]),
        ("near-regular", ["--m", "70000"]),
        ("theorem1-even", ["--k", "20000"]),
        ("theorem1-odd", ["--k", "20000"]),
        ("main", ["--n", "70000", "--t", "1"]),
    ])
    def test_over_cap_exits_2_before_allocating(self, tmp_path, capsys, family, flags):
        out = tmp_path / "big.trn"
        tracemalloc.start()
        try:
            code = main(["gen", family, *flags, "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_BAD_PARAMS
        assert "size cap 65536" in capsys.readouterr().err
        assert peak < 1 << 20
        assert not out.exists()

    @pytest.mark.parametrize("family, flags", [
        ("transitive", ["--n", "0"]),
        ("random", ["--n", "0", "--seed", "1"]),
        ("near-regular", ["--m", "0"]),
        ("theorem1-even", ["--k", "0"]),
        ("theorem1-odd", ["--k", "0"]),
    ])
    def test_order_below_one_exits_2(self, tmp_path, capsys, family, flags):
        out = tmp_path / "x.trn"
        assert main(["gen", family, *flags, "--out", str(out)]) == EXIT_BAD_PARAMS
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()


class TestEstimate:
    def config(self, tmp_path, **overrides):
        data = {"family": "main", "params": {"n": 31, "t": 1},
                "p_values": [0.3, 0.5], "t": 1, "trials": 4000,
                "master_seed": 99}
        data.update(overrides)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        return str(path)

    def test_json_and_csv_agree(self, tmp_path):
        cfg = self.config(tmp_path)
        base = str(tmp_path / "report")
        assert main(["estimate", "--config", cfg, "--out", base]) == EXIT_OK
        report = json.loads((tmp_path / "report.json").read_text())
        with open(tmp_path / "report.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(report["rows"]) == 2
        for jrow, crow in zip(report["rows"], rows):
            for col in ("p", "estimate", "ci_low", "ci_high", "bound", "gap"):
                assert float(crow[col]) == jrow[col]

    def test_replay_is_byte_identical(self, tmp_path):
        cfg = self.config(tmp_path)
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        main(["estimate", "--config", cfg, "--out", a])
        main(["estimate", "--config", cfg, "--out", b])
        ja = (tmp_path / "a.json").read_bytes()
        jb = (tmp_path / "b.json").read_bytes()
        assert ja == jb

    def test_flag_overrides(self, tmp_path, capsys):
        cfg = self.config(tmp_path)
        assert main(["estimate", "--config", cfg, "--p", "0.7",
                     "--trials", "500", "--seed", "7"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert [r["p"] for r in report["rows"]] == [0.7]
        assert report["rows"][0]["trials"] == 500
        assert report["rows"][0]["seed"] == 7

    def test_thread_env_does_not_change_counts(self, tmp_path, capsys, monkeypatch):
        cfg = self.config(tmp_path, trials=6000)
        successes = []
        for workers in ("1", "4", "16"):
            monkeypatch.setenv("TOURNEYLAB_THREADS", workers)
            assert main(["estimate", "--config", cfg]) == EXIT_OK
            report = json.loads(capsys.readouterr().out)
            successes.append([r["successes"] for r in report["rows"]])
        assert successes[0] == successes[1] == successes[2]

    def test_rows_carry_bound_and_gap(self, tmp_path, capsys):
        cfg = self.config(tmp_path, p_values=[0.5])
        assert main(["estimate", "--config", cfg]) == EXIT_OK
        row = json.loads(capsys.readouterr().out)["rows"][0]
        assert row["gap"] == pytest.approx(row["estimate"] - row["bound"])

    def test_config_validation(self):
        with pytest.raises(BadConfig):
            ExperimentConfig(p_values=[0.5], family="main", params={},
                             tournament_path="x.trn")
        with pytest.raises(BadConfig):
            ExperimentConfig(p_values=[1.5], family="main")
        with pytest.raises(BadConfig):
            ExperimentConfig.from_json_dict({"p_values": [0.5], "family": "main",
                                             "params": {}, "bogus": 1})

    @pytest.mark.parametrize("overrides", [
        {"trials": "100"}, {"trials": True}, {"t": 1.5}, {"master_seed": 1.5},
        {"seed": "3"}, {"p_values": ["0.5"]}, {"p_values": 0.5},
        {"family": 3}, {"params": [31, 1]},
        {"family": None, "params": {}, "tournament_path": 7},
        {"output_path": 0},
    ])
    def test_config_field_types(self, tmp_path, capsys, overrides):
        cfg = self.config(tmp_path, **overrides)
        assert main(["estimate", "--config", cfg]) == EXIT_BAD_PARAMS
        assert "must be" in capsys.readouterr().err

    @pytest.mark.parametrize("params", [
        {"n": 31.5, "t": 1},        # ran at n = 31 and echoed 31.5
        {"n": "31", "t": 1},
        {"n": 31, "t": 1, "k": 4},  # k was ignored
    ])
    def test_config_params_checked(self, tmp_path, capsys, params):
        cfg = self.config(tmp_path, params=params)
        assert main(["estimate", "--config", cfg]) == EXIT_BAD_PARAMS
        assert capsys.readouterr().out == ""

    def test_missing_config_file(self, tmp_path):
        assert main(["estimate", "--config", str(tmp_path / "none.json")]) == EXIT_IO

    def test_config_not_an_object(self, tmp_path, capsys):
        cfg = write(tmp_path / "cfg.json", "[1, 2]")
        assert main(["estimate", "--config", cfg, "--p", "0.5"]) == EXIT_BAD_PARAMS
        assert "must be a JSON object" in capsys.readouterr().err

    def test_non_ascii_config(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_bytes(b'{"family": "ma\xc3\xa9in", "p_values": [0.5]}\n')
        assert main(["estimate", "--config", str(path)]) == EXIT_BAD_PARAMS
        err = capsys.readouterr().err
        assert err.startswith("error: config is not ASCII") and err.count("\n") == 1

    def test_file_without_config(self, tmp_path, capsys):
        trn = tmp_path / "t.trn"
        main(["gen", "rotational", "--k", "5", "--out", str(trn)])
        capsys.readouterr()
        assert main(["estimate", "--file", str(trn), "--p", "0.6",
                     "--trials", "1000", "--seed", "3"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["n"] == 11
        assert report["config"]["tournament_path"] == str(trn)

    def test_t_flag_reaches_config_and_bound(self, tmp_path, capsys):
        cfg = self.config(tmp_path, p_values=[0.5])
        assert main(["estimate", "--config", cfg, "--t", "3"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["config"]["t"] == 3
        # n - t = 28 is not 1 mod 4, so the exponent is t itself
        assert report["rows"][0]["bound"] == 1.0 - 0.5 ** 3

    def test_invalid_json_config(self, tmp_path, capsys):
        cfg = write(tmp_path / "cfg.json", '{"p_values": [0.5],')
        assert main(["estimate", "--config", cfg]) == EXIT_BAD_PARAMS
        assert capsys.readouterr().err.startswith("error: config is not valid JSON")

    @pytest.mark.parametrize("text", [
        "[" * 100_000 + "]" * 100_000,           # RecursionError in the decoder
        '{"p_values": [0.5], "trials": ' + "1" * 5000 + "}",  # past int()'s digit limit
    ], ids=["deep", "long-int"])
    def test_config_that_does_not_decode(self, tmp_path, capsys, text):
        cfg = write(tmp_path / "cfg.json", text)
        assert main(["estimate", "--config", cfg]) == EXIT_BAD_PARAMS
        err = capsys.readouterr().err
        assert err.startswith("error: config is not valid JSON") and err.count("\n") == 1

    @pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
    def test_master_seed_range_checked_before_any_read(self, tmp_path, capsys, seed):
        missing = str(tmp_path / "missing.trn")
        assert main(["estimate", "--p", "0.5", "--seed", seed,
                     "--file", missing]) == EXIT_BAD_PARAMS
        assert "master_seed" in capsys.readouterr().err

    def test_largest_master_seed_runs(self, tmp_path, capsys):
        trn = write(tmp_path / "tri.trn", TRIANGLE_TRN1)
        assert main(["estimate", "--p", "0.5", "--trials", "100",
                     "--seed", str(2 ** 64 - 1), "--file", trn]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["rows"][0]["seed"] == 2 ** 64 - 1

    def test_no_p_values_anywhere(self, tmp_path, capsys):
        cfg = write(tmp_path / "cfg.json", json.dumps({"family": "main",
                                                      "params": {"n": 31, "t": 1}}))
        assert main(["estimate", "--config", cfg]) == EXIT_BAD_PARAMS
        assert "p_values" in capsys.readouterr().err

    def test_thread_env_not_an_integer(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("TOURNEYLAB_THREADS", "abc")
        with pytest.raises(BadParams):
            thread_cap()
        assert main(["estimate", "--config", self.config(tmp_path)]) == EXIT_BAD_PARAMS
        assert "TOURNEYLAB_THREADS" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["config", "flag"])
    def test_huge_t_bound(self, tmp_path, capsys, monkeypatch, source):
        # 1 - (1 - p)^t needs t as a float: one error line before any sampling
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the bound was checked")
        monkeypatch.setattr(cli, "estimate_sweep", no_sampling)
        huge = 10 ** 400
        if source == "config":
            argv = ["estimate", "--config", self.config(tmp_path, t=huge)]
        else:
            argv = ["estimate", "--config", self.config(tmp_path), "--t", str(huge)]
        assert main(argv) == EXIT_BAD_PARAMS
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("error:")


class TestExact:
    def test_triangle(self, tmp_path, capsys):
        trn = write(tmp_path / "tri.trn", TRIANGLE_TRN1)
        assert main(["exact", "--file", trn, "--p", "0.5", "--p", "0.25"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert [r["probability"] for r in payload["rows"]] == pytest.approx([0.125, 0.015625])

    def test_too_large(self, tmp_path):
        out = tmp_path / "big.trn"
        main(["gen", "transitive", "--n", "25", "--out", str(out)])
        assert main(["exact", "--file", str(out), "--p", "0.5"]) == EXIT_BAD_PARAMS


class TestAnalyze:
    def test_main_family_pipeline(self, tmp_path, capsys):
        # at eps = 0.01 the cut gate needs the X block small relative to n
        # (best balanced-cut density of this family is about 1 - 2t/n)
        trn = tmp_path / "main.trn"
        main(["gen", "main", "--n", "203", "--t", "1", "--out", str(trn)])
        capsys.readouterr()
        assert main(["analyze", "--file", str(trn), "--eps", "0.01",
                     "--t", "1", "--k", "3"]) == EXIT_OK
        result = json.loads(capsys.readouterr().out)
        assert result["branch"] == "almost-directed cut"
        assert result["connector_count"] >= 1
        assert result["goodness"]["is_good"]
        assert result["matching"]["matching"] == []

    def test_regular_tournament_no_cut(self, tmp_path, capsys):
        trn = tmp_path / "rot.trn"
        main(["gen", "rotational", "--k", "7", "--out", str(trn)])
        capsys.readouterr()
        assert main(["analyze", "--file", str(trn), "--eps", "0.01"]) == EXIT_OK
        result = json.loads(capsys.readouterr().out)
        assert result["branch"] == "no almost-directed cut"

    def test_no_cut_above_twenty_vertices(self, tmp_path, capsys):
        # the verdict is exact at every n: a regular tournament's balanced
        # cuts all have density 1/2, and the main family at n=203, t=2 peaks
        # below the default threshold 1 - 1e-3
        rot = tmp_path / "rot31.trn"
        main(["gen", "rotational", "--k", "15", "--out", str(rot)])
        big = tmp_path / "main203.trn"
        main(["gen", "main", "--n", "203", "--t", "2", "--out", str(big)])
        capsys.readouterr()
        assert main(["analyze", "--file", str(rot), "--eps", "0.01"]) == EXIT_OK
        result = json.loads(capsys.readouterr().out)
        assert result["branch"] == "no almost-directed cut"
        assert result["cut"]["density"] == 0.5
        assert main(["analyze", "--file", str(big)]) == EXIT_OK
        result = json.loads(capsys.readouterr().out)
        assert result["branch"] == "no almost-directed cut"
        assert result["cut"]["density"] < 0.999

    @pytest.mark.parametrize("flags", [
        ["--eps", "-1"], ["--eps", "nan"], ["--eps", "0.5"], ["--k", "0"], ["--k", "-3"],
        ["--t", "0", "--k", "3"], ["--t", "-2", "--k", "3"], ["--t", "0"]])
    def test_bad_flags_exit_2_before_reading(self, tmp_path, capsys, flags):
        # checked on whichever branch the input would take, and before the
        # file is opened: a missing file still exits 2, not 3
        trn = tmp_path / "te9.trn"
        main(["gen", "theorem1-even", "--k", "9", "--out", str(trn)])
        assert main(["analyze", "--file", str(trn), *flags]) == EXIT_BAD_PARAMS
        missing = str(tmp_path / "missing.trn")
        assert main(["analyze", "--file", missing, *flags]) == EXIT_BAD_PARAMS
        assert "error:" in capsys.readouterr().err

    def test_tiny_p_default_k(self, tmp_path, capsys):
        trn = tmp_path / "main.trn"
        main(["gen", "main", "--n", "203", "--t", "1", "--out", str(trn)])
        capsys.readouterr()
        # k > 2^63 reaches the connector counts on the almost-directed branch
        assert main(["analyze", "--file", str(trn), "--eps", "0.01",
                     "--p", "1e-9"]) == EXIT_OK
        result = json.loads(capsys.readouterr().out)
        assert result["k"] > 10**19
        assert result["branch"] == "almost-directed cut"
        assert result["connector_count"] == 0
        # p^2 underflows to 0: no threshold, and one error line, no traceback
        assert main(["analyze", "--file", str(trn), "--p", "1e-200"]) == EXIT_BAD_PARAMS
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("error:")

    def test_huge_t_default_k(self, tmp_path, capsys):
        trn = tmp_path / "main.trn"
        main(["gen", "main", "--n", "31", "--t", "1", "--out", str(trn)])
        capsys.readouterr()
        # t + 1 does not convert to a float: no threshold, one error line
        assert main(["analyze", "--file", str(trn), "--t", "9" * 310]) == EXIT_BAD_PARAMS
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("error:")

    def test_out_prints_written_path(self, tmp_path, capsys):
        trn = write(tmp_path / "tri.trn", TRIANGLE_TRN1)
        out = tmp_path / "analysis.json"
        assert main(["analyze", "--file", trn, "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().out == f"wrote {out}\n"
        assert json.loads(out.read_text())["n"] == 3

    def test_malformed_file_names_line(self, tmp_path, capsys):
        trn = write(tmp_path / "bad.trn", "TRN1 3\n010\n0x1\n100\n")
        assert main(["analyze", "--file", trn]) == EXIT_PARSE
        assert "line 3" in capsys.readouterr().err

    def test_non_ascii_file_names_line(self, tmp_path, capsys):
        trn = tmp_path / "bad.trn"
        trn.write_bytes(b"TRN1 3\n010\n01\xc3\xa9\n100\n")
        assert main(["analyze", "--file", str(trn)]) == EXIT_PARSE
        assert "line 3" in capsys.readouterr().err


class TestVerify:
    def test_good_certificate(self, tmp_path, capsys):
        trn = write(tmp_path / "tri.trn", TRIANGLE_TRN1)
        cert = write(tmp_path / "c.txt", "0,1,2\n")
        assert main(["verify", "--file", trn, "--certificate", cert]) == EXIT_OK
        assert "ok" in capsys.readouterr().out

    def test_reversed_certificate(self, tmp_path, capsys):
        trn = write(tmp_path / "tri.trn", TRIANGLE_TRN1)
        cert = write(tmp_path / "c.txt", "0,2,1\n")
        assert main(["verify", "--file", trn, "--certificate", cert]) == EXIT_CERTIFICATE
        assert "position 0" in capsys.readouterr().out

    def test_non_integer_token(self, tmp_path, capsys):
        trn = write(tmp_path / "tri.trn", TRIANGLE_TRN1)
        cert = write(tmp_path / "c.txt", "0,x,2\n")
        assert main(["verify", "--file", trn, "--certificate", cert]) == EXIT_CERTIFICATE
        assert "vertex index" in capsys.readouterr().err

    # the first four read as the triangle's cycle when tokens went through
    # int(); the last one is past int()'s digit limit
    @pytest.mark.parametrize("text", ["0,+1,2\n", "0_0,1,2\n", "0,,1,2\n",
                                      "0,1,2,\n", "0,1,-2\n", "\n",
                                      "0,1," + "0" * 5000 + "2\n"])
    def test_token_is_ascii_digits(self, tmp_path, capsys, text):
        trn = write(tmp_path / "tri.trn", TRIANGLE_TRN1)
        cert = write(tmp_path / "c.txt", text)
        assert main(["verify", "--file", trn, "--certificate", cert]) == EXIT_CERTIFICATE
        assert "vertex index" in capsys.readouterr().err

    def test_non_ascii_certificate(self, tmp_path, capsys):
        trn = write(tmp_path / "tri.trn", TRIANGLE_TRN1)
        cert = tmp_path / "c.txt"
        cert.write_bytes(b"0,1,2,\xc3\xa9\n")
        assert main(["verify", "--file", trn, "--certificate", str(cert)]) == EXIT_CERTIFICATE
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "vertex index" in err

    def test_generated_cycle_round_trips(self, tmp_path):
        trn = tmp_path / "rot.trn"
        main(["gen", "rotational", "--k", "4", "--out", str(trn)])
        cycle = hamilton_cycle(read_trn1(trn))
        cert = write(tmp_path / "c.txt", cycle.to_text() + "\n")
        assert main(["verify", "--file", str(trn), "--certificate", cert]) == EXIT_OK


class TestCheck:
    def test_valid_file(self, tmp_path, capsys):
        trn = write(tmp_path / "tri.trn", TRIANGLE_TRN1)
        assert main(["check", "--file", trn]) == EXIT_OK
        out = capsys.readouterr().out
        assert "n=3" in out and "hamiltonian=True" in out

    def test_invariant_violation(self, tmp_path):
        trn = write(tmp_path / "bad.trn", "TRN1 3\n010\n101\n100\n")
        assert main(["check", "--file", trn]) == EXIT_PARSE

    @pytest.mark.parametrize("n, code", [(65537, EXIT_BAD_PARAMS), (65536, EXIT_PARSE)])
    def test_header_n_capped_before_rows(self, tmp_path, capsys, n, code):
        # past MAX_VERTICES the header alone decides; no matrix is allocated
        trn = write(tmp_path / "big.trn", f"TRN1 {n}\n")
        assert main(["check", "--file", trn]) == code

    def test_missing_file(self, tmp_path):
        assert main(["check", "--file", str(tmp_path / "nope.trn")]) == EXIT_IO

    def test_empty_file(self, tmp_path, capsys):
        trn = write(tmp_path / "empty.trn", "")
        assert main(["check", "--file", trn]) == EXIT_PARSE
        assert "line 1: empty file" in capsys.readouterr().err

    def test_header_past_int_digit_limit(self, tmp_path, capsys):
        # exited 4 and echoed all 5000 digits
        trn = write(tmp_path / "big.trn", "TRN1 " + "9" * 5000 + "\n010\n001\n100\n")
        assert main(["check", "--file", trn]) == EXIT_BAD_PARAMS
        err = capsys.readouterr().err
        assert err == "error: n = a 5000-digit number exceeds the size cap 65536\n"

    @pytest.mark.parametrize("count", ["12a", "9" * 5000 + "x", "-"], ids=["12a", "long", "-"])
    def test_header_count_not_digits(self, tmp_path, capsys, count):
        trn = write(tmp_path / "bad.trn", f"TRN1 {count}\n010\n001\n100\n")
        assert main(["check", "--file", trn]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err == f"error: line 1: vertex count {count!r} is not an integer\n"

    @pytest.mark.parametrize("count", ["+3", "1_0", "-1"])
    def test_header_count_int_would_take(self, tmp_path, capsys, count):
        # int() read +3 and 1_0 as 3 and 10 (exit 0), and -1 as n = -1
        trn = write(tmp_path / "bad.trn", f"TRN1 {count}\n010\n001\n100\n")
        assert main(["check", "--file", trn]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err == f"error: line 1: vertex count {count!r} is not an integer\n"

    def test_header_count_past_five_digits(self, tmp_path, capsys):
        # printed every digit of a count between the cap and int()'s digit limit
        trn = write(tmp_path / "big.trn", "TRN1 " + "9" * 4000 + "\n010\n001\n100\n")
        assert main(["check", "--file", trn]) == EXIT_BAD_PARAMS
        err = capsys.readouterr().err
        assert err == "error: n = a 4000-digit number exceeds the size cap 65536\n"


def _error_classes(cls=TourneyLabError):
    """``cls`` and every subclass of it, however deep."""
    yield cls
    for sub in cls.__subclasses__():
        yield from _error_classes(sub)


class TestExitTable:
    """Every package error maps to the README's exit code with one error line,
    so an error class added later cannot leave main as a traceback (exit 1)."""

    PARSE = (Trn1ParseError, DiagonalNonzero, PairViolation, SubsetOutOfRange)

    def expected(self, cls):
        if issubclass(cls, self.PARSE):
            return EXIT_PARSE
        if issubclass(cls, InvalidCertificate):
            return EXIT_CERTIFICATE
        return EXIT_BAD_PARAMS

    def test_every_error_class(self, tmp_path, capsys, monkeypatch):
        classes = list(_error_classes())
        assert len(classes) >= 10
        cases = [(cls, self.expected(cls)) for cls in classes]
        cases += [(OSError, EXIT_IO), (FileNotFoundError, EXIT_IO)]
        trn = write(tmp_path / "tri.trn", TRIANGLE_TRN1)
        for cls, code in cases:
            exc = cls.__new__(cls)
            Exception.__init__(exc, f"boom {cls.__name__}")

            def fail(path, exc=exc):
                raise exc
            monkeypatch.setattr(cli, "read_trn1", fail)
            assert main(["check", "--file", trn]) == code, cls
            assert capsys.readouterr().err == f"error: boom {cls.__name__}\n"



class TestSharedParser:
    """main builds its parser once per process; every call on the shared
    parser must act as it does on a fresh one."""

    SEQUENCE = [
        ["estimate", "--file", "r9.trn", "--p", "0.7", "--trials", "3000",
         "--out", "est1"],
        ["estimate", "--config", "cfg.json", "--out", "est2"],  # default p list
        ["exact", "--file", "r9.trn", "--p", "0.3", "--out", "ex1.json"],
        ["exact", "--file", "r9.trn", "--p", "0.5", "--p", "0.7", "--out", "ex2.json"],
        ["exact", "--file", "r9.trn"],  # usage error: no --p
        ["check", "--file", "r9.trn"],
        ["--version"],
        ["exact", "--file", "r9.trn", "--p", "0.5"],
    ]
    REPORTS = ["est1.json", "est1.csv", "est2.json", "est2.csv", "ex1.json", "ex2.json"]

    def run(self, workdir, monkeypatch, capsys, fresh):
        (workdir / "cfg.json").write_text(json.dumps(
            {"family": "random", "params": {"n": 9}, "seed": 4,
             "p_values": [0.3, 0.5], "trials": 3000, "master_seed": 5}))
        monkeypatch.chdir(workdir)
        main(["gen", "random", "--n", "9", "--seed", "4", "--out", "r9.trn"])
        capsys.readouterr()
        outcomes = []
        for argv in self.SEQUENCE:
            if fresh:
                build_parser.cache_clear()
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            outcomes.append((code, *capsys.readouterr()))
        reports = [(workdir / name).read_bytes() for name in self.REPORTS]
        return outcomes, reports

    def test_sequence_matches_fresh_calls(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "shared").mkdir()
        (tmp_path / "fresh").mkdir()
        build_parser.cache_clear()
        parser = build_parser()
        shared = self.run(tmp_path / "shared", monkeypatch, capsys, fresh=False)
        assert build_parser() is parser
        fresh = self.run(tmp_path / "fresh", monkeypatch, capsys, fresh=True)
        assert shared == fresh
        codes = [code for code, _, _ in shared[0]]
        assert codes == [EXIT_OK] * 4 + [EXIT_BAD_PARAMS] + [EXIT_OK] * 3
        assert json.loads(shared[1][2])["config"]["p_values"] == [0.3, 0.5]


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        trn = tmp_path / "t.trn"
        trn.write_text(TRIANGLE_TRN1)
        proc = subprocess.run(
            [sys.executable, "-m", "tourneylab", "check", "--file", str(trn)],
            capture_output=True, text=True)
        assert proc.returncode == EXIT_OK
        assert "min_semidegree=1" in proc.stdout
