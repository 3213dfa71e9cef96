import csv
import json
import subprocess
import sys
import tracemalloc

import pytest

from tourneylab import (hamilton_cycle, is_hamiltonian, read_trn1,
                        semidegrees, validate)
from tourneylab.cli import (EXIT_BAD_PARAMS, EXIT_CERTIFICATE, EXIT_IO,
                            EXIT_OK, EXIT_PARSE, ExperimentConfig, main)
from tourneylab.errors import BadConfig

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


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        trn = tmp_path / "t.trn"
        trn.write_text(TRIANGLE_TRN1)
        proc = subprocess.run(
            [sys.executable, "-m", "tourneylab", "check", "--file", str(trn)],
            capture_output=True, text=True)
        assert proc.returncode == EXIT_OK
        assert "min_semidegree=1" in proc.stdout
