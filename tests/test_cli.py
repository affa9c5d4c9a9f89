import csv
import json
import os
import subprocess
import sys
import time
import warnings
from math import log
from pathlib import Path

import numpy as np
import pytest

from steinerlab import limitlaw, read_complex
from steinerlab.cli import main
from steinerlab.experiments import ExperimentConfig
from steinerlab.sampling import SamplerExhausted
from steinerlab.trees import weighted_tree_count
from oracles import exact_reduced_det


def never(*args, **kwargs):
    raise AssertionError("built an operator the guard should refuse")


@pytest.fixture
def one_triangle_on_many_vertices(tmp_path):
    """One d-face on 100,000 vertices: C(100000, 2) rows would take a 37 GiB CSR indptr."""
    path = tmp_path / "wide.txt"
    path.write_text("100000 2\n1 2 3\n")
    return path


@pytest.fixture
def long_path(tmp_path):
    """A 99,999-edge path on 100,000 vertices: one candidate tree, an 80 GB dense boundary."""
    path = tmp_path / "path.txt"
    path.write_text("100000 1\n" + "".join(f"{v} {v + 1}\n" for v in range(1, 100000)))
    return path


class TestSample:
    def test_writes_one_file_per_trial(self, tmp_path):
        out = tmp_path / "cx"
        code = main(["sample", "--d", "1", "--k", "2", "--n", "8",
                     "--seed", "3", "--trials", "2", "--out", str(out)])
        assert code == 0
        files = sorted(out.glob("*.txt"))
        assert len(files) == 2
        X = read_complex(files[0])
        assert X.n == 8 and X.d == 1

    def test_inadmissible_n_exits_2(self, tmp_path, capsys):
        out = tmp_path / "cx"
        code = main(["sample", "--d", "2", "--k", "2", "--n", "8", "--out", str(out)])
        assert code == 2
        assert "admissible" in capsys.readouterr().err
        assert not out.exists()

    def test_k_below_one_exits_2_and_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "cx"
        assert main(["sample", "--d", "1", "--k", "0", "--n", "8", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: need k >= 1 systems\n"
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore:k=2 is at or below the proven regime threshold")
    def test_sampler_exhaustion_exits_3(self, tmp_path, monkeypatch, capsys):
        import steinerlab.experiments as experiments

        def boom(*args, **kwargs):
            raise SamplerExhausted("no luck")

        monkeypatch.setattr(experiments, "steiner_complex", boom)
        # spectrum and sst draw one complex and stop without it
        for command in ("spectrum", "sst"):
            assert main([command, "--d", "1", "--k", "2", "--n", "8"]) == 3
            assert capsys.readouterr().err == "sampler exhausted: no luck\n"
        # the ensemble commands skip every trial they could not draw and exit 0
        out = tmp_path / "cx"
        assert main(["sample", "--d", "1", "--k", "2", "--n", "8", "--trials", "2", "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.out == f"wrote 0 complex(es) to {out}\n"
        assert captured.err.count("skipped") == 2
        assert list(out.iterdir()) == []
        for command, header in (("gap", "n,trial,"), ("local", "trial,n,")):
            out = tmp_path / f"{command}.csv"
            assert main([command, "--d", "1", "--k", "2", "--n", "8", "--trials", "2", "--out", str(out)]) == 0
            assert capsys.readouterr().err.count("skipped") == 2
            assert out.read_text().splitlines()[-1].startswith(header)  # the header, no rows
        out = tmp_path / "converge.csv"
        assert main(["converge", "--d", "1", "--k", "2", "--n", "8", "--trials", "2", "--out", str(out)]) == 0
        assert capsys.readouterr().err.count("skipped") == 2
        assert out.read_text().splitlines()[-1].startswith("n,trial,")  # the header, no rows

    @pytest.mark.parametrize("command", ["gap", "local", "sample"])
    def test_exhausted_trial_is_skipped_and_the_rest_kept(self, command, tmp_path, monkeypatch, capsys):
        # trial 1 of 3 gives up; trials 0 and 2 keep the rows or files of a run where none did
        import steinerlab.experiments as experiments

        def run(out):
            assert main([command, "--d", "1", "--k", "8", "--n", "20", "--trials", "3", "--seed", "5",
                         "--out", str(out)]) == 0
            return capsys.readouterr()

        def rows(out):
            return list(csv.DictReader(line for line in out.read_text().splitlines() if not line.startswith("#")))

        run(tmp_path / "clean")
        calls = []
        draw = experiments.steiner_complex

        def flaky(*args):
            calls.append(args)
            if len(calls) == 2:
                raise SamplerExhausted("no luck")
            return draw(*args)

        monkeypatch.setattr(experiments, "steiner_complex", flaky)
        out = tmp_path / "flaky"
        captured = run(out)
        skipped = [line for line in captured.err.splitlines() if line.startswith("skipped")]
        assert skipped == ["skipped n=20 trial=1: no luck"]
        if command == "sample":
            assert captured.out == f"wrote 2 complex(es) to {out}\n"
            assert sorted(path.name for path in out.iterdir()) == ["complex_n20_t0.txt", "complex_n20_t2.txt"]
            for path in out.iterdir():
                assert path.read_bytes() == (tmp_path / "clean" / path.name).read_bytes()
        else:
            kept = [row for row in rows(tmp_path / "clean") if row["trial"] != "1"]
            assert rows(out) == kept
            assert {row["trial"] for row in kept} == {"0", "2"}

    @pytest.mark.parametrize("command", ["sample", "local"])
    def test_negative_trials_exit_2(self, command, tmp_path, capsys):
        out = tmp_path / "out"
        code = main([command, "--d", "1", "--k", "2", "--n", "8", "--trials", "-1", "--out", str(out)])
        assert code == 2
        assert "trials must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["converge", "local"])
    def test_repeated_radii_exit_2(self, command, tmp_path, capsys):
        # converge would write a frac_r2 column twice and local every row twice
        out = tmp_path / "out.csv"
        code = main([command, "--d", "1", "--k", "2", "--n", "8", "--r", "2", "--r", "1", "--r", "2",
                     "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "error: radii must be distinct; repeated: 2\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["converge", "gap", "sample", "local"])
    def test_repeated_n_exit_2(self, command, tmp_path, monkeypatch, capsys):
        # converge wrote the rows of a repeated n twice, and gap counted them twice in its pass
        # fraction; sample and local kept only the last --n and exited 0
        import steinerlab.experiments as experiments

        monkeypatch.setattr(experiments, "steiner_complex", never)
        out = tmp_path / "out.csv"
        code = main([command, "--d", "1", "--k", "3", "--n", "8", "--n", "10", "--n", "8", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "error: n values must be distinct; repeated: 8\n"
        assert not out.exists()

    def test_sample_and_local_take_every_n(self, tmp_path):
        # --n is repeatable on every ensemble command; sample and local kept only the last one
        source = ["--d", "1", "--k", "2", "--n", "10", "--n", "12", "--trials", "2"]
        assert main(["sample", *source, "--out", str(tmp_path / "cx")]) == 0
        assert sorted(path.name for path in (tmp_path / "cx").iterdir()) == [
            "complex_n10_t0.txt", "complex_n10_t1.txt", "complex_n12_t0.txt", "complex_n12_t1.txt"]
        out = tmp_path / "local.csv"
        assert main(["local", *source, "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert [(row["n"], row["trial"]) for row in rows] == [("10", "0"), ("10", "1"), ("12", "0"), ("12", "1")]

    def test_converge_and_sst_draw_the_same_trials(self, tmp_path, monkeypatch):
        # one stream per (seed, n, trial): sample's files, converge --keep-complexes and sst --trial agree
        import steinerlab.cli as cli

        source = ["--d", "2", "--k", "3", "--n", "13", "--seed", "5"]
        assert main(["sample", *source, "--trials", "3", "--out", str(tmp_path / "sample")]) == 0
        assert main(["converge", *source, "--trials", "3", "--deterministic", "--keep-complexes",
                     str(tmp_path / "kept"), "--out", str(tmp_path / "rows.csv")]) == 0
        counted = []
        count = cli.weighted_tree_count
        monkeypatch.setattr(cli, "weighted_tree_count", lambda X, oracle: (counted.append(X), count(X, oracle))[1])
        for trial in range(3):
            name = f"complex_n13_t{trial}.txt"
            X = read_complex(tmp_path / "sample" / name)
            assert (tmp_path / "sample" / name).read_bytes() == (tmp_path / "kept" / name).read_bytes()
            assert main(["sst", *source, "--trial", str(trial), "--out", str(tmp_path / "sst.json")]) == 0
            assert counted[-1] == X
        assert len({X.faces.tobytes() for X in counted}) == 3


class TestSpectrum:
    def test_csv_and_sidecar(self, tmp_path):
        out = tmp_path / "hist.csv"
        code = main(["spectrum", "--d", "1", "--k", "3", "--n", "10",
                     "--seed", "1", "--op", "laplacian", "--bins", "6",
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "bin_lo,bin_hi,mass"
        assert len(lines) == 7
        masses = [float(l.split(",")[2]) for l in lines[1:]]
        assert sum(masses) == pytest.approx(1.0)
        sidecar = json.loads(out.with_suffix(".json").read_text())
        assert sidecar["trivial_zero_count"] == 1
        assert sidecar["moments"][0] == pytest.approx(1.0)

    def test_reads_complex_file(self, tmp_path, capsys):
        cx = tmp_path / "cx.txt"
        cx.write_text("3 1\n1 2\n2 3\n1 3\n")
        code = main(["spectrum", "--in", str(cx), "--op", "adjacency", "--bins", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "bin_lo,bin_hi,mass" in out

    def test_json_out_exits_2_before_any_work(self, tmp_path, monkeypatch, capsys):
        # the JSON sidecar goes to out.with_suffix(".json"), which for X.json is X.json itself
        import steinerlab.experiments as experiments
        from steinerlab import spectra

        monkeypatch.setattr(experiments, "steiner_complex", never)
        for name in ("laplacian_matrix", "adjacency_matrix"):
            monkeypatch.setattr(spectra, name, never)
        out = tmp_path / "hist.json"
        assert main(["spectrum", "--d", "1", "--k", "3", "--n", "20", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "its own JSON sidecar" in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_requires_source(self, capsys):
        code = main(["spectrum", "--op", "laplacian"])
        assert code == 2

    @pytest.mark.parametrize("op", ["laplacian", "adjacency"])
    @pytest.mark.parametrize("flag", [["--bins", "0"], ["--lmax", "-1"]])
    def test_bad_bins_or_lmax_exit_2_before_the_dense_matrix(self, op, flag, tmp_path, monkeypatch, capsys):
        from steinerlab import spectra

        built = []
        for name in ("laplacian_matrix", "adjacency_matrix"):
            monkeypatch.setattr(spectra, name, lambda X, name=name: built.append(name))
        out = tmp_path / "hist.csv"
        code = main(["spectrum", "--d", "1", "--k", "3", "--n", "10", "--op", op, *flag, "--out", str(out)])
        assert code == 2
        assert built == []
        assert list(tmp_path.iterdir()) == []
        assert "Traceback" not in capsys.readouterr().err


class TestSst:
    def test_triangle_json(self, tmp_path, capsys):
        cx = tmp_path / "cx.txt"
        cx.write_text("3 1\n1 2\n2 3\n1 3\n")
        code = main(["sst", "--in", str(cx), "--oracle"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["exact"] == 3
        assert payload["flag"] is False
        assert payload["kappa_root"] == pytest.approx(3 ** (1 / 3))
        assert payload["floor"] == pytest.approx(3.0)
        assert payload["zero_threshold"] == pytest.approx(4e-8)  # 1e-8 (d + 1) max degree

    def test_zero_flag_serializes_null(self, tmp_path, capsys):
        cx = tmp_path / "cx.txt"
        cx.write_text("4 2\n1 2 3\n1 2 4\n")
        code = main(["sst", "--in", str(cx)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["flag"] is True and payload["log_kappa"] is None
        assert payload["kappa_root"] == 0.0
        assert payload["floor"] < payload["zero_threshold"]

    @pytest.mark.parametrize("command", ["spectrum", "sst"])
    def test_oversized_n_exits_2_before_sampling(self, command, monkeypatch, capsys):
        import steinerlab.experiments as experiments

        def never(*args, **kwargs):
            raise AssertionError("sampled an oversized complex")

        monkeypatch.setattr(experiments, "steiner_complex", never)
        assert main([command, "--d", "2", "--k", "5", "--n", "997"]) == 2
        assert "physical memory" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["spectrum", "sst"])
    def test_negative_trial_exits_2_before_sampling(self, command, monkeypatch, capsys):
        # a negative trial would be masked to a stream id that no ensemble command can name
        import steinerlab.experiments as experiments

        monkeypatch.setattr(experiments, "steiner_complex", never)
        assert main([command, "--d", "2", "--k", "5", "--n", "15", "--trial", "-1"]) == 2
        assert capsys.readouterr().err == "error: trial must be >= 0, got -1\n"

    @pytest.mark.parametrize("command", [["spectrum"], ["spectrum", "--op", "adjacency"], ["sst"]])
    def test_oversized_file_exits_2_before_any_operator(
        self, command, one_triangle_on_many_vertices, monkeypatch, capsys
    ):
        from steinerlab import complexes

        monkeypatch.setattr(complexes, "_signed_incidence", never)  # every operator of a complex starts there
        assert main([*command, "--in", str(one_triangle_on_many_vertices)]) == 2
        err = capsys.readouterr().err
        assert "physical memory" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", [["spectrum"], ["spectrum", "--op", "adjacency"], ["sst"]])
    def test_oversized_file_with_high_ranks_exits_2(self, command, tmp_path, monkeypatch, capsys):
        # the face's facets rank near C(100000, 2) = 5e9: nothing indexed by rank may be built
        # before the guard, or an array of 37 GiB would be asked for first
        from steinerlab import complexes

        path = tmp_path / "high.txt"
        path.write_text("100000 2\n99998 99999 100000\n")
        monkeypatch.setattr(complexes, "_signed_incidence", never)
        assert main([*command, "--in", str(path)]) == 2
        err = capsys.readouterr().err
        assert "physical memory" in err and "Traceback" not in err

    def test_guards_size_each_route(self, monkeypatch, capsys):
        # d = 2, k = 5, n = 15 (m = 105): a dense m x m matrix and the 64 vectors of its
        # eigensolve take 141,960 B, and the floor's dense solve five m x m arrays, 441,000 B,
        # more than the order-91 packed factor's 33,488 B; a gap row 67,200 B (16 B for each of
        # k + 3(dk + 1) + d = 40 sparse entries a row of B, L, A, -A and delta) and the dense
        # solve, 508,200 B
        import steinerlab.experiments as experiments
        from steinerlab import spectra

        sst = ["sst", "--d", "2", "--k", "5", "--n", "15", "--seed", "3"]
        gap = ["gap", "--d", "2", "--k", "5", "--n", "15", "--seed", "3", "--deterministic"]
        monkeypatch.setattr(spectra, "resident_memory", lambda: 0)  # the boundaries count the route alone
        assert main(sst) == 0
        want = capsys.readouterr().out
        # k = 5 is at or below the proven regime threshold at d = 2, so every gap run warns
        with pytest.warns(RuntimeWarning, match="proven regime threshold"):
            assert main(gap) == 0
        want_gap = capsys.readouterr().out
        monkeypatch.setattr(spectra, "usable_memory", lambda: 441_000)
        assert main(sst) == 0
        assert capsys.readouterr().out == want
        monkeypatch.setattr(spectra, "usable_memory", lambda: 508_200)
        with pytest.warns(RuntimeWarning, match="proven regime threshold"):
            assert main(gap) == 0
        assert capsys.readouterr().out == want_gap

        def never(*args, **kwargs):
            raise AssertionError("sampled a complex the guard should refuse")

        monkeypatch.setattr(experiments, "steiner_complex", never)
        monkeypatch.setattr(spectra, "usable_memory", lambda: 141_959)
        assert main(["spectrum", "--d", "2", "--k", "5", "--n", "15"]) == 2
        assert "dense 105 x 105" in capsys.readouterr().err
        monkeypatch.setattr(spectra, "usable_memory", lambda: 508_199)
        assert main(gap) == 2
        assert "a gap row at n=15" in capsys.readouterr().err
        monkeypatch.setattr(spectra, "usable_memory", lambda: 440_999)
        assert main(sst) == 2
        assert "floor solve or the packed Cholesky factor" in capsys.readouterr().err

    @pytest.mark.parametrize("command,what", [("converge", "a tree count at n=15"), ("gap", "a gap row at n=15")])
    def test_guards_count_the_dense_solve(self, command, what, monkeypatch, capsys):
        # 100,000 B holds a d = 2, k = 5, n = 15 gap row's sparse operators (67,200 B) and
        # its packed factor (33,488 B), but not the five 105 x 105 arrays of the dense
        # restricted solve
        import steinerlab.experiments as experiments
        from steinerlab import spectra

        def never(*args, **kwargs):
            raise AssertionError("sampled a complex the guard should refuse")

        monkeypatch.setattr(experiments, "steiner_complex", never)
        monkeypatch.setattr(spectra, "resident_memory", lambda: 0)
        monkeypatch.setattr(spectra, "usable_memory", lambda: 100_000)
        assert main([command, "--d", "2", "--k", "5", "--n", "15", "--deterministic"]) == 2
        assert what in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["converge", "sst", "sst --in"])
    def test_count_guard_reads_the_degree(self, source, tmp_path, monkeypatch, capsys):
        # d = 1, k = 8, n = 2000: the order-1999 packed factor takes 15,992,000 B, more than
        # the floor's solve of L with 1 + 8 entries a row (2,368,000 B); with the complete
        # skeleton's 1 + 1999 entries a row the floor alone would count 48,096,000 B
        from steinerlab import spectra

        if source == "sst --in":
            assert main(["sample", "--d", "1", "--k", "8", "--n", "2000", "--seed", "1", "--out", str(tmp_path)]) == 0
            args = ["sst", "--in", str(next(tmp_path.glob("*.txt")))]
        else:
            args = [source, "--d", "1", "--k", "8", "--n", "2000", "--seed", "1"]
            args += ["--r", "1", "--deterministic"] if source == "converge" else []
        capsys.readouterr()
        monkeypatch.setattr(spectra, "resident_memory", lambda: 0)
        monkeypatch.setattr(spectra, "usable_memory", lambda: 16_000_000)
        assert main(args) == 0
        capsys.readouterr()
        monkeypatch.setattr(spectra, "usable_memory", lambda: 15_991_999)
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "floor solve or the packed Cholesky factor" in err
        assert "needs 15,992,000 bytes; with the 0 bytes" in err and "the 15,991,999 bytes it may use" in err


class TestLimit:
    def test_prints_three_routes(self, capsys):
        assert main(["limit", "--d", "1", "--k", "3"]) == 0
        out = capsys.readouterr().out
        assert "closed form" in out and "quadrature" in out and "chebyshev" in out
        assert "2.3094010767" in out

    def test_density_table(self, tmp_path):
        out = tmp_path / "table.csv"
        code = main(["limit", "--d", "1", "--k", "3",
                     "--table", "0:6:13", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x,nu,mu"
        assert len(lines) == 14

    def test_k_too_small_exits_2(self, capsys):
        assert main(["limit", "--d", "2", "--k", "3"]) == 2

    def test_table_with_two_fields_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["limit", "--d", "2", "--k", "5", "--table", "0:5"])
        assert exc.value.code == 2
        assert "expected lo:hi:steps" in capsys.readouterr().err

    @pytest.mark.parametrize("steps", ["0", "-1"])
    def test_table_without_steps_exits_2(self, steps, tmp_path, capsys):
        out = tmp_path / "table.csv"
        with pytest.raises(SystemExit) as exc:
            main(["limit", "--d", "2", "--k", "5", "--table", f"0:5:{steps}", "--out", str(out)])
        assert exc.value.code == 2
        assert f"steps must be >= 1, got {steps}" in capsys.readouterr().err
        assert not out.exists()


class TestLocal:
    def test_csv_columns(self, capsys):
        code = main(["local", "--d", "1", "--k", "3", "--n", "10",
                     "--r", "1", "--r", "2", "--trials", "2", "--seed", "4"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "trial,n,r,fraction"
        assert len(lines) == 5


class TestConverge:
    def test_deterministic_csv(self, tmp_path):
        args = ["converge", "--d", "1", "--k", "3", "--n", "20", "--trials", "2",
                "--seed", "9", "--r", "1", "--lmax", "2", "--deterministic"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_k_below_two_exits_2_before_sampling(self, tmp_path, capsys):
        keep = tmp_path / "cx"
        code = main(["converge", "--d", "1", "--k", "1", "--n", "10", "--keep-complexes", str(keep)])
        assert code == 2
        assert "k >= 2" in capsys.readouterr().err
        assert not keep.exists()

    def test_huge_lmax_exits_2_at_once(self, capsys):
        start = time.perf_counter()
        assert main(["converge", "--d", "2", "--k", "5", "--n", "31", "--lmax", "1000000000"]) == 2
        assert time.perf_counter() - start < 2.0
        assert "lmax=1000000000 is too large" in capsys.readouterr().err

    def test_oversized_n_exits_2_before_sampling(self, monkeypatch, capsys):
        import steinerlab.experiments as experiments
        from steinerlab import spectra

        def never(*args, **kwargs):
            raise AssertionError("sampled an oversized complex")

        monkeypatch.setattr(experiments, "steiner_complex", never)
        assert main(["converge", "--d", "2", "--k", "5", "--n", "997"]) == 2
        assert "physical memory" in capsys.readouterr().err
        # a gap row at n = 997 takes about 445 MB, so gap is refused under a smaller limit
        monkeypatch.setattr(spectra, "usable_memory", lambda: 2**28)
        assert main(["gap", "--d", "2", "--k", "5", "--n", "997"]) == 2
        assert "a gap row at n=997" in capsys.readouterr().err

    @pytest.mark.parametrize("k", [3, 2])
    def test_stderr_reports_the_distance_to_xi(self, tmp_path, capsys, k):
        # seed 2, d = 1, n = 6 and 8: some rows are flagged (a disconnected graph, count 0); after
        # the rows, one line per n: the mean growth_rate of the unflagged rows and, for k >= d+2,
        # its mean log distance to xi, also net of the exact term -C(n-2, d-1) log(n) / C(n, d)
        out = tmp_path / "rows.json"
        assert main(["converge", "--d", "1", "--k", str(k), "--n", "6", "--n", "8", "--trials", "6", "--seed", "2",
                     "--lmax", "0", "--deterministic", "--format", "json", "--out", str(out)]) == 0
        rows = json.loads(out.read_text())["rows"]
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 2
        flagged = 0
        for n, line in zip((6, 8), lines):
            rates = [row["growth_rate"] for row in rows if row["n"] == n and row["spectral_floor"] > 0.0]
            left_out = sum(1 for row in rows if row["n"] == n) - len(rates)
            flagged += left_out
            head, _, tail = line.partition("; mean growth_rate ")
            assert head == f"n={n}: {len(rates)} unflagged rows, {left_out} flagged left out"
            values = [float(part.split()[-1]) for part in tail.split(", ")]
            expected = [sum(rates) / len(rates)]
            if k == 3:
                error = sum(log(rate) for rate in rates) / len(rates) - log(limitlaw.growth_constant_closed(1, k))
                expected += [error, error + log(n) / n]  # C(n-2, 0) log(n) / C(n, 1)
            assert values == pytest.approx(expected, abs=5e-7)
        assert flagged > 0

    def test_flagged_floors_are_zero(self, tmp_path):
        # every row here is flagged; the Lanczos round-off of a true zero used to vary between runs
        out = tmp_path / "flagged.csv"
        assert main(["converge", "--deterministic", "--d", "3", "--k", "2", "--n", "8", "--trials", "4",
                     "--seed", "3", "--r", "1", "--lmax", "4", "--out", str(out)]) == 0
        rows = list(csv.DictReader(line for line in out.read_text().splitlines() if not line.startswith("#")))
        assert len(rows) == 4
        assert [row["spectral_floor"] for row in rows] == ["0.0"] * 4

    def test_json_format(self, capsys):
        code = main(["converge", "--d", "1", "--k", "3", "--n", "20",
                     "--trials", "1", "--format", "json", "--deterministic"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rows"][0]["n"] == 20


# the step cap of a stalled Lanczos run, far short of convergence
STALL_STEPS = 20


def stall_lanczos(monkeypatch, calls: set[int]) -> None:
    """Cut the Lanczos calls numbered in `calls` (from 0) at STALL_STEPS steps, so they fail; the rest run."""
    from steinerlab import spectra

    count = iter(range(10**6))
    lanczos = spectra._lanczos_extreme

    def stalling(*args, steps):
        return lanczos(*args, steps=STALL_STEPS if next(count) in calls else steps)

    monkeypatch.setattr(spectra, "_lanczos_extreme", stalling)


# LAPACK's message for an eigensolve that did not converge
FAILED = "the algorithm failed to converge"


def fail_dense(monkeypatch, calls: set[int]) -> None:
    """Make the dense eigensolves numbered in `calls` (from 0) raise LinAlgError; the rest run."""
    import scipy.linalg

    count = iter(range(10**6))
    eigvalsh = scipy.linalg.eigvalsh

    def failing(*args, **kwargs):
        if next(count) in calls:
            raise np.linalg.LinAlgError(FAILED)
        return eigvalsh(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigvalsh", failing)


class TestNumericalFailure:
    """A failed solve is a skipped row in converge and gap, and exit 4 in sst and spectrum."""

    def test_converge_decides_a_degenerate_floor(self, tmp_path, capsys):
        # at n=15 trial 10 and n=31 trial 7 a Lanczos floor settled on the smallest nonzero
        # eigenvalue of a degenerate spectrum, and the rows were skipped; the dense solve finds
        # the kernel, and the rows agree with the exact reduced determinant 0
        for n, trials, degenerate in ((15, 11, 10), (31, 8, 7)):
            out = tmp_path / f"rows{n}.csv"
            assert main(["converge", "--d", "2", "--k", "2", "--n", str(n), "--trials", str(trials),
                         "--seed", "11", "--deterministic", "--out", str(out)]) == 0
            assert "skipped" not in capsys.readouterr().err
            rows = list(csv.DictReader(line for line in out.read_text().splitlines() if not line.startswith("#")))
            assert [int(row["trial"]) for row in rows] == list(range(trials))
            assert (rows[degenerate]["growth_rate"], rows[degenerate]["spectral_floor"]) == ("0.0", "0.0")
            X = ExperimentConfig(d=2, k=2, n_values=(n,), trials=trials, seed=11).draw(n, degenerate)
            assert weighted_tree_count(X).zero_flag
            assert exact_reduced_det(X) == 0

    @pytest.mark.filterwarnings("ignore:k=8 is at or below the proven regime threshold")
    def test_gap_skips_a_failed_solve(self, tmp_path, monkeypatch, capsys):
        stall_lanczos(monkeypatch, {1})  # m = 502 is above the dense cap
        out = tmp_path / "gap.csv"
        assert main(["gap", "--d", "1", "--k", "8", "--n", "502", "--trials", "3", "--deterministic",
                     "--out", str(out)]) == 0
        rows = list(csv.DictReader(line for line in out.read_text().splitlines() if not line.startswith("#")))
        assert [row["trial"] for row in rows] == ["0", "2"]
        skipped = [line for line in capsys.readouterr().err.splitlines() if line.startswith("skipped")]
        assert skipped == [f"skipped n=502 trial=1: Lanczos did not converge in {STALL_STEPS} steps"]

    def test_sst_exits_4(self, monkeypatch, capsys):
        stall_lanczos(monkeypatch, {0})  # m = 990 is above the dense cap
        assert main(["sst", "--d", "2", "--k", "3", "--n", "45"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: Lanczos did not converge in {STALL_STEPS} steps\n"

    def test_converge_skips_a_failed_dense_solve(self, tmp_path, monkeypatch, capsys):
        fail_dense(monkeypatch, {1})  # m = 105 is below the dense cap
        out = tmp_path / "rows.csv"
        assert main(["converge", "--d", "2", "--k", "5", "--n", "15", "--trials", "3", "--deterministic",
                     "--out", str(out)]) == 0
        rows = list(csv.DictReader(line for line in out.read_text().splitlines() if not line.startswith("#")))
        assert [row["trial"] for row in rows] == ["0", "2"]
        skipped, distance = capsys.readouterr().err.splitlines()
        assert skipped == f"skipped n=15 trial=1: dense eigensolve failed: {FAILED}"
        assert distance.startswith("n=15: 2 unflagged rows, 0 flagged left out; ")  # a skipped row is not flagged

    def test_sst_dense_failure_exits_4(self, monkeypatch, capsys):
        fail_dense(monkeypatch, {0})
        assert main(["sst", "--d", "2", "--k", "3", "--n", "13"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: dense eigensolve failed: {FAILED}\n"

    def test_spectrum_linalg_error_exits_4(self, monkeypatch, capsys):
        import scipy.linalg

        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError(FAILED)

        monkeypatch.setattr(scipy.linalg, "eigvalsh", fail)
        assert main(["spectrum", "--d", "2", "--k", "3", "--n", "13"]) == 4
        assert capsys.readouterr().err == f"error: {FAILED}\n"

    def test_limit_quadrature_cap_exits_4(self, monkeypatch, capsys):
        monkeypatch.setattr(limitlaw, "QUAD_MAX_POINTS", 16)
        assert main(["limit", "--d", "2", "--k", "5"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: midpoint rule for d=2, k=5 did not reach 1e-10 within 16 points\n"


class TestGapOracle:
    def test_gap_csv(self, tmp_path, capsys):
        out = tmp_path / "gap.csv"
        code = main(["gap", "--d", "1", "--k", "8", "--n", "20",
                     "--trials", "2", "--eps", "1.0", "--out", str(out)])
        assert code == 0
        text = out.read_text()
        assert "n,trial,top_nontrivial,passed" in text

    def test_gap_rejects_keep_complexes(self, tmp_path):
        keep = tmp_path / "cx"
        with pytest.raises(SystemExit) as exc:
            main(["gap", "--d", "1", "--k", "8", "--n", "20", "--keep-complexes", str(keep)])
        assert exc.value.code == 2
        assert not keep.exists()

    @pytest.mark.parametrize("k", ["0", "-3"])
    def test_gap_k_below_one_names_k(self, k, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["gap", "--d", "1", "--k", k, "--n", "10"]) == 2
        err = capsys.readouterr().err
        assert err == "error: need k >= 1 systems\n"

    @pytest.mark.parametrize("eps", ["nan", "inf", "-inf"])
    def test_gap_non_finite_eps_exits_2_before_sampling(self, eps, monkeypatch, capsys):
        import steinerlab.experiments as experiments

        monkeypatch.setattr(experiments, "steiner_complex", never)
        assert main(["gap", "--d", "2", "--k", "5", "--n", "15", f"--eps={eps}"]) == 2
        assert capsys.readouterr().err == f"error: eps must be finite, got {float(eps)}\n"

    def test_gap_takes_no_radius(self, capsys):
        # k = 1 is refused only where an arboreal radius is asked for
        with pytest.warns(RuntimeWarning, match="threshold"):
            assert main(["gap", "--d", "1", "--k", "1", "--n", "10"]) == 0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_gap_regime_warning_is_one_line(self):
        # pytest records the warnings of its own process instead of printing them,
        # so the command runs in a child with Python's default filters, as a user runs it
        src = Path(__file__).resolve().parent.parent / "src"
        env = {key: value for key, value in os.environ.items() if key != "PYTHONWARNINGS"}
        env["PYTHONPATH"] = str(src)
        argv = ["gap", "--d", "2", "--k", "2", "--n", "15", "--trials", "2", "--seed", "11"]
        run = subprocess.run([sys.executable, "-m", "steinerlab.cli", *argv],
                             env=env, capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        err = run.stderr.splitlines()
        warned = [i for i, line in enumerate(err) if line.startswith("warning:")]
        passed = [i for i, line in enumerate(err) if line.startswith("pass fraction:")]
        assert len(warned) == 1 and len(passed) == 1 and warned[0] < passed[0], err
        assert "proven regime threshold" in err[warned[0]]
        assert "cli.py" not in run.stderr

    def test_oracle_subcommand(self, tmp_path, capsys):
        cx = tmp_path / "cx.txt"
        cx.write_text("4 1\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n")
        code = main(["oracle", "--in", str(cx)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["exact_kappa"] == 16

    def test_oracle_fewer_faces_than_a_tree_is_zero_at_once(
        self, one_triangle_on_many_vertices, monkeypatch, capsys
    ):
        # r = C(99999, 2) d-faces make a tree; with one there is none, and nothing is built
        from steinerlab import complexes

        monkeypatch.setattr(complexes, "_signed_incidence", never)
        assert main(["oracle", "--in", str(one_triangle_on_many_vertices)]) == 0
        assert json.loads(capsys.readouterr().out)["exact_kappa"] == 0

    @pytest.mark.parametrize("command", [["oracle"], ["sst", "--oracle"]])
    def test_oracle_dense_block_refused_before_work(self, command, long_path, monkeypatch, capsys):
        # one candidate subset passes the subset guard; its 100000 x 99999 block does not fit,
        # and neither does sst's count, whose guard runs first: the order-99999 packed factor
        from steinerlab import complexes, spectra

        monkeypatch.setattr(spectra, "usable_memory", lambda: 2**33)
        monkeypatch.setattr(complexes, "_signed_incidence", never)
        assert main([*command, "--in", str(long_path)]) == 2
        err = capsys.readouterr().err
        refused = "dense 100000 x 99999 boundary block" if command == ["oracle"] else "a tree count at n=100000"
        assert refused in err and "Traceback" not in err

    def test_missing_file_exits_2(self, capsys):
        assert main(["oracle", "--in", "/nonexistent/cx.txt"]) == 2

    @pytest.mark.parametrize("command", ["oracle", "sst"])
    def test_directory_as_input_exits_2(self, command, tmp_path, capsys):
        assert main([command, "--in", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("command", ["oracle", "sst"])
    @pytest.mark.parametrize(
        "rows, message",
        [
            (["1 2"], "face (1, 2) has dimension 1, expected 2"),
            (["1 3 2"], "face (1, 3, 2) is not strictly increasing"),
            (["1 2 9"], "face (1, 2, 9) has vertices outside [1, 4]"),
            (["2 3 4", "1 2 3"], "duplicate d-face (1, 2, 3)"),
        ],
        ids=["dimension", "order", "range", "duplicate"],
    )
    def test_bad_row_names_file_and_line(self, command, rows, message, tmp_path, capsys):
        # after the header, a good row and a blank line, the last row is the bad one
        path = tmp_path / "cx.txt"
        path.write_text("4 2\n1 2 3\n\n" + "\n".join(rows) + "\n")
        assert main([command, "--in", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}:{3 + len(rows)}: {message}\n"
