"""Tests for the command-line interface."""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.wavelet.synopsis import WaveletSynopsis


@pytest.fixture
def data_file(tmp_path):
    path = tmp_path / "data.npy"
    np.save(path, np.random.default_rng(0).uniform(0, 100, size=500))
    return str(path)


@pytest.fixture
def text_file(tmp_path):
    path = tmp_path / "data.txt"
    path.write_text("1.0, 2.0, 3.0\n4.0 5.5\n")
    return str(path)


class TestBuild:
    def test_build_writes_valid_synopsis(self, data_file, tmp_path, capsys):
        out = str(tmp_path / "syn.json")
        code = main(
            ["build", data_file, "--budget", "32", "--algorithm", "greedy-abs", "--output", out]
        )
        assert code == 0
        synopsis = WaveletSynopsis.from_dict(json.loads(open(out).read()))
        assert synopsis.size <= 32
        assert synopsis.n == 512

    def test_build_reads_text_files(self, text_file, tmp_path):
        out = str(tmp_path / "syn.json")
        code = main(["build", text_file, "--budget", "3", "--algorithm", "conventional", "--output", out])
        assert code == 0
        synopsis = WaveletSynopsis.from_dict(json.loads(open(out).read()))
        assert synopsis.n == 8  # padded from 5 values

    def test_build_to_stdout(self, text_file, capsys):
        code = main(["build", text_file, "--budget", "2", "--algorithm", "conventional"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert "coefficients" in payload

    def test_missing_file_fails_cleanly(self, capsys):
        code = main(["build", "/nonexistent.npy", "--budget", "4"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_tokens_fail_cleanly(self, tmp_path, capsys):
        path = tmp_path / "junk.txt"
        path.write_text("1.0 banana 3.0")
        code = main(["build", str(path), "--budget", "4"])
        assert code == 1

    def test_build_with_rho_and_kernel(self, data_file, tmp_path):
        # The coarsened tier must still respect the budget and record
        # the knob in the synopsis meta.
        out = str(tmp_path / "syn.json")
        code = main(
            [
                "build", data_file, "--budget", "32",
                "--algorithm", "indirect-haar", "--delta", "0.5",
                "--dp-rho", "0.1",
                "--output", out,
            ]
        )
        assert code == 0
        payload = json.loads(open(out).read())
        synopsis = WaveletSynopsis.from_dict(payload)
        assert synopsis.size <= 32
        assert payload["meta"]["rho"] == 0.1

    def test_rho_zero_build_matches_default(self, data_file, tmp_path):
        outs = []
        for name, extra in [("a.json", []), ("b.json", ["--dp-rho", "0"])]:
            out = str(tmp_path / name)
            code = main(
                [
                    "build", data_file, "--budget", "32",
                    "--algorithm", "indirect-haar", "--delta", "0.5",
                    "--output", out, *extra,
                ]
            )
            assert code == 0
            outs.append(json.loads(open(out).read())["coefficients"])
        assert outs[0] == outs[1]



class TestQueryAndEvaluate:
    @pytest.fixture
    def synopsis_file(self, data_file, tmp_path):
        out = str(tmp_path / "syn.json")
        main(["build", data_file, "--budget", "64", "--algorithm", "greedy-abs", "--output", out])
        return out

    def test_point_query(self, synopsis_file, capsys):
        assert main(["query", synopsis_file, "--point", "5"]) == 0
        value = float(capsys.readouterr().out.strip())
        assert np.isfinite(value)

    def test_range_query(self, synopsis_file, capsys):
        assert main(["query", synopsis_file, "--range", "0", "99"]) == 0
        value = float(capsys.readouterr().out.strip())
        assert np.isfinite(value)

    def test_query_requires_a_mode(self, synopsis_file, capsys):
        assert main(["query", synopsis_file]) == 2

    def test_evaluate_reports_metrics(self, synopsis_file, data_file, capsys):
        assert main(["evaluate", synopsis_file, data_file]) == 0
        out = capsys.readouterr().out
        assert "max_abs" in out and "L2" in out
