"""Tests for the command-line interface."""
from pathlib import Path

import numpy as np
import pytest

import rissync.cli as cli
from rissync.errors import FailureRateError
from rissync.harness import ExperimentSpec

FAST = ["--surfaces", "2", "--nx", "2", "--ny", "1",
        "--snr-db", "10", "--trials", "2", "--seed", "3"]


# -------------------------------------------------------------- config


def test_read_config_parses_types_and_comments(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment line\n"
        "\n"
        "scenario = mmwave   # trailing comment\n"
        "surfaces=3\n"
        "snr_db = 0, 10 ,20\n"
        "delta_max = 0.25\n"
        "trials = 7\n")
    settings = cli.read_config(str(path))
    assert settings == {"scenario": "mmwave", "surfaces": 3,
                        "snr_db": (0.0, 10.0, 20.0), "delta_max": 0.25,
                        "trials": 7}


@pytest.mark.parametrize("line", [
    "bogus_key = 1",
    "trials",
    "trials =",
    "= 5",
    "trials = many",
    "snr_db = ,",
])
def test_read_config_rejects_malformed_lines(tmp_path, line):
    path = tmp_path / "bad.cfg"
    path.write_text(line + "\n")
    with pytest.raises(ValueError):
        cli.read_config(str(path))


def test_example_config_parses():
    example = Path(__file__).resolve().parents[1] / "configs" / "example.cfg"
    settings = cli.read_config(str(example))
    assert settings["kind"] == "estimation"
    spec = cli.build_spec(cli.build_parser().parse_args(["sweep"]), settings)
    assert spec.trials == 200
    assert spec.snr_grid_db == (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)


def test_flags_override_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("trials = 9\nsurfaces = 4\nseed = 1\n")
    args = cli.build_parser().parse_args(
        ["estimate", "--config", str(path), "--trials", "2"])
    spec = cli.build_spec(args, cli.read_config(args.config))
    assert spec.trials == 2        # flag wins
    assert spec.n_surfaces == 4    # config fills the rest
    assert spec.base_seed == 1


def test_build_spec_defaults_match_experiment_spec():
    args = cli.build_parser().parse_args(["estimate"])
    assert cli.build_spec(args, {}) == ExperimentSpec()


# ------------------------------------------------------------ commands


def test_sweep_output_is_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["sweep", "--kind", "estimation"] + FAST
    assert cli.main(argv + ["--out", str(out1)]) == 0
    assert cli.main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text().splitlines()[0]
    assert header == "snr_db,metric,mean,stderr,trials,excluded"


def test_estimate_writes_csv_to_stdout(capsys):
    assert cli.main(["estimate"] + FAST) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "snr_db,metric,mean,stderr,trials,excluded"
    assert len(lines) == 5  # four metrics at one SNR point
    assert all(line.startswith("10,") for line in lines[1:])


def test_crlb_subcommand_is_bounds_only(capsys):
    assert cli.main(["crlb"] + FAST) == 0
    lines = capsys.readouterr().out.splitlines()
    metrics = {line.split(",")[1] for line in lines[1:]}
    assert metrics == {"channel_crlb", "timing_crlb"}


def test_design_subcommand_reports_four_schemes(capsys):
    assert cli.main(["design"] + FAST) == 0
    lines = capsys.readouterr().out.splitlines()
    metrics = {line.split(",")[1] for line in lines[1:]}
    assert metrics == {"nmse_proposed", "nmse_phase_aligned",
                       "nmse_perfect", "nmse_random"}


def test_sweep_kind_from_config(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("kind = crlb\n")
    assert cli.main(["sweep", "--config", str(path)] + FAST) == 0
    lines = capsys.readouterr().out.splitlines()
    metrics = {line.split(",")[1] for line in lines[1:]}
    assert metrics == {"channel_crlb", "timing_crlb"}


def test_snr_list_may_start_with_a_negative_value(capsys):
    argv = ["crlb", "--surfaces", "2", "--nx", "2", "--ny", "1",
            "--trials", "2", "--seed", "3"]
    assert cli.main(argv + ["--snr-db", "-10,0"]) == 0
    spaced = capsys.readouterr().out
    assert cli.main(argv + ["--snr-db=-10,0"]) == 0
    assert capsys.readouterr().out == spaced
    assert [line.split(",")[0] for line in spaced.splitlines()[1:]] == ["-10", "-10", "0", "0"]


def test_convergence_writes_trace_files(tmp_path):
    prefix = tmp_path / "trace"
    argv = ["convergence", "--surfaces", "2", "--nx", "2", "--ny", "1",
            "--snr-db", "0", "--trials", "1", "--seed", "1",
            "--out", str(prefix)]
    assert cli.main(argv) == 0
    for name in ("mm", "accelerated"):
        lines = (tmp_path / f"trace-{name}.csv").read_text().splitlines()
        assert lines[0] == "iteration,objective"
        values = np.array([float(line.split(",")[1]) for line in lines[1:]])
        assert np.all(np.diff(values) <= 1e-12 * np.maximum(1.0, values[:-1]))


def test_convergence_requires_out_path(capsys):
    assert cli.main(["convergence"] + FAST) == 1
    assert "--out" in capsys.readouterr().err


# ---------------------------------------------------------- exit codes


def test_help_exits_zero():
    assert cli.main(["--help"]) == 0
    assert cli.main(["estimate", "--help"]) == 0


def test_no_subcommand_exits_one(capsys):
    assert cli.main([]) == 1
    assert "COMMAND" in capsys.readouterr().err


def test_usage_errors_exit_one():
    assert cli.main(["frobnicate"]) == 1
    assert cli.main(["estimate", "--scenario", "awgn"]) == 1
    assert cli.main(["estimate", "--trials", "three"]) == 1
    assert cli.main(["sweep", "--kind", "bogus"]) == 1


def test_invalid_spec_exits_one(capsys):
    assert cli.main(["estimate", "--trials", "0"]) == 1
    assert "trials" in capsys.readouterr().err


def test_missing_config_exits_one(capsys):
    assert cli.main(["estimate", "--config", "/nonexistent/x.cfg"]) == 1
    assert "error:" in capsys.readouterr().err


def test_unwritable_output_exits_one(tmp_path):
    assert cli.main(["crlb"] + FAST +
                    ["--out", str(tmp_path / "no" / "dir" / "x.csv")]) == 1


def test_numerical_failure_exits_two(monkeypatch, capsys):
    def doomed(spec):
        raise FailureRateError(5, 10, 0.01)

    monkeypatch.setattr(cli, "run_estimation_sweep", doomed)
    assert cli.main(["estimate"] + FAST) == 2
    assert "excluded" in capsys.readouterr().err
