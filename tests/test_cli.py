"""Tests for the command-line interface."""
import dataclasses
import re
import subprocess
import sys

import numpy as np
import pytest

import rissync.cli as cli
from rissync.errors import FailureRateError
from rissync.harness import ExperimentSpec

FAST = ["--surfaces", "2", "--nx", "2", "--ny", "1",
        "--snr-db", "10", "--trials", "2", "--seed", "3"]


# ------------------------------------------------------------ settings


@pytest.mark.parametrize("grid", ["0,,10", "10,", ",10"])
def test_snr_grid_rejects_empty_entries(capsys, grid):
    assert cli.main(["sweep", "--kind", "crlb", "--snr-db", grid] + FAST[:6]) == 1
    assert "--snr-db" in capsys.readouterr().err
    with pytest.raises(ValueError, match="empty entry in SNR grid"):
        cli._parse_snr_grid(grid)
    # a grid with no entry at all keeps its own message
    with pytest.raises(ValueError, match="empty SNR grid"):
        cli._parse_snr_grid(" , ")


def test_build_spec_defaults_match_experiment_spec():
    for command in ("sweep", "convergence"):
        args = cli.build_parser().parse_args([command])
        assert cli.build_spec(args) == ExperimentSpec()


# one value per setting, not its default: only 'algorithm' has no other value
_SETTING_VALUES = {"scenario": "mmwave", "surfaces": "3", "nx": "2", "ny": "3",
                   "snr_db": "5, 15", "trials": "7", "offset_model": "common-delta",
                   "delta_max": "0.25", "algorithm": "accelerated", "seed": "11"}


def test_settings_table_matches_the_spec():
    """The table's fields are the spec's, and each flag sets its own field."""
    fields = [field for field, _ in cli._SETTINGS.values() if field is not None]
    assert fields == [f.name for f in dataclasses.fields(ExperimentSpec)]
    parser = cli.build_parser()
    for key, (field, options) in cli._SETTINGS.items():
        if field is None:
            continue
        value = _SETTING_VALUES[key]
        spec = cli.build_spec(parser.parse_args(["sweep", "--" + key.replace("_", "-"), value]))
        assert spec == dataclasses.replace(ExperimentSpec(), **{field: options["type"](value)})
        assert spec != ExperimentSpec() or key == "algorithm", key


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
    assert cli.main(["sweep", "--kind", "estimation"] + FAST) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "snr_db,metric,mean,stderr,trials,excluded"
    assert len(lines) == 5  # four metrics at one SNR point
    assert all(line.startswith("10,") for line in lines[1:])


def test_crlb_subcommand_is_bounds_only(capsys):
    assert cli.main(["sweep", "--kind", "crlb"] + FAST) == 0
    lines = capsys.readouterr().out.splitlines()
    metrics = {line.split(",")[1] for line in lines[1:]}
    assert metrics == {"channel_crlb", "timing_crlb"}


def test_design_subcommand_reports_four_schemes(capsys):
    assert cli.main(["sweep", "--kind", "design"] + FAST) == 0
    lines = capsys.readouterr().out.splitlines()
    metrics = {line.split(",")[1] for line in lines[1:]}
    assert metrics == {"nmse_proposed", "nmse_phase_aligned",
                       "nmse_perfect", "nmse_random"}


def test_snr_list_may_start_with_a_negative_value(capsys):
    argv = ["sweep", "--kind", "crlb", "--surfaces", "2", "--nx", "2", "--ny", "1",
            "--trials", "2", "--seed", "3"]
    assert cli.main(argv + ["--snr-db", "-10,0"]) == 0
    spaced = capsys.readouterr().out
    assert cli.main(argv + ["--snr-db=-10,0"]) == 0
    assert capsys.readouterr().out == spaced
    assert [line.split(",")[0] for line in spaced.splitlines()[1:]] == ["-10", "-10", "0", "0"]


def test_abbreviated_snr_flag_takes_a_negative_list(capsys):
    argv = ["sweep", "--kind", "crlb", "--surfaces", "2", "--nx", "2", "--ny", "1",
            "--trials", "2", "--seed", "3"]
    assert cli.main(argv + ["--snr-db", "-10,0"]) == 0
    full = capsys.readouterr().out
    for flag in ("--sn", "--snr", "--snr-", "--snr-d"):
        assert cli.main(argv + [flag, "-10,0"]) == 0, flag
        assert capsys.readouterr().out == full
    # '--s' is ambiguous (--scenario, --seed, --surfaces) and stays a usage error
    assert cli.main(argv + ["--s", "-10,0"]) == 1


def test_convergence_writes_trace_files(tmp_path, capsys):
    prefix = tmp_path / "trace"
    argv = ["convergence", "--surfaces", "2", "--nx", "2", "--ny", "1",
            "--snr-db", "0", "--trials", "1", "--seed", "1",
            "--out", str(prefix)]
    assert cli.main(argv) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["trace-accelerated.csv"]
    lines = (tmp_path / "trace-accelerated.csv").read_text().splitlines()
    assert lines[0] == "iteration,objective"
    values = np.array([float(line.split(",")[1]) for line in lines[1:]])
    assert np.all(np.diff(values) <= 1e-12 * np.maximum(1.0, values[:-1]))
    err = capsys.readouterr().err.splitlines()
    assert err == [f"accelerated: {len(values) - 1} iterations, converged"]


def test_convergence_requires_out_path(capsys):
    assert cli.main(["convergence"] + FAST) == 1
    assert "--out" in capsys.readouterr().err


# ---------------------------------------------------------- exit codes


def test_help_exits_zero():
    assert cli.main(["--help"]) == 0
    assert cli.main(["sweep", "--help"]) == 0
    assert cli.main(["convergence", "--help"]) == 0


def test_only_sweep_and_convergence_are_commands(capsys):
    assert cli.main(["--help"]) == 0
    listed = re.findall(r"^    (\w+)", capsys.readouterr().out, re.MULTILINE)
    assert listed == ["sweep", "convergence"]
    for alias in ("estimate", "crlb", "design"):
        assert cli.main([alias] + FAST) == 1
        assert f"invalid choice: '{alias}'" in capsys.readouterr().err
    assert cli.main(["convergence", "--kind", "crlb"] + FAST) == 1


def test_no_subcommand_exits_one(capsys):
    assert cli.main([]) == 1
    assert "COMMAND" in capsys.readouterr().err


def test_usage_errors_exit_one():
    assert cli.main(["frobnicate"]) == 1
    assert cli.main(["sweep", "--scenario", "awgn"]) == 1
    assert cli.main(["sweep", "--trials", "three"]) == 1
    assert cli.main(["sweep", "--trials"]) == 1
    assert cli.main(["sweep", "--kind", "bogus"]) == 1
    assert cli.main(["sweep", "--kind", "design", "--algorithm", "mm"]) == 1
    assert cli.main(["sweep", "--bogus-key", "1"]) == 1


def test_invalid_spec_exits_one(capsys):
    assert cli.main(["sweep", "--trials", "0"]) == 1
    assert "trials" in capsys.readouterr().err
    assert cli.main(["sweep", "--kind", "crlb"] + FAST + ["--seed", "-1"]) == 1
    assert "base_seed" in capsys.readouterr().err


def test_unrepresentable_snr_exits_one(capsys):
    # 10**400 overflows a float: a usage error, not a traceback
    assert cli.main(["sweep", "--kind", "crlb", "--snr-db=-4000", "--trials", "2",
                     "--surfaces", "1", "--nx", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "snr_grid_db" in err and "Traceback" not in err


def test_async_rejects_an_offset_model_it_would_ignore(capsys):
    argv = ["sweep", "--kind", "async"] + FAST
    assert cli.main(argv + ["--offset-model", "uniform"]) == 1
    assert "--offset-model" in capsys.readouterr().err
    # the spec's default model is not an explicit choice
    outputs = []
    for extra in ([], ["--offset-model", "common-delta"]):
        assert cli.main(argv + extra) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert outputs[0].startswith("snr_db,metric,mean,stderr,trials,excluded\n")


def test_unwritable_output_exits_one(tmp_path):
    assert cli.main(["sweep", "--kind", "crlb"] + FAST +
                    ["--out", str(tmp_path / "no" / "dir" / "x.csv")]) == 1


def test_numerical_failure_exits_two(monkeypatch, capsys):
    def doomed(spec):
        raise FailureRateError(5, 10, 0.01)

    monkeypatch.setitem(cli._RUNNERS, "estimation", doomed)
    assert cli.main(["sweep", "--kind", "estimation"] + FAST) == 2
    assert "excluded" in capsys.readouterr().err


def test_every_public_name_resolves():
    """The package's ``__all__`` is its eight library modules' lists in turn,
    with no name twice, and each name on the package is the object its module
    defines, so no ``from rissync... import *`` can fail on a stale entry; the
    ten names the modules listed but the package once lacked resolve too."""
    import importlib
    import pkgutil

    import rissync

    modules = [importlib.import_module(f"rissync.{info.name}")
               for info in pkgutil.iter_modules(rissync.__path__)]
    listed = [m for m in modules if hasattr(m, "__all__")]
    assert [m.__name__.partition(".")[2] for m in listed] == [
        "channel", "config", "crlb", "design", "errors", "estimator", "harness", "pulse"]
    assert rissync.__all__ == [name for module in listed for name in module.__all__]
    assert len(set(rissync.__all__)) == len(rissync.__all__)
    for module in listed:
        for name in module.__all__:
            assert getattr(rissync, name) is getattr(module, name), f"{module.__name__}.{name}"
    for name in ("DenseBounds", "SINGULARITY_TOL", "SurrogateAnchor", "array_response",
                 "block_gains", "lag_pilot_matrix", "phase_update", "recovered_energy",
                 "surrogate_anchor", "surrogate_value"):
        assert hasattr(rissync, name), name


def test_import_needs_no_scipy_and_loads_the_random_streams():
    """The package imports no scipy, which no part of the project depends on;
    numpy.random, which every sweep draws from, and numpy.fft, through which
    every trial's training passes, are loaded with the package instead of
    inside the first trial."""
    probe = ("import sys, rissync.cli; "
             "print(any(m.split('.')[0] == 'scipy' for m in sys.modules), "
             "'numpy.random' in sys.modules, 'numpy.fft' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True", "True"]
