"""Tests for the command-line interface."""
import dataclasses
import re
import subprocess
import sys
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
    "snr_db = 0,,10",
    "snr_db = 10,",
    "scenario = awgn",
])
def test_read_config_rejects_malformed_lines(tmp_path, line):
    path = tmp_path / "bad.cfg"
    path.write_text(line + "\n")
    with pytest.raises(ValueError):
        cli.read_config(str(path))


def test_read_config_rejects_a_repeated_key(tmp_path):
    path = tmp_path / "twice.cfg"
    path.write_text("trials = 5\n# a comment\n\nseed = 1\ntrials = 50\n")
    with pytest.raises(ValueError, match=r"twice\.cfg:5: duplicate key 'trials' "
                                         r"\(first set on line 1\)"):
        cli.read_config(str(path))


@pytest.mark.parametrize("grid", ["0,,10", "10,", ",10"])
def test_snr_grid_rejects_empty_entries(tmp_path, capsys, grid):
    assert cli.main(["sweep", "--kind", "crlb", "--snr-db", grid] + FAST[:6]) == 1
    assert "--snr-db" in capsys.readouterr().err
    path = tmp_path / "grid.cfg"
    path.write_text(f"snr_db = {grid}\n")
    with pytest.raises(ValueError, match=r"grid\.cfg:1: bad value for 'snr_db': "
                                         r"empty entry in SNR grid"):
        cli.read_config(str(path))
    # a grid with no entry at all keeps its own message
    with pytest.raises(ValueError, match="empty SNR grid"):
        cli._parse_snr_grid(" , ")


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
        ["sweep", "--config", str(path), "--trials", "2"])
    spec = cli.build_spec(args, cli.read_config(args.config))
    assert spec.trials == 2        # flag wins
    assert spec.n_surfaces == 4    # config fills the rest
    assert spec.base_seed == 1


def test_build_spec_defaults_match_experiment_spec():
    for command in ("sweep", "convergence"):
        args = cli.build_parser().parse_args([command])
        assert cli.build_spec(args, {}) == ExperimentSpec()


# one value per setting, not its default: only 'algorithm' has no other value
_SETTING_VALUES = {"scenario": "mmwave", "surfaces": "3", "nx": "2", "ny": "3",
                   "snr_db": "5, 15", "trials": "7", "offset_model": "common-delta",
                   "delta_max": "0.25", "algorithm": "accelerated", "seed": "11"}


def test_settings_table_matches_the_spec(tmp_path):
    """The table's fields are the spec's, and each setting gives the same
    spec as a flag as it does as a config line."""
    fields = [field for field, _ in cli._SETTINGS.values() if field is not None]
    assert fields == [f.name for f in dataclasses.fields(ExperimentSpec)]
    parser = cli.build_parser()
    path = tmp_path / "one.cfg"
    for key, (field, _) in cli._SETTINGS.items():
        if field is None:
            continue
        value = _SETTING_VALUES[key]
        path.write_text(f"{key} = {value}\n")
        from_file = cli.build_spec(parser.parse_args(["sweep"]), cli.read_config(str(path)))
        flag = "--" + key.replace("_", "-")
        from_flag = cli.build_spec(parser.parse_args(["sweep", flag, value]), {})
        assert from_flag == from_file, key
        assert from_flag != ExperimentSpec() or key == "algorithm", key


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


def test_sweep_kind_from_config(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("kind = crlb\n")
    assert cli.main(["sweep", "--config", str(path)] + FAST) == 0
    lines = capsys.readouterr().out.splitlines()
    metrics = {line.split(",")[1] for line in lines[1:]}
    assert metrics == {"channel_crlb", "timing_crlb"}


@pytest.mark.parametrize("command", [
    ["sweep", "--kind", "estimation"], ["sweep", "--kind", "crlb"],
    ["sweep", "--kind", "design"], ["convergence"], ["sweep"],
], ids=["estimate", "crlb", "design", "convergence", "sweep"])
def test_config_kind_is_checked_under_every_subcommand(tmp_path, capsys, command):
    # a bad kind fails where the file is read, as a bad scenario does, even
    # where a --kind flag or the convergence command leaves it unused
    path = tmp_path / "k.cfg"
    path.write_text("trials = 2\nkind = bogus\n")
    with pytest.raises(ValueError, match=r"k\.cfg:2: bad value for 'kind'"):
        cli.read_config(str(path))
    argv = command + ["--config", str(path), "--out", str(tmp_path / "out")] + FAST
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'kind'" in err and "bogus" in err
    assert list(tmp_path.iterdir()) == [path]


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
    assert cli.main(["sweep", "--kind", "bogus"]) == 1
    assert cli.main(["sweep", "--kind", "design", "--algorithm", "mm"]) == 1


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


def test_async_rejects_an_offset_model_it_would_ignore(tmp_path, capsys):
    argv = ["sweep", "--kind", "async"] + FAST
    assert cli.main(argv + ["--offset-model", "uniform"]) == 1
    assert "--offset-model" in capsys.readouterr().err
    uniform = tmp_path / "uniform.cfg"
    uniform.write_text("offset_model = uniform\n")
    assert cli.main(argv + ["--config", str(uniform)]) == 1
    assert "--offset-model" in capsys.readouterr().err
    # the spec's default model is not an explicit choice, and a flag wins over the file
    outputs = []
    for extra in ([], ["--offset-model", "common-delta"],
                  ["--config", str(uniform), "--offset-model", "common-delta"]):
        assert cli.main(argv + extra) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2]
    assert outputs[0].startswith("snr_db,metric,mean,stderr,trials,excluded\n")


def test_missing_config_exits_one(capsys):
    assert cli.main(["sweep", "--config", "/nonexistent/x.cfg"]) == 1
    assert "error:" in capsys.readouterr().err


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
    """Each name in the package's and every submodule's ``__all__`` exists,
    so ``from rissync.<module> import *`` cannot fail on a stale entry."""
    import importlib
    import pkgutil

    import rissync

    modules = [rissync] + [importlib.import_module(f"rissync.{info.name}")
                           for info in pkgutil.iter_modules(rissync.__path__)]
    listed = [m for m in modules if hasattr(m, "__all__")]
    assert len(listed) >= 7
    for module in listed:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ lists {missing}"


def test_import_needs_no_scipy_and_loads_the_random_streams():
    """scipy is a test-only dependency; numpy.random, which every sweep draws
    from, and numpy.fft, through which every trial's training passes, are
    loaded with the package instead of inside the first trial."""
    probe = ("import sys, rissync.cli; "
             "print(any(m.split('.')[0] == 'scipy' for m in sys.modules), "
             "'numpy.random' in sys.modules, 'numpy.fft' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True", "True"]
