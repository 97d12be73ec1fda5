"""Tests for the comparators of tools/compare_sweeps.py, the drift tool that
runs a fixed list of sweeps on two source trees and reports what moved."""
import importlib.util
import math
from array import array
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "compare_sweeps.py"
_SPEC = importlib.util.spec_from_file_location("compare_sweeps", _PATH)
tool = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tool)

SWEEP = ("snr_db,metric,mean,stderr,trials,excluded\n"
         "0,channel_nmse,0.5,0.01,3,0\n"
         "0,timing_mse,0.25,0.02,3,0\n"
         "10,channel_nmse,0.05,0.001,3,0\n"
         "10,timing_mse,0.025,0.002,3,1\n")
TRACE = "iteration,objective\n0,2\n1,1.5\n2,1.25\n"


def _edit(text: str, line: int, column: str, value: str) -> str:
    """``text`` with one CSV cell replaced; ``line`` 1 is the first data row."""
    lines = text.splitlines()
    header = lines[0].split(",")
    cells = lines[line].split(",")
    cells[header.index(column)] = value
    lines[line] = ",".join(cells)
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------ compare


def test_identical_csvs_have_no_problem_and_no_drift():
    assert tool.compare(SWEEP, SWEEP) == ([], {})
    assert tool.compare(TRACE, TRACE) == ([], {})


def test_a_moved_mean_reports_its_largest_relative_drift():
    new = _edit(_edit(SWEEP, 1, "mean", "0.4"), 3, "mean", "0.049")
    problems, drifts = tool.compare(SWEEP, new)
    assert problems == []
    assert drifts == {("channel_nmse", "mean"): pytest.approx(0.2)}
    problems, drifts = tool.compare(TRACE, _edit(TRACE, 2, "objective", "1.6"))
    assert problems == [] and drifts == {("trace", "objective"): pytest.approx(0.1 / 1.6)}


@pytest.mark.parametrize("column,line", [("trials", 1), ("excluded", 4)])
def test_trials_or_excluded_differing_is_a_problem(column, line):
    problems, drifts = tool.compare(SWEEP, _edit(SWEEP, line, column, "7"))
    assert len(problems) == 1 and f"{column} " in problems[0] and "-> 7" in problems[0]
    assert drifts == {}


def test_a_missing_row_is_a_key_difference():
    missing = "".join(SWEEP.splitlines(keepends=True)[:-1])
    assert tool.compare(SWEEP, missing) == (["row keys differ"], {})


def test_traces_of_different_length_print_both_iteration_counts():
    longer = TRACE + "3,1.125\n4,1.0625\n"
    (problem,), drifts = tool.compare(TRACE, longer)
    assert problem.startswith("row keys differ: 2 -> 4 iterations, final objective drift")
    assert drifts == {}


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_a_value_that_turns_non_finite_is_a_problem(value):
    problems, drifts = tool.compare(SWEEP, _edit(SWEEP, 1, "mean", value))
    assert problems == ["channel_nmse mean: 1 values change finiteness"]
    assert drifts == {}
    problems, _ = tool.compare(_edit(SWEEP, 1, "mean", value), SWEEP)
    assert problems == ["channel_nmse mean: 1 values change finiteness"]
    problems, _ = tool.compare(TRACE, _edit(TRACE, 3, "objective", value))
    assert problems == ["trace objective: 1 values change finiteness"]


def test_two_nans_agree():
    nan = _edit(SWEEP, 2, "stderr", "nan")
    assert tool.compare(nan, nan) == ([], {})


def test_main_exits_one_on_a_value_that_turns_nan(monkeypatch, capsys):
    texts = {"sweep": SWEEP}, {"sweep": _edit(SWEEP, 1, "mean", "nan")}
    monkeypatch.setattr(tool, "outputs", lambda tree, work: texts[int(tree)])
    monkeypatch.setattr(tool, "source_lines", lambda tree, folder: 10)
    assert tool.main(["0", "1"]) == 1
    out = capsys.readouterr().out
    assert "sweep: DIFFERS channel_nmse mean: 1 values change finiteness" in out
    assert "values equal" not in out


# ----------------------------------------------------- compare_values


def _pulse(a, b):
    """A ``pulse`` output of two functions, ``a`` then ``b``."""
    return f"a {len(a)}\nb {len(b)}\n", array("d", [*a, *b]).tobytes()


def test_a_differing_index_is_a_problem():
    problems, drifts = tool.compare_values(_pulse([1.0], [2.0]), _pulse([1.0, 1.0], [2.0]))
    assert problems == ["index ['a', '1', 'b', '1'] -> ['a', '2', 'b', '1']"]
    assert drifts == {}


def test_nan_against_nan_agrees():
    old = _pulse([1.0, math.nan], [2.0])
    assert tool.compare_values(old, old) == ([], {})


def test_finiteness_changes_are_counted_under_their_function():
    old = _pulse([1.0, 2.0], [3.0, 4.0, 5.0])
    new = _pulse([1.0, 2.0], [math.inf, math.nan, 5.0])
    assert tool.compare_values(old, new) == (["b: 2 values change finiteness"], {})
    new = _pulse([math.nan, 2.0], [3.0, 4.0, 5.0])
    assert tool.compare_values(old, new) == (["a: 1 values change finiteness"], {})


def test_drift_is_attributed_through_the_index():
    old = _pulse([1.0, 2.0], [3.0, 4.0, 5.0])
    problems, drifts = tool.compare_values(old, _pulse([1.0, 2.0], [3.0, 4.0, 4.0]))
    assert problems == [] and drifts == {("b", "value"): pytest.approx(0.2)}
    problems, drifts = tool.compare_values(old, _pulse([1.0, 1.5], [3.0, 4.0, 5.0]))
    assert problems == [] and drifts == {("a", "value"): pytest.approx(0.25)}


# ---------------------------------------------------- compare_exports


def test_exports_report_names_added_and_removed_per_module():
    old = "rissync a b c\nrissync.pulse a\nrissync.gone x\n"
    new = "rissync a c d e\nrissync.pulse a\nrissync.new y\n"
    assert tool.compare_exports(old, new) == [
        ("rissync", ["d", "e"], ["b"]),
        ("rissync.gone", [], ["x"]),
        ("rissync.new", ["y"], []),
    ]
    assert tool.compare_exports(old, old) == []


# -------------------------------------------------------- line counts


def _tree(root, package: str, tests: str) -> str:
    """A tree whose package and tests folders hold one module each of those
    texts, beside a file that is not Python."""
    for folder, text in (("src/rissync", package), ("tests", tests)):
        Path(root, folder).mkdir(parents=True)
        Path(root, folder, "module.py").write_text(text)
        Path(root, folder, "notes.txt").write_text("not counted\n")
    return str(root)


def test_main_prints_the_line_counts_of_the_package_and_the_tests(tmp_path, monkeypatch,
                                                                   capsys):
    # as wc -l counts: a last line without a newline is not counted
    old = _tree(tmp_path / "old", "a\nb\nc\n", "t\n" * 5)
    new = _tree(tmp_path / "new", "a\nb", "t\n" * 7)
    assert (tool.source_lines(old, "src/rissync"), tool.source_lines(old, "tests")) == (3, 5)
    monkeypatch.setattr(tool, "outputs", lambda tree, work: {"sweep": SWEEP})
    assert tool.main([old, new]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["sweep: identical", "src/rissync lines: 3 -> 1", "tests lines: 5 -> 7"]
