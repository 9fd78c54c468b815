"""Smoke tests of the paper-experiment scripts under scripts/.

Each script is loaded from its file and its run() called on tiny inputs,
so a change to the options or the API they use shows up here.
"""

import csv
import importlib.util
import itertools
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def csv_rows(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as f:
        return list(csv.reader(f))


def test_bound_comparison_script(tmp_path, capsys):
    out = tmp_path / "bounds.csv"
    code = load_script("bound_comparison").run(
        ["--pairs", "2", "--vertices", "8", "--maximal-factor", "2", "--epsilon", "0.5",
         "--out", str(out)]
    )
    assert code == 0
    rows = csv_rows(out)
    assert rows[0] == ["fileA", "fileB", "bound", "calls", "time_ms", "delta",
                       "deepest_evaluated_level", "reduction_rate"]
    # four inputs, their 6 pairs, three rows per pair
    names = [f"rnd_{i:03d}.txt" for i in range(4)]
    assert [r[:3] for r in rows[1:]] == [[a, b, key] for a, b in itertools.combinations(names, 2)
                                         for key in "gcl"]
    lines = capsys.readouterr().out.splitlines()
    data_rows = [l.split("\t") for l in lines if l.startswith("rnd_")]
    assert data_rows == rows[1:]
    assert any(l.startswith("calls_ratio_G/C") for l in lines)
    assert any(l.startswith("calls_ratio_C/L") for l in lines)
    # reduction rate column is consistent with calls and level
    for cells in data_rows:
        calls, lvl, rate = int(cells[3]), int(cells[6]), float(cells[7])
        assert rate == 1.0 - calls / 4.0 ** (lvl + 1)


def test_bound_comparison_one_pair(tmp_path, capsys):
    out = tmp_path / "bounds.csv"
    code = load_script("bound_comparison").run(
        ["--pairs", "1", "--vertices", "8", "--maximal-factor", "2", "--epsilon", "0.5",
         "--out", str(out)]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    data_rows = [l for l in lines if l.startswith("rnd_000.txt")]
    assert len(data_rows) == 3  # one pair, three bounds
    assert any(l.startswith("calls_ratio_G/C") for l in lines)
    # reduction rate column is consistent with calls and level
    for row in data_rows:
        cells = row.split("\t")
        calls, lvl, rate = int(cells[3]), int(cells[6]), float(cells[7])
        assert rate == 1.0 - calls / 4.0 ** (lvl + 1)
    assert out.read_text().splitlines()[0].startswith("fileA,fileB,bound")


def test_bound_comparison_rejects_zero_pairs(capsys):
    with pytest.raises(SystemExit) as exc:
        load_script("bound_comparison").run(["--pairs", "0"])
    assert exc.value.code == 1
    assert "no usable pairs" in capsys.readouterr().err


def test_error_decay_script(tmp_path, capsys):
    out = tmp_path / "decay.csv"
    code = load_script("error_decay").run(
        ["--vertices", "8", "--maximal-factor", "2", "--epsilon", "0.1",
         "--budget-ms", "200", "--out", str(out)]
    )
    assert code == 0
    rows = csv_rows(out)
    assert rows[0] == ["call", "elapsed_ms", "rho", "upper", "rel_error",
                       "type", "lmin", "lmax", "mmin", "mmax", "level"]
    assert len(rows) > 4  # the four level-0 boxes are always evaluated
    assert "guaranteed_rel_error" in capsys.readouterr().out
