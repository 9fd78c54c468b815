"""Smoke tests of the paper-experiment scripts under scripts/.

Each script is loaded from its file and its run() called on tiny inputs,
so a change to the options or the API they use shows up here.
"""

import csv
import importlib.util
from pathlib import Path

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
        ["--pairs", "1", "--vertices", "8", "--maximal-factor", "2", "--epsilon", "0.5",
         "--workdir", str(tmp_path / "inputs"), "--out", str(out)]
    )
    assert code == 0
    rows = csv_rows(out)
    assert rows[0] == ["fileA", "fileB", "bound", "calls", "time_ms", "delta",
                       "deepest_evaluated_level", "reduction_rate"]
    assert [r[2] for r in rows[1:]] == ["g", "c", "l"]
    assert "calls_ratio_C/L" in capsys.readouterr().out


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
