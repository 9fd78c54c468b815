"""The package's public names and its runtime dependencies."""

import io
import os
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import matchdist


def test_all_names_resolve_once():
    twice = [name for name, n in Counter(matchdist.__all__).items() if n > 1]
    assert twice == []
    missing = [name for name in matchdist.__all__ if not hasattr(matchdist, name)]
    assert missing == []


def _python(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports matchdist from this tree."""
    src = str(Path(matchdist.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_import_leaves_scipy_unloaded():
    done = _python("import sys, matchdist, matchdist.cli; print('scipy' in sys.modules)")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_dist_runs_without_scipy(tmp_path, monkeypatch):
    from matchdist.bottleneck import _saturates
    from matchdist.cli import main

    for seed in (1, 2):
        with redirect_stdout(io.StringIO()):
            assert main(["gen", "--vertices", "12", "--maximal", "20", "--dim", "1",
                         "--seed", str(seed), "--out", str(tmp_path / f"{seed}.txt")]) == 0
    args = ["dist", str(tmp_path / "1.txt"), str(tmp_path / "2.txt"),
            "--epsilon", "0.5", "--relative"]
    # every feasibility check of the run goes through the numpy matcher
    calls = []

    def counting(rows, t):
        calls.append(rows.shape)
        return _saturates(rows, t)

    monkeypatch.setattr("matchdist.bottleneck._saturates", counting)
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        assert main(args) == 0
    assert calls
    blocked = "import sys; sys.modules['scipy'] = None; from matchdist.cli import main; sys.exit(main(sys.argv[1:]))"
    done = _python(blocked, *args)
    assert done.returncode == 0, done.stderr
    assert done.stdout == out.getvalue()
