import csv
import hashlib
import io as stdio
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from matchdist.cli import main


def run_cli(args):
    out, err = stdio.StringIO(), stdio.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(args)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def dataset(tmp_path):
    for name, seed in (("a.txt", 1), ("b.txt", 2)):
        code, _, _ = run_cli([
            "gen", "--vertices", "7", "--maximal", "8", "--dim", "1",
            "--seed", str(seed), "--out", str(tmp_path / name),
        ])
        assert code == 0
    return tmp_path


def test_gen_deterministic(dataset, tmp_path):
    run_cli(["gen", "--vertices", "7", "--maximal", "8", "--dim", "1",
             "--seed", "1", "--out", str(tmp_path / "again.txt")])
    assert (tmp_path / "again.txt").read_bytes() == (dataset / "a.txt").read_bytes()


def test_dist_identical_inputs(dataset):
    a = str(dataset / "a.txt")
    code, out, _ = run_cli(["dist", a, a, "--epsilon", "1000"])
    assert code == 0
    report = dict(line.split() for line in out.splitlines())
    assert report["delta"] == "0.0"
    assert report["converged"] == "yes"


def test_dist_relative_zero_distance_exit_code(dataset):
    a = str(dataset / "a.txt")
    code, out, _ = run_cli(["dist", a, a, "--epsilon", "0.5", "--relative"])
    assert code == 2
    report = dict(line.split() for line in out.splitlines())
    assert report["converged"] == "no"
    assert report["rho"] == "0.0"


def test_dist_stdout_deterministic_and_wall_time_on_stderr(dataset):
    args = ["dist", str(dataset / "a.txt"), str(dataset / "b.txt"),
            "--epsilon", "0.5", "--relative"]
    code1, out1, err1 = run_cli(args)
    code2, out2, err2 = run_cli(args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "wall_ms" in err1 and "wall_ms" not in out1


def test_dist_trace_roundtrip(dataset, tmp_path):
    trace = tmp_path / "trace.csv"
    code, out, _ = run_cli([
        "dist", str(dataset / "a.txt"), str(dataset / "b.txt"),
        "--epsilon", "0.5", "--relative", "--trace", str(trace),
    ])
    assert code == 0
    report = dict(line.split() for line in out.splitlines())
    rows = trace.read_text().splitlines()
    assert rows[0].startswith("call,elapsed_ms,rho,upper,rel_error,type,")
    assert len(rows) - 1 == int(report["calls"])
    last = rows[-1].split(",")
    assert last[0] == report["calls"]
    assert last[2] == report["rho"]


def test_dist_dump_diagrams(dataset, tmp_path):
    dd = tmp_path / "dd"
    code, _, _ = run_cli([
        "dist", str(dataset / "a.txt"), str(dataset / "b.txt"),
        "--epsilon", "0.5", "--relative", "--dump-diagrams", str(dd),
    ])
    assert code == 0
    for name in ("f1_diagram.txt", "f2_diagram.txt"):
        lines = (dd / name).read_text().splitlines()
        assert lines[0] == "# dim=0"
        assert lines[1].startswith("# slice type=")


def test_dist_dump_diagrams_at_best_slice_without_trace(tmp_path):
    from matchdist.complexes import normalize_pair
    from matchdist.io import load_bifiltration
    from matchdist.solver import SolverConfig, approximate, eval_slice

    # on this pair rho is attained below level 0, away from the four
    # level-0 centers
    paths = []
    for seed in (4, 5):
        p = tmp_path / f"s{seed}.txt"
        run_cli(["gen", "--vertices", "7", "--maximal", "8", "--dim", "1",
                 "--seed", str(seed), "--out", str(p)])
        paths.append(str(p))
    dd = tmp_path / "dd"
    code, out, _ = run_cli(["dist", *paths, "--epsilon", "0.5", "--relative",
                            "--dump-diagrams", str(dd)])
    assert code == 0
    F1, F2, shift = normalize_pair(*(load_bifiltration(p) for p in paths))
    res = approximate(F1, F2, SolverConfig(epsilon=0.5, mode="relative"))
    L = res.best_slice
    assert eval_slice(F1, F2, L) == res.rho
    assert dict(line.split() for line in out.splitlines())["rho"] == repr(res.rho)
    comment = (f"# slice type={L.stype.value} lam={L.lam!r} mu={L.mu!r} "
               f"shift={shift[0]!r},{shift[1]!r}")
    for name in ("f1_diagram.txt", "f2_diagram.txt"):
        assert (dd / name).read_text().splitlines()[1] == comment


def test_dist_infinite_distance_reports_exact_bracket(tmp_path):
    # one component against two: the dim-0 distance is infinite
    a, b = tmp_path / "one.txt", tmp_path / "two.txt"
    a.write_text("bifiltration\n1\n0 ; 0 0\n")
    b.write_text("bifiltration\n2\n0 ; 0 0\n1 ; 1 1\n")
    trace = tmp_path / "trace.csv"
    code, out, _ = run_cli(["dist", str(a), str(b), "--epsilon", "0.1",
                            "--trace", str(trace)])
    assert code == 0
    report = dict(line.split() for line in out.splitlines())
    assert report["rho"] == report["residual_upper"] == "inf"
    assert report["rel_error"] == "0.0"
    assert report["reduction_rate"] == "0.0"
    assert "nan" not in trace.read_text()


@pytest.mark.parametrize("text", ["bifiltration\n1\n0 ; 1 1\n", "bifiltration\n0\n"])
def test_dist_relative_exact_zero_bracket_has_zero_error(tmp_path, text):
    # a single vertex, or nothing, against itself: every bound is 0
    a = tmp_path / "a.txt"
    a.write_text(text)
    code, out, _ = run_cli(["dist", str(a), str(a), "--epsilon", "0.1", "--relative"])
    assert code == 0
    report = dict(line.split() for line in out.splitlines())
    assert report["rho"] == report["residual_upper"] == "0.0"
    assert report["rel_error"] == "0.0"
    assert report["converged"] == "yes"


def test_dist_usage_error_exit_one(dataset):
    code, _, err = run_cli(["dist", str(dataset / "a.txt")])
    assert code == 1
    code, _, err = run_cli(["dist", "missing_a", "missing_b", "--epsilon", "0.1"])
    assert code == 1
    # budget without priority traversal is a config error
    code, _, err = run_cli(["dist", str(dataset / "a.txt"), str(dataset / "b.txt"),
                            "--epsilon", "0.1", "--budget-ms", "5"])
    assert code == 1
    # so are an infinite epsilon and a nan budget
    for word, extra in (("epsilon", ["--epsilon", "inf", "--relative"]),
                        ("budget", ["--epsilon", "0.1", "--traversal", "priority",
                                    "--budget-ms", "nan"])):
        code, out, err = run_cli(["dist", str(dataset / "a.txt"), str(dataset / "b.txt")] + extra)
        assert code == 1 and out == "" and word in err


@pytest.mark.parametrize("text, message", [
    ("", "{path}: empty input"),
    ("# only a comment\n", "{path}: empty input"),
    ("simplices\n1\n0 ; 0 0\n", "{path}: unknown header 'simplices'"),
    ("bifiltration\n", "missing simplex count"),
    ("bifiltration\n1\n; 0 0\n", "simplex has no vertices"),
    ("bifiltration\n1\n-1 ; 0 0\n", "negative vertex id in simplex (-1,)"),
    ("bifiltration\n2\n0 ; 0 0\n0 0 ; 0 0\n", "duplicate vertex in simplex (0, 0)"),
    ("lowerstar\n", "missing counts line"),
    ("lowerstar\n1\n0 0\n0\n", "expected '<n_vertices> <n_simplices>'"),
    ("lowerstar\n1 1\n0 0\n", "expected 1 vertex lines and 1 simplex lines"),
    ("lowerstar\n1 1\n0\n0\n", "expected '<x> <y>' for vertex 0"),
])
def test_dist_exits_one_on_a_malformed_input_file(tmp_path, text, message):
    bad, good = tmp_path / "bad.txt", tmp_path / "good.txt"
    bad.write_text(text)
    good.write_text("bifiltration\n1\n0 ; 0 0\n")
    code, out, err = run_cli(["dist", str(bad), str(good), "--epsilon", "0.1"])
    assert code == 1 and out == ""
    assert err == f"matchdist: error: {message.format(path=bad)}\n"


def test_dist_exits_one_when_the_common_shift_overflows_to_an_infinity(tmp_path):
    big = tmp_path / "big.txt"
    big.write_text("bifiltration\n3\n0 ; -1e308 0\n1 ; 1e308 0\n0 1 ; 1e308 0\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(["dist", str(big), str(big), "--epsilon", "0.1"])
    assert code == 1 and out == ""
    assert err == "matchdist: error: simplex (1,) has critical value (inf, 0.0)\n"


def test_heatmap_depth_zero_equals_initial_evals(dataset, tmp_path):
    from matchdist.complexes import normalize_pair
    from matchdist.io import load_bifiltration
    from matchdist.slices import center, initial_boxes
    from matchdist.solver import eval_slice

    out = tmp_path / "hm"
    code, _, _ = run_cli(["heatmap", str(dataset / "a.txt"), str(dataset / "b.txt"),
                          "--depth", "0", "--out", str(out)])
    assert code == 0
    F1, F2, shift = normalize_pair(load_bifiltration(dataset / "a.txt"),
                                   load_bifiltration(dataset / "b.txt"))
    note = f"shift={shift[0]!r},{shift[1]!r}"
    for box in initial_boxes(F1, F2):
        text = (out / f"heatmap_{box.stype.value}.csv").read_text().splitlines()
        assert text[0] == f"# type={box.stype.value} depth=0 {note}"
        assert float(text[1]) == eval_slice(F1, F2, center(box), 0)
    comp = (out / "heatmap_composite.csv").read_text().splitlines()
    assert comp[0] == f"# type=composite depth=0 {note}"
    assert len(comp[-1].split(",")) == 2


def test_shift_is_recorded_in_dumps_and_heatmap_headers(tmp_path):
    # a negative coordinate on each axis moves both inputs by (2.5, 1.0)
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    a.write_text("bifiltration\n3\n0 ; -2.5 1\n1 ; 1 0\n0 1 ; 1 1\n")
    b.write_text("bifiltration\n3\n0 ; 0 0\n1 ; 2 -1\n0 1 ; 2 0\n")

    def shift_of(header: str) -> tuple[float, float]:
        [token] = [t for t in header.split() if t.startswith("shift=")]
        vx, vy = token.removeprefix("shift=").split(",")
        return float(vx), float(vy)

    dd = tmp_path / "dd"
    code, _, err = run_cli(["dist", str(a), str(b), "--epsilon", "0.5",
                            "--dump-diagrams", str(dd)])
    assert code == 0
    assert "shifted by (2.5, 1.0)" in err
    for name in ("f1_diagram.txt", "f2_diagram.txt"):
        assert shift_of((dd / name).read_text().splitlines()[1]) == (2.5, 1.0)
    hm = tmp_path / "hm"
    code, _, _ = run_cli(["heatmap", str(a), str(b), "--depth", "1", "--out", str(hm)])
    assert code == 0
    for p in sorted(hm.glob("*.csv")):
        assert shift_of(p.read_text().splitlines()[0]) == (2.5, 1.0)


def test_heatmap_identical_inputs_all_zero(dataset, tmp_path):
    out = tmp_path / "hmz"
    code, _, _ = run_cli(["heatmap", str(dataset / "a.txt"), str(dataset / "a.txt"),
                          "--depth", "1", "--out", str(out)])
    assert code == 0
    for line in (out / "heatmap_composite.csv").read_text().splitlines():
        if line.startswith("#"):
            continue
        assert all(float(v) == 0.0 for v in line.split(","))


def test_heatmap_depth_too_large(dataset, tmp_path):
    code, _, err = run_cli(["heatmap", str(dataset / "a.txt"), str(dataset / "b.txt"),
                            "--depth", "11", "--out", str(tmp_path / "x")])
    assert code == 1
    assert "depth" in err


def test_heatmap_negative_dimension_fails_like_dist(dataset, tmp_path):
    a, b = str(dataset / "a.txt"), str(dataset / "b.txt")
    out = tmp_path / "neg"
    code, _, err = run_cli(["heatmap", a, b, "--depth", "1", "--dim", "-1", "--out", str(out)])
    dist_code, _, dist_err = run_cli(["dist", a, b, "--epsilon", "0.5", "--dim", "-1"])
    assert code == dist_code == 1
    assert "homology dimension must be non-negative" in err
    assert err == dist_err
    assert not out.exists()


def test_heatmap_deterministic(dataset, tmp_path):
    args = lambda d: ["heatmap", str(dataset / "a.txt"), str(dataset / "b.txt"),
                      "--depth", "2", "--out", str(tmp_path / d)]
    run_cli(args("h1"))
    run_cli(args("h2"))
    for f in sorted((tmp_path / "h1").iterdir()):
        assert f.read_bytes() == (tmp_path / "h2" / f.name).read_bytes()


def test_dist_dim1_dump_diagrams_match_boundary_oracle(tmp_path):
    from conftest import persistence_boundary_oracle
    from matchdist.complexes import normalize_pair
    from matchdist.generators import GenSpec, generate_random
    from matchdist.io import format_diagram, load_bifiltration
    from matchdist.slices import Slice, SliceType, restrict

    # one 2-complex with two lower-star vertex assignments
    K = generate_random(GenSpec(9, 14, 2, seed=3))
    rng = np.random.Generator(np.random.Philox(9))
    paths = []
    for name in ("a.txt", "b.txt"):
        values = rng.integers(0, 50, size=(K.vertex_count, 2))
        lines = ["lowerstar", f"{K.vertex_count} {K.n}"]
        lines += [f"{x} {y}" for x, y in values]
        lines += [" ".join(str(K.vertex_ids.index(v)) for v in s) for s in K.simplices]
        (tmp_path / name).write_text("\n".join(lines) + "\n")
        paths.append(str(tmp_path / name))
    dd = tmp_path / "dd"
    code, _, _ = run_cli(["dist", *paths, "--dim", "1", "--epsilon", "0.5", "--relative",
                          "--dump-diagrams", str(dd)])
    assert code == 0
    F1, F2 = normalize_pair(*(load_bifiltration(p) for p in paths))[:2]
    points = 0
    for name, F in (("f1_diagram.txt", F1), ("f2_diagram.txt", F2)):
        text = (dd / name).read_text()
        comment = text.splitlines()[1]
        fields = dict(f.split("=") for f in comment[2:].split()[1:])
        L = Slice(float(fields["lam"]), float(fields["mu"]), SliceType(fields["type"]))
        D = persistence_boundary_oracle(restrict(F, L), 1)
        assert text == format_diagram(D, comment[2:])
        points += len(D)
    assert points > 0


# stdout of `dist` on the CI's two input pairs, recorded once, with its
# exit code and the SHA-256 of the --trace CSV without its elapsed_ms
# column (rows joined by newlines); a change meant to keep every output
# must keep these bytes
_GEN_FLAGS = ["--epsilon", "0.5", "--relative"]
GOLDEN_DIST = {
    "gen-l": (
        [*_GEN_FLAGS, "--bound", "l"], 0,
        "delta 495.0\nrho 330.0\nresidual_upper 495.0\nrel_error 0.5\ncalls 19\n"
        "deepest_level 3\ndeepest_evaluated_level 2\nreduction_rate 0.703125\nconverged yes\n",
        "13af3261ebadb7d327091fe885b2920410de607db8917b56e08c83f5721036b9",
    ),
    "gen-c": (
        [*_GEN_FLAGS, "--bound", "c"], 0,
        "delta 495.0\nrho 330.0\nresidual_upper 495.0\nrel_error 0.5\ncalls 192\n"
        "deepest_level 3\ndeepest_evaluated_level 3\nreduction_rate 0.25\nconverged yes\n",
        "6173b9dd108acb90a19d270667d3001f5343c36bb2d7eac06e60769cd394933b",
    ),
    "gen-g": (
        [*_GEN_FLAGS, "--bound", "g"], 0,
        "delta 495.0\nrho 330.0\nresidual_upper 495.0\nrel_error 0.5\ncalls 340\n"
        "deepest_level 3\ndeepest_evaluated_level 3\nreduction_rate -0.328125\nconverged yes\n",
        "a6459a8e6b2e7e9c1c9658fa7813f8d4eebea3a0352fc75735ff2ac6d3763a47",
    ),
    # the four level-0 evaluations, then the budget stops the run
    "gen-budget0": (
        [*_GEN_FLAGS, "--traversal", "priority", "--budget-ms", "0"], 2,
        "delta 992.5\nrho 330.0\nresidual_upper 992.5\nrel_error 2.007575757575758\n"
        "calls 4\ndeepest_level 0\ndeepest_evaluated_level 0\nreduction_rate 0.0\n"
        "converged no\n",
        "817bec20db7b1b45030ab1b62ffd6bbeb8ce71bf64adc5d26a5ee04a8e95674e",
    ),
    "lowerstar": (
        ["--dim", "1", "--epsilon", "0.3", "--relative", "--traversal", "priority"], 0,
        "delta 1.2999999999999998\nrho 1.0\nresidual_upper 1.2999999999999998\n"
        "rel_error 0.2999999999999998\ncalls 564\ndeepest_level 6\n"
        "deepest_evaluated_level 5\nreduction_rate 0.8623046875\nconverged yes\n",
        "e32151c3bd1018faa76c0cad820ad31964f4e696c24c771eb08a6d4a4bf8352e",
    ),
}


def _lowerstar_triangle_square(path, values):
    # a filled triangle and a hollow square on vertices 0-5
    cells = ["0", "1", "2", "3", "4", "5", "0 1", "0 2", "1 2", "2 3", "3 4", "4 5",
             "2 5", "0 1 2"]
    path.write_text("\n".join(["lowerstar", "6 14", *values, *cells]) + "\n")
    return str(path)


@pytest.mark.parametrize("case", sorted(GOLDEN_DIST))
def test_dist_stdout_matches_recorded_output(tmp_path, case):
    if case == "lowerstar":
        paths = [
            _lowerstar_triangle_square(tmp_path / "a.txt", ["0 0", "3 1", "1 4", "5 2", "2 6", "6 5"]),
            _lowerstar_triangle_square(tmp_path / "b.txt", ["1 0", "2 2", "0 3", "4 4", "3 5", "5 6"]),
        ]
    else:
        paths = []
        for seed in (1, 2):
            p = tmp_path / f"s{seed}.txt"
            run_cli(["gen", "--vertices", "12", "--maximal", "20", "--dim", "1",
                     "--seed", str(seed), "--out", str(p)])
            paths.append(str(p))
    flags, exit_code, stdout, trace_sha = GOLDEN_DIST[case]
    trace = tmp_path / "trace.csv"
    code, out, _ = run_cli(["dist", *paths, *flags, "--trace", str(trace)])
    assert code == exit_code
    assert out == stdout
    with open(trace, newline="", encoding="utf-8") as f:
        rows = [row[:1] + row[2:] for row in csv.reader(f)]
    assert rows[0][:2] == ["call", "rho"]
    assert len(rows) - 1 == int(dict(line.split() for line in out.splitlines())["calls"])
    text = "\n".join(",".join(row) for row in rows)
    assert hashlib.sha256(text.encode()).hexdigest() == trace_sha
