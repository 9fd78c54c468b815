"""Text formats for bi-filtrations, lower-star inputs, diagrams, traces.

Both input formats are UTF-8, whitespace separated, with '#' starting a
comment that runs to the end of the line.

bifiltration format::

    bifiltration
    <n_simplices>
    v0 v1 ... vd ; x1 y1 [x2 y2 ...]     # one line per simplex

lowerstar format::

    lowerstar
    <n_vertices> <n_simplices>
    <x_i> <y_i>                          # value of vertex i, i = 0..n-1
    v0 v1 ... vd                         # one line per simplex
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterable, TextIO

from .complexes import BiFiltration, lower_star, validate_bifiltration
from .persistence import Diagram, lexicographic
from .solver import TraceRow


def _content_lines(text: str) -> list[str]:
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    return lines


def _fmt(x: float) -> str:
    if float(x).is_integer():
        return str(int(x))
    return repr(float(x))


def parse_bifiltration(text: str) -> BiFiltration:
    lines = _content_lines(text)
    if not lines or lines[0] != "bifiltration":
        raise ValueError("expected 'bifiltration' header")
    if len(lines) < 2:
        raise ValueError("missing simplex count")
    n = int(lines[1])
    body = lines[2:]
    if len(body) != n:
        raise ValueError(f"expected {n} simplex lines, found {len(body)}")
    simplices = []
    critical = []
    for line in body:
        if ";" not in line:
            raise ValueError(f"missing ';' separator in line: {line!r}")
        left, right = line.split(";", 1)
        simplices.append([int(t) for t in left.split()])
        coords = [float(t) for t in right.split()]
        if not coords or len(coords) % 2 != 0:
            raise ValueError(f"expected (x, y) pairs after ';' in line: {line!r}")
        critical.append([(coords[i], coords[i + 1]) for i in range(0, len(coords), 2)])
    return validate_bifiltration(simplices, critical)


def parse_lowerstar(text: str) -> BiFiltration:
    lines = _content_lines(text)
    if not lines or lines[0] != "lowerstar":
        raise ValueError("expected 'lowerstar' header")
    if len(lines) < 2:
        raise ValueError("missing counts line")
    counts = lines[1].split()
    if len(counts) != 2:
        raise ValueError("expected '<n_vertices> <n_simplices>'")
    nv, ns = int(counts[0]), int(counts[1])
    body = lines[2:]
    if len(body) != nv + ns:
        raise ValueError(f"expected {nv} vertex lines and {ns} simplex lines")
    vertex_values = {}
    for i in range(nv):
        toks = body[i].split()
        if len(toks) != 2:
            raise ValueError(f"expected '<x> <y>' for vertex {i}")
        vertex_values[i] = (float(toks[0]), float(toks[1]))
    simplices = [[int(t) for t in body[nv + j].split()] for j in range(ns)]
    return lower_star(simplices, vertex_values)


def load_bifiltration(path: str | Path) -> BiFiltration:
    """Load either supported format, dispatching on the header token."""
    text = Path(path).read_text(encoding="utf-8")
    lines = _content_lines(text)
    if not lines:
        raise ValueError(f"{path}: empty input")
    if lines[0] == "bifiltration":
        return parse_bifiltration(text)
    if lines[0] == "lowerstar":
        return parse_lowerstar(text)
    raise ValueError(f"{path}: unknown header {lines[0]!r}")


def format_bifiltration(F: BiFiltration) -> str:
    out = ["bifiltration", str(F.n)]
    for s, crit in zip(F.simplices, F.critical):
        verts = " ".join(str(v) for v in s)
        coords = " ".join(f"{_fmt(x)} {_fmt(y)}" for x, y in crit)
        out.append(f"{verts} ; {coords}")
    return "\n".join(out) + "\n"


def write_bifiltration(path: str | Path, F: BiFiltration) -> None:
    Path(path).write_text(format_bifiltration(F), encoding="utf-8")


def format_diagram(D: Diagram, comment: str | None = None) -> str:
    out = [f"# dim={D.homology_dimension}"]
    if comment:
        out.append(f"# {comment}")
    out += [f"{b!r} {d!r}" for b, d in lexicographic(D.finite).tolist()]
    out += [f"{b!r} inf" for b in D.essential.tolist()]
    return "\n".join(out) + "\n"


def write_trace_csv(f: TextIO, rows: Iterable[TraceRow]) -> None:
    w = csv.writer(f)
    w.writerow(
        ["call", "elapsed_ms", "rho", "upper", "rel_error",
         "type", "lmin", "lmax", "mmin", "mmax", "level"]
    )
    for r in rows:
        b = r.box
        w.writerow(
            [r.call, repr(r.elapsed_ms), repr(r.rho), repr(r.upper), repr(r.rel_error),
             b.stype.value, repr(b.lam_min), repr(b.lam_max),
             repr(b.mu_min), repr(b.mu_max), b.level]
        )
