"""Grids of bottleneck distances over slice-parameter space.

At depth k each of the four initial boxes is refined into a uniform
2**k x 2**k grid (the level-k quad-tree cells) and the bottleneck distance
of the weighted restrictions is evaluated at every cell center.

The four per-type grids glue into one composite picture along the lines
they share: slices through the origin (mu = 0) join the x- and y-families,
slices of slope one (lam = 1) join the flat and steep families. Composite
columns sweep the origin from (X, 0) through (0, 0) to (0, Y); composite
rows sweep the slope from 0 through 1 to infinity, so the slope-one
through-origin slice sits at the center.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .complexes import BiFiltration
from .errors import DepthTooLarge
from .slices import SLICE_TYPES, SliceType, center, initial_boxes, subdivide
from .solver import eval_slice

MAX_DEPTH = 10


@dataclass
class HeatmapGrid:
    """Per-type distance grids plus the glued composite."""

    depth: int
    grids: dict[SliceType, np.ndarray]  # shape (2**k, 2**k), [mu_bucket, lam_bucket]

    def composite(self) -> np.ndarray:
        """Glued 2**(k+1) x 2**(k+1) layout.

        Rows: flat types with ascending lam, then steep types with
        descending lam (seam at slope 1). Columns: x types with descending
        mu, then y types with ascending mu (seam at the origin).
        """
        n = 2**self.depth
        out = np.empty((2 * n, 2 * n))
        fx = self.grids[SliceType.FLAT_X]
        fy = self.grids[SliceType.FLAT_Y]
        sx = self.grids[SliceType.STEEP_X]
        sy = self.grids[SliceType.STEEP_Y]
        # grids are [mu][lam]; composite is [slope row][origin column]
        out[:n, :n] = fx.T[:, ::-1]
        out[:n, n:] = fy.T
        out[n:, :n] = sx.T[::-1, ::-1]
        out[n:, n:] = sy.T[::-1, :]
        return out


def compute_heatmap(
    F1: BiFiltration, F2: BiFiltration, depth: int, dim: int = 0
) -> HeatmapGrid:
    try:
        depth = operator.index(depth)
    except TypeError:
        raise ValueError("depth must be a non-negative integer") from None
    if depth < 0:
        raise ValueError("depth must be a non-negative integer")
    if depth > MAX_DEPTH:
        raise DepthTooLarge(f"depth {depth} exceeds maximum {MAX_DEPTH}")
    n = 2**depth
    grids: dict[SliceType, np.ndarray] = {}
    for box in initial_boxes(F1, F2):
        cells = [box]
        for _ in range(depth):
            cells = [child for cell in cells for child in subdivide(cell)]
        # a mu range collapses when X or Y is 0, a lam range never: sort
        # lam-major, so tied mu bounds keep their lam bucket, then transpose
        cells.sort(key=lambda cell: (cell.lam_min, cell.mu_min))
        values = [eval_slice(F1, F2, center(cell), dim) for cell in cells]
        grids[box.stype] = np.array(values).reshape(n, n).T
    return HeatmapGrid(depth, grids)


def _format_grid(grid: np.ndarray, header: str) -> str:
    lines = [header]
    for row in grid:
        lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def write_heatmap_csvs(
    hm: HeatmapGrid, out_dir: str | Path, comment: str | None = None
) -> list[Path]:
    """One CSV per slice type plus the glued composite; returns the paths.
    A comment is appended to each file's first header line."""
    note = f" {comment}" if comment else ""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for t in SLICE_TYPES:
        p = out / f"heatmap_{t.value}.csv"
        p.write_text(
            _format_grid(hm.grids[t], f"# type={t.value} depth={hm.depth}{note}"),
            encoding="utf-8",
        )
        paths.append(p)
    comp = out / "heatmap_composite.csv"
    header = (
        f"# type=composite depth={hm.depth}{note}\n"
        "# rows: slope 0 -> 1 (flat) then 1 -> inf (steep); "
        "columns: origin (X,0) -> (0,0) -> (0,Y)"
    )
    comp.write_text(_format_grid(hm.composite(), header), encoding="utf-8")
    paths.append(comp)
    return paths
