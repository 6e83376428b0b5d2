"""Workload inputs, generated from the run seed.

The *shape* of each workload -- cell sizes, cell ids and each cell's
mixture -- is fixed by ``SHAPE_SEED``, so runs on different seeds do the
same amount of work.  The run seed draws the points, the query seed and
the serving request stream.  The same seed always gives the same inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.data.generator import random_cell_distribution
from repro.data.gridcell import GridCell, GridCellId
from repro.data.gridio import write_bucket_file
from repro.data.workloads import build_monthly_workload

SHAPE_SEED = 2004

#: Table 2's large cell: D=6, N=50k (k=40, R=10, p=10 in the query).
TABLE2_POINTS = 50_000

#: The skewed month: 128 cells, median ~1k points, ~181k points in all.
MONTH_CELLS = 128
MONTH_MEDIAN = 1_000
MONTH_SIGMA = 1.0
MONTH_MIN = 100

#: The month the serving journal is built from: 8 cells.
SERVE_CELLS = 8
SERVE_MEDIAN = 1_500


@dataclass(frozen=True)
class Cells:
    """Points per cell key, plus the structured ids bucket files need."""

    points: dict[str, np.ndarray]
    ids: dict[str, GridCellId]

    @property
    def total_points(self) -> int:
        return sum(p.shape[0] for p in self.points.values())

    def write_buckets(self, directory: Path) -> Path:
        """Write one ``.gbk`` bucket file per cell into ``directory``."""
        directory.mkdir(parents=True, exist_ok=True)
        for key in sorted(self.points):
            cell = GridCell(self.ids[key], self.points[key])
            write_bucket_file(directory / f"{key}.gbk", cell)
        return directory


def _draw(sizes: list[int], ids: list[GridCellId], seed: int) -> Cells:
    points, by_key = {}, {}
    for index, (cell_id, size) in enumerate(zip(ids, sizes)):
        mixture = random_cell_distribution(
            np.random.default_rng([SHAPE_SEED, index])
        )
        rng = np.random.default_rng([seed, index])
        points[cell_id.key] = mixture.sample(int(size), rng)
        by_key[cell_id.key] = cell_id
    return Cells(points=points, ids=by_key)


def _month_shape(n_cells: int, median: int) -> tuple[list[int], list[GridCellId]]:
    shape = build_monthly_workload(
        n_cells=n_cells,
        median_points=median,
        sigma=MONTH_SIGMA,
        min_points=MONTH_MIN,
        seed=SHAPE_SEED,
    )
    keys = sorted(shape.cells)
    return (
        [shape.cells[key].shape[0] for key in keys],
        [shape.cell_ids[key] for key in keys],
    )


def table2_cell(seed: int, n_points: int = TABLE2_POINTS) -> Cells:
    """One Table 2 cell of ``n_points`` six-dimensional points."""
    return _draw([n_points], [GridCellId(lat=0, lon=0)], seed)


def month(seed: int, n_cells: int = MONTH_CELLS, median: int = MONTH_MEDIAN) -> Cells:
    """A skewed month from ``build_monthly_workload``'s size distribution."""
    sizes, ids = _month_shape(n_cells, median)
    return _draw(sizes, ids, seed)


def serve_month(seed: int, n_cells: int = SERVE_CELLS) -> Cells:
    """The small month whose journal the serving registry warm-starts from."""
    return month(seed, n_cells=n_cells, median=SERVE_MEDIAN)
