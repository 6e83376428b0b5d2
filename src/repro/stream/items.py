"""Stream items exchanged between operators.

Items are small immutable messages; bulk data travels as numpy arrays held
by reference (operators must not mutate received arrays).  The engine also
uses a private end-of-stream sentinel which never reaches user code.
:class:`CentroidMessage` is the cell task's partition summary
(:mod:`repro.core.cell`), re-exported here as the item the partial
operator emits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.cell import CentroidMessage
from repro.core.model import ClusterModel, as_points

__all__ = ["DataChunk", "CentroidMessage", "ModelMessage", "Watermark"]


@dataclass(frozen=True)
class DataChunk:
    """A memory-sized partition of one grid cell's points.

    Attributes:
        cell_id: identifier of the grid cell the chunk belongs to.
        partition: index of this partition within the cell.
        points: ``(m, d)`` float64 array of data points.
        n_partitions: total partitions of the cell, when known (lets the
            merge operator detect completeness per cell); 0 if unknown.
    """

    cell_id: str
    partition: int
    points: np.ndarray
    n_partitions: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", as_points(self.points))
        if self.partition < 0:
            raise ValueError(f"partition must be >= 0, got {self.partition}")

    @property
    def n_points(self) -> int:
        """Number of points in the chunk."""
        return self.points.shape[0]


@dataclass(frozen=True)
class ModelMessage:
    """Final cluster model of one grid cell (merge operator output)."""

    cell_id: str
    model: ClusterModel


@dataclass(frozen=True)
class Watermark:
    """Control message: all chunks of ``cell_id`` have been emitted.

    Sources emit a watermark after the last chunk of each cell so stateful
    consumers (the merge operator) can finalise a cell without waiting for
    the whole stream to end.  ``payload`` carries source-specific metadata
    such as the original point count.
    """

    cell_id: str
    n_partitions: int
    payload: dict[str, Any] = field(default_factory=dict)
