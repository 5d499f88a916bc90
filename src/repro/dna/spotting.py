"""Probe layout: which receptor species sits at which array position.

"Within predefined positions, single-stranded DNA receptor (probe)
molecules are immobilized on the surface of such chips" (Section 2).
The paper's chip is 16x8 = 128 positions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.rng import RngLike, ensure_rng
from .sequences import DnaSequence, Probe


@dataclass(frozen=True)
class SpotAssignment:
    """One array position's content."""

    row: int
    col: int
    probe: Probe | None  # None = bare (negative-control) spot
    probe_density: float  # immobilized molecules per m^2


class ProbeLayout:
    """Maps (row, col) -> probe for an R x C array.

    Parameters
    ----------
    rows, cols:
        Array dimensions (paper: 16 x 8).
    default_density:
        Immobilized probe surface density, molecules/m^2 (typ. 3e16,
        i.e. 3e12 /cm^2).
    """

    def __init__(self, rows: int = 16, cols: int = 8, default_density: float = 3.0e16) -> None:
        if rows < 1 or cols < 1:
            raise ValueError("array dimensions must be positive")
        if default_density <= 0:
            raise ValueError("probe density must be positive")
        self.rows = rows
        self.cols = cols
        self.default_density = default_density
        self._spots: dict[tuple[int, int], SpotAssignment] = {}

    # ------------------------------------------------------------------
    # Assignment
    # ------------------------------------------------------------------
    def _check_position(self, row: int, col: int) -> None:
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise IndexError(f"position ({row}, {col}) outside {self.rows}x{self.cols} array")

    def assign(self, row: int, col: int, probe: Probe | None, density: float | None = None) -> None:
        self._check_position(row, col)
        self._spots[(row, col)] = SpotAssignment(
            row=row, col=col, probe=probe,
            probe_density=self.default_density if density is None else density,
        )

    def spot(self, row: int, col: int) -> SpotAssignment:
        self._check_position(row, col)
        if (row, col) not in self._spots:
            return SpotAssignment(row=row, col=col, probe=None, probe_density=0.0)
        return self._spots[(row, col)]

    def assigned_positions(self) -> list[tuple[int, int]]:
        return sorted(self._spots)

    def all_positions(self) -> list[tuple[int, int]]:
        return [(r, c) for r in range(self.rows) for c in range(self.cols)]

    def probes(self) -> list[Probe]:
        """Unique probes in layout order."""
        seen: dict[Probe, None] = {}
        for pos in self.assigned_positions():
            probe = self._spots[pos].probe
            if probe is not None and probe not in seen:
                seen[probe] = None
        return list(seen)

    def replicate_count(self, probe: Probe) -> int:
        return sum(
            1 for spot in self._spots.values() if spot.probe == probe
        )

    # ------------------------------------------------------------------
    # Builders
    # ------------------------------------------------------------------
    @classmethod
    def tiled(
        cls,
        probes: list[Probe],
        rows: int = 16,
        cols: int = 8,
        replicates: int = 1,
        control_every: int = 0,
        default_density: float = 3.0e16,
    ) -> "ProbeLayout":
        """Fill the array row-major with each probe repeated
        ``replicates`` times; every ``control_every``-th spot is left bare
        as a negative control (0 disables)."""
        if replicates < 1:
            raise ValueError("replicates must be >= 1")
        layout = cls(rows, cols, default_density)
        expanded: list[Probe | None] = []
        for probe in probes:
            expanded.extend([probe] * replicates)
        positions = layout.all_positions()
        probe_iter = iter(expanded)
        for index, (row, col) in enumerate(positions):
            if control_every and (index + 1) % control_every == 0:
                layout.assign(row, col, None)
                continue
            try:
                probe = next(probe_iter)
            except StopIteration:
                break
            layout.assign(row, col, probe)
        return layout

    @classmethod
    def random_panel(
        cls,
        probe_count: int,
        probe_length: int = 20,
        rows: int = 16,
        cols: int = 8,
        rng: RngLike = None,
        **kwargs,
    ) -> "ProbeLayout":
        """Random probe panel, tiled — quick-start material."""
        generator = ensure_rng(rng)
        probes = [
            Probe(f"probe-{i:03d}", DnaSequence.random(probe_length, generator))
            for i in range(probe_count)
        ]
        return cls.tiled(probes, rows=rows, cols=cols, **kwargs)

    def occupancy_map(self, values: dict[tuple[int, int], float]) -> np.ndarray:
        """Arrange a per-position dict into an array image (NaN where
        missing) for report rendering."""
        image = np.full((self.rows, self.cols), np.nan)
        for (row, col), value in values.items():
            self._check_position(row, col)
            image[row, col] = value
        return image
