"""Neuron cultures on the sensor surface.

"Since typical neuron diameters are 10 um ... 100 um the chosen pitch of
7.8 um guarantees that each cell is monitored independent of its
individual position."  This module places cells on the 1 mm x 1 mm
array, maps each soma to the pixels beneath it, and quantifies that
coverage claim (the T2 in-text experiment).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..core.rng import RngLike, ensure_rng
from ..core.units import um
from .junction import CellChipJunction


@dataclass(frozen=True)
class PlacedNeuron:
    """A soma at a physical position on the chip surface."""

    index: int
    x: float  # m, chip coordinates
    y: float
    diameter: float
    junction: CellChipJunction

    @property
    def radius(self) -> float:
        return 0.5 * self.diameter


@dataclass
class ArrayGeometry:
    """Physical sensor grid (the paper: 128x128 at 7.8 um over 1 mm^2)."""

    rows: int = 128
    cols: int = 128
    pitch: float = 7.8 * um

    def __post_init__(self) -> None:
        if min(self.rows, self.cols) < 1 or self.pitch <= 0:
            raise ValueError("invalid array geometry")

    @property
    def width(self) -> float:
        return self.cols * self.pitch

    @property
    def height(self) -> float:
        return self.rows * self.pitch

    def pixel_center(self, row: int, col: int) -> tuple[float, float]:
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise IndexError(f"pixel ({row}, {col}) outside array")
        return ((col + 0.5) * self.pitch, (row + 0.5) * self.pitch)

    def pixels_under_disk(self, x: float, y: float, radius: float) -> list[tuple[int, int]]:
        """All pixels whose centre lies under a soma disk."""
        if radius <= 0:
            raise ValueError("radius must be positive")
        col_lo = max(0, int((x - radius) / self.pitch - 1))
        col_hi = min(self.cols - 1, int((x + radius) / self.pitch + 1))
        row_lo = max(0, int((y - radius) / self.pitch - 1))
        row_hi = min(self.rows - 1, int((y + radius) / self.pitch + 1))
        # The clamps keep every candidate on the array, so the centres
        # are pixel_center's expressions without its bounds check.
        pitch, radius_sq = self.pitch, radius**2
        covered = []
        for row in range(row_lo, row_hi + 1):
            dy_sq = ((row + 0.5) * pitch - y) ** 2
            for col in range(col_lo, col_hi + 1):
                if ((col + 0.5) * pitch - x) ** 2 + dy_sq <= radius_sq:
                    covered.append((row, col))
        return covered


NEURO_GEOMETRY = ArrayGeometry()


@dataclass
class Culture:
    """A set of placed neurons plus the array they sit on."""

    geometry: ArrayGeometry
    neurons: list[PlacedNeuron] = field(default_factory=list)

    @classmethod
    def random(
        cls,
        count: int,
        geometry: ArrayGeometry | None = None,
        diameter_range: tuple[float, float] = (10 * um, 100 * um),
        rng: RngLike = None,
        min_separation_factor: float = 0.8,
        max_attempts: int = 2000,
    ) -> "Culture":
        """Place ``count`` somata uniformly with soft overlap rejection."""
        if count < 0:
            raise ValueError("count must be non-negative")
        lo, hi = diameter_range
        if not 0 < lo <= hi:
            raise ValueError("invalid diameter range")
        geometry = geometry or NEURO_GEOMETRY
        generator = ensure_rng(rng)
        neurons: list[PlacedNeuron] = []
        attempts = 0
        while len(neurons) < count and attempts < max_attempts * max(count, 1):
            attempts += 1
            diameter = float(generator.uniform(lo, hi))
            x = float(generator.uniform(0.0, geometry.width))
            y = float(generator.uniform(0.0, geometry.height))
            too_close = False
            for other in neurons:
                min_gap = min_separation_factor * 0.5 * (diameter + other.diameter)
                if math.hypot(x - other.x, y - other.y) < min_gap:
                    too_close = True
                    break
            if too_close:
                continue
            junction = CellChipJunction(cell_diameter=diameter)
            neurons.append(
                PlacedNeuron(index=len(neurons), x=x, y=y, diameter=diameter, junction=junction)
            )
        if len(neurons) < count:
            raise RuntimeError(
                f"could not place {count} neurons (placed {len(neurons)}); lower the density"
            )
        return cls(geometry=geometry, neurons=neurons)

    # ------------------------------------------------------------------
    def pixels_for_neuron(self, neuron: PlacedNeuron) -> list[tuple[int, int]]:
        return self.geometry.pixels_under_disk(neuron.x, neuron.y, neuron.radius)

    def coverage_fraction(self) -> float:
        """Fraction of neurons with at least one pixel under the soma —
        the paper's 'each cell is monitored' claim."""
        if not self.neurons:
            raise ValueError("empty culture")
        covered = sum(1 for n in self.neurons if self.pixels_for_neuron(n))
        return covered / len(self.neurons)

    def pixels_per_neuron(self) -> np.ndarray:
        return np.asarray([len(self.pixels_for_neuron(n)) for n in self.neurons])

    def occupancy_image(self) -> np.ndarray:
        """Neuron-count per pixel (for report rendering)."""
        image = np.zeros((self.geometry.rows, self.geometry.cols), dtype=int)
        for neuron in self.neurons:
            for row, col in self.pixels_for_neuron(neuron):
                image[row, col] += 1
        return image


def coverage_vs_pitch(
    pitches: list[float],
    cell_count: int = 200,
    diameter_range: tuple[float, float] = (10 * um, 100 * um),
    rng: RngLike = None,
) -> list[tuple[float, float, float]]:
    """The T2 experiment: (pitch, coverage fraction, mean pixels/cell).

    The same physical cells are re-evaluated on grids of different
    pitch, so the comparison is paired.
    """
    generator = ensure_rng(rng)
    base = Culture.random(cell_count, ArrayGeometry(128, 128, 7.8 * um), diameter_range, generator)
    results = []
    for pitch in pitches:
        if pitch <= 0:
            raise ValueError("pitch must be positive")
        rows = max(1, int(round(base.geometry.height / pitch)))
        cols = max(1, int(round(base.geometry.width / pitch)))
        geometry = ArrayGeometry(rows, cols, pitch)
        culture = Culture(geometry=geometry, neurons=base.neurons)
        results.append(
            (pitch, culture.coverage_fraction(), float(np.mean(culture.pixels_per_neuron())))
        )
    return results
