"""Struct-of-arrays pixel parameters for the vectorized backend.

One :class:`PixelArrayParams` holds every per-pixel quantity the
sawtooth-ADC kernels need, as ``(n_chips, rows, cols)`` ndarrays —
the array-scale replacement for a list of
:class:`~repro.pixel.pixel.DnaSensorPixel` objects.

Two draw modes:

* ``"paired"`` — replicates the object chip's RNG consumption exactly:
  one child stream per site, each site's three mismatch values drawn
  from its child (``pixel.pixel.draw_variations``, the object chip's
  own draw).  A :class:`~repro.chip.dna_chip.DnaMicroarrayChip` built from
  the same generator gets *bit-identical* pixel parameters — the
  foundation of the backend parity tests.
* ``"fast"`` — draws whole-array vectors straight from the generator
  (three draws total instead of three per site).  Statistically
  identical spread, different realisation; the default for
  array-scale Monte Carlo where no object twin exists.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..core.rng import RngLike, ensure_rng
from ..core.units import fF, ns
from ..pixel.pixel import (  # the sigmas are re-exported for repro.wafer
    DEFAULT_LEAKAGE_MEAN_A,
    DEFAULT_SIGMA_CINT_REL,
    DEFAULT_SIGMA_OFFSET_V,
    draw_variations,
)

DRAW_MODES = ("paired", "fast")


@dataclass
class PixelArrayParams:
    """Per-pixel sawtooth-ADC parameters over a ``(n_chips, rows, cols)`` grid.

    Scalars hold design values shared by every pixel; arrays hold the
    drawn per-instance deviations.
    """

    cint_f: np.ndarray  # actual integration capacitance per pixel
    cint_relative_error: np.ndarray
    comparator_offset_v: np.ndarray
    leakage_a: np.ndarray
    cint_nominal_f: float = 100 * fF
    swing_nominal_v: float = 1.0
    v_reset: float = 0.0
    tau_delay_s: float = 100 * ns
    comparator_delay_s: float = 50 * ns
    noise_rms_v: float = 0.002
    counter_bits: int = 24

    def __post_init__(self) -> None:
        arrays = {
            "cint_f": self.cint_f,
            "cint_relative_error": self.cint_relative_error,
            "comparator_offset_v": self.comparator_offset_v,
            "leakage_a": self.leakage_a,
        }
        shapes = {name: np.shape(a) for name, a in arrays.items()}
        if len(set(shapes.values())) != 1:
            raise ValueError(f"parameter arrays disagree on shape: {shapes}")
        shape = next(iter(shapes.values()))
        if len(shape) != 3:
            raise ValueError(f"parameter arrays must be (n_chips, rows, cols), got {shape}")
        for name, a in arrays.items():
            setattr(self, name, np.asarray(a, dtype=float))
        if np.any(self.cint_f <= 0):
            raise ValueError("capacitance must be positive")
        if np.any(self.leakage_a < 0):
            raise ValueError("leakage must be non-negative")
        if np.any(self.swing_v <= 0):
            raise ValueError("comparator threshold must sit above the reset level")

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int, int]:
        return self.cint_f.shape

    @property
    def n_chips(self) -> int:
        return self.shape[0]

    @property
    def rows(self) -> int:
        return self.shape[1]

    @property
    def cols(self) -> int:
        return self.shape[2]

    @property
    def sites(self) -> int:
        return self.rows * self.cols

    # ------------------------------------------------------------------
    # Derived per-pixel quantities
    # ------------------------------------------------------------------
    @property
    def effective_threshold_v(self) -> np.ndarray:
        """Rising trip level including per-pixel comparator offset."""
        return self.swing_nominal_v + self.comparator_offset_v

    @property
    def swing_v(self) -> np.ndarray:
        """Integration swing from reset level to effective threshold."""
        return self.effective_threshold_v - self.v_reset

    @property
    def cint_host_nominal_f(self) -> np.ndarray:
        """The nominal capacitance the host software assumes per pixel:
        ``actual / (1 + relative_error)`` — the exact expression
        :meth:`DnaSensorPixel.current_estimate` evaluates, kept so host
        estimates match the object model bit for bit."""
        return self.cint_f / (1.0 + self.cint_relative_error)

    @property
    def dead_time_s(self) -> float:
        return self.comparator_delay_s + self.tau_delay_s

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def draw(
        cls,
        rows: int,
        cols: int,
        rng: RngLike = None,
        mode: str = "fast",
        sigma_offset_v: float = DEFAULT_SIGMA_OFFSET_V,
        sigma_cint_rel: float = DEFAULT_SIGMA_CINT_REL,
        leakage_mean_a: float = DEFAULT_LEAKAGE_MEAN_A,
        **design: float,
    ) -> "PixelArrayParams":
        """Draw one chip's worth of pixel mismatch (``n_chips == 1``).

        ``design`` passes through scalar fields (``cint_nominal_f``,
        ``counter_bits``, ...).  See the module docstring for the two
        modes' RNG semantics.
        """
        if rows < 1 or cols < 1:
            raise ValueError("array dimensions must be positive")
        if mode not in DRAW_MODES:
            raise ValueError(f"unknown draw mode {mode!r}; choose from {DRAW_MODES}")
        generator = ensure_rng(rng)
        sites = rows * cols
        if mode == "paired":
            offsets, cint_rel, leakage = draw_variations(
                generator, sites, sigma_offset_v, sigma_cint_rel, leakage_mean_a
            ).T
        else:
            offsets = generator.normal(0.0, sigma_offset_v, size=sites)
            cint_rel = generator.normal(0.0, sigma_cint_rel, size=sites)
            leakage = np.abs(generator.normal(leakage_mean_a, 0.5 * leakage_mean_a, size=sites))
        shape = (1, rows, cols)
        cint_nominal = design.get("cint_nominal_f", 100 * fF)
        return cls(
            cint_f=(cint_nominal * (1.0 + cint_rel)).reshape(shape),
            cint_relative_error=cint_rel.reshape(shape),
            comparator_offset_v=offsets.reshape(shape),
            leakage_a=leakage.reshape(shape),
            **design,
        )

    @classmethod
    def stack(cls, chips: list["PixelArrayParams"]) -> "PixelArrayParams":
        """Concatenate per-chip draws along the batch axis."""
        if not chips:
            raise ValueError("need at least one chip to stack")
        first = chips[0]
        return replace(
            first,
            cint_f=np.concatenate([c.cint_f for c in chips], axis=0),
            cint_relative_error=np.concatenate([c.cint_relative_error for c in chips], axis=0),
            comparator_offset_v=np.concatenate([c.comparator_offset_v for c in chips], axis=0),
            leakage_a=np.concatenate([c.leakage_a for c in chips], axis=0),
        )

    def kernel_kwargs(self) -> dict:
        """The keyword bundle the counting kernels take."""
        return {
            "cint_f": self.cint_f,
            "swing_v": self.swing_v,
            "leakage_a": self.leakage_a,
            "comparator_delay_s": self.comparator_delay_s,
            "tau_delay_s": self.tau_delay_s,
            "noise_rms_v": self.noise_rms_v,
        }
