"""`WaferSpec` — a frozen, registry-integrated wafer-scale experiment.

A wafer run is "every placed die runs the same array-scale measurement,
with process mismatch spatially correlated across the wafer".  The spec
is deliberately *flat*: geometry, the per-die measurement template and
the variance split are all top-level fields, so every one of them works
as a campaign axis (``repro sweep --grid reticle_sigma=0,0.2,0.4``)
without any nested-spec plumbing — :class:`~repro.campaigns.CampaignSpec`
validates axis names against the base spec's dataclass fields.

Variance split
--------------
``radial_gradient`` and ``reticle_sigma`` are *variance fractions* in
``[0, 1]`` (their sum at most 1).  The total per-pixel mismatch variance
is exactly the engine's default (:data:`repro.engine.params
.DEFAULT_SIGMA_OFFSET_V` / ``DEFAULT_SIGMA_CINT_REL``); the fractions
carve it into a deterministic radial bowl, a per-reticle offset, and the
remaining white i.i.d. component.  Both fractions zero means *white
only* — and the evaluation path then leaves each die's draws completely
untouched, which is what makes the bit-parity invariant against
standalone :class:`~repro.experiments.ArrayScaleSpec` runs structural
rather than numerical (see :mod:`repro.wafer.evaluate`).

Per-die overrides
-----------------
``die_overrides`` is a tuple of ``(grid_x, grid_y, field, value)``
entries adjusting *measurement* fields of individual dies (currents,
pattern, frame, calibration) — e.g. a process-control die measured with
a longer frame.  Mismatch geometry (``rows``/``cols``) is wafer-wide:
every die shares one mask set.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any

from ..core.specs import Facet
from ..experiments.specs import ArrayScaleSpec, ExperimentSpec, register_experiment
from .geometry import Die, WaferLayout, build_layout

__all__ = ["WaferSpec", "OVERRIDABLE_DIE_FIELDS"]

#: Die-template fields a ``die_overrides`` entry may adjust.  These are
#: measurement knobs only — geometry and mismatch mode stay wafer-wide
#: so the correlated field slices identically shaped planes everywhere.
OVERRIDABLE_DIE_FIELDS = (
    "i_low_a",
    "i_high_a",
    "pattern",
    "frame_s",
    "calibrate",
    "calibration_frame_s",
)


@lru_cache(maxsize=64)
def _layout_cached(
    wafer_diameter_mm: float,
    edge_exclusion_mm: float,
    die_width_mm: float,
    die_height_mm: float,
    reticle_rows: int,
    reticle_cols: int,
) -> WaferLayout:
    return build_layout(
        wafer_diameter_mm,
        edge_exclusion_mm,
        die_width_mm,
        die_height_mm,
        reticle_rows,
        reticle_cols,
    )


@register_experiment("wafer")
@dataclass(frozen=True)
class WaferSpec(ExperimentSpec):
    """One wafer of array-scale dies with correlated process variation.

    Defaults describe a 100 mm wafer of 10x10 mm dies carrying 16x16
    arrays — small enough for tests and examples; benchmarks scale
    ``rows``/``cols`` to 128x128 (million-pixel wafers).
    """

    # Wafer geometry
    wafer_diameter_mm: float = 100.0
    edge_exclusion_mm: float = 3.0
    die_width_mm: float = 10.0
    die_height_mm: float = 10.0
    reticle_rows: int = 2
    reticle_cols: int = 2
    # Per-die measurement template (ArrayScaleSpec facet)
    rows: int = 16
    cols: int = 16
    i_low_a: float = 1e-12
    i_high_a: float = 100e-9
    pattern: str = "logspan"
    frame_s: float = 0.1
    calibrate: bool = False
    calibration_frame_s: float = 0.05
    # Correlated-variance split (fractions of the total mismatch variance)
    radial_gradient: float = 0.0
    reticle_sigma: float = 0.0
    # Per-die measurement overrides: ((grid_x, grid_y, field, value), ...)
    die_overrides: tuple = ()
    backend: str = "vectorized"

    # The correlated-field facet: measurement knobs (currents, frames,
    # overrides) do not take part, so the same wafer re-measured
    # differently sees the same process variation.
    facets = {
        "field": Facet(
            "wafer_field",
            (
                "wafer_diameter_mm",
                "edge_exclusion_mm",
                "die_width_mm",
                "die_height_mm",
                "reticle_rows",
                "reticle_cols",
                "rows",
                "cols",
                "radial_gradient",
                "reticle_sigma",
            ),
        )
    }
    streams = {"field": ("wafer", "field")}

    def __post_init__(self) -> None:
        if not 0.0 <= self.radial_gradient <= 1.0:
            raise ValueError("radial_gradient must lie in [0, 1]")
        if not 0.0 <= self.reticle_sigma <= 1.0:
            raise ValueError("reticle_sigma must lie in [0, 1]")
        if self.radial_gradient + self.reticle_sigma > 1.0 + 1e-12:
            raise ValueError(
                "correlated variance fractions exceed the total: "
                f"radial_gradient + reticle_sigma = "
                f"{self.radial_gradient + self.reticle_sigma:.3f} > 1"
            )
        if self.backend != "vectorized":
            raise ValueError("wafer runs are vectorized-only; backend must be 'vectorized'")
        # Geometry errors surface at construction, not first run.
        layout = self.layout()
        # Normalise die_overrides (JSON round trips lists) and validate
        # each entry against the layout and the die template.
        entries = []
        for entry in self.die_overrides:
            entry = tuple(entry)
            if len(entry) != 4:
                raise ValueError(
                    f"die_overrides entries are (grid_x, grid_y, field, value); got {entry!r}"
                )
            gx, gy, field, value = entry
            gx, gy = int(gx), int(gy)
            if field not in OVERRIDABLE_DIE_FIELDS:
                raise ValueError(
                    f"die override field {field!r} not in {OVERRIDABLE_DIE_FIELDS}"
                )
            try:
                layout.die_at(gx, gy)
            except KeyError as exc:
                raise ValueError(str(exc)) from None
            entries.append((gx, gy, field, value))
        object.__setattr__(self, "die_overrides", tuple(entries))
        # Template (and every overridden die spec) must be constructible:
        # ArrayScaleSpec's own validation covers the field values.
        template = self.die_template()
        # Sorted so a bad override always fails on the same die — set
        # iteration order would make the first error message vary run to
        # run.
        for gx, gy in sorted({(gx, gy) for gx, gy, _, _ in self.die_overrides}):
            template.replace(**self.overrides_for(gx, gy))

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    def layout(self) -> WaferLayout:
        """The resolved die placement (cached per geometry)."""
        return _layout_cached(
            float(self.wafer_diameter_mm),
            float(self.edge_exclusion_mm),
            float(self.die_width_mm),
            float(self.die_height_mm),
            int(self.reticle_rows),
            int(self.reticle_cols),
        )

    @property
    def sites_per_die(self) -> int:
        return self.rows * self.cols

    @property
    def white_fraction(self) -> float:
        return 1.0 - self.radial_gradient - self.reticle_sigma

    @property
    def white_only(self) -> bool:
        """True when no correlated component is configured — the regime
        in which every die is bit-identical to its standalone run."""
        return self.radial_gradient == 0.0 and self.reticle_sigma == 0.0

    # ------------------------------------------------------------------
    # Die specs
    # ------------------------------------------------------------------
    def die_template(self) -> ArrayScaleSpec:
        """The per-die measurement as a standalone spec.  This is the
        exact spec a paired standalone run uses in the parity tests."""
        return ArrayScaleSpec(
            rows=self.rows,
            cols=self.cols,
            n_chips=1,
            i_low_a=self.i_low_a,
            i_high_a=self.i_high_a,
            pattern=self.pattern,
            frame_s=self.frame_s,
            calibrate=self.calibrate,
            calibration_frame_s=self.calibration_frame_s,
            backend="vectorized",
            mismatch="fast",
        )

    def overrides_for(self, grid_x: int, grid_y: int) -> dict[str, Any]:
        """The merged override mapping for one die (later entries win)."""
        merged: dict[str, Any] = {}
        for gx, gy, field, value in self.die_overrides:
            if gx == grid_x and gy == grid_y:
                merged[field] = value
        return merged

    def die_spec(self, die: Die) -> ArrayScaleSpec:
        """The standalone spec for one placed die, overrides applied."""
        overrides = self.overrides_for(die.grid_x, die.grid_y)
        template = self.die_template()
        return template.replace(**overrides) if overrides else template
