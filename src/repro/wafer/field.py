"""The correlated process-variation field, sampled once per wafer.

Process mismatch on real wafers is not i.i.d. per pixel: parameters
drift radially (thermal/spin gradients) and jump per reticle (exposure
dose/focus), with only the residue white.  This module decomposes the
engine's default mismatch variance into exactly those three components:

``sigma_total^2 = radial_gradient * sigma^2  (deterministic radial bowl)
                + reticle_sigma   * sigma^2  (per-exposure offset)
                + white_fraction  * sigma^2  (i.i.d. per pixel)``

applied independently to the comparator offset (sigma =
:data:`~repro.engine.params.DEFAULT_SIGMA_OFFSET_V`) and the relative
capacitance error (:data:`~repro.engine.params.DEFAULT_SIGMA_CINT_REL`).
Leakage is left white: dead pixels are point defects, not gradients.

The radial profile is ``(r / usable_radius)^2`` *standardised to zero
mean and unit variance over every placed die's pixels* — so the radial
component's empirical (population) variance over the wafer equals its
configured share exactly, not just in expectation.  Its overall sign is
a per-wafer coin flip (bowls can run either way run to run).  Reticle
offsets are one standard normal per reticle position.

Draw order from the wafer field stream is frozen (it defines the bytes
of every correlated field ever sampled):

1. radial sign for the comparator offset  (``rng.random()``)
2. radial sign for the capacitance error  (``rng.random()``)
3. reticle offset matrix for the comparator offset (``rng.normal``)
4. reticle offset matrix for the capacitance error (``rng.normal``)

All four draws happen regardless of the configured split, so the field
realisation for a given seed does not shift when fractions change.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.rng import RngLike, ensure_rng
from ..engine.params import DEFAULT_SIGMA_CINT_REL, DEFAULT_SIGMA_OFFSET_V
from .geometry import Die, WaferLayout
from .spec import WaferSpec

__all__ = ["WaferField", "sample_field"]


@dataclass(frozen=True)
class WaferField:
    """One wafer's correlated mismatch field, sliceable per die."""

    layout: WaferLayout
    rows: int
    cols: int
    #: sqrt of the white variance fraction; per-die white draws are
    #: scaled by this before the correlated planes are added.
    white_scale: float
    #: signed radial amplitudes (already include sigma * sqrt(fraction))
    radial_amp_offset_v: float
    radial_amp_cint_rel: float
    #: per-reticle offsets, (n_reticle_y, n_reticle_x), already scaled
    reticle_offset_v: np.ndarray
    reticle_cint_rel: np.ndarray
    #: standardisation constants of the raw radial profile (r/R)^2 over
    #: every placed die's pixels
    profile_mean: float
    profile_std: float

    @property
    def white_only(self) -> bool:
        """True when both correlated amplitudes vanish — the evaluation
        path then skips the transform entirely (bit-parity regime)."""
        return (
            self.radial_amp_offset_v == 0.0
            and self.radial_amp_cint_rel == 0.0
            and not self.reticle_offset_v.any()
            and not self.reticle_cint_rel.any()
        )

    def radial_profile(self, die: Die) -> np.ndarray:
        """The standardised radial profile over one die's pixels,
        ``(rows, cols)``, zero mean / unit variance wafer-wide."""
        x, y = self.layout.pixel_positions(die, self.rows, self.cols)
        usable = self.layout.usable_radius_mm
        raw = (x * x + y * y) / (usable * usable)
        return (raw - self.profile_mean) / self.profile_std

    def die_planes(self, die: Die) -> tuple[np.ndarray, np.ndarray]:
        """The correlated additive planes for one die: ``(offset_v,
        cint_rel)`` each ``(rows, cols)`` — radial bowl plus that die's
        reticle offset."""
        profile = self.radial_profile(die)
        offset = (
            self.radial_amp_offset_v * profile
            + self.reticle_offset_v[die.reticle_y, die.reticle_x]
        )
        cint = (
            self.radial_amp_cint_rel * profile
            + self.reticle_cint_rel[die.reticle_y, die.reticle_x]
        )
        return offset, cint


def _profile_moments(layout: WaferLayout, rows: int, cols: int) -> tuple[float, float]:
    """Population mean/std of the raw radial profile ``(r/R)^2`` over
    every placed die's pixels, accumulated die by die (never the whole
    wafer's pixels at once)."""
    usable = layout.usable_radius_mm
    total = 0
    acc = 0.0
    acc_sq = 0.0
    for die in layout.dies:
        x, y = layout.pixel_positions(die, rows, cols)
        raw = (x * x + y * y) / (usable * usable)
        total += raw.size
        acc += float(raw.sum())
        acc_sq += float(np.square(raw).sum())
    mean = acc / total
    var = max(0.0, acc_sq / total - mean * mean)
    std = float(np.sqrt(var))
    return mean, (std if std > 0.0 else 1.0)


def sample_field(spec: WaferSpec, rng: RngLike = None) -> WaferField:
    """Draw one wafer's correlated field from the wafer field stream.

    The stream is the spec's ``"field"`` stream, keyed by its field
    facet — one draw per wafer, shared by every die, which is what makes
    neighbouring dies correlated rather than independent.
    """
    generator = ensure_rng(rng)
    layout = spec.layout()
    n_ry, n_rx = layout.n_reticle_y, layout.n_reticle_x
    # Frozen draw order — see the module docstring.
    sign_offset = 1.0 if generator.random() < 0.5 else -1.0
    sign_cint = 1.0 if generator.random() < 0.5 else -1.0
    reticle_offset_raw = generator.normal(0.0, 1.0, size=(n_ry, n_rx))
    reticle_cint_raw = generator.normal(0.0, 1.0, size=(n_ry, n_rx))

    mean, std = _profile_moments(layout, spec.rows, spec.cols)
    radial_scale = float(np.sqrt(spec.radial_gradient))
    reticle_scale = float(np.sqrt(spec.reticle_sigma))
    return WaferField(
        layout=layout,
        rows=spec.rows,
        cols=spec.cols,
        white_scale=float(np.sqrt(max(0.0, spec.white_fraction))),
        radial_amp_offset_v=sign_offset * DEFAULT_SIGMA_OFFSET_V * radial_scale,
        radial_amp_cint_rel=sign_cint * DEFAULT_SIGMA_CINT_REL * radial_scale,
        reticle_offset_v=reticle_offset_raw * DEFAULT_SIGMA_OFFSET_V * reticle_scale,
        reticle_cint_rel=reticle_cint_raw * DEFAULT_SIGMA_CINT_REL * reticle_scale,
        profile_mean=mean,
        profile_std=std,
    )
