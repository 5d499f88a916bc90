"""Tiled wafer evaluation — bounded memory, per-die bit-parity.

A full wafer of 128x128 dies is millions of pixels; materialising every
die's parameter planes at once would cost gigabytes.  This module
streams same-spec dies through the engine's stacked array-scale
evaluation in tiles of at most :data:`repro.engine.STACK_SITES` sites
(:func:`repro.engine.stack_chunks`).  It owns only what is wafer-level:

* **Per-die streams.**  Every die draws the array-scale workload's
  streams (its :class:`~repro.core.rng.StreamPlan`) under its own root,
  :func:`wafer_die_seed` of its grid coordinate, so results never
  depend on tile size, evaluation order, or which other dies the edge
  exclusion admits.
* **White-only parity.**  With no correlated component configured, the
  drawn parameters are left completely untouched (the field transform
  is skipped, not multiplied by 1.0), so each die's records and metrics
  are bit-identical to ``Runner(wafer_die_seed(...)).run(die_spec)`` —
  the invariant ``tests/test_wafer_parity.py`` enforces.
* **Correlated mode.**  Between the draw and the count, each die's
  white draws are scaled by ``sqrt(white_fraction)`` and the wafer
  field's radial + reticle planes are added, mirroring how the physical
  parameters would actually be shifted; tiling remains bit-invariant
  because the field is a pure function of (wafer stream, die position).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Iterator, Optional

import numpy as np

from ..core.rng import stable_entropy
from ..engine import PixelArrayParams, draw_array_scale, stack_chunks
from ..experiments.specs import ArrayScaleSpec
from ..experiments.workloads import array_scale_unit_results
from .field import WaferField, sample_field
from .geometry import Die
from .spec import WaferSpec

__all__ = [
    "wafer_die_seed",
    "wafer_field_for",
    "iter_die_outputs",
    "wafer_records_and_metrics",
]


def wafer_die_seed(root: int, grid_x: int, grid_y: int) -> int:
    """The Runner root seed for the die at grid ``(grid_x, grid_y)`` of
    a wafer rooted at ``root``.

    Keyed by grid coordinate — not list position — through the same
    process-stable digest as ``campaigns.replicate_seed``, so widening
    the edge exclusion adds or removes dies without reseeding the rest.
    """
    words = stable_entropy("wafer", "die", int(root), int(grid_x), int(grid_y))
    return int(words[0] | (words[1] << 32))


def wafer_field_for(spec: WaferSpec, seed: int) -> WaferField:
    """The correlated field a Runner rooted at ``seed`` would sample —
    the standalone twin of the Runner's ``"field"`` stream."""
    return sample_field(spec, spec.stream_plan().generators(seed)["field"])


def _apply_field(
    params: PixelArrayParams, field: WaferField, tile: list[Die]
) -> PixelArrayParams:
    """Scale the stacked white draws to their variance share and add the
    correlated planes; capacitances are re-derived from the adjusted
    relative error (leakage stays white — defects are point events)."""
    n = len(tile)
    offset_planes = np.empty((n, field.rows, field.cols))
    cint_planes = np.empty((n, field.rows, field.cols))
    for index, die in enumerate(tile):
        offset_planes[index], cint_planes[index] = field.die_planes(die)
    offset = params.comparator_offset_v * field.white_scale + offset_planes
    cint_rel = params.cint_relative_error * field.white_scale + cint_planes
    return dataclasses.replace(
        params,
        comparator_offset_v=offset,
        cint_relative_error=cint_rel,
        cint_f=params.cint_nominal_f * (1.0 + cint_rel),
    )


def _evaluate_group(
    seed: int,
    die_spec: ArrayScaleSpec,
    dies: list[Die],
    field: WaferField,
    outputs: dict[int, tuple],
) -> None:
    """Evaluate one same-spec die group tile by tile, filling
    ``outputs[die.index]`` with ``(die, die_spec, records, metrics)``."""
    plan = die_spec.stream_plan()
    for tile in stack_chunks(dies, die_spec.rows * die_spec.cols):
        unit_streams = [
            plan.generators(wafer_die_seed(seed, die.grid_x, die.grid_y)) for die in tile
        ]
        params, peripheries = draw_array_scale(die_spec, unit_streams)
        if not field.white_only:
            params = _apply_field(params, field, tile)
        results = array_scale_unit_results(die_spec, params, peripheries, unit_streams)
        for die, (records, metrics) in zip(tile, results):
            outputs[die.index] = (die, die_spec, records, metrics)


def iter_die_outputs(
    spec: WaferSpec,
    seed: int,
    *,
    field: Optional[WaferField] = None,
) -> Iterator[tuple[Die, ArrayScaleSpec, dict, dict]]:
    """Evaluate every placed die, yielding ``(die, die_spec, records,
    metrics)`` in die order — records/metrics are exactly what the
    array-scale workload produces for that die, which is what the
    parity tests compare field by field.

    Dies sharing a spec (the common case; overrides split them) are
    tiled together; resident memory is bounded by
    :data:`repro.engine.STACK_SITES`.
    """
    if field is None:
        field = wafer_field_for(spec, seed)
    layout = spec.layout()
    groups: dict[str, tuple[ArrayScaleSpec, list[Die]]] = {}
    for die in layout.dies:
        die_spec = spec.die_spec(die)
        key = die_spec.content_hash()
        groups.setdefault(key, (die_spec, []))[1].append(die)
    outputs: dict[int, tuple] = {}
    for die_spec, dies in groups.values():
        _evaluate_group(seed, die_spec, dies, field, outputs)
    for die in layout.dies:
        yield outputs[die.index]


def wafer_records_and_metrics(
    spec: WaferSpec,
    seed: int,
    *,
    field: Optional[WaferField] = None,
) -> tuple[dict, dict]:
    """Fold a full tiled wafer evaluation into per-die records plus
    wafer-level metrics — the workload's result payload.

    Only per-die scalars survive each tile, so peak memory is set by
    the tile bound, not the wafer size.  The tiling never appears in
    the output: results are bit-identical for any tile size.
    """
    layout = spec.layout()
    columns: dict[str, list] = {
        name: []
        for name in (
            "die",
            "grid_x",
            "grid_y",
            "reticle_x",
            "reticle_y",
            "center_x_mm",
            "center_y_mm",
            "mean_count",
            "median_count",
            "min_count",
            "max_count",
            "zero_sites",
            "saturated_sites",
            "dead_pixels",
            "zero_fraction",
            "dead_fraction",
        )
    }
    total_counts = 0
    for die, die_spec, records, _metrics in iter_die_outputs(spec, seed, field=field):
        sites = die_spec.rows * die_spec.cols
        columns["die"].append(die.index)
        columns["grid_x"].append(die.grid_x)
        columns["grid_y"].append(die.grid_y)
        columns["reticle_x"].append(die.reticle_x)
        columns["reticle_y"].append(die.reticle_y)
        columns["center_x_mm"].append(die.center_x_mm)
        columns["center_y_mm"].append(die.center_y_mm)
        for name in (
            "mean_count",
            "median_count",
            "min_count",
            "max_count",
            "zero_sites",
            "saturated_sites",
            "dead_pixels",
        ):
            columns[name].append(records[name][0])
        columns["zero_fraction"].append(records["zero_sites"][0] / sites)
        columns["dead_fraction"].append(records["dead_pixels"][0] / sites)
        total_counts += int(_metrics["total_counts"])
    records_out: dict[str, np.ndarray] = {}
    for name, values in columns.items():
        if name in ("center_x_mm", "center_y_mm", "mean_count", "median_count",
                    "zero_fraction", "dead_fraction"):
            records_out[name] = np.asarray(values, dtype=float)
        else:
            records_out[name] = np.asarray(values, dtype=int)
    sites_total = spec.sites_per_die * layout.n_dies
    metrics: dict[str, Any] = {
        "backend": "vectorized",
        "rows": spec.rows,
        "cols": spec.cols,
        "n_dies": layout.n_dies,
        "n_reticles": layout.n_reticles,
        "n_grid_x": layout.n_grid_x,
        "n_grid_y": layout.n_grid_y,
        "sites_per_die": spec.sites_per_die,
        "sites_total": int(sites_total),
        "wafer_diameter_mm": spec.wafer_diameter_mm,
        "usable_radius_mm": layout.usable_radius_mm,
        "radial_gradient": spec.radial_gradient,
        "reticle_sigma": spec.reticle_sigma,
        "white_fraction": spec.white_fraction,
        "total_counts": int(total_counts),
        "mean_count": float(total_counts / sites_total),
        "zero_site_fraction": float(
            int(records_out["zero_sites"].sum()) / sites_total
        ),
        "dead_pixel_fraction": float(
            int(records_out["dead_pixels"].sum()) / sites_total
        ),
    }
    return records_out, metrics
