"""Wafer-scale geometry with spatially correlated process variation.

The source paper's chips are single dies; real CMOS biosensor
fabrication is wafer-level — dies in a reticle grid on a circular
wafer, process parameters drifting radially and jumping per exposure.
This package scales the stack to that regime:

* :mod:`.geometry` — die placement on the wafer (edge exclusion,
  reticle indexing, pixel positions in the wafer frame);
* :mod:`.spec` — :class:`WaferSpec`, a frozen registry-integrated
  experiment (``kind="wafer"``) whose flat fields double as campaign
  sweep axes (``--grid reticle_sigma=0,0.2,0.4``);
* :mod:`.field` — the correlated mismatch field, drawn once per wafer
  from the seed tree and decomposed radial + reticle + white with a
  configurable variance split;
* :mod:`.evaluate` — tiled, bounded-memory evaluation with per-die
  bit-parity against standalone runs in the white-only limit;
* :mod:`.workload` — Runner/registry wiring (imports register the
  ``"wafer"`` workload).

Use::

    from repro.experiments import Runner
    from repro.wafer import WaferSpec

    result = Runner(seed=7).run(WaferSpec(radial_gradient=0.3, reticle_sigma=0.2))
    print(result.metrics["n_dies"], result.metrics["zero_site_fraction"])
"""

from __future__ import annotations

from .evaluate import (
    iter_die_outputs,
    wafer_die_seed,
    wafer_field_for,
    wafer_records_and_metrics,
)
from .field import WaferField, sample_field
from .geometry import Die, WaferLayout, build_layout
from .spec import OVERRIDABLE_DIE_FIELDS, WaferSpec

from . import workload as _workload  # noqa: F401  (registers the workload)

__all__ = [
    "Die",
    "OVERRIDABLE_DIE_FIELDS",
    "WaferField",
    "WaferLayout",
    "WaferSpec",
    "build_layout",
    "iter_die_outputs",
    "sample_field",
    "wafer_die_seed",
    "wafer_field_for",
    "wafer_records_and_metrics",
]
