"""The wafer workload: Runner wiring for :class:`WaferSpec`.

One random stream, ``"field"`` — the once-per-wafer correlated-field
draw, keyed by the spec's field facet.  The per-die white streams do
*not* come from the wafer Runner's seed tree: each die derives its own
root through :func:`~repro.wafer.evaluate.wafer_die_seed` and draws the
array-scale workload's streams from it, which is precisely what makes a
white-only die bit-identical to a standalone run at that derived seed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..experiments.results import ResultSet
from ..experiments.workloads import register_workload
from .evaluate import wafer_records_and_metrics
from .field import sample_field
from .spec import WaferSpec

if TYPE_CHECKING:  # pragma: no cover
    from ..experiments.runner import Runner


def _wafer_streams(spec: WaferSpec) -> dict[str, tuple]:
    return {"field": ("wafer", "field", spec.field_key())}


def _execute_wafer(runner: "Runner", spec: WaferSpec, rngs: dict) -> ResultSet:
    field = sample_field(spec, rngs["field"])
    records, metrics = wafer_records_and_metrics(spec, runner.seed, field=field)
    return runner._result(
        spec,
        record_name="die",
        records=records,
        metrics=metrics,
        artifacts={"field": field, "layout": spec.layout()},
    )


register_workload("wafer", _wafer_streams, _execute_wafer, backends=("vectorized",))
