"""The uniform result container shared by every workload.

A :class:`ResultSet` is the one shape that comes back from the Runner
regardless of experiment kind: columnar per-record data (one record per
array site, neuron or funnel stage), scalar summary ``metrics``, and
full provenance (the spec dict, the seed streams that were consumed,
and the library version).  ``artifacts`` carries the rich in-memory
objects (chip, culture, funnel result, ...) for callers that want to
keep digging; it is deliberately excluded from serialization.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

import numpy as np

from ..core.values import plain


@dataclass
class ResultSet:
    """Uniform experiment output: records + metrics + provenance."""

    kind: str
    spec: dict[str, Any]
    seeds: dict[str, Any]
    version: str
    record_name: str = "record"
    records: dict[str, np.ndarray] = field(default_factory=dict)
    metrics: dict[str, Any] = field(default_factory=dict)
    artifacts: dict[str, Any] = field(default_factory=dict, repr=False, compare=False)
    #: Optional digital-path capture (:class:`repro.trace.TraceTable`):
    #: attached when the producing chip carried a trace recorder.
    #: Serializes with the result (unlike artifacts) — the trace *is*
    #: provenance — but is excluded from equality like artifacts.
    trace: Optional[Any] = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        lengths = {name: len(column) for name, column in self.records.items()}
        if len(set(lengths.values())) > 1:
            raise ValueError(f"record columns have unequal lengths: {lengths}")

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    @property
    def n_records(self) -> int:
        for column in self.records.values():
            return len(column)
        return 0

    def column(self, name: str) -> np.ndarray:
        try:
            return self.records[name]
        except KeyError:
            raise KeyError(
                f"no column {name!r}; available: {sorted(self.records)}"
            ) from None

    def select(self, mask: np.ndarray) -> dict[str, np.ndarray]:
        """Apply a boolean mask across every column."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self.n_records,):
            raise ValueError("mask length must match record count")
        return {name: column[mask] for name, column in self.records.items()}

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_rows(self) -> list[dict[str, Any]]:
        """One plain-python dict per record — ready for csv.DictWriter,
        pandas, or a report table."""
        names = list(self.records)
        columns = [_plain_column(self.records[name]) for name in names]
        return [dict(zip(names, values)) for values in zip(*columns)]

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "spec": self.spec,
            "seeds": self.seeds,
            "version": self.version,
            "record_name": self.record_name,
            "records": {name: _plain_column(column) for name, column in self.records.items()},
            # Column dtypes travel with the data: a bare np.asarray on
            # load would flip int columns carrying floats-as-json back
            # to float64 and string columns to '<U..' instead of object.
            "dtypes": {name: _dtype_token(column) for name, column in self.records.items()},
            "metrics": {name: plain(value) for name, value in self.metrics.items()},
            # Traceless payloads stay byte-identical to pre-trace ones.
            **({"trace": self.trace.to_dict()} if self.trace is not None else {}),
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ResultSet":
        """Rebuild from a ``to_dict()`` payload, restoring column dtypes.

        Payloads written before dtypes were recorded still load; their
        columns fall back to ``np.asarray`` inference.
        """
        dtypes = data.get("dtypes", {})
        trace = None
        if data.get("trace") is not None:
            from ..trace.table import TraceTable

            trace = TraceTable.from_dict(data["trace"])
        return cls(
            kind=data["kind"],
            spec=data["spec"],
            seeds=data["seeds"],
            version=data["version"],
            record_name=data.get("record_name", "record"),
            records={
                name: _restore_column(column, dtypes.get(name))
                for name, column in data["records"].items()
            },
            metrics=data.get("metrics", {}),
            trace=trace,
        )

    @classmethod
    def from_json(cls, payload: str) -> "ResultSet":
        return cls.from_dict(json.loads(payload))

    def without_artifacts(self) -> "ResultSet":
        """A copy that drops the rich in-memory objects — the shape that
        crosses process boundaries and lands in result stores.  Records
        and metrics are shared by reference, not copied."""
        return dataclasses.replace(self, artifacts={})

    # ------------------------------------------------------------------
    # Combination
    # ------------------------------------------------------------------
    @classmethod
    def concat(
        cls, results: "Sequence[ResultSet]", *, point_column: Optional[str] = "point"
    ) -> "ResultSet":
        """Stack same-kind ResultSets into one columnar set.

        The idiom for folding a campaign back into a single table:
        every record column is concatenated in order, and
        ``point_column`` (unless ``None``) prepends the source index so
        rows stay attributable.  Metrics and artifacts do not concat
        meaningfully and are reduced to bookkeeping; use
        :func:`stack_metrics` to tabulate per-source metrics.
        """
        results = list(results)
        if not results:
            raise ValueError("cannot concat zero ResultSets")
        first = results[0]
        for other in results[1:]:
            if other.kind != first.kind:
                raise ValueError(f"cannot concat kinds {first.kind!r} and {other.kind!r}")
            if other.records.keys() != first.records.keys():
                raise ValueError("cannot concat ResultSets with different record columns")
        records: dict[str, np.ndarray] = {}
        if point_column is not None:
            if point_column in first.records:
                raise ValueError(f"point column {point_column!r} collides with a record column")
            records[point_column] = np.repeat(
                np.arange(len(results)), [r.n_records for r in results]
            )
        for name in first.records:
            records[name] = np.concatenate([r.records[name] for r in results])
        roots = []
        for r in results:
            root = r.seeds.get("root")
            if root not in roots:
                roots.append(root)
        return cls(
            kind=first.kind,
            spec={"kind": first.kind, "concat_of": len(results)},
            seeds={"roots": roots},
            version=first.version,
            record_name=first.record_name,
            records=records,
            metrics={"n_sources": len(results), "n_records": sum(r.n_records for r in results)},
        )

    # ------------------------------------------------------------------
    def summary(self) -> str:
        """One-line human summary for logs and examples."""
        return (
            f"<ResultSet {self.kind}: {self.n_records} {self.record_name}s, "
            f"{len(self.metrics)} metrics>"
        )


def stack_metrics(
    results: Sequence[ResultSet], names: Optional[Sequence[str]] = None
) -> dict[str, np.ndarray]:
    """Turn per-ResultSet scalar metrics into aligned arrays.

    ``names`` defaults to the metrics shared by *all* inputs (in the
    first result's order); asking for a metric any input lacks raises.
    The campaign report tables are built on this.
    """
    results = list(results)
    if not results:
        raise ValueError("cannot stack metrics of zero ResultSets")
    if names is None:
        names = [
            name
            for name in results[0].metrics
            if all(name in r.metrics for r in results[1:])
        ]
    else:
        for name in names:
            missing = [i for i, r in enumerate(results) if name not in r.metrics]
            if missing:
                raise KeyError(f"metric {name!r} missing from result(s) {missing}")
    return {name: np.asarray([r.metrics[name] for r in results]) for name in names}


def _plain_column(column: Any) -> list:
    """``plain(column)``, with one C-speed ``tolist`` for a non-object
    array (whose elements ``tolist`` already makes plain)."""
    if isinstance(column, np.ndarray) and column.dtype != object:
        return column.tolist()
    return plain(column)


def _dtype_token(column: np.ndarray) -> str:
    """Portable dtype tag for serialization ('object' or np.dtype.str)."""
    column = np.asarray(column)
    return "object" if column.dtype == object else column.dtype.str


def _restore_column(column: list, token: Optional[str]) -> np.ndarray:
    if token is None:
        return np.asarray(column)
    if token == "object":
        restored = np.empty(len(column), dtype=object)
        restored[:] = column
        return restored
    return np.asarray(column, dtype=np.dtype(token))
