"""Streaming result stores and the campaign result handle.

A store consumes :class:`~repro.campaigns.executors.PointOutcome`s as
they complete — in whatever order the executor produces them — and is
the reason a million-point sweep never holds a million ResultSets in
RAM:

* :class:`MemoryResultStore` keeps everything in memory (including
  artifacts when the executor ran in-process) — the default for
  interactive work and small sweeps.
* :class:`JsonlResultStore` appends each result to
  ``<dir>/results.jsonl`` the moment it lands and drops it, keeping
  only small per-point metadata (index, seed, wall time, scalar
  metrics) — resident memory scales with points × metadata, never with
  record payloads; ``finalize`` writes ``<dir>/manifest.json`` with
  full provenance (campaign dict, seed, executor, point index, wall
  time per run).  ``JsonlResultStore.load(dir)`` reopens a finished
  campaign for reporting, streaming results back lazily.

:class:`CampaignResult` is what ``run_campaign`` returns: the compiled
plan + manifest + store, with ordered access to results and the report
table.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Optional, Sequence, Union

from ..core.values import plain
from ..experiments.results import ResultSet
from .executors import PointOutcome
from .plan import Plan

#: Manifest schema tag, bumped on incompatible layout changes.
MANIFEST_SCHEMA = "repro-campaign/1"

#: Schema tag of the ``campaign.json`` sidecar written *before* any
#: point executes — the half of the provenance that makes a partial
#: (crashed or cancelled) directory resumable without re-supplying the
#: campaign spec.
PENDING_SCHEMA = "repro-campaign-pending/1"

#: Names accepted by :func:`make_store` (and the CLI's ``--store``).
STORES = ("memory", "jsonl")


def write_campaign_sidecar(root: Union[str, Path], payload: dict[str, Any]) -> Path:
    """Persist ``<dir>/campaign.json`` (campaign dict, seed, backend,
    version) at execution start.  The manifest only lands at finalize;
    this sidecar is what ``repro sweep --resume`` reads to reconstruct
    an interrupted campaign's plan."""
    path = Path(root) / JsonlResultStore.CAMPAIGN_NAME
    data = {"schema": PENDING_SCHEMA, **payload}
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def read_campaign_sidecar(root: Union[str, Path]) -> Optional[dict[str, Any]]:
    """Load ``<dir>/campaign.json`` or ``None`` when absent; raises
    ``ValueError`` on a schema this reader does not understand."""
    path = Path(root) / JsonlResultStore.CAMPAIGN_NAME
    if not path.exists():
        return None
    data = json.loads(path.read_text(encoding="utf-8"))
    if data.get("schema") != PENDING_SCHEMA:
        raise ValueError(
            f"{path} has schema {data.get('schema')!r}; this reader "
            f"understands {PENDING_SCHEMA!r}"
        )
    return data


class ResultStore:
    """Interface: consume outcomes as they stream in, then finalize."""

    name: str = "base"

    def add(self, outcome: PointOutcome) -> None:
        raise NotImplementedError

    def finalize(self, manifest: dict[str, Any]) -> None:
        """Called once, after the last ``add``; persists provenance."""
        raise NotImplementedError

    @property
    def manifest(self) -> Optional[dict[str, Any]]:
        raise NotImplementedError

    def iter_results(self) -> Iterator[tuple[dict[str, Any], ResultSet]]:
        """Yield ``(point_meta, ResultSet)`` in storage order."""
        raise NotImplementedError

    def point_metas(self) -> list[dict[str, Any]]:
        """Per-point metadata (index, replicate, wall time, ...) without
        materialising result payloads where the store can avoid it."""
        return [meta for meta, _ in self.iter_results()]

    def results(self) -> list[ResultSet]:
        """All ResultSets ordered by point index (materialises the full
        campaign — prefer :meth:`iter_results` for very large sweeps)."""
        pairs = sorted(self.iter_results(), key=lambda pair: pair[0]["point"])
        return [result for _, result in pairs]

    def result_for(self, point: int) -> ResultSet:
        """The stored ResultSet for one point index."""
        for meta, result in self.iter_results():
            if meta["point"] == point:
                return result
        raise KeyError(f"no stored result for point {point}")

    def load_point(self, point: int) -> ResultSet:
        """The streaming read API's point accessor: one point's
        ResultSet without materialising any other point.  Disk-backed
        stores implement :meth:`result_for` with an O(1) seek, so
        analyses can random-access a campaign far larger than RAM."""
        return self.result_for(point)


_SCALARS = (bool, int, float, str)


def _outcome_meta(outcome: PointOutcome) -> dict[str, Any]:
    meta = outcome.point.describe()
    meta["wall_s"] = float(outcome.wall_s)
    meta["n_records"] = outcome.result.n_records
    # Scalar metrics ride along in the metadata so reports (and the
    # manifest) never need to re-parse record payloads.  Numpy scalars
    # (np.int64 sums etc. from custom workloads) count as scalars too.
    metrics: dict[str, Any] = {}
    for name, value in outcome.result.metrics.items():
        value = plain(value)
        if isinstance(value, _SCALARS):
            metrics[name] = value
    meta["metrics"] = metrics
    return meta


class MemoryResultStore(ResultStore):
    """Keep every outcome in RAM, artifacts included."""

    name = "memory"

    def __init__(self) -> None:
        self._outcomes: dict[int, PointOutcome] = {}
        self._manifest: Optional[dict[str, Any]] = None

    def add(self, outcome: PointOutcome) -> None:
        self._outcomes[outcome.point.index] = outcome

    def finalize(self, manifest: dict[str, Any]) -> None:
        self._manifest = manifest

    @property
    def manifest(self) -> Optional[dict[str, Any]]:
        return self._manifest

    def __len__(self) -> int:
        return len(self._outcomes)

    def iter_results(self) -> Iterator[tuple[dict[str, Any], ResultSet]]:
        for index in sorted(self._outcomes):
            outcome = self._outcomes[index]
            yield _outcome_meta(outcome), outcome.result

    def point_metas(self) -> list[dict[str, Any]]:
        return [_outcome_meta(self._outcomes[index]) for index in sorted(self._outcomes)]

    def result_for(self, point: int) -> ResultSet:
        try:
            return self._outcomes[point].result
        except KeyError:
            raise KeyError(f"no stored result for point {point}") from None

    def outcomes(self) -> list[PointOutcome]:
        return [self._outcomes[index] for index in sorted(self._outcomes)]


class JsonlResultStore(ResultStore):
    """Stream results to ``<dir>/results.jsonl`` + ``manifest.json``.

    Each completed point becomes one JSON line the moment it lands —
    everything finished before a crash is on disk and greppable, and
    resident memory holds only per-point metadata (never the record
    payloads, which dominate ResultSet size).  Lines are written in
    completion order and carry the point index explicitly; loaders
    sort on it.  The manifest only appears at ``finalize``, so a
    directory without one is recognisably a partial run.
    """

    name = "jsonl"
    RESULTS_NAME = "results.jsonl"
    MANIFEST_NAME = "manifest.json"
    CAMPAIGN_NAME = "campaign.json"

    def __init__(
        self, root: Union[str, Path], overwrite: bool = False, flush_every: int = 1
    ) -> None:
        if flush_every < 1:
            raise ValueError(f"flush_every must be >= 1, got {flush_every}")
        self.root = Path(root)
        self.flush_every = int(flush_every)
        self.root.mkdir(parents=True, exist_ok=True)
        manifest_path = self.root / self.MANIFEST_NAME
        # A manifest marks a *finished* campaign: refuse to destroy it
        # unless explicitly told to.  (A results.jsonl without one is a
        # crashed partial run — overwriting that is the normal retry.)
        if manifest_path.exists() and not overwrite:
            raise FileExistsError(
                f"{self.root} already holds a finalized campaign "
                f"({self.MANIFEST_NAME}); pass overwrite=True (CLI: --force) "
                f"or choose a new directory"
            )
        # The old manifest goes first so stale provenance can never sit
        # next to the new records written below.
        manifest_path.unlink(missing_ok=True)
        self._manifest: Optional[dict[str, Any]] = None
        self._metas: list[dict[str, Any]] = []
        #: point index -> byte offset of its line, for O(1) result_for.
        self._offsets: dict[int, int] = {}
        #: Whole lines awaiting their next batched write+flush (buffered
        #: append mode, ``flush_every > 1``): only complete lines ever
        #: reach the file, so a crash loses at most the buffered tail —
        #: never leaves a torn line.
        self._pending: list[str] = []
        self._written_bytes = 0
        self._handle = (self.root / self.RESULTS_NAME).open("w", encoding="utf-8")

    def add(self, outcome: PointOutcome) -> None:
        if self._handle is None:
            raise RuntimeError("store is finalized (or was opened read-only)")
        meta = _outcome_meta(outcome)
        line = dict(meta)
        line["result"] = outcome.result.to_dict()
        # json.dumps keeps ASCII, so character count == byte count.
        text = json.dumps(line, sort_keys=True) + "\n"
        self._offsets[outcome.point.index] = self._written_bytes + sum(
            len(pending) for pending in self._pending
        )
        self._pending.append(text)
        self._metas.append(meta)  # metadata only: the ResultSet is dropped
        if len(self._pending) >= self.flush_every:
            self._flush()

    def _flush(self) -> None:
        """Write all buffered lines and fsync-flush the stream."""
        if self._handle is None or not self._pending:
            return
        block = "".join(self._pending)
        self._handle.write(block)
        self._handle.flush()
        self._written_bytes += len(block)
        self._pending.clear()

    def finalize(self, manifest: dict[str, Any]) -> None:
        self._flush()
        self._manifest = manifest
        (self.root / self.MANIFEST_NAME).write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    @property
    def manifest(self) -> Optional[dict[str, Any]]:
        return self._manifest

    @property
    def writable(self) -> bool:
        """True while the append handle is open (False after
        ``finalize``/``close`` and for ``load``-opened stores)."""
        return self._handle is not None

    def close(self) -> None:
        """Flush buffered lines and release the append handle *without*
        finalizing — deliberately leaves a manifest-less partial
        directory that :meth:`open_partial` (``repro sweep --resume``)
        can pick up.  The cancel path of the job manager uses this."""
        self._flush()
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __len__(self) -> int:
        return len(self._metas)

    def point_metas(self) -> list[dict[str, Any]]:
        return list(self._metas)

    def iter_results(self) -> Iterator[tuple[dict[str, Any], ResultSet]]:
        """Stream ``(meta, ResultSet)`` pairs back from disk, lazily, in
        completion (file) order."""
        if self._handle is not None:
            self._flush()  # buffered lines must land before reading back
        path = self.root / self.RESULTS_NAME
        with path.open("r", encoding="utf-8") as handle:
            for raw in handle:
                raw = raw.strip()
                if not raw:
                    continue
                line = json.loads(raw)
                result = ResultSet.from_dict(line.pop("result"))
                yield line, result

    def result_for(self, point: int) -> ResultSet:
        """One point's ResultSet, via its recorded byte offset — no
        rescan of the preceding lines."""
        if point not in self._offsets:
            raise KeyError(f"no stored result for point {point}")
        if self._handle is not None:
            self._flush()  # the line may still sit in the append buffer
        with (self.root / self.RESULTS_NAME).open("r", encoding="utf-8") as handle:
            handle.seek(self._offsets[point])
            line = json.loads(handle.readline())
        return ResultSet.from_dict(line["result"])

    @classmethod
    def load(cls, root: Union[str, Path]) -> "JsonlResultStore":
        """Reopen a finished campaign directory for reading."""
        root = Path(root)
        path = root / cls.RESULTS_NAME
        if not path.exists():
            raise FileNotFoundError(f"no {cls.RESULTS_NAME} under {root}")
        store = cls.__new__(cls)
        store.root = root
        store._handle = None
        manifest_path = root / cls.MANIFEST_NAME
        store._manifest = (
            json.loads(manifest_path.read_text(encoding="utf-8"))
            if manifest_path.exists()
            else None
        )
        if store._manifest is not None:
            schema = store._manifest.get("schema")
            if schema != MANIFEST_SCHEMA:
                raise ValueError(
                    f"{manifest_path} has schema {schema!r}; this reader "
                    f"understands {MANIFEST_SCHEMA!r}"
                )
        store._metas = []
        store._offsets = {}
        with path.open("r", encoding="utf-8") as handle:
            while True:
                offset = handle.tell()
                raw = handle.readline()
                if not raw:
                    break
                if not raw.strip():
                    continue
                line = json.loads(raw)
                line.pop("result", None)
                store._offsets[line["point"]] = offset
                store._metas.append(line)
        return store

    @classmethod
    def open_partial(
        cls, root: Union[str, Path], flush_every: int = 1
    ) -> "JsonlResultStore":
        """Reopen a *partial* campaign directory for appending — the
        resume path.

        Pre-loads every intact line's metadata and byte offset, then
        truncates anything after the last intact line (a process killed
        mid-write can leave exactly one torn tail line; every line
        before it is complete by construction) and reopens the file in
        append mode.  Completed point indices are whatever
        :meth:`point_metas` reports.  Refuses a directory that already
        holds a manifest: a finalized campaign has nothing to resume.
        """
        if flush_every < 1:
            raise ValueError(f"flush_every must be >= 1, got {flush_every}")
        root = Path(root)
        path = root / cls.RESULTS_NAME
        if not path.exists():
            raise FileNotFoundError(f"no {cls.RESULTS_NAME} under {root}")
        if (root / cls.MANIFEST_NAME).exists():
            raise FileExistsError(
                f"{root} holds a finalized campaign ({cls.MANIFEST_NAME}); "
                f"there is nothing to resume"
            )
        store = cls.__new__(cls)
        store.root = root
        store.flush_every = int(flush_every)
        store._manifest = None
        store._metas = []
        store._offsets = {}
        store._pending = []
        valid_end = 0
        with path.open("rb") as handle:
            while True:
                offset = handle.tell()
                raw = handle.readline()
                if not raw:
                    break
                if not raw.endswith(b"\n"):
                    break  # torn tail: the write was cut mid-line
                text = raw.strip()
                if not text:
                    valid_end = handle.tell()
                    continue
                try:
                    line = json.loads(text)
                except json.JSONDecodeError:
                    break  # torn tail that still ends in a newline
                if "point" not in line or "result" not in line:
                    break
                line.pop("result")
                if line["point"] not in store._offsets:
                    store._offsets[line["point"]] = offset
                    store._metas.append(line)
                valid_end = handle.tell()
        os.truncate(path, valid_end)
        store._written_bytes = valid_end
        store._handle = path.open("a", encoding="utf-8")
        return store


def check_store(
    store: Union[None, str, Path, ResultStore],
    out: Union[None, str, Path] = None,
    flush_every: int = 1,
) -> None:
    """Raise every argument error :func:`make_store` would, without
    touching the filesystem — so a bad rerun can never truncate an old
    campaign directory before it dies."""
    if flush_every < 1:
        raise ValueError(f"flush_every must be >= 1, got {flush_every}")
    if isinstance(store, ResultStore):
        on_disk = isinstance(store, JsonlResultStore)
        if out is not None and not (on_disk and Path(out) == store.root):
            raise ValueError(
                "out= conflicts with the provided store instance; root the "
                "JsonlResultStore at the directory instead"
            )
        if on_disk and flush_every != 1 and store.flush_every != flush_every:
            raise ValueError(
                f"flush_every={flush_every} conflicts with the provided store "
                f"instance (flush_every={store.flush_every}); configure the "
                f"instance instead"
            )
    elif store == "memory":
        if out is not None:
            raise ValueError(
                "the memory store writes nothing to disk; drop --out or use the jsonl store"
            )
        on_disk = False
    elif store == "jsonl":
        if out is None:
            raise ValueError("the jsonl store needs an output directory (--out)")
        on_disk = True
    elif store is None or isinstance(store, Path):
        on_disk = store is not None or out is not None
    else:
        raise ValueError(
            f"unknown store {store!r}; choose from {STORES}, pass a pathlib.Path "
            f"(or out=...) for a jsonl directory, or pass a ResultStore instance"
        )
    if flush_every != 1 and not on_disk:
        raise ValueError("flush_every only applies to the jsonl store")


def make_store(
    store: Union[None, str, Path, ResultStore],
    out: Union[None, str, Path] = None,
    overwrite: bool = False,
    flush_every: int = 1,
) -> ResultStore:
    """Resolve a store name (``"memory"``/``"jsonl"``), a directory
    (``pathlib.Path``), or a :class:`ResultStore` instance.

    The ``"jsonl"`` name requires ``out`` (the campaign directory); a
    ``Path`` implies a JSONL store rooted there.  Directory *strings*
    are deliberately not accepted — a typo'd store name must error, not
    become a directory.  ``overwrite`` permits replacing a directory
    that already holds a finalized campaign.  ``flush_every`` selects
    the jsonl store's buffered append mode (flush every N completed
    points instead of every point); it is an error with any store that
    does not append to disk.
    """
    check_store(store, out, flush_every)
    if isinstance(store, ResultStore):
        return store
    if store == "memory" or (store is None and out is None):
        return MemoryResultStore()
    root = store if isinstance(store, Path) else out
    return JsonlResultStore(root, overwrite=overwrite, flush_every=flush_every)


@dataclass
class CampaignResult:
    """What ``run_campaign`` hands back: plan + manifest + store."""

    plan: Plan
    store: ResultStore
    manifest: dict[str, Any] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.plan)

    @property
    def n_points(self) -> int:
        return len(self.plan)

    def results(self) -> list[ResultSet]:
        """ResultSets ordered by point index."""
        return self.store.results()

    def iter_results(self) -> Iterator[tuple[dict[str, Any], ResultSet]]:
        return self.store.iter_results()

    def result_for(self, point: int) -> ResultSet:
        return self.store.result_for(point)

    def load_point(self, point: int) -> ResultSet:
        return self.store.load_point(point)

    def analyze(self, analysis: Any = None, **overrides: Any) -> Any:
        """Run a statistical analysis over this campaign's store and
        return the :class:`~repro.inference.report.AnalysisReport` —
        see :func:`repro.inference.analyze` for the ``analysis``
        argument (``None`` infers one from the campaign's shape)."""
        from ..inference import analyze

        return analyze(self, analysis, **overrides)

    @property
    def total_wall_s(self) -> float:
        return float(self.manifest.get("total_wall_s", 0.0))

    def table(self, metrics: Optional[Sequence[str]] = None) -> str:
        """The per-point metrics table (see :mod:`repro.campaigns.report`)."""
        from .report import metrics_table

        return metrics_table(self, metrics=metrics)

    def summary(self) -> str:
        executor = self.manifest.get("executor", "?")
        return (
            f"<CampaignResult {len(self)} points via {executor}, "
            f"{self.total_wall_s:.3g}s, store={self.store.name}>"
        )
