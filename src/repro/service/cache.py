"""The content-addressed result cache and cache-aware plan dispatch.

Because a run is a pure function of ``(spec, seed, backend, engine
version)`` — the reproduction invariant the Runner enforces — a cache
keyed by :func:`~repro.service.keys.point_key` can never serve a stale
or wrong answer: a key either addresses exactly the bytes the engine
would recompute, or it is absent.  That turns overlapping sweeps from
many clients into mostly cache traffic, and identical re-submissions
into pure replay.  Every plan point already carries its whole key —
spec, seed and the backend its plan resolved — so keying a plan
resolves nothing.

Two layers:

* an in-memory LRU of deserialized :class:`ResultSet` objects (bounded;
  eviction only costs a disk read or recompute, never changes numbers);
* an optional on-disk object store under ``<root>/objects/<k[:2]>/<k>.json``
  — one JSON file per entry, written atomically (temp file +
  ``os.replace``) so concurrent writers on one cache directory are safe
  on POSIX: the worst case is two processes writing byte-identical
  content and one rename winning.  ``<root>/cache.json`` records the
  layout schema.

Integrity over trust: ``get`` re-verifies each disk entry (schema tag,
key match against the file's address, SHA-256 of the result payload)
and treats any corruption as a miss — bad bytes mean recompute, never a
crash and never a wrong number.

:class:`CachedDispatch` is the execution half: it partitions a
:class:`~repro.campaigns.plan.Plan` by content key, serves hits from the
cache, deduplicates misses so each distinct key is computed exactly
once (duplicate points within and across campaigns replay the one
computation), and streams ordinary
:class:`~repro.campaigns.executors.PointOutcome`s that any result store
can consume.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator, Optional, Union

from ..campaigns.executors import Executor, PointOutcome
from ..campaigns.plan import Plan, PlanPoint
from ..experiments.results import ResultSet
from .keys import point_key

#: On-disk entry schema, bumped on incompatible layout changes.
CACHE_SCHEMA = "repro-cache/1"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _result_digest(payload: dict[str, Any]) -> str:
    """Integrity digest of a ResultSet payload.

    Plain ``json.dumps(sort_keys=True)`` rather than the canonical-JSON
    of ``keys.py``: result payloads may legitimately carry NaN metrics,
    and the digest only needs to be self-consistent between ``put`` and
    ``get`` (parse -> re-dump round-trips byte-identically).
    """
    return _sha256(json.dumps(payload, sort_keys=True))


@dataclass
class CacheStats:
    """Running counters for one :class:`ResultCache` instance."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    corrupt: int = 0
    memory_hits: int = 0
    disk_hits: int = 0
    evictions: int = 0

    def as_dict(self) -> dict[str, int]:
        return dict(self.__dict__)


class ResultCache:
    """Content-addressed ResultSet store: memory LRU over optional disk.

    ``root=None`` is a pure in-memory cache (one process, one lifetime);
    with a directory it becomes durable and shareable across processes,
    campaigns and service restarts.  ``max_memory`` bounds only the
    in-memory layer — ``None`` means unbounded (safe for small sweeps,
    unwise for a long-lived service).
    """

    OBJECTS_DIR = "objects"
    MARKER_NAME = "cache.json"

    def __init__(
        self,
        root: Union[None, str, Path] = None,
        max_memory: Optional[int] = 128,
    ) -> None:
        if max_memory is not None and max_memory < 0:
            raise ValueError(f"max_memory must be >= 0 or None, got {max_memory}")
        self.root = None if root is None else Path(root)
        self.max_memory = max_memory
        self.stats = CacheStats()
        self._memory: "OrderedDict[str, ResultSet]" = OrderedDict()
        self._lock = threading.Lock()
        if self.root is not None:
            (self.root / self.OBJECTS_DIR).mkdir(parents=True, exist_ok=True)
            marker = self.root / self.MARKER_NAME
            if marker.exists():
                try:
                    schema = json.loads(marker.read_text(encoding="utf-8")).get("schema")
                except (OSError, json.JSONDecodeError):
                    schema = None
                if schema != CACHE_SCHEMA:
                    raise ValueError(
                        f"{self.root} holds a cache with schema {schema!r}; this "
                        f"build writes {CACHE_SCHEMA!r} — point --cache-dir at a "
                        f"fresh directory"
                    )
            else:
                self._atomic_write(marker, json.dumps({"schema": CACHE_SCHEMA}) + "\n")

    # ------------------------------------------------------------------
    # Layout
    # ------------------------------------------------------------------
    def _entry_path(self, key: str) -> Path:
        assert self.root is not None
        return self.root / self.OBJECTS_DIR / key[:2] / f"{key}.json"

    @staticmethod
    def _atomic_write(path: Path, text: str) -> None:
        """Write-then-rename so readers (and concurrent writers) never
        observe a torn entry."""
        path.parent.mkdir(parents=True, exist_ok=True)
        handle = tempfile.NamedTemporaryFile(
            mode="w",
            encoding="utf-8",
            dir=path.parent,
            prefix=f".{path.name}.",
            suffix=".tmp",
            delete=False,
        )
        try:
            with handle:
                handle.write(text)
            os.replace(handle.name, path)
        except BaseException:
            try:
                os.unlink(handle.name)
            except OSError:
                pass
            raise

    # ------------------------------------------------------------------
    # Core API
    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[ResultSet]:
        """The cached ResultSet for ``key``, or ``None`` (a miss).

        Disk entries are integrity-checked on every read; anything that
        fails to parse or verify counts as ``corrupt`` and reads as a
        miss — the caller recomputes and ``put`` repairs the entry.
        """
        with self._lock:
            cached = self._memory.get(key)
            if cached is not None:
                self._memory.move_to_end(key)
                self.stats.hits += 1
                self.stats.memory_hits += 1
                return cached
        if self.root is not None:
            result = self._read_entry(key)
            if result is not None:
                with self._lock:
                    self.stats.hits += 1
                    self.stats.disk_hits += 1
                    self._remember_locked(key, result)
                return result
        with self._lock:
            self.stats.misses += 1
        return None

    def put(self, key: str, result: ResultSet, meta: Optional[dict[str, Any]] = None) -> None:
        """Store ``result`` under ``key`` (artifacts are dropped — only
        the serializable content is addressable)."""
        stored = result.without_artifacts()
        if self.root is not None:
            payload = stored.to_dict()
            entry = {
                "schema": CACHE_SCHEMA,
                "key": key,
                "meta": dict(meta or {}),
                "result": payload,
                "result_sha256": _result_digest(payload),
            }
            self._atomic_write(self._entry_path(key), json.dumps(entry, sort_keys=True) + "\n")
        with self._lock:
            self.stats.puts += 1
            self._remember_locked(key, stored)

    def _remember_locked(self, key: str, result: ResultSet) -> None:
        """LRU insert into the memory layer (``_locked``: callers hold
        ``self._lock`` — the lint C301 convention)."""
        if self.max_memory == 0:
            return
        self._memory[key] = result
        self._memory.move_to_end(key)
        while self.max_memory is not None and len(self._memory) > self.max_memory:
            self._memory.popitem(last=False)
            self.stats.evictions += 1

    def _read_entry(self, key: str) -> Optional[ResultSet]:
        """Load + verify one disk entry; any defect is a (counted) miss."""
        path = self._entry_path(key)
        try:
            entry = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            return None
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            with self._lock:
                self.stats.corrupt += 1
            return None
        try:
            if entry["schema"] != CACHE_SCHEMA or entry["key"] != key:
                raise ValueError("entry does not match its address")
            if _result_digest(entry["result"]) != entry["result_sha256"]:
                raise ValueError("result payload fails its integrity digest")
            return ResultSet.from_dict(entry["result"])
        except (KeyError, TypeError, ValueError):
            with self._lock:
                self.stats.corrupt += 1
            return None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __contains__(self, key: str) -> bool:
        with self._lock:
            if key in self._memory:
                return True
        return self.root is not None and self._entry_path(key).exists()

    def __len__(self) -> int:
        return self.n_entries()

    def n_entries(self) -> int:
        """Distinct keys currently addressable (disk scan when rooted)."""
        if self.root is None:
            with self._lock:
                return len(self._memory)
        disk = {
            path.stem
            for path in (self.root / self.OBJECTS_DIR).glob("??/*.json")
        }
        with self._lock:
            disk.update(self._memory)
        return len(disk)

    def stats_dict(self) -> dict[str, Any]:
        """Counters plus layout facts — the ``/cache/stats`` payload."""
        with self._lock:
            data: dict[str, Any] = self.stats.as_dict()
            data["memory_entries"] = len(self._memory)
            data["max_memory"] = self.max_memory
        data["root"] = None if self.root is None else str(self.root)
        data["entries"] = self.n_entries()
        return data

    def summary(self) -> str:
        where = "memory" if self.root is None else str(self.root)
        # Snapshot the counters under the lock: stats are mutated by
        # concurrent get/put and must not be read torn (lint C301).
        with self._lock:
            hits, misses = self.stats.hits, self.stats.misses
        return (
            f"<ResultCache {where}: {self.n_entries()} entries, "
            f"{hits} hits / {misses} misses>"
        )


def make_cache(
    cache: Union[None, str, Path, ResultCache],
    max_memory: Optional[int] = 128,
) -> Optional[ResultCache]:
    """Resolve a cache argument: ``None`` passes through (caching off),
    a path becomes a disk-rooted :class:`ResultCache`, an instance is
    used as-is."""
    if cache is None or isinstance(cache, ResultCache):
        return cache
    if isinstance(cache, (str, Path)):
        return ResultCache(root=cache, max_memory=max_memory)
    raise TypeError(
        f"cannot resolve a cache from {type(cache).__name__}; expected None, "
        f"a directory path, or a ResultCache"
    )


# ---------------------------------------------------------------------------
# Cache-aware plan execution
# ---------------------------------------------------------------------------
def plan_keys(plan: Plan, *, engine_version: Optional[str] = None) -> dict[int, str]:
    """Content key per plan point index: each point's spec, seed and
    backend, plus ``engine_version`` (default: the installed library
    version) — the four key components of the reproduction invariant.
    """
    if engine_version is None:
        from .. import __version__ as engine_version
    return {
        point.index: point_key(point.spec.to_dict(), point.seed, point.backend, engine_version)
        for point in plan
    }


class CachedDispatch:
    """Execute a plan through a cache: hits replay, misses dedup+compute.

    Iterating :meth:`outcomes` yields exactly one
    :class:`PointOutcome` per plan point, in cache-hits-first /
    completion order (stores sort by point index, so order is
    presentation-free).  After iteration, :meth:`summary` reports the
    accounting that lands in the campaign manifest.
    """

    def __init__(
        self,
        plan: Plan,
        executor: Executor,
        cache: ResultCache,
        *,
        engine_version: Optional[str] = None,
        capture_errors: bool = False,
    ) -> None:
        self.plan = plan
        self.executor = executor
        self.cache = cache
        self.capture_errors = capture_errors
        self.keys = plan_keys(plan, engine_version=engine_version)
        #: key -> all plan points sharing it, first-seen order.
        self.groups: "OrderedDict[str, list[PlanPoint]]" = OrderedDict()
        for point in plan:
            self.groups.setdefault(self.keys[point.index], []).append(point)
        self.hits = 0
        self.computed = 0
        self.replayed = 0
        self.failed = 0

    @property
    def n_unique(self) -> int:
        return len(self.groups)

    def outcomes(self) -> Iterator[PointOutcome]:
        pending: list[list[PlanPoint]] = []
        for key, points in self.groups.items():
            start = time.perf_counter()  # repro: allow-wallclock
            result = self.cache.get(key)
            if result is None:
                pending.append(points)
                continue
            wall_s = time.perf_counter() - start  # repro: allow-wallclock
            self.hits += len(points)
            for point in points:
                yield PointOutcome(point=point, result=result, wall_s=wall_s)
                wall_s = 0.0  # the read cost is attributed once
        if not pending:
            return
        # One representative per distinct key; duplicates replay its
        # result.  Representatives keep their original plan indices, so
        # executors and stores need no special casing.
        duplicates = {points[0].index: points[1:] for points in pending}
        sub_plan = Plan(
            points=tuple(points[0] for points in pending),
            campaign=self.plan.campaign,
            seed=self.plan.seed,
        )
        for outcome in self.executor.run(sub_plan, capture_errors=self.capture_errors):
            key = self.keys[outcome.point.index]
            if outcome.result is None:
                # A captured failure never enters the cache (it carries
                # no ResultSet); duplicates fail identically — a point's
                # outcome is a pure function of its key.
                self.failed += 1
                yield outcome
                for duplicate in duplicates[outcome.point.index]:
                    self.failed += 1
                    yield PointOutcome(
                        point=duplicate, result=None, wall_s=0.0, error=outcome.error
                    )
                continue
            stored = outcome.result.without_artifacts()
            self.cache.put(
                key,
                stored,
                meta={
                    "kind": outcome.point.spec.kind,
                    "seed": outcome.point.seed,
                    "spec_hash": outcome.point.spec.spec_hash(),
                },
            )
            self.computed += 1
            yield outcome
            for duplicate in duplicates[outcome.point.index]:
                self.replayed += 1
                yield PointOutcome(point=duplicate, result=stored, wall_s=0.0)

    def summary(self) -> dict[str, int]:
        """The manifest's ``cache`` block: how the plan was served."""
        return {
            "n_points": len(self.plan),
            "n_unique": self.n_unique,
            "hits": self.hits,
            "computed": self.computed,
            "replayed": self.replayed,
            "failed": self.failed,
        }
