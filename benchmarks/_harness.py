"""Machine-readable timing harness for the benchmark suite.

The figure benchmarks print claim-vs-measured tables for humans; this
module gives the perf trajectory a machine-readable spine.  A
:class:`BenchSuite` times benchmark entry points, pairs object-vs-
vectorized runs of the same workload into speedups, and writes
everything to a ``BENCH_<label>.json`` (wall time, array size, backend,
speedup) that CI uploads as an artifact and regression tooling can diff
across commits.

Use from a benchmark module::

    suite = BenchSuite("engine")
    result, record = suite.time(
        "measure", run_it, backend="vectorized", rows=128, cols=128
    )
    suite.write("BENCH_engine.json")

or time existing pytest-benchmark style entry points standalone::

    suite.time_entry_points(bench_fig3_sawtooth_adc)

:class:`NullBenchmark` is the pytest-benchmark-compatible shim that
makes ``bench_*(benchmark)`` functions runnable without pytest.
"""

from __future__ import annotations

import inspect
import json
import os
import platform
import subprocess
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

import numpy

SCHEMA = "repro-bench/1"


def environment() -> dict[str, Any]:
    """Where a BENCH file was measured: core count, interpreter and
    NumPy versions, and the checked-out commit (suffixed ``-dirty`` when
    the tree has uncommitted changes; ``None`` outside a git checkout)."""
    try:
        rev: Optional[str] = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        rev = None
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_rev": rev,
    }


@dataclass
class BenchRecord:
    """One timed benchmark invocation."""

    name: str
    backend: str
    rows: int = 0
    cols: int = 0
    n_chips: int = 1
    wall_s: float = 0.0
    repeats: int = 1
    meta: dict[str, Any] = field(default_factory=dict)

    @property
    def sites(self) -> int:
        return self.rows * self.cols * self.n_chips

    @property
    def size_label(self) -> str:
        label = f"{self.rows}x{self.cols}"
        if self.n_chips != 1:
            label += f"x{self.n_chips}"
        return label

    def as_dict(self) -> dict[str, Any]:
        data = asdict(self)
        data["sites"] = self.sites
        return data


class NullBenchmark:
    """Stand-in for the pytest-benchmark fixture: runs the callable
    once, records the wall time, returns the result."""

    def __init__(self) -> None:
        self.last_wall_s: Optional[float] = None

    def _timed(self, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        self.last_wall_s = time.perf_counter() - start
        return result

    def __call__(self, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        return self._timed(fn, *args, **kwargs)

    def pedantic(
        self,
        fn: Callable,
        args: tuple = (),
        kwargs: Optional[dict] = None,
        rounds: int = 1,
        iterations: int = 1,
        **_: Any,
    ) -> Any:
        return self._timed(fn, *args, **(kwargs or {}))


class BenchSuite:
    """Collects timed records and writes the BENCH JSON."""

    def __init__(self, label: str = "engine") -> None:
        self.label = label
        self.records: list[BenchRecord] = []

    # ------------------------------------------------------------------
    # Timing
    # ------------------------------------------------------------------
    def time(
        self,
        name: str,
        fn: Callable[[], Any],
        *,
        backend: str,
        rows: int = 0,
        cols: int = 0,
        n_chips: int = 1,
        repeats: int = 1,
        **meta: Any,
    ) -> tuple[Any, BenchRecord]:
        """Run ``fn`` ``repeats`` times, keep the best wall time (the
        standard low-noise estimator), return (last result, record)."""
        if repeats < 1:
            raise ValueError("repeats must be >= 1")
        best = float("inf")
        result: Any = None
        for _ in range(repeats):
            start = time.perf_counter()
            result = fn()
            best = min(best, time.perf_counter() - start)
        record = BenchRecord(
            name=name,
            backend=backend,
            rows=rows,
            cols=cols,
            n_chips=n_chips,
            wall_s=best,
            repeats=repeats,
            meta=dict(meta),
        )
        self.records.append(record)
        return result, record

    def time_entry_points(self, module: Any, backend: str = "object") -> list[BenchRecord]:
        """Time every ``bench_*`` callable of a benchmark module,
        passing a :class:`NullBenchmark` where the signature asks for
        the pytest fixture."""
        records = []
        for attr in sorted(dir(module)):
            if not attr.startswith("bench_"):
                continue
            fn = getattr(module, attr)
            if not callable(fn):
                continue
            takes_fixture = "benchmark" in inspect.signature(fn).parameters

            def invoke(fn=fn, takes_fixture=takes_fixture):
                return fn(NullBenchmark()) if takes_fixture else fn()

            _, record = self.time(
                f"{module.__name__}.{attr}", invoke, backend=backend
            )
            records.append(record)
        return records

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def speedups(self) -> dict[str, dict[str, float]]:
        """Pair object vs vectorized records of the same (name, size)
        and report object/vectorized wall-time ratios."""
        best: dict[tuple, dict[str, float]] = {}
        for record in self.records:
            key = (record.name, record.rows, record.cols, record.n_chips)
            slot = best.setdefault(key, {})
            slot[record.backend] = min(
                slot.get(record.backend, float("inf")), record.wall_s
            )
        out: dict[str, dict[str, float]] = {}
        for (name, rows, cols, n_chips), walls in sorted(best.items()):
            if "object" not in walls or "vectorized" not in walls:
                continue
            label = f"{name}@{rows}x{cols}" + (f"x{n_chips}" if n_chips != 1 else "")
            out[label] = {
                "object_s": walls["object"],
                "vectorized_s": walls["vectorized"],
                "speedup": walls["object"] / walls["vectorized"]
                if walls["vectorized"] > 0
                else float("inf"),
            }
        return out

    def speedup_at(self, name: str, rows: int, cols: int, n_chips: int = 1) -> Optional[float]:
        label = f"{name}@{rows}x{cols}" + (f"x{n_chips}" if n_chips != 1 else "")
        entry = self.speedups().get(label)
        return entry["speedup"] if entry else None

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": SCHEMA,
            "label": self.label,
            "records": [record.as_dict() for record in self.records],
            "speedups": self.speedups(),
        }

    def write(self, path: str | Path | None = None) -> Path:
        """Dump the suite to ``BENCH_<label>.json`` (or ``path``)."""
        target = Path(path) if path is not None else Path(f"BENCH_{self.label}.json")
        target.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")
        return target
