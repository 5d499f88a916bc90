"""benchmarks/_harness.py — the machine-readable timing spine."""

import json
import sys
import types
from pathlib import Path

import pytest

BENCHMARKS_DIR = Path(__file__).resolve().parent.parent / "benchmarks"
if str(BENCHMARKS_DIR) not in sys.path:
    sys.path.insert(0, str(BENCHMARKS_DIR))

from _harness import SCHEMA, BenchRecord, BenchSuite, NullBenchmark  # noqa: E402


class TestBenchSuite:
    def test_time_records_and_returns_result(self):
        suite = BenchSuite("engine")
        result, record = suite.time(
            "measure", lambda: sum(range(1000)), backend="vectorized", rows=16, cols=8
        )
        assert result == sum(range(1000))
        assert record.wall_s > 0
        assert record.sites == 128
        assert record.size_label == "16x8"
        assert suite.records == [record]

    def test_repeats_keep_best(self):
        suite = BenchSuite()
        _, record = suite.time("noop", lambda: None, backend="object", repeats=3)
        assert record.repeats == 3
        with pytest.raises(ValueError):
            suite.time("noop", lambda: None, backend="object", repeats=0)

    def test_speedups_pair_backends(self):
        suite = BenchSuite()
        suite.records.append(BenchRecord("measure", "object", 128, 128, wall_s=2.0))
        suite.records.append(BenchRecord("measure", "vectorized", 128, 128, wall_s=0.1))
        suite.records.append(BenchRecord("measure", "vectorized", 64, 64, wall_s=0.1))
        speedups = suite.speedups()
        assert speedups["measure@128x128"]["speedup"] == pytest.approx(20.0)
        assert "measure@64x64" not in speedups  # unpaired: no object baseline
        assert suite.speedup_at("measure", 128, 128) == pytest.approx(20.0)
        assert suite.speedup_at("measure", 8, 8) is None

    def test_batch_size_label(self):
        record = BenchRecord("end_to_end", "vectorized", 128, 128, n_chips=8, wall_s=1.0)
        assert record.size_label == "128x128x8"
        assert record.sites == 128 * 128 * 8

    def test_write_and_load_roundtrip(self, tmp_path):
        suite = BenchSuite("engine")
        suite.time("measure", lambda: None, backend="object", rows=16, cols=8)
        path = suite.write(tmp_path / "BENCH_engine.json")
        # File really is plain JSON for CI artifact tooling.
        data = json.loads(path.read_text())
        assert data["schema"] == SCHEMA
        assert data["label"] == "engine"
        assert data["records"][0]["rows"] == 16
        assert "speedups" in data


class TestNullBenchmark:
    def test_call_and_pedantic(self):
        shim = NullBenchmark()
        assert shim(lambda x: x + 1, 41) == 42
        assert shim.last_wall_s is not None
        assert shim.pedantic(lambda: "ok", rounds=5, iterations=3) == "ok"

    def test_time_entry_points_handles_both_signatures(self):
        module = types.ModuleType("bench_dummy")
        calls = []

        def bench_with_fixture(benchmark):
            calls.append("fixture")
            return benchmark(lambda: 1)

        def bench_plain():
            calls.append("plain")

        module.bench_with_fixture = bench_with_fixture
        module.bench_plain = bench_plain
        module.not_a_bench = lambda: calls.append("nope")

        suite = BenchSuite()
        records = suite.time_entry_points(module)
        assert sorted(calls) == ["fixture", "plain"]
        assert {r.name for r in records} == {
            "bench_dummy.bench_with_fixture",
            "bench_dummy.bench_plain",
        }
