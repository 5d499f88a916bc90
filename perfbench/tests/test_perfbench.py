"""Tests of the benchmark itself: each workload at a tiny size, the output
checks against perturbed payloads, the span wrappers and the result line.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402
import scenarios  # noqa: E402
import spans  # noqa: E402


@pytest.fixture(params=sorted(scenarios.WORKLOADS))
def workload(request, tmp_path):
    return scenarios.WORKLOADS[request.param](3, "tiny", tmp_path)


def test_tiny_rounds_repeat_and_tracing_changes_no_output(workload):
    workload.warm_up()
    plain = workload.round(spans.NullRecorder())
    recorder = spans.Recorder()
    with spans.traced(recorder):
        traced = workload.round(recorder)
    assert plain.points > 0 and plain.failed_units == 0
    assert traced.digest == plain.digest
    checks.check_round(workload.name, 3, "tiny", traced.digest, plain.digest)
    values = scenarios.layer_values(recorder, traced)
    assert set(values) | {"trace.overhead_frac"} == set(run.PER_LAYER)
    assert values["experiments.runs"] + values["campaigns.batched_groups"] > 0


def test_service_counts_follow_the_sliding_window(tmp_path):
    service = scenarios.ServiceFaulted(0, "tiny", tmp_path)
    round_ = service.round(spans.NullRecorder())
    jobs = scenarios.SIZES["service_faulted"]["tiny"]["jobs"]
    assert round_.counts["service.cache_hits"] == 6 * (jobs - 1)
    assert round_.counts["service.cache_misses"] == 8 + 2 * (jobs - 1)
    assert round_.counts["service.cache_corrupt"] == 0


def _payload(faults=()):
    from repro.experiments import Runner
    from repro.experiments.specs import spec_from_dict

    spec = spec_from_dict({**scenarios.FIG4_BASE, "concentration": 1e-6, "faults": faults})
    return Runner(seed=0).run(spec).to_dict()


def test_perturbed_payload_fails_the_check():
    payload = _payload()
    good = checks.run_digest([checks.point_digest(payload)], [])
    perturbed = json.loads(json.dumps(payload))
    perturbed["records"]["count"][0] += 1
    bad = checks.run_digest([checks.point_digest(perturbed)], [])
    assert bad != good
    with pytest.raises(checks.OutputMismatch):
        checks.check_round("fig4_dose", 0, "tiny", bad, good)


def test_nan_fails_the_check_and_version_is_ignored():
    payload = _payload()
    assert checks.point_digest({**payload, "version": "0.0.0"}) == checks.point_digest(payload)
    payload["metrics"]["discrimination_ratio"] = math.nan
    with pytest.raises(checks.OutputMismatch):
        checks.point_digest(payload)


def test_only_the_no_signal_snr_may_be_nan():
    records = {"true_spikes": [0, 4], "best_row": [3, 3], "snr": [math.nan, 2.5]}
    checks.point_digest({"records": records})
    records["snr"] = [1.0, math.nan]
    with pytest.raises(checks.OutputMismatch):
        checks.point_digest({"records": records})


def test_pinned_digest_mismatch_fails():
    workload, seeds = next(iter(checks.load_pinned().items()))
    seed = int(next(iter(seeds)))
    with pytest.raises(checks.OutputMismatch):
        checks.check_round(workload, seed, "default", "0" * 64, None)


def test_cache_served_payload_must_equal_its_first_computation(tmp_path):
    service = scenarios.ServiceFaulted(0, "tiny", tmp_path)
    payload = _payload(scenarios.FAULTS)
    line = {"spec_hash": "h", "seed": 0, "result": payload}
    served = json.loads(json.dumps(line))
    served["result"]["records"]["count"][0] += 1
    service._check([([line] * 8, {}), ([line] * 7 + [line], {})])
    with pytest.raises(checks.OutputMismatch):
        service._check([([line] * 8, {}), ([line] * 7 + [served], {})])


def test_tracing_restores_every_entry_point():
    import inspect

    before = [
        owner[name] if isinstance(owner, dict) else inspect.getattr_static(owner, name)
        for owner, name, _, _ in spans.patch_table()
    ]
    with spans.traced(spans.Recorder()):
        pass
    after = [
        owner[name] if isinstance(owner, dict) else inspect.getattr_static(owner, name)
        for owner, name, _, _ in spans.patch_table()
    ]
    assert all(a is b for a, b in zip(before, after))


def test_benchmark_json_names_every_workload():
    assert {w["name"] for w in run.BENCHMARK["workloads"]} == set(scenarios.WORKLOADS)


def test_compare_keeps_repeated_seeds(tmp_path, capsys):
    def records(values):
        return [
            {"env": {"seed": 0, "trace": False, "workload": "fig4_dose"},
             "metrics": {m["name"]: value for m in run.BENCHMARK["end_to_end"]}}
            for value in values
        ]

    spread_out = records(range(1, 11))
    assert len(compare.keyed(spread_out, "setup_s")) == 10
    # One value per seed would read as no spread at all, hence "same".
    parent, change = compare.keyed(spread_out, "setup_s"), compare.keyed(spread_out, "setup_s")
    assert compare.verdict(parent, change, 0.25, lower=True) == "unresolved"
    (tmp_path / "a.jsonl").write_text("\n".join(json.dumps(r) for r in spread_out))
    (tmp_path / "b.jsonl").write_text("\n".join(json.dumps(r) for r in records([0.5] * 10)))
    assert compare.main([str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")]) == 0
    row = next(line for line in capsys.readouterr().out.splitlines() if "setup_s" in line)
    assert "(10)" in row and row.rstrip().endswith("better")


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line(trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "fig4_dose", "--seed", "5",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = run.PER_LAYER if trace else run.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == names


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "fig4_dose", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
