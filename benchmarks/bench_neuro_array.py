"""Neural-recording sweep — object vs vectorized backend, serial vs
batched campaign dispatch (repro.engine neuro kernels).

Two comparisons, one machine-readable JSON:

* ``measure`` / ``end_to_end`` — the ``neural_recording`` workload at
  array scale (dense cultures on 32x32 / 64x64 sub-arrays, the Fig. 5
  recording pipeline): per-neuron Hodgkin-Huxley loops + per-pixel
  ``np.interp`` sampling on the object backend vs the batched RK4 +
  frame-synthesis kernels on the vectorized backend.  ``measure`` runs
  on a warm Runner (chip cached) so the record isolates the recording
  hot path.
* ``campaign_*`` — a 64-point single-spec campaign executed by the
  serial executor (per-point Runner dispatch) vs the batched executor
  (points compiled into chip-batched engine calls).  Per-point results
  are verified bit-identical before any timing is reported.

A top-level ``env`` block records where the numbers were taken
(``cpu_count``, Python/NumPy versions, git rev).

Standalone::

    PYTHONPATH=src python benchmarks/bench_neuro_array.py [--quick] \
        [--out BENCH_neuro.json] [--assert-speedup 10] \
        [--assert-batched-speedup 5]
"""

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from _harness import BenchSuite, environment

from repro.campaigns import CampaignSpec, run_campaign
from repro.core import render_table, units
from repro.experiments import ArrayScaleSpec, NeuralRecordingSpec, Runner

# Dense-culture recording configs: (rows, cols, n_neurons).  Small
# somata (10-30 um) keep the placement feasible at these densities
# (~25% area packing at 320 cells on the 0.5 mm sub-array, still well
# under confluent-culture density); the neuron count is where the
# object backend's per-neuron HH loop scales linearly while the
# batched integration stays flat.
FULL_SIZES = [(32, 32, 80), (64, 64, 320)]
QUICK_SIZES = [(64, 64, 96)]


def recording_spec(rows: int, cols: int, n_neurons: int, duration_s: float, use_hh: bool = True):
    return NeuralRecordingSpec(
        rows=rows,
        cols=cols,
        n_neurons=n_neurons,
        diameter_range_m=(10e-6, 30e-6),
        duration_s=duration_s,
        use_hh=use_hh,
    )


def run_recording_sweep(
    sizes=FULL_SIZES,
    duration_s: float = 0.1,
    seed: int = 7,
    suite: BenchSuite | None = None,
    end_to_end: bool = True,
) -> BenchSuite:
    """Time both backends at every size on the same spec and seed."""
    suite = suite or BenchSuite("neuro")
    for rows, cols, n_neurons in sizes:
        spec = recording_spec(rows, cols, n_neurons, duration_s)
        for backend in ("object", "vectorized"):
            if end_to_end:
                suite.time(
                    "end_to_end",
                    lambda: Runner(seed).run(spec, backend=backend),
                    backend=backend,
                    rows=rows,
                    cols=cols,
                    n_neurons=n_neurons,
                    duration_s=duration_s,
                )
            runner = Runner(seed)
            runner.run(spec, backend=backend)  # warm the chip cache
            suite.time(
                "measure",
                lambda: runner.run(spec, backend=backend),
                backend=backend,
                rows=rows,
                cols=cols,
                n_neurons=n_neurons,
                duration_s=duration_s,
            )
    # One template-AP row for reference: the interp-free frame
    # synthesis alone, without the HH integration in either path.
    rows, cols, n_neurons = sizes[-1]
    template = recording_spec(rows, cols, n_neurons, duration_s, use_hh=False)
    for backend in ("object", "vectorized"):
        runner = Runner(seed)
        runner.run(template, backend=backend)
        suite.time(
            "measure_template",
            lambda: runner.run(template, backend=backend),
            backend=backend,
            rows=rows,
            cols=cols,
            n_neurons=n_neurons,
            duration_s=duration_s,
        )
    return suite


# ---------------------------------------------------------------------------
# Batched campaign comparison
# ---------------------------------------------------------------------------
def _results_identical(serial_result, batched_result) -> bool:
    for a, b in zip(serial_result.results(), batched_result.results()):
        a = a.without_artifacts()
        b = b.without_artifacts()
        if a.spec != b.spec or a.seeds != b.seeds or set(a.metrics) != set(b.metrics):
            return False
        for column in a.records:
            left, right = a.records[column], b.records[column]
            if left.dtype != right.dtype:
                return False
            both_nan = (
                np.isnan(left) & np.isnan(right)
                if left.dtype.kind == "f"
                else np.zeros(left.shape, dtype=bool)
            )
            if not np.array_equal(left[~both_nan], right[~both_nan]):
                return False
        for name, value in a.metrics.items():
            other = b.metrics[name]
            if isinstance(value, float) and np.isnan(value):
                if not (isinstance(other, float) and np.isnan(other)):
                    return False
            elif value != other:
                return False
    return True


def run_campaign_comparison(points: int, seed: int = 3) -> dict:
    """Serial per-point dispatch vs the batched executor on 64-point
    single-spec campaigns of both vectorized kinds; per-point parity is
    checked bit-identically before the ratio is reported."""
    campaigns = {
        "neural_recording": CampaignSpec(
            base=recording_spec(32, 32, 4, duration_s=0.05),
            replicates=points,
            backend="vectorized",
        ),
        "array_scale": CampaignSpec(
            base=ArrayScaleSpec(rows=32, cols=32, frame_s=0.1),
            replicates=points,
        ),
    }
    block: dict = {}
    for kind, campaign in campaigns.items():
        start = time.perf_counter()
        serial = run_campaign(campaign, seed=seed, executor="serial")
        serial_s = time.perf_counter() - start
        start = time.perf_counter()
        batched = run_campaign(campaign, seed=seed, executor="batched")
        batched_s = time.perf_counter() - start
        block[kind] = {
            "points": points,
            "serial_s": serial_s,
            "batched_s": batched_s,
            "speedup": serial_s / batched_s if batched_s > 0 else float("inf"),
            "identical": _results_identical(serial, batched),
        }
    return block


def render_speedups(suite: BenchSuite) -> str:
    rows = [
        (
            label,
            units.si_format(entry["object_s"], "s"),
            units.si_format(entry["vectorized_s"], "s"),
            f"{entry['speedup']:.1f}x",
        )
        for label, entry in suite.speedups().items()
    ]
    return render_table(
        ["workload@size", "object", "vectorized", "speedup"],
        rows,
        title="Neural recording: object vs vectorized backend",
    )


def render_campaigns(block: dict) -> str:
    rows = [
        (
            kind,
            str(entry["points"]),
            units.si_format(entry["serial_s"], "s"),
            units.si_format(entry["batched_s"], "s"),
            f"{entry['speedup']:.1f}x",
            "bit-identical" if entry["identical"] else "MISMATCH",
        )
        for kind, entry in block.items()
    ]
    return render_table(
        ["campaign kind", "points", "serial", "batched", "speedup", "parity"],
        rows,
        title="Campaign dispatch: serial per-point vs batched engine calls",
    )


def bench_neuro_recording_sweep(benchmark):
    """Pytest-benchmark entry: a reduced sweep that still pairs the
    backends and checks the vectorized one wins on dense cultures."""
    suite = BenchSuite("neuro")
    benchmark.pedantic(
        lambda: run_recording_sweep(
            sizes=[(32, 32, 24)], duration_s=0.02, suite=suite, end_to_end=False
        ),
        rounds=1,
        iterations=1,
    )
    print()
    print(render_speedups(suite))
    speedup = suite.speedup_at("measure", 32, 32)
    assert speedup is not None and speedup > 1.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="one size + short duration (CI smoke)")
    parser.add_argument("--out", default="BENCH_neuro.json", help="output JSON path")
    parser.add_argument("--duration", type=float, default=None, help="recording length in seconds")
    parser.add_argument("--points", type=int, default=None, help="campaign points (default 64; 16 with --quick)")
    parser.add_argument(
        "--assert-speedup",
        type=float,
        default=None,
        metavar="X",
        help="exit non-zero unless measure-path speedup at the largest size is >= X",
    )
    parser.add_argument(
        "--assert-batched-speedup",
        type=float,
        default=None,
        metavar="Y",
        help="exit non-zero unless the batched neural campaign is >= Y x serial",
    )
    args = parser.parse_args(argv)

    sizes = QUICK_SIZES if args.quick else FULL_SIZES
    duration = args.duration if args.duration is not None else 0.05
    points = args.points if args.points is not None else (16 if args.quick else 64)

    suite = run_recording_sweep(sizes=sizes, duration_s=duration, end_to_end=not args.quick)
    print(render_speedups(suite))
    campaign_block = run_campaign_comparison(points)
    print()
    print(render_campaigns(campaign_block))

    data = suite.to_dict()
    data["campaigns"] = campaign_block
    data["env"] = environment()
    target = Path(args.out)
    target.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(f"wrote {target}")

    failures = []
    for kind, entry in campaign_block.items():
        if not entry["identical"]:
            failures.append(f"batched {kind} campaign results differ from serial")
    if args.assert_speedup is not None:
        rows, cols, _ = sizes[-1]
        speedup = suite.speedup_at("measure", rows, cols)
        if speedup is None or speedup < args.assert_speedup:
            failures.append(
                f"measure speedup at {rows}x{cols} is "
                f"{speedup if speedup is not None else 'missing'}, "
                f"required >= {args.assert_speedup}"
            )
        else:
            print(f"OK: measure speedup at {rows}x{cols} is {speedup:.1f}x")
    if args.assert_batched_speedup is not None:
        speedup = campaign_block["neural_recording"]["speedup"]
        if speedup < args.assert_batched_speedup:
            failures.append(
                f"batched campaign speedup is {speedup:.1f}x, "
                f"required >= {args.assert_batched_speedup}"
            )
        else:
            print(f"OK: batched campaign speedup is {speedup:.1f}x")
    for failure in failures:
        print(f"FAIL: {failure}")
    return 2 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
