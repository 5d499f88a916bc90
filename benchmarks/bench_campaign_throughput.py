"""Campaign throughput: points/sec for serial vs process executors,
on the object and vectorized backends.

The campaign layer's perf claim is orchestration, not kernels: the same
plan, streamed through different executors, must scale with cores while
staying bit-identical.  This benchmark times a fixed dna_assay campaign
(concentration grid × chip replicates) through every executor × backend
combination and writes ``BENCH_campaigns.json`` via the shared
``benchmarks/_harness.py`` schema — records carry ``points_per_s`` and
process records additionally carry ``speedup_vs_serial``.

The process executor is the multi-core path, and the CI campaigns-smoke
job asserts its speedup on a multi-core runner.  ``cpu_count`` is
recorded in every record's meta so single-core measurements are legible
as such.

Run:  PYTHONPATH=src python benchmarks/bench_campaign_throughput.py \\
          [--quick] [--points N] [--workers N] [--out BENCH_campaigns.json] \\
          [--assert-process-speedup X [--assert-min-cores 4]]
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from _harness import BenchSuite  # noqa: E402

from repro.campaigns import CampaignSpec, MemoryResultStore, run_campaign  # noqa: E402
from repro.experiments import BACKENDS, DnaAssaySpec  # noqa: E402

CONCENTRATIONS = (1e-8, 1e-7, 1e-6, 1e-5)
EXECUTOR_ORDER = ("serial", "process")

#: Per-point workloads.  ``small`` keeps the committed BENCH cheap to
#: regenerate; ``fig4`` is the paper-default assay (~4x the per-point
#: work), heavy enough that pool startup amortizes — what the CI
#: campaigns-smoke job times when asserting multi-core speedup.
BASES = {
    "small": DnaAssaySpec(probe_count=4, replicates=4, target_subset=(0, 1)),
    "fig4": DnaAssaySpec(probe_count=16, replicates=8, target_subset=(0, 1, 2, 3)),
}


def build_campaign(points: int, base: str = "small") -> CampaignSpec:
    """A dose-grid × chip-replicates campaign of exactly ``points``."""
    replicates = max(1, points // len(CONCENTRATIONS))
    return CampaignSpec(
        base=BASES[base],
        grid={"concentration": CONCENTRATIONS},
        replicates=replicates,
        name=f"bench-throughput-{base}",
    )


def bench_campaign_throughput(
    points: int = 32,
    workers: int | None = None,
    repeats: int = 1,
    base: str = "small",
    suite: BenchSuite | None = None,
) -> BenchSuite:
    suite = suite or BenchSuite("campaigns")
    campaign = build_campaign(points, base=base)
    n_points = campaign.n_points
    workers = workers or (os.cpu_count() or 1)
    base_spec = campaign.base
    for backend in BACKENDS:
        serial_wall = None
        for executor in EXECUTOR_ORDER:
            effective_workers = 1 if executor == "serial" else workers

            def run_once() -> None:
                run_campaign(
                    campaign,
                    seed=1,
                    executor=executor,
                    workers=effective_workers,
                    store=MemoryResultStore(),
                    backend=backend,
                )

            meta = {
                "executor": executor,
                "workers": effective_workers,
                "points": n_points,
                "base": base,
                "cpu_count": os.cpu_count() or 1,
            }
            _, record = suite.time(
                f"campaign_{executor}",
                run_once,
                backend=backend,
                rows=base_spec.rows,
                cols=base_spec.cols,
                repeats=repeats,
                **meta,
            )
            record.meta["points_per_s"] = n_points / record.wall_s
            if executor == "serial":
                serial_wall = record.wall_s
            elif serial_wall is not None:
                record.meta["speedup_vs_serial"] = serial_wall / record.wall_s
            label = f"{backend:>10s} × {executor:<7s}"
            extra = (
                f"  ({record.meta['speedup_vs_serial']:.2f}x vs serial)"
                if "speedup_vs_serial" in record.meta
                else ""
            )
            print(
                f"{label}: {n_points} points in {record.wall_s:.3f}s "
                f"= {record.meta['points_per_s']:7.1f} points/s{extra}"
            )
    return suite


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--points", type=int, default=32, help="campaign size (default 32)")
    parser.add_argument("--quick", action="store_true", help="12-point campaign, 1 repeat")
    parser.add_argument("--workers", type=int, default=None, help="parallel worker count")
    parser.add_argument("--repeats", type=int, default=1, help="best-of-N timing")
    parser.add_argument(
        "--base", choices=sorted(BASES), default="small", help="per-point workload"
    )
    parser.add_argument("--out", default="BENCH_campaigns.json", help="output JSON path")
    parser.add_argument(
        "--assert-process-speedup",
        type=float,
        default=None,
        metavar="X",
        help="fail unless process-executor speedup vs serial >= X (object backend)",
    )
    parser.add_argument(
        "--assert-min-cores",
        type=int,
        default=2,
        help="skip the speedup assertion below this many cores (default 2)",
    )
    args = parser.parse_args(argv)
    points = 12 if args.quick else args.points

    suite = bench_campaign_throughput(
        points=points, workers=args.workers, repeats=args.repeats, base=args.base
    )
    path = suite.write(args.out)
    print(f"\nwrote {path}")

    if args.assert_process_speedup is not None:
        cores = os.cpu_count() or 1
        if cores < args.assert_min_cores:
            print(
                f"skipping --assert-process-speedup: only {cores} core(s) "
                f"(< {args.assert_min_cores}); parallel speedup is not measurable here"
            )
            return 0
        process_records = [
            r
            for r in suite.records
            if r.backend == "object" and r.meta.get("executor") == "process"
        ]
        speedup = max(r.meta.get("speedup_vs_serial", 0.0) for r in process_records)
        print(f"process-executor speedup vs serial (object backend): {speedup:.2f}x")
        if speedup < args.assert_process_speedup:
            print(
                f"FAIL: expected >= {args.assert_process_speedup:.2f}x on {cores} cores",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
