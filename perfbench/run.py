"""The biosensor stack's end-to-end benchmark.

Run from the repository root::

    python3 perfbench/run.py --workload fig4_dose --seed 0 --seconds 33 --trace 0

``--trace 0`` measures every end-to-end metric with nothing wrapped.
``--trace 1`` alternates traced and untraced rounds: traced rounds wrap
each layer's entry points (``spans.py``) and give the per-layer metrics,
and the untraced ones give the tracing overhead.  Either way every
round's outputs are checked (``checks.py``) and the last line printed is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
``--out FILE`` also appends the full record of the run (environment,
every metric, per-layer self times) to FILE as one JSON line, which
``compare.py`` reads.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Iterable

import numpy

import checks
import scenarios
import spans

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: Metric names, units and bounds: BENCHMARK.json is the one list.
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {metric["name"]: metric["unit"] for metric in BENCHMARK["end_to_end"]}
PER_LAYER = {metric["name"]: metric["unit"] for metric in BENCHMARK["per_layer"]}
#: Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 5
IMPORTS = (
    "numpy",
    "repro.campaigns",
    "repro.experiments",
    "repro.inference",
    "repro.service.client",
    "repro.service.server",
)


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=33.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    return parser.parse_args(argv)


def git_rev() -> str | None:
    """The checked-out commit, read from ``.git`` without running git;
    ``None`` outside a git checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: ") :]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(args: argparse.Namespace) -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_rev": git_rev(),
        "seed": args.seed,
        "trace": bool(args.trace),
        "workload": args.workload,
        "seconds": args.seconds,
    }


def import_seconds() -> float:
    """Median import time of the stack, each in a fresh interpreter."""
    code = (
        "import time\n"
        "start = time.perf_counter()\n"
        + "".join(f"import {module}\n" for module in IMPORTS)
        + "print(time.perf_counter() - start)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        child = subprocess.run(
            [sys.executable, "-c", code],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        times.append(float(child.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def quantile(values: list[float], q: float) -> float:
    return float(numpy.percentile(values, q * 100.0))


def best(per_round: Iterable[list[float]]) -> list[float]:
    """Position by position, the smallest reading over the rounds."""
    return [min(readings) for readings in zip(*per_round)]


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"no repro package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in scenarios.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(scenarios.WORKLOADS)}",
              file=sys.stderr)
        return 2
    scratch = ROOT / ".perfbench" / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    workload = scenarios.WORKLOADS[args.workload](args.seed, "default", scratch)
    try:
        return measure(args, workload)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            scratch.parent.rmdir()


def measure(args: argparse.Namespace, workload: object) -> int:
    # Set-up: imports, server start and a warm-up point or job, all
    # before timing starts; repeated and reported as a median.
    import_s = import_seconds()
    warm = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        start = time.perf_counter()
        workload.warm_up()
        warm.append(time.perf_counter() - start)
    setup_s = import_s + statistics.median(warm)

    rounds, plain, layers, self_s, traced_walls = [], [], [], [], []
    attempted = failed = 0
    first_digest = first_counts = None
    deadline = time.perf_counter() + args.seconds
    index = 0
    while True:
        traced = bool(args.trace) and index % 2 == 0
        index += 1
        # Hygiene: the previous round's results are already unreachable;
        # collect them now so the collector never runs inside a round.
        gc.collect()
        recorder = spans.Recorder() if traced else spans.NullRecorder()
        attempted += 1  # this round's output check
        try:
            with spans.traced(recorder) if traced else contextlib.nullcontext():
                round_ = workload.round(recorder)
        except Exception:  # noqa: BLE001 — a failed round is counted and the run goes on
            traceback.print_exc(file=sys.stderr)
            failed += 1
            if time.perf_counter() >= deadline:
                break
            continue
        try:
            checks.check_round(args.workload, args.seed, "default", round_.digest, first_digest)
        except checks.OutputMismatch as error:
            # Wrong outputs still took their time: keep the timing.
            print(error, file=sys.stderr)
            failed += 1
        first_digest = first_digest or round_.digest
        attempted += round_.units
        failed += round_.failed_units
        rounds.append(round_)
        if traced:
            values = scenarios.layer_values(recorder, round_)
            counts = {name: values[name] for name in scenarios.EXACT_COUNTS}
            attempted += 1
            if first_counts is not None and counts != first_counts:
                print(f"counts changed between rounds: {first_counts} -> {counts}",
                      file=sys.stderr)
                failed += 1
            first_counts = first_counts or counts
            layers.append(values)
            self_s.append(dict(recorder.self_s))
            traced_walls.append(round_.wall_s)
        else:
            plain.append(round_)
        # Stop at the first round that ends past the deadline, once every
        # kind of round the run needs has run.  Finishing the last round
        # rather than skipping it gives ``best`` one more reading of each
        # point, which matters most to the service's few long rounds.
        if time.perf_counter() > deadline and (layers or not args.trace) and plain:
            break
    if not plain or (args.trace and not layers):
        print("no round completed", file=sys.stderr)
        return 1

    # Every untraced round repeats the same inputs, and a busy neighbour
    # on a shared host only ever adds time to a reading, so each point,
    # job and analysis sample is timed by its fastest reading over the
    # rounds; quantiles are then taken across them.  points/s divides a
    # round's points by the round rebuilt from those readings plus the
    # fastest time a round spent outside them (a campaign's compile and
    # bookkeeping, the client's work between jobs).
    latencies = best(r.latencies_ms for r in plain)
    between_s = min(r.timed_s - sum(r.latencies_ms) / 1e3 for r in plain)
    per_round = {"points_per_s": [r.points / r.timed_s for r in plain]}
    end_to_end = {
        "setup_s": setup_s,
        "analysis_s": statistics.median(best(r.analysis_s for r in plain)),
        "points_per_s": plain[0].points / (sum(latencies) / 1e3 + between_s),
        "job_p50_ms": quantile(latencies, 0.5),
        "job_p90_ms": quantile(latencies, 0.9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    per_layer = {}
    if args.trace:
        per_layer = {name: statistics.median(v[name] for v in layers) for name in layers[0]}
        per_layer["trace.overhead_frac"] = (
            statistics.median(traced_walls) / statistics.median(r.wall_s for r in plain) - 1.0
        )
    record = {
        "env": environment(args),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "rounds": len(rounds),
        "job_samples": sum(len(r.latencies_ms) for r in plain),
        "per_round": per_round,
        "digest": first_digest,
        "metrics": {**end_to_end, **per_layer},
        "self_s": {
            name: statistics.median(s.get(name, 0.0) for s in self_s)
            for name in sorted({name for s in self_s for name in s})
        },
    }
    print(json.dumps({"env": record["env"]}, sort_keys=True))
    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds, "
          f"{record['job_samples']} job samples, failed {failed}/{attempted}, "
          f"digest {first_digest}")
    for name, value in record["metrics"].items():
        print(f"  {name:28s} {value:14.6g}")
    if args.out is not None:
        with args.out.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    units = PER_LAYER if args.trace else END_TO_END
    source = per_layer if args.trace else end_to_end
    print(json.dumps({
        "correct": record["correct"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": source[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
