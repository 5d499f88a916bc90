"""Wafer-scale evaluation — throughput and peak memory (repro.wafer).

Times full-wafer runs (73 dies of ``rows x cols`` pixels on a 120 mm
wafer) through the tiled evaluator, white-only and with the
correlated field on, and records the process peak RSS.  The point of
the tiled path is that a million-pixel wafer runs in bounded memory —
resident planes are capped by ``repro.engine.STACK_SITES``, not the wafer size
— so CI's wafer-smoke job runs ``--quick`` with ``--assert-max-rss-mb``
and ``--assert-min-sites 1000000`` and fails if either the memory bound
or the scale claim regresses.

Results go to ``BENCH_wafer.json`` via ``benchmarks/_harness.py``.

Standalone::

    PYTHONPATH=src python benchmarks/bench_wafer.py [--quick] \
        [--out BENCH_wafer.json] [--assert-max-rss-mb 500] \
        [--assert-min-sites 1000000]
"""

import argparse
import resource
import sys

from _harness import BenchSuite

from repro.core import render_table, units
from repro.engine import STACK_SITES
from repro.wafer import WaferSpec, wafer_records_and_metrics

FULL_SIZES = [(32, 32), (64, 64), (128, 128)]
QUICK_SIZES = [(128, 128)]  # the million-pixel wafer is the claim


def make_spec(rows: int, cols: int, frame_s: float, correlated: bool) -> WaferSpec:
    return WaferSpec(
        wafer_diameter_mm=120.0,  # 73 dies: 128x128 pixels each tops 1M sites
        rows=rows,
        cols=cols,
        frame_s=frame_s,
        radial_gradient=0.25 if correlated else 0.0,
        reticle_sigma=0.25 if correlated else 0.0,
    )


def peak_rss_mb() -> float:
    """Process high-water resident set, MB (ru_maxrss is KB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_wafer_sweep(sizes=FULL_SIZES, frame_s: float = 0.05, seed: int = 7) -> BenchSuite:
    suite = BenchSuite("wafer")
    for rows, cols in sizes:
        for name, correlated in (("wafer_white", False), ("wafer_correlated", True)):
            spec = make_spec(rows, cols, frame_s, correlated)
            layout = spec.layout()
            (_, metrics), _record = suite.time(
                name,
                lambda spec=spec: wafer_records_and_metrics(spec, seed),
                backend="vectorized",
                rows=rows,
                cols=cols,
                n_chips=layout.n_dies,
                frame_s=frame_s,
                sites_total=layout.n_dies * rows * cols,
                tile_sites=STACK_SITES,
                peak_rss_mb=round(peak_rss_mb(), 1),
            )
            assert metrics["sites_total"] == layout.n_dies * rows * cols
    return suite


def render(suite: BenchSuite) -> str:
    rows = [
        (
            f"{r.name}@{r.size_label}",
            f"{r.meta['sites_total']:,}",
            units.si_format(r.wall_s, "s"),
            units.si_format(r.meta["sites_total"] / r.wall_s, "sites/s"),
            f"{r.meta['peak_rss_mb']:.0f} MB",
        )
        for r in suite.records
    ]
    return render_table(
        ["wafer@dies", "sites", "wall", "throughput", "peak RSS"],
        rows,
        title="Wafer-scale tiled evaluation",
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="million-pixel size only (CI smoke)")
    parser.add_argument("--out", default="BENCH_wafer.json", help="output JSON path")
    parser.add_argument("--frame", type=float, default=None, help="counting frame in seconds")
    parser.add_argument(
        "--assert-max-rss-mb",
        type=float,
        default=None,
        metavar="MB",
        help="exit non-zero if process peak RSS exceeds MB (the tiled-evaluation memory bound)",
    )
    parser.add_argument(
        "--assert-min-sites",
        type=int,
        default=None,
        metavar="N",
        help="exit non-zero unless the largest wafer evaluated at least N pixels",
    )
    args = parser.parse_args(argv)

    sizes = QUICK_SIZES if args.quick else FULL_SIZES
    frame_s = args.frame if args.frame is not None else (0.02 if args.quick else 0.05)
    suite = run_wafer_sweep(sizes=sizes, frame_s=frame_s)
    print(render(suite))
    path = suite.write(args.out)
    print(f"wrote {path}")

    status = 0
    max_sites = max(record.meta["sites_total"] for record in suite.records)
    if args.assert_min_sites is not None:
        if max_sites < args.assert_min_sites:
            print(f"FAIL: largest wafer is {max_sites:,} sites, required >= {args.assert_min_sites:,}")
            status = 2
        else:
            print(f"OK: largest wafer is {max_sites:,} sites")
    if args.assert_max_rss_mb is not None:
        rss = peak_rss_mb()
        if rss > args.assert_max_rss_mb:
            print(f"FAIL: peak RSS {rss:.0f} MB exceeds the {args.assert_max_rss_mb:.0f} MB bound")
            status = 2
        else:
            print(f"OK: peak RSS {rss:.0f} MB <= {args.assert_max_rss_mb:.0f} MB")
    return status


if __name__ == "__main__":
    sys.exit(main())
