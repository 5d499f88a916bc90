"""Compare two benchmark result files: parent commit against change.

Usage, from the repository root::

    python3 perfbench/compare.py parent.jsonl change.jsonl

Each file holds the JSON lines ``run.py --out FILE`` appends, one per
run.  For every workload and end-to-end metric this prints both sides'
median and quartiles over the untraced runs and a verdict against the
metric's bound in ``BENCHMARK.json``:

* ``worse`` — the change's median is worse than the parent's by more
  than the bound;
* ``better`` — the change wins at least nine tenths of the runs paired
  by seed (the n-th run at a seed on one side with the n-th on the
  other) and its median is better by more than the parent's own
  quartile spread (or, when that spread exceeds the bound, every change
  run beats every parent run);
* ``unresolved`` — the parent's spread is wider than the bound, so
  "no change" cannot be claimed;
* ``same`` — otherwise.

For every layer it then prints both sides' median self time (span time
minus child spans) and the per-layer metrics over the traced runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import Counter, defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def load(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line]


def spread(values: list[float]) -> tuple[float, float, float]:
    """Median and first/third quartiles, as ``statistics.quantiles``
    gives them (a single value is its own quartiles)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def keyed(records: list[dict], name: str) -> dict[tuple[int, int], float]:
    """Metric ``name`` of every run, keyed by ``(seed, n)``: the n-th run
    at that seed in file order, so repeated seeds are all kept and pair
    up in order."""
    seen: Counter[int] = Counter()
    values = {}
    for record in records:
        seed = record["env"]["seed"]
        values[(seed, seen[seed])] = record["metrics"][name]
        seen[seed] += 1
    return values


def verdict(
    parent: dict[tuple[int, int], float],
    change: dict[tuple[int, int], float],
    bound: float,
    lower: bool,
) -> str:
    """``parent``/``change`` as ``keyed`` gives them; see the module
    docstring."""
    sign = 1.0 if lower else -1.0
    p_med, p_q1, p_q3 = spread(list(parent.values()))
    c_med = spread(list(change.values()))[0]
    if not p_med:
        return "unresolved"
    worse = sign * (c_med - p_med) / abs(p_med)
    p_spread = (p_q3 - p_q1) / abs(p_med)
    if worse > bound:
        return "worse"
    paired = [key for key in parent if key in change]
    wins = sum(sign * (change[k] - parent[k]) < 0 for k in paired)
    all_better = all(
        sign * (c - p) < 0 for c in change.values() for p in parent.values()
    )
    if p_spread > bound:
        return "better" if all_better else "unresolved"
    if paired and wins >= 0.9 * len(paired) and -worse > p_spread:
        return "better"
    return "same"


def table(rows: list[list[str]]) -> str:
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return "\n".join(
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)) for row in rows
    )


def by_workload(records: list[dict], traced: bool) -> dict[str, list[dict]]:
    grouped: dict[str, list[dict]] = defaultdict(list)
    for record in records:
        if record["env"]["trace"] == traced:
            grouped[record["env"]["workload"]].append(record)
    return grouped


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="compare two benchmark result files")
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    parent, change = load(args.parent), load(args.change)

    rows = [["workload", "metric", "parent median [q1, q3] (n)", "change median [q1, q3] (n)",
             "delta", "verdict"]]
    old, new = by_workload(parent, False), by_workload(change, False)
    for workload in sorted(set(old) & set(new)):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a, b = keyed(old[workload], name), keyed(new[workload], name)
            (am, aq1, aq3), (bm, bq1, bq3) = spread(list(a.values())), spread(list(b.values()))
            rows.append([
                workload, f"{name} [{metric['unit']}]",
                f"{am:.4g} [{aq1:.4g}, {aq3:.4g}] ({len(a)})",
                f"{bm:.4g} [{bq1:.4g}, {bq3:.4g}] ({len(b)})",
                f"{(bm - am) / am:+.1%}" if am else "n/a",
                verdict(a, b, metric["bound"], metric["better"] == "lower"),
            ])
    print(table(rows))

    old, new = by_workload(parent, True), by_workload(change, True)
    for workload in sorted(set(old) & set(new)):
        rows = [["layer", "parent", "change", "delta"]]
        names = sorted({n for r in old[workload] + new[workload] for n in r["self_s"]})
        for name in names:
            a = statistics.median(r["self_s"].get(name, 0.0) for r in old[workload])
            b = statistics.median(r["self_s"].get(name, 0.0) for r in new[workload])
            rows.append([f"{name} self [s]", f"{a:.4g}", f"{b:.4g}",
                         f"{(b - a) / a:+.1%}" if a else "n/a"])
        for metric in spec["per_layer"]:
            name = metric["name"]
            a = statistics.median(r["metrics"][name] for r in old[workload])
            b = statistics.median(r["metrics"][name] for r in new[workload])
            rows.append([f"{name} [{metric['unit']}]", f"{a:.4g}", f"{b:.4g}",
                         f"{(b - a) / a:+.1%}" if a else "n/a"])
        print(f"\n{workload}: traced runs, medians per round")
        print(table(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
