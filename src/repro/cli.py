"""The ``repro`` command line — run specs and campaigns from JSON.

Nine subcommands wrap the experiment front door::

    repro kinds                               # registered experiment kinds
    repro run    --spec examples/specs/dna_assay.json [--backend vectorized]
    repro sweep  --campaign campaign.json --executor process --out results/
    repro sweep  --spec base.json --grid concentration=1e-7,1e-6,1e-5 \\
                 --replicates 4 --store jsonl --out results/
    repro sweep  --resume results/            # finish an interrupted sweep
    repro report  --store results/ --metrics discrimination_ratio
    repro analyze results/ [--analysis dose_response] [--json | --markdown]
    repro serve   --cache-dir cache/ --jobs-root jobs/
    repro submit  --campaign campaign.json --wait
    repro lint    src/ [--json] [--select D,S] [--list-rules]
    repro trace   [--spec spec.json] [--flip 42,43] [--render waveform] [--check]

``run`` executes one spec and prints its scalar metrics (``--json`` for
the full ResultSet payload).  ``sweep`` builds a
:class:`~repro.campaigns.spec.CampaignSpec` — either loaded whole from
``--campaign`` or assembled from ``--spec`` plus ``--grid``/``--zip``/
``--replicates`` flags — picks backend/executor/store from flags, and
prints the per-point metrics table.  ``--executor batched`` compiles
same-spec vectorized-kind point groups into chip-batched engine calls
(bit-identical per point to serial dispatch); ``--flush-every N``
buffers the jsonl store's appends to cut per-point fsync overhead.  ``report`` reloads a finished
JSONL campaign directory and prints the same table without re-running
anything.  ``analyze`` runs a registered statistical analysis
(:mod:`repro.inference`) over a stored campaign — dose–response fits
with LoD and bootstrap CIs, detection ROC, chip-yield statistics — and
emits the report as text, markdown or JSON; reports are bit-identical
however the campaign was executed.

``sweep --cache-dir`` routes the campaign through the content-addressed
result cache (:mod:`repro.service`): points already computed under the
same ``(spec, seed, backend, version)`` key replay from disk, duplicate
points compute once.  ``sweep --resume <dir>`` finishes an interrupted
JSONL campaign in place, skipping every point its partial
``results.jsonl`` already holds — bit-identically to an uninterrupted
run.  ``serve`` starts the background job service (HTTP/JSON, see
:mod:`repro.service.server` for the endpoint table) and ``submit``
sends a campaign to it.  ``lint`` runs the AST-based determinism/purity
linter (:mod:`repro.lint`) over the tree — the static half of the
bit-parity contract, wired into CI at zero findings.  ``trace`` replays
a spec's digital readout under a cycle-accurate recorder
(:mod:`repro.trace`) and renders the capture as an event table, ASCII
waveform or per-bit frame dump, optionally injecting bit corruption
(``--flip``) and checking readout invariants (``--check``).

Installed as a console script (``repro``) and runnable as
``python -m repro`` from a plain checkout.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Optional, Sequence

from .campaigns import (
    EXECUTORS,
    STORES,
    CampaignSpec,
    JsonlResultStore,
    make_store,
    manifest_summary,
    metrics_table,
    prepare_campaign,
)
from .core.tables import render_kv
from .experiments import (
    BACKENDS,
    Runner,
    experiment_kinds,
    spec_from_dict,
    validate_backend,
)
from .lint.cli import add_lint_parser
from .trace.cli import add_trace_parser


def _load_json(path: str) -> Any:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise SystemExit(f"repro: no such file: {path}")
    except OSError as error:  # directory, permissions, ...
        raise SystemExit(f"repro: cannot read {path}: {error}")
    except json.JSONDecodeError as error:
        raise SystemExit(f"repro: {path} is not valid JSON: {error}")


def _parse_value(token: str) -> Any:
    """Axis/field values: JSON literals when they parse, strings otherwise."""
    try:
        return json.loads(token)
    except json.JSONDecodeError:
        return token


def _split_values(text: str) -> list[str]:
    """Split on top-level commas only, so JSON list and string values
    work: ``"[1,2],[1,2,3]"`` -> ``["[1,2]", "[1,2,3]"]`` and commas
    inside quoted strings never split."""
    items: list[str] = []
    depth, start = 0, 0
    in_string = False
    escaped = False
    for i, char in enumerate(text):
        if in_string:
            if escaped:
                escaped = False
            elif char == "\\":
                escaped = True
            elif char == '"':
                in_string = False
            continue
        if char == '"':
            in_string = True
        elif char in "[{":
            depth += 1
        elif char in "]}":
            depth -= 1
        elif char == "," and depth == 0:
            items.append(text[start:i])
            start = i + 1
    items.append(text[start:])
    return items


def _parse_axis(option: str, tokens: Sequence[str]) -> dict[str, tuple]:
    """``field=v1,v2,...`` (repeatable) -> {field: (v1, v2, ...)}.

    Values are JSON literals when they parse (including lists for
    tuple-valued spec fields, split only on top-level commas) and
    strings otherwise.
    """
    axes: dict[str, tuple] = {}
    for token in tokens:
        name, sep, values = token.partition("=")
        if not sep or not name or not values:
            raise SystemExit(f"repro: {option} expects field=v1,v2,..., got {token!r}")
        if name in axes:
            raise SystemExit(f"repro: duplicate {option} axis {name!r}")
        axes[name] = tuple(_parse_value(item) for item in _split_values(values))
    return axes


def _metrics_list(option_value: Optional[str]) -> Optional[list[str]]:
    if option_value is None:
        return None
    return [name.strip() for name in option_value.split(",") if name.strip()]


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------
def _cmd_kinds(args: argparse.Namespace) -> int:
    """Each kind with its sweepable axes (the spec's dataclass fields) —
    every listed field works with ``sweep --grid``/``--zip``, so wafer
    axes like ``reticle_sigma`` are discoverable without reading code."""
    import dataclasses

    from .experiments import experiment_type

    width = max(len(kind) for kind in experiment_kinds())
    for kind in experiment_kinds():
        fields = [field.name for field in dataclasses.fields(experiment_type(kind))]
        print(f"{kind:<{width}}  {','.join(fields)}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        spec = spec_from_dict(_load_json(args.spec))
        validate_backend(spec.kind, args.backend)
    except (KeyError, TypeError, ValueError) as error:
        raise SystemExit(f"repro: {error}")
    runner = Runner(seed=args.seed)
    result = runner.run(spec, backend=args.backend)
    if args.json:
        print(result.to_json(indent=2))
        return 0
    print(result.summary())
    print(render_kv("metrics", sorted(result.metrics.items())))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.resume:
        return _sweep_resume(args)
    if args.ignore_version:
        raise SystemExit("repro: --ignore-version only applies with --resume")
    # Setup (campaign construction, executor/store resolution) fails
    # with clean one-line messages; errors raised *during* execution
    # are real bugs and keep their tracebacks.
    try:
        if args.campaign:
            builder_flags = [
                flag
                for flag, value in (
                    ("--spec", args.spec),
                    ("--grid", args.grid),
                    ("--zip", args.zip),
                    ("--replicates", args.replicates != 1),
                    ("--name", args.name),
                )
                if value
            ]
            if builder_flags:
                raise SystemExit(
                    f"repro: --campaign already defines the sweep; "
                    f"drop {', '.join(builder_flags)} or build the campaign from --spec"
                )
            campaign = CampaignSpec.from_dict(_load_json(args.campaign))
        else:
            if not args.spec:
                raise SystemExit("repro: sweep needs --campaign or --spec")
            campaign = CampaignSpec(
                base=spec_from_dict(_load_json(args.spec)),
                grid=_parse_axis("--grid", args.grid),
                zip=_parse_axis("--zip", args.zip),
                replicates=args.replicates,
                name=args.name,
            )
        # The shared setup step validates every point's spec, backend,
        # executor, cache and store argument — with clean messages, and
        # before make_store can touch (with --force, truncate) the out
        # directory.
        prepared = prepare_campaign(
            campaign,
            seed=args.seed,
            executor=args.executor,
            workers=args.workers,
            backend=args.backend,
            cache=args.cache_dir or None,
            store=args.store,
            out=args.out,
            flush_every=args.flush_every,
        )
        store = make_store(
            args.store, out=args.out, overwrite=args.force, flush_every=args.flush_every
        )
    except (FileExistsError, KeyError, TypeError, ValueError) as error:
        raise SystemExit(f"repro: {error}")
    result = prepared.execute(store)
    return _print_sweep_result(args, result)


def _print_sweep_result(args: argparse.Namespace, result: Any) -> int:
    metrics = _metrics_list(args.metrics)
    if args.json:
        print(json.dumps(result.manifest, indent=2, sort_keys=True))
        return 0
    print(manifest_summary(result.manifest))
    if "cache" in result.manifest:
        block = result.manifest["cache"]
        print(
            f"cache: {block['hits']} hits, {block['computed']} computed, "
            f"{block['replayed']} replayed ({block['n_unique']}/{block['n_points']} unique)"
        )
    print()
    print(result.table(metrics=metrics))
    if args.out:
        print(f"\nresults stored under {args.out}")
    return 0


def _sweep_resume(args: argparse.Namespace) -> int:
    conflicts = [
        flag
        for flag, value in (
            ("--campaign", args.campaign),
            ("--spec", args.spec),
            ("--grid", args.grid),
            ("--zip", args.zip),
            ("--replicates", args.replicates != 1),
            ("--name", args.name),
            ("--seed", args.seed != 0),
            ("--store", args.store),
            ("--out", args.out),
            ("--force", args.force),
            ("--backend", args.backend),
        )
        if value
    ]
    if conflicts:
        raise SystemExit(
            f"repro: --resume replays the campaign recorded in the directory's "
            f"campaign.json; drop {', '.join(conflicts)}"
        )
    from .service import resume_campaign

    try:
        result = resume_campaign(
            args.resume,
            executor=args.executor,
            workers=args.workers,
            flush_every=args.flush_every,
            cache=args.cache_dir or None,
            ignore_version=args.ignore_version,
        )
    except (FileExistsError, FileNotFoundError, KeyError, TypeError, ValueError) as error:
        raise SystemExit(f"repro: {error}")
    resumed = result.manifest.get("resumed", {})
    print(
        f"resumed {args.resume}: {resumed.get('previously_completed', 0)} points "
        f"already done, {resumed.get('executed', 0)} executed now"
    )
    return _print_sweep_result(args, result)


def _cmd_report(args: argparse.Namespace) -> int:
    store = _load_campaign_store(args.store)
    if args.json:
        print(json.dumps(store.manifest or {}, indent=2, sort_keys=True))
        return 0
    if store.manifest:
        print(manifest_summary(store.manifest))
        print()
    print(metrics_table(store, metrics=_metrics_list(args.metrics)))
    return 0


def _load_campaign_store(path: str) -> JsonlResultStore:
    try:
        return JsonlResultStore.load(path)
    except FileNotFoundError as error:
        raise SystemExit(f"repro: {error}")
    except json.JSONDecodeError as error:  # before ValueError: its subclass
        raise SystemExit(f"repro: {path} holds corrupt campaign records: {error}")
    except ValueError as error:  # e.g. manifest schema mismatch
        raise SystemExit(f"repro: {error}")


def _cmd_analyze(args: argparse.Namespace) -> int:
    from .inference import analysis_from_dict, analysis_kinds, analyze

    if args.list:
        for kind in analysis_kinds():
            print(kind)
        return 0
    if not args.store:
        raise SystemExit("repro: analyze needs a campaign directory (or --list)")
    store = _load_campaign_store(args.store)
    overrides = {}
    for token in args.set:
        name, sep, value = token.partition("=")
        if not sep or not name:
            raise SystemExit(f"repro: --set expects field=value, got {token!r}")
        overrides[name] = _parse_value(value)
    try:
        if args.spec:
            if args.analysis:
                raise SystemExit("repro: pass --analysis or --spec, not both")
            analysis = analysis_from_dict(_load_json(args.spec))
            report = analyze(store, analysis, **overrides)
        else:
            report = analyze(store, args.analysis, **overrides)
    except (KeyError, TypeError, ValueError) as error:
        raise SystemExit(f"repro: {error}")
    if args.json:
        rendered = report.to_json(indent=2) + "\n"
    elif args.markdown:
        rendered = report.to_markdown()
    else:
        rendered = report.to_text() + "\n"
    if args.out:
        Path(args.out).write_text(rendered, encoding="utf-8")
        print(f"analysis written to {args.out}")
        return 0
    print(rendered, end="")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service import serve

    try:
        return serve(
            args.host,
            args.port,
            workers=args.workers,
            cache=args.cache_dir or None,
            root=args.jobs_root or None,
            verbose=args.verbose,
        )
    except OSError as error:  # port in use, bad cache dir, ...
        raise SystemExit(f"repro: {error}")
    except ValueError as error:  # cache schema mismatch, bad workers
        raise SystemExit(f"repro: {error}")


def _cmd_submit(args: argparse.Namespace) -> int:
    import urllib.error

    from .service import ServiceClient, ServiceError

    client = ServiceClient(args.url, timeout=args.timeout)
    campaign = _load_json(args.campaign)
    options: dict[str, Any] = {
        "seed": args.seed,
        "executor": args.executor,
        "flush_every": args.flush_every,
    }
    if args.workers is not None:
        options["workers"] = args.workers
    if args.backend is not None:
        options["backend"] = args.backend
    try:
        job = client.submit(campaign, **options)
        if args.wait:
            job = client.wait(job["id"], timeout=args.timeout)
    except ServiceError as error:
        raise SystemExit(f"repro: {error}")
    except urllib.error.URLError as error:
        raise SystemExit(f"repro: cannot reach {args.url}: {error.reason}")
    except TimeoutError as error:
        raise SystemExit(f"repro: {error}")
    if args.json:
        print(json.dumps(job, indent=2, sort_keys=True))
    else:
        line = f"{job['id']}: {job['status']} ({job['n_done']}/{job['n_points']} points)"
        if job.get("cache"):
            block = job["cache"]
            line += f", cache {block['hits']} hits / {block['computed']} computed"
        print(line)
        if job.get("error"):
            print(f"error: {job['error']}")
    return 0 if job["status"] in ("queued", "running", "done") else 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Run CMOS-biosensor experiment specs and campaigns from JSON.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    kinds = sub.add_parser("kinds", help="list registered experiment kinds")
    kinds.set_defaults(func=_cmd_kinds)

    run = sub.add_parser("run", help="execute one spec JSON and print its metrics")
    run.add_argument("--spec", required=True, help="path to an ExperimentSpec JSON file")
    run.add_argument("--seed", type=int, default=0, help="Runner root seed (default 0)")
    run.add_argument("--backend", choices=BACKENDS, default=None, help="compute backend")
    run.add_argument("--json", action="store_true", help="print the full ResultSet JSON")
    run.set_defaults(func=_cmd_run)

    sweep = sub.add_parser("sweep", help="run a declarative campaign")
    sweep.add_argument("--campaign", help="path to a CampaignSpec JSON file")
    sweep.add_argument("--spec", help="base ExperimentSpec JSON (with --grid/--zip)")
    sweep.add_argument(
        "--grid",
        action="append",
        default=[],
        metavar="FIELD=V1,V2,...",
        help="cartesian-product axis (repeatable)",
    )
    sweep.add_argument(
        "--zip",
        action="append",
        default=[],
        metavar="FIELD=V1,V2,...",
        help="lockstep axis (repeatable, equal lengths)",
    )
    sweep.add_argument("--replicates", type=int, default=1, help="seed-varied repeats per point")
    sweep.add_argument("--name", default="", help="campaign name for the manifest")
    sweep.add_argument("--seed", type=int, default=0, help="campaign root seed (default 0)")
    sweep.add_argument(
        "--executor",
        choices=EXECUTORS,
        default="serial",
        help="serial/process, or 'batched' to compile vectorized-kind "
        "point groups into chip-batched engine calls",
    )
    sweep.add_argument("--workers", type=int, default=None, help="worker count (default: cores)")
    sweep.add_argument("--store", choices=STORES, default=None, help="result store")
    sweep.add_argument("--out", default=None, help="directory for the jsonl store")
    sweep.add_argument(
        "--flush-every",
        type=int,
        default=1,
        metavar="N",
        help="jsonl buffered append mode: flush every N completed points "
        "(default 1 = flush per point)",
    )
    sweep.add_argument(
        "--force",
        action="store_true",
        help="allow --out to replace a directory holding a finalized campaign",
    )
    sweep.add_argument("--backend", choices=BACKENDS, default=None, help="compute backend")
    sweep.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="content-addressed result cache: replay already-computed points, "
        "store newly computed ones",
    )
    sweep.add_argument(
        "--resume",
        default=None,
        metavar="DIR",
        help="finish an interrupted campaign directory in place (skips points "
        "its partial results.jsonl already holds)",
    )
    sweep.add_argument(
        "--ignore-version",
        action="store_true",
        help="with --resume: accept a directory started by a different engine "
        "version (the finished results.jsonl then mixes versions)",
    )
    sweep.add_argument("--metrics", default=None, help="comma-separated metric columns")
    sweep.add_argument("--json", action="store_true", help="print the manifest JSON instead")
    sweep.set_defaults(func=_cmd_sweep)

    report = sub.add_parser("report", help="re-print the table of a stored campaign")
    report.add_argument("--store", required=True, help="campaign directory (jsonl store)")
    report.add_argument("--metrics", default=None, help="comma-separated metric columns")
    report.add_argument("--json", action="store_true", help="print the manifest JSON instead")
    report.set_defaults(func=_cmd_report)

    analyze = sub.add_parser(
        "analyze", help="run a statistical analysis over a stored campaign"
    )
    analyze.add_argument(
        "store", nargs="?", default=None, help="campaign directory (jsonl store)"
    )
    analyze.add_argument(
        "--analysis",
        default=None,
        help="analysis kind (default: inferred from the campaign; see --list)",
    )
    analyze.add_argument("--spec", help="path to a full AnalysisSpec JSON file")
    analyze.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="FIELD=VALUE",
        help="override an analysis spec field (repeatable)",
    )
    analyze.add_argument("--list", action="store_true", help="list registered analysis kinds")
    analyze.add_argument("--json", action="store_true", help="emit the report as JSON")
    analyze.add_argument("--markdown", action="store_true", help="emit the report as markdown")
    analyze.add_argument("--out", default=None, help="write the report to a file instead of stdout")
    analyze.set_defaults(func=_cmd_analyze)

    serve = sub.add_parser("serve", help="run the campaign job service (HTTP/JSON)")
    serve.add_argument("--host", default="127.0.0.1", help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8750, help="bind port (default 8750)")
    serve.add_argument(
        "--workers", type=int, default=1, help="campaign worker threads (default 1)"
    )
    serve.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="content-addressed result cache shared by all jobs",
    )
    serve.add_argument(
        "--jobs-root",
        default=None,
        metavar="DIR",
        help="give each job a jsonl directory under DIR/<job-id> "
        "(default: results stay in memory)",
    )
    serve.add_argument("--verbose", action="store_true", help="log every request")
    serve.set_defaults(func=_cmd_serve)

    submit = sub.add_parser("submit", help="send a campaign to a running service")
    submit.add_argument("--campaign", required=True, help="path to a CampaignSpec JSON file")
    submit.add_argument(
        "--url", default="http://127.0.0.1:8750", help="service base URL"
    )
    submit.add_argument("--seed", type=int, default=0, help="campaign root seed (default 0)")
    submit.add_argument(
        "--executor",
        choices=EXECUTORS,
        default="serial",
        help="executor the service runs the job with",
    )
    submit.add_argument("--workers", type=int, default=None, help="worker count for the job")
    submit.add_argument("--backend", choices=BACKENDS, default=None, help="compute backend")
    submit.add_argument(
        "--flush-every", type=int, default=1, metavar="N", help="jsonl buffered append mode"
    )
    submit.add_argument(
        "--wait", action="store_true", help="poll until the job finishes before returning"
    )
    submit.add_argument(
        "--timeout", type=float, default=300.0, help="request/wait timeout in seconds"
    )
    submit.add_argument("--json", action="store_true", help="print the status snapshot JSON")
    submit.set_defaults(func=_cmd_submit)

    add_lint_parser(sub)
    add_trace_parser(sub)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # `repro report ... | head` is normal usage; die quietly.  Point
        # stdout at devnull so interpreter shutdown doesn't re-raise.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
