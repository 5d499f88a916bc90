"""Declarative analysis specifications — registered alongside experiments.

An :class:`AnalysisSpec` is to a stored campaign what an
:class:`~repro.experiments.specs.ExperimentSpec` is to a Runner: a
frozen, serializable description of *what to compute*, with the same
:class:`~repro.core.specs.Spec` base and ``kind`` registry, so analyses
travel as JSON through the CLI exactly like experiment specs do.  Five
kinds ship:

* ``dose_response`` — calibration-curve fit over a concentration axis
  with LoD / LoQ / dynamic range and bootstrap CIs (Fig. 4);
* ``detection`` — per-spot hybridization calling: match/mismatch
  separation, ROC/AUC, threshold at a target false-positive rate
  (Fig. 2's discrimination claim, made operational);
* ``yield`` — chip-level Monte-Carlo aggregation: pass/fail yield with
  Wilson intervals, metric spread, dead-pixel rates (Fig. 6);
* ``wafer_yield`` — die binning over stored wafer campaigns: ASCII
  wafer maps, per-wafer yield with Wilson intervals, cross-wafer yield
  with a seeded bootstrap CI;
* ``fault_tolerance`` — resilience accounting over fault-injection
  campaigns: detection vs silent-corruption rates, frame recovery
  yield and site survival with Wilson intervals, bootstrap CIs along
  ``faults.*`` sweep axes.

``analyze(source, analysis)`` is the front door: it accepts a
:class:`~repro.campaigns.store.CampaignResult`, any ResultStore, or a
campaign directory path, resolves the analysis (explicitly, or by
inspecting the campaign via :func:`default_analysis_for`), and returns
an :class:`~repro.inference.report.AnalysisReport`.  Reports are pure
functions of (stored data, analysis spec) — bit-identical across
repeated runs, executors and store backends.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path
from typing import Any, ClassVar, Optional

import numpy as np

from ..core.specs import KindRegistry, Spec
from . import detection as _detection
from . import doseresponse as _doseresponse
from . import yield_stats as _yield
from .bootstrap import bootstrap_ci
from .report import AnalysisReport, ReportTable
from .tabulate import CampaignFrame


@dataclass(frozen=True)
class AnalysisSpec(Spec):
    """Base of every analysis kind: the shared
    :class:`~repro.core.specs.Spec` machinery plus :meth:`run`."""

    def run(self, source: Any) -> AnalysisReport:
        """Analyse a CampaignResult / ResultStore and return the report."""
        raise NotImplementedError


ANALYSES = KindRegistry("analysis", AnalysisSpec)
register_analysis = ANALYSES.register
analysis_kinds = ANALYSES.kinds
analysis_type = ANALYSES.type_of
analysis_from_dict = ANALYSES.from_dict


def _source_block(store: Any, frame: CampaignFrame) -> dict[str, Any]:
    """Campaign provenance for the report header.

    Deliberately excludes executor, worker count and wall times: a
    report must be byte-identical however the campaign was executed.
    """
    manifest = getattr(store, "manifest", None) or {}
    block: dict[str, Any] = {
        "name": manifest.get("name", ""),
        "kind": "+".join(frame.kinds()) or "?",
        "n_points": frame.n_points,
    }
    if "seed" in manifest:
        block["seed"] = manifest["seed"]
    if "version" in manifest:
        block["version"] = manifest["version"]
    return block


def _campaign_frame(source: Any) -> CampaignFrame:
    """The results of a CampaignResult / ResultStore; an empty store is
    an error."""
    frame = CampaignFrame.from_store(source)
    if frame.n_points == 0:
        raise ValueError("store holds no results to analyse")
    return frame


def _check_resampling(confidence: float, n_resamples: int) -> None:
    """The bootstrap settings every resampling analysis takes."""
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must lie strictly between 0 and 1")
    if n_resamples < 1:
        raise ValueError("n_resamples must be >= 1")


def _fmt(value: float) -> float:
    """Round-trip-stable plain float for report scalars."""
    return float(value)


# ---------------------------------------------------------------------------
# dose_response
# ---------------------------------------------------------------------------
@register_analysis("dose_response")
@dataclass(frozen=True)
class DoseResponseAnalysis(AnalysisSpec):
    """Calibration-curve fit over a concentration axis (Fig. 4).

    ``response`` is the per-point scalar metric regressed on ``axis``;
    ``blank`` (when present in the store) is the per-point background
    metric whose spread sets the 3σ-blank LoD criterion — for DNA
    assays the mismatched-spot current is exactly that built-in blank.
    ``model`` is one of :data:`~repro.inference.doseresponse.MODELS`;
    the log-linear family also gets vectorized pairs-bootstrap CIs on
    slope and LoD (Hill fits report parameter SEs instead).
    """

    axis: str = "concentration"
    response: str = "median_match_estimate_a"
    blank: str = "median_nonmatch_estimate_a"
    model: str = "loglog"
    lod_sigma: float = 3.0
    loq_sigma: float = 10.0
    n_resamples: int = 2000
    confidence: float = 0.95
    seed: int = 0

    def __post_init__(self) -> None:
        if self.model not in _doseresponse.MODELS:
            raise ValueError(
                f"unknown model {self.model!r}; choose from {_doseresponse.MODELS}"
            )
        _check_resampling(self.confidence, self.n_resamples)

    def run(self, source: Any) -> AnalysisReport:
        frame = _campaign_frame(source)
        x = np.asarray(frame.axis(self.axis), dtype=float)
        y = frame.metric(self.response)
        blanks = frame.metric(self.blank) if self.blank and frame.has_metric(self.blank) else None
        result = _doseresponse.analyze_dose_response(
            x,
            y,
            model=self.model,
            blank_responses=blanks,
            lod_sigma=self.lod_sigma,
            loq_sigma=self.loq_sigma,
        )
        fit = result.fit
        scalars: dict[str, Any] = {
            "model": result.model,
            "n_points": int(len(x)),
            "response_metric": self.response,
            "r_squared": _fmt(fit.r_squared),
            "rmse": _fmt(fit.rmse),
            "blank_mean": _fmt(result.blank_mean),
            "blank_sigma": _fmt(result.blank_sigma),
            "blank_source": result.blank_source,
            "lod": _fmt(result.lod),
            "loq": _fmt(result.loq),
            "range_low": _fmt(result.range_low),
            "range_high": _fmt(result.range_high),
            "dynamic_range_decades": _fmt(result.dynamic_range_decades),
        }
        notes: list[str] = []
        if isinstance(fit, _doseresponse.HillFit):
            scalars.update(
                {
                    "hill_bottom": _fmt(fit.bottom),
                    "hill_top": _fmt(fit.top),
                    "hill_ec50": _fmt(fit.ec50),
                    "hill_n": _fmt(fit.hill_n),
                    "hill_ec50_se": _fmt(fit.param_se[2]),
                    "hill_converged": bool(fit.converged),
                }
            )
            notes.append(
                "bootstrap LoD intervals are computed for log-linear models only; "
                "Hill fits report parameter standard errors"
            )
        else:
            scalars.update(
                {
                    "slope": _fmt(fit.slope),
                    "slope_se": _fmt(fit.slope_se),
                    "intercept": _fmt(fit.intercept),
                    "intercept_se": _fmt(fit.intercept_se),
                }
            )
            boot = _doseresponse.bootstrap_loglinear(
                x,
                y,
                log_y=fit.log_y,
                blank_responses=blanks,
                lod_sigma=self.lod_sigma,
                n_resamples=self.n_resamples,
                confidence=self.confidence,
                seed=self.seed,
            )
            scalars.update(
                {
                    "slope_ci_low": _fmt(boot.slope[0]),
                    "slope_ci_high": _fmt(boot.slope[1]),
                    "lod_ci_low": _fmt(boot.lod[0]),
                    "lod_ci_high": _fmt(boot.lod[1]),
                    "bootstrap_n_valid": boot.n_valid,
                    "bootstrap_n_resamples": boot.n_resamples,
                }
            )

        rows: list[list[Any]] = []
        for position, (dose, indices) in enumerate(frame.group_indices(self.axis)):
            group = y[indices]
            ci = bootstrap_ci(
                group,
                "mean",
                n_resamples=self.n_resamples,
                confidence=self.confidence,
                seed=self.seed,
                label=("dose-mean", position),
            )
            rows.append(
                [
                    float(dose),
                    int(len(group)),
                    _fmt(ci.estimate),
                    _fmt(group.std(ddof=1)) if len(group) > 1 else 0.0,
                    _fmt(ci.low),
                    _fmt(ci.high),
                ]
            )
        table = ReportTable(
            title=f"per-dose {self.response} (bootstrap {self.confidence:g} CIs)",
            headers=[self.axis, "n", "mean", "std", "ci_low", "ci_high"],
            rows=rows,
        )
        return AnalysisReport(
            kind=self.kind,
            analysis=self.to_dict(),
            source=_source_block(getattr(source, "store", source), frame),
            scalars=scalars,
            tables=[table],
            notes=notes,
        )


# ---------------------------------------------------------------------------
# detection
# ---------------------------------------------------------------------------
@register_analysis("detection")
@dataclass(frozen=True)
class DetectionAnalysis(AnalysisSpec):
    """Per-spot hybridization calling over a stored DNA-assay campaign.

    Streams record payloads point by point (never the whole campaign at
    once), pools match vs mismatch scores in point order, and reports
    separation statistics, ROC/AUC with a vectorized bootstrap CI, and
    the calling threshold at ``target_fpr``.
    """

    score_column: str = "sensor_current_a"
    target_fpr: float = 0.01
    n_resamples: int = 500
    confidence: float = 0.95
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.target_fpr <= 1.0:
            raise ValueError("target_fpr must lie in [0, 1]")
        _check_resampling(self.confidence, self.n_resamples)

    def run(self, source: Any) -> AnalysisReport:
        frame = _campaign_frame(source)
        store = getattr(source, "store", source)
        per_point: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for meta, result in store.iter_results():
            pos, neg = _detection.match_mismatch_scores(result, self.score_column)
            per_point[meta["point"]] = (pos, neg)
        # Pool in point order — completion order varies by executor and
        # must never leak into the pooled arrays (or the bootstrap).
        points = sorted(per_point)
        pos = np.concatenate([per_point[p][0] for p in points])
        neg = np.concatenate([per_point[p][1] for p in points])
        stats = _detection.separation_stats(pos, neg)
        roc = _detection.roc_curve(pos, neg)
        op = _detection.operating_point(roc, self.target_fpr)
        auc_low, auc_high = _detection.bootstrap_auc(
            pos,
            neg,
            n_resamples=self.n_resamples,
            confidence=self.confidence,
            seed=self.seed,
        )
        scalars: dict[str, Any] = {
            "score_column": self.score_column,
            "n_match_spots": stats.n_match,
            "n_mismatch_spots": stats.n_mismatch,
            "median_match": _fmt(stats.median_match),
            "median_mismatch": _fmt(stats.median_mismatch),
            "median_ratio": _fmt(stats.median_ratio),
            "d_prime": _fmt(stats.d_prime),
            "auc": _fmt(stats.auc),
            "auc_ci_low": _fmt(auc_low),
            "auc_ci_high": _fmt(auc_high),
            "threshold": _fmt(op.threshold),
            "threshold_fpr": _fmt(op.fpr),
            "threshold_tpr": _fmt(op.tpr),
            "target_fpr": _fmt(self.target_fpr),
        }
        rows = []
        for point in points:
            p_pos, p_neg = per_point[point]
            if len(p_pos) and len(p_neg):
                point_stats = _detection.separation_stats(p_pos, p_neg)
                auc, ratio = point_stats.auc, point_stats.median_ratio
            else:
                auc, ratio = float("nan"), float("nan")
            rows.append([point, len(p_pos), len(p_neg), _fmt(auc), _fmt(ratio)])
        table = ReportTable(
            title=f"per-point separation ({self.score_column})",
            headers=["point", "n_match", "n_mismatch", "auc", "median_ratio"],
            rows=rows,
        )
        return AnalysisReport(
            kind=self.kind,
            analysis=self.to_dict(),
            source=_source_block(store, frame),
            scalars=scalars,
            tables=[table],
        )


# ---------------------------------------------------------------------------
# yield
# ---------------------------------------------------------------------------
@register_analysis("yield")
@dataclass(frozen=True)
class YieldAnalysis(AnalysisSpec):
    """Chip-level Monte-Carlo aggregation (Fig. 6).

    Each stored point is one chip draw; ``metric op threshold`` is the
    pass criterion (e.g. ``discrimination_ratio >= 2``).  When the
    stored records carry per-chip ``dead_pixels`` columns (the
    ``array_scale`` workload), pooled dead-pixel statistics stream in
    point by point as well.
    """

    metric: str = "discrimination_ratio"
    op: str = ">="
    threshold: float = 2.0
    confidence: float = 0.95
    n_resamples: int = 1000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.op not in _yield.CRITERIA:
            raise ValueError(
                f"unknown criterion {self.op!r}; choose from {sorted(_yield.CRITERIA)}"
            )
        _check_resampling(self.confidence, self.n_resamples)

    def run(self, source: Any) -> AnalysisReport:
        frame = _campaign_frame(source)
        store = getattr(source, "store", source)
        values = frame.metric(self.metric)
        passed = _yield.apply_criterion(values, self.op, self.threshold)
        stats = _yield.pass_fail_yield(passed, confidence=self.confidence)
        distribution = _yield.spread(values)
        mean_ci = bootstrap_ci(
            values,
            "mean",
            n_resamples=self.n_resamples,
            confidence=self.confidence,
            seed=self.seed,
            label=("yield-metric-mean",),
        )
        scalars: dict[str, Any] = {
            "metric": self.metric,
            "criterion": f"{self.metric} {self.op} {format(self.threshold, 'g')}",
            "n_chips": stats.n,
            "passes": stats.passes,
            "yield": _fmt(stats.fraction),
            "yield_ci_low": _fmt(stats.ci_low),
            "yield_ci_high": _fmt(stats.ci_high),
            "metric_mean": _fmt(distribution.mean),
            "metric_mean_ci_low": _fmt(mean_ci.low),
            "metric_mean_ci_high": _fmt(mean_ci.high),
            "metric_std": _fmt(distribution.std),
            "metric_cv": _fmt(distribution.cv),
            "metric_min": _fmt(distribution.minimum),
            "metric_max": _fmt(distribution.maximum),
        }
        notes: list[str] = []
        tables: list[ReportTable] = []

        # Per-chip dead pixels, when the workload recorded them.
        dead_counts: list[int] = []
        sites_per_chip: Optional[int] = None
        uniform_sites = True
        for _, result in store.iter_results():
            if "dead_pixels" not in result.records:
                dead_counts = []
                break
            spec = result.spec
            sites = int(spec.get("rows", 0)) * int(spec.get("cols", 0))
            if sites_per_chip is None:
                sites_per_chip = sites
            elif sites != sites_per_chip:
                uniform_sites = False
                break
            dead_counts.extend(int(d) for d in result.records["dead_pixels"])
        if dead_counts and sites_per_chip and uniform_sites:
            dead = _yield.dead_pixel_stats(
                dead_counts, sites_per_chip, confidence=self.confidence
            )
            scalars.update(
                {
                    "dead_pixel_rate": _fmt(dead.rate),
                    "dead_pixel_ci_low": _fmt(dead.ci_low),
                    "dead_pixel_ci_high": _fmt(dead.ci_high),
                    "dead_pixel_worst_chip": _fmt(dead.per_chip.maximum),
                    "dead_pixel_chips": dead.n_chips,
                }
            )
        elif not uniform_sites:
            notes.append("dead-pixel pooling skipped: chips have differing geometries")

        rows = []
        replicates = frame.replicates()
        for row_index, meta in enumerate(frame.metas):
            rows.append(
                [
                    meta["point"],
                    int(replicates[row_index]),
                    *[meta.get("assignment", {}).get(name, "") for name in frame.axis_names],
                    _fmt(values[row_index]),
                    bool(passed[row_index]),
                ]
            )
        tables.append(
            ReportTable(
                title=f"per-chip {self.metric} vs criterion",
                headers=["point", "replicate", *frame.axis_names, self.metric, "pass"],
                rows=rows,
            )
        )
        return AnalysisReport(
            kind=self.kind,
            analysis=self.to_dict(),
            source=_source_block(store, frame),
            scalars=scalars,
            tables=tables,
            notes=notes,
        )


# ---------------------------------------------------------------------------
# fault_tolerance
# ---------------------------------------------------------------------------
@register_analysis("fault_tolerance")
@dataclass(frozen=True)
class FaultToleranceAnalysis(AnalysisSpec):
    """Resilience accounting over a fault-injection campaign.

    Each stored point ran the resilient readout under injected faults
    and recorded the controller's ledger as ``fault_*`` metrics.  The
    report pools those ledgers: detection rate (corruption the
    controller caught vs silent corruption that reached the results),
    frame recovery yield within the retry budget, and site survival —
    each with Wilson intervals on the pooled counts — plus seeded
    bootstrap CIs on the per-point means, grouped along a fault axis
    (``faults.rate`` sweeps) when the campaign has one.
    """

    #: Axis to group the per-rate table by; "" auto-picks the first
    #: ``faults.*`` campaign axis (per-point rows when there is none).
    axis: str = ""
    confidence: float = 0.95
    n_resamples: int = 1000
    seed: int = 0

    #: Pooled-count metrics every analysed point must carry.
    REQUIRED: ClassVar[tuple[str, ...]] = (
        "fault_frames_total",
        "fault_frames_corrupted",
        "fault_frames_recovered",
        "fault_frames_lost",
        "fault_retries",
        "fault_registers_corrupted",
        "fault_sites_total",
        "fault_sites_dead",
        "fault_sites_silent",
        "fault_detection_rate",
        "fault_site_survival",
    )

    def __post_init__(self) -> None:
        _check_resampling(self.confidence, self.n_resamples)

    def run(self, source: Any) -> AnalysisReport:
        frame = _campaign_frame(source)
        missing = [name for name in self.REQUIRED if not frame.has_metric(name)]
        if missing:
            raise ValueError(
                f"store carries no fault-injection metrics ({missing[0]} missing); "
                f"fault_tolerance analyses campaigns whose base spec has faults"
            )
        pooled = {
            name: int(frame.metric(name).sum())
            for name in self.REQUIRED
            if name not in ("fault_detection_rate", "fault_site_survival")
        }
        detected = pooled["fault_frames_corrupted"] + pooled["fault_registers_corrupted"]
        silent = pooled["fault_sites_silent"]
        surviving = pooled["fault_sites_total"] - pooled["fault_sites_dead"]
        survival_per_point = frame.metric("fault_site_survival")
        detection_per_point = frame.metric("fault_detection_rate")

        def _proportion(successes: int, n: int) -> tuple[float, float, float]:
            """(fraction, ci_low, ci_high); degenerate n=0 pins to 1.0
            (nothing happened, so nothing was missed/lost)."""
            if n < 1:
                return 1.0, 1.0, 1.0
            low, high = _yield.wilson_interval(successes, n, self.confidence)
            return successes / n, low, high

        detection, detection_low, detection_high = _proportion(detected, detected + silent)
        recovery, recovery_low, recovery_high = _proportion(
            pooled["fault_frames_recovered"], pooled["fault_frames_corrupted"]
        )
        survival, survival_low, survival_high = _proportion(
            surviving, pooled["fault_sites_total"]
        )
        silent_rate, silent_low, silent_high = (
            (0.0, 0.0, 0.0)
            if surviving < 1
            else (
                silent / surviving,
                *_yield.wilson_interval(silent, surviving, self.confidence),
            )
        )
        survival_ci = bootstrap_ci(
            survival_per_point,
            "mean",
            n_resamples=self.n_resamples,
            confidence=self.confidence,
            seed=self.seed,
            label=("fault-survival-mean",),
        )
        scalars: dict[str, Any] = {
            "n_points": frame.n_points,
            "frames_total": pooled["fault_frames_total"],
            "frames_corrupted": pooled["fault_frames_corrupted"],
            "frames_recovered": pooled["fault_frames_recovered"],
            "frames_lost": pooled["fault_frames_lost"],
            "retries": pooled["fault_retries"],
            "registers_corrupted": pooled["fault_registers_corrupted"],
            "sites_total": pooled["fault_sites_total"],
            "sites_dead": pooled["fault_sites_dead"],
            "sites_silent": silent,
            "detection_rate": _fmt(detection),
            "detection_ci_low": _fmt(detection_low),
            "detection_ci_high": _fmt(detection_high),
            "silent_corruption_rate": _fmt(silent_rate),
            "silent_ci_low": _fmt(silent_low),
            "silent_ci_high": _fmt(silent_high),
            "recovery_yield": _fmt(recovery),
            "recovery_ci_low": _fmt(recovery_low),
            "recovery_ci_high": _fmt(recovery_high),
            "site_survival": _fmt(survival),
            "site_survival_ci_low": _fmt(survival_low),
            "site_survival_ci_high": _fmt(survival_high),
            "site_survival_mean_ci_low": _fmt(survival_ci.low),
            "site_survival_mean_ci_high": _fmt(survival_ci.high),
        }
        notes: list[str] = []
        if detected + silent == 0:
            notes.append(
                "no corruption occurred anywhere in the campaign; detection "
                "rate degenerates to 1.0 by convention"
            )
        if pooled["fault_frames_corrupted"] == 0:
            notes.append("no frame was ever corrupted; recovery yield is vacuous")

        axis = self.axis or next(
            (name for name in frame.axis_names if name.startswith("faults.")), ""
        )
        count_columns = (
            "fault_frames_corrupted",
            "fault_frames_recovered",
            "fault_frames_lost",
            "fault_sites_dead",
            "fault_sites_silent",
        )
        rows: list[list[Any]] = []
        if axis and frame.has_axis(axis):
            for position, (value, indices) in enumerate(frame.group_indices(axis)):
                group_survival = survival_per_point[indices]
                group_ci = bootstrap_ci(
                    group_survival,
                    "mean",
                    n_resamples=self.n_resamples,
                    confidence=self.confidence,
                    seed=self.seed,
                    label=("fault-survival", position),
                )
                rows.append(
                    [
                        value,
                        int(len(indices)),
                        *[int(frame.metric(name)[indices].sum()) for name in count_columns],
                        _fmt(detection_per_point[indices].mean()),
                        _fmt(group_ci.estimate),
                        _fmt(group_ci.low),
                        _fmt(group_ci.high),
                    ]
                )
            table = ReportTable(
                title=(
                    f"fault tolerance vs {axis} "
                    f"(bootstrap {self.confidence:g} CIs on site survival)"
                ),
                headers=[
                    axis,
                    "n",
                    "corrupted",
                    "recovered",
                    "lost",
                    "dead",
                    "silent",
                    "detection",
                    "survival",
                    "ci_low",
                    "ci_high",
                ],
                rows=rows,
            )
        else:
            if self.axis:
                notes.append(f"axis {self.axis!r} not found; reporting per point")
            for row_index, meta in enumerate(frame.metas):
                rows.append(
                    [
                        meta["point"],
                        int(frame.replicates()[row_index]),
                        *[int(frame.metric(name)[row_index]) for name in count_columns],
                        _fmt(detection_per_point[row_index]),
                        _fmt(survival_per_point[row_index]),
                    ]
                )
            table = ReportTable(
                title="per-point fault tolerance",
                headers=[
                    "point",
                    "replicate",
                    "corrupted",
                    "recovered",
                    "lost",
                    "dead",
                    "silent",
                    "detection",
                    "survival",
                ],
                rows=rows,
            )
        return AnalysisReport(
            kind=self.kind,
            analysis=self.to_dict(),
            source=_source_block(getattr(source, "store", source), frame),
            scalars=scalars,
            tables=[table],
            notes=notes,
        )


# ---------------------------------------------------------------------------
# wafer_yield
# ---------------------------------------------------------------------------
@register_analysis("wafer_yield")
@dataclass(frozen=True)
class WaferYieldAnalysis(AnalysisSpec):
    """Die binning and cross-wafer yield over stored wafer campaigns.

    Each stored point is one wafer whose records carry one row per die
    (the ``wafer`` workload); ``metric op threshold`` bins dies pass or
    fail (default: at most 2% dead pixels).  The report layers three
    levels: per-die binning (rendered as ASCII wafer maps, up to
    ``max_maps``), per-wafer yield with Wilson intervals, and
    cross-wafer yield statistics with a seeded bootstrap CI on the mean
    wafer yield.
    """

    metric: str = "dead_fraction"
    op: str = "<="
    threshold: float = 0.02
    confidence: float = 0.95
    n_resamples: int = 1000
    seed: int = 0
    max_maps: int = 4

    def __post_init__(self) -> None:
        if self.op not in _yield.CRITERIA:
            raise ValueError(
                f"unknown criterion {self.op!r}; choose from {sorted(_yield.CRITERIA)}"
            )
        _check_resampling(self.confidence, self.n_resamples)
        if self.max_maps < 0:
            raise ValueError("max_maps must be non-negative")

    def run(self, source: Any) -> AnalysisReport:
        from .wafermap import wafer_map_diagram

        frame = _campaign_frame(source)
        store = getattr(source, "store", source)
        criterion = f"{self.metric} {self.op} {format(self.threshold, 'g')}"
        # Stream one wafer at a time; keep only per-die binning columns.
        per_point: dict[int, dict[str, Any]] = {}
        for meta, result in store.iter_results():
            records = result.records
            if self.metric not in records:
                raise ValueError(
                    f"records carry no per-die column {self.metric!r}; "
                    f"available: {sorted(records)}"
                )
            if "grid_x" not in records or "grid_y" not in records:
                raise ValueError(
                    "records carry no die grid coordinates; "
                    "wafer_yield needs a wafer-kind campaign"
                )
            values = np.asarray(records[self.metric], dtype=float)
            passed = _yield.apply_criterion(values, self.op, self.threshold)
            per_point[meta["point"]] = {
                "grid_x": np.asarray(records["grid_x"], dtype=int),
                "grid_y": np.asarray(records["grid_y"], dtype=int),
                "passed": passed,
                "stats": _yield.pass_fail_yield(passed, confidence=self.confidence),
                "n_grid_x": result.metrics.get("n_grid_x"),
                "n_grid_y": result.metrics.get("n_grid_y"),
            }
        points = sorted(per_point)
        pooled = _yield.pass_fail_yield(
            np.concatenate([per_point[p]["passed"] for p in points]),
            confidence=self.confidence,
        )
        wafer_yields = np.asarray(
            [per_point[p]["stats"].fraction for p in points], dtype=float
        )
        scalars: dict[str, Any] = {
            "metric": self.metric,
            "criterion": criterion,
            "n_wafers": int(len(points)),
            "n_dies": pooled.n,
            "die_passes": pooled.passes,
            "die_yield": _fmt(pooled.fraction),
            "die_yield_ci_low": _fmt(pooled.ci_low),
            "die_yield_ci_high": _fmt(pooled.ci_high),
            "wafer_yield_mean": _fmt(wafer_yields.mean()),
            "wafer_yield_min": _fmt(wafer_yields.min()),
            "wafer_yield_max": _fmt(wafer_yields.max()),
        }
        notes: list[str] = []
        if len(points) > 1:
            ci = bootstrap_ci(
                wafer_yields,
                "mean",
                n_resamples=self.n_resamples,
                confidence=self.confidence,
                seed=self.seed,
                label=("wafer-yield-mean",),
            )
            scalars["wafer_yield_std"] = _fmt(wafer_yields.std(ddof=1))
            scalars["wafer_yield_mean_ci_low"] = _fmt(ci.low)
            scalars["wafer_yield_mean_ci_high"] = _fmt(ci.high)
        else:
            notes.append("cross-wafer bootstrap CI needs at least two wafers")

        rows: list[list[Any]] = []
        replicates = frame.replicates()
        for row_index, meta in enumerate(frame.metas):
            stats = per_point[meta["point"]]["stats"]
            rows.append(
                [
                    meta["point"],
                    int(replicates[row_index]),
                    *[meta.get("assignment", {}).get(name, "") for name in frame.axis_names],
                    stats.n,
                    stats.passes,
                    _fmt(stats.fraction),
                    _fmt(stats.ci_low),
                    _fmt(stats.ci_high),
                ]
            )
        table = ReportTable(
            title=f"per-wafer die yield ({criterion}; Wilson {self.confidence:g} CIs)",
            headers=[
                "point",
                "replicate",
                *frame.axis_names,
                "n_dies",
                "passes",
                "yield",
                "ci_low",
                "ci_high",
            ],
            rows=rows,
        )
        diagrams = [
            wafer_map_diagram(
                per_point[p]["grid_x"],
                per_point[p]["grid_y"],
                per_point[p]["passed"],
                title=f"wafer map — point {p} ({criterion})",
                n_grid_x=per_point[p]["n_grid_x"],
                n_grid_y=per_point[p]["n_grid_y"],
            )
            for p in points[: self.max_maps]
        ]
        if len(points) > self.max_maps:
            notes.append(
                f"wafer maps rendered for the first {self.max_maps} of "
                f"{len(points)} wafers (raise max_maps for more)"
            )
        return AnalysisReport(
            kind=self.kind,
            analysis=self.to_dict(),
            source=_source_block(store, frame),
            scalars=scalars,
            tables=[table],
            notes=notes,
            diagrams=diagrams,
        )


# ---------------------------------------------------------------------------
# Front door
# ---------------------------------------------------------------------------
def default_analysis_for(source: Any) -> AnalysisSpec:
    """Pick the analysis a stored campaign most plausibly wants.

    A ``concentration`` axis means a dose series (``dose_response``);
    an ``array_scale`` campaign is a chip Monte Carlo (``yield`` on the
    zero-site fraction); a DNA assay without a dose axis is a
    detection experiment; anything else with replicates is a yield
    question on its shared metrics.
    """
    frame = _campaign_frame(source)
    kinds = frame.kinds()
    # Fault sweeps first: a faulted campaign's dose/detection numbers
    # are corrupted by construction — resilience is the question.
    if frame.has_metric("fault_detection_rate") or any(
        name.startswith("faults.") for name in frame.axis_names
    ):
        return FaultToleranceAnalysis()
    if frame.has_axis("concentration"):
        return DoseResponseAnalysis()
    if kinds == ["array_scale"]:
        return YieldAnalysis(metric="zero_site_fraction", op="<=", threshold=0.05)
    if kinds == ["wafer"]:
        return WaferYieldAnalysis()
    if kinds == ["dna_assay"]:
        return DetectionAnalysis()
    if frame.metric_names:
        return YieldAnalysis(metric=frame.metric_names[0], op=">=", threshold=0.0)
    raise ValueError(
        f"cannot infer an analysis for kind(s) {kinds}; pass one of {analysis_kinds()}"
    )


def analyze(
    source: Any,
    analysis: Any = None,
    **overrides: Any,
) -> AnalysisReport:
    """Run an analysis over a campaign and return its report.

    ``source`` may be a :class:`~repro.campaigns.store.CampaignResult`,
    any ResultStore, or a campaign directory (``str``/``Path`` — loaded
    as a JSONL store).  ``analysis`` may be ``None`` (inferred via
    :func:`default_analysis_for`), a registered kind name, a spec
    instance, or a spec dict; keyword ``overrides`` replace fields on
    whichever spec results.
    """
    if isinstance(source, (str, Path)):
        from ..campaigns.store import JsonlResultStore

        source = JsonlResultStore.load(source)
    if analysis is None:
        spec = default_analysis_for(source)
    elif isinstance(analysis, AnalysisSpec):
        spec = analysis
    elif isinstance(analysis, str):
        spec = analysis_type(analysis)()
    elif isinstance(analysis, dict):
        spec = analysis_from_dict(analysis)
    else:
        raise TypeError(
            f"cannot resolve an analysis from {type(analysis).__name__}; expected "
            f"None, a kind name, an AnalysisSpec or a dict"
        )
    if overrides:
        known = {field.name for field in dataclasses.fields(spec)}
        unknown = set(overrides) - known
        if unknown:
            raise ValueError(
                f"unknown fields for {type(spec).__name__}: {sorted(unknown)}"
            )
        spec = spec.replace(**overrides)
    return spec.run(source)
