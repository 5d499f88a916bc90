"""Declarative experiment specifications.

A spec is a frozen, serializable description of *what* to run — panel
design, sample composition, chip configuration, recording length — with
no imperative state and no RNG objects.  Seeds live in the
:class:`~repro.experiments.runner.Runner`'s seed tree, so the same spec
can be re-run, swept, batched or shipped over the wire as plain JSON.

Every spec class registers under a string ``kind`` in
:data:`EXPERIMENTS` (a :class:`~repro.core.specs.KindRegistry`), so
tooling can round trip ``spec -> to_dict() -> spec_from_dict()``
without knowing the concrete type up front.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Optional

from ..core.specs import KindRegistry, Spec

#: Compute backends an experiment can run on.  ``"object"`` is the
#: per-pixel reference model; ``"vectorized"`` routes array hot paths
#: through :mod:`repro.engine` kernels.  Defined here (the import-cycle-
#: free root of the experiments package) and consumed by the Runner,
#: spec validation and workload registrations alike.
BACKENDS = ("object", "vectorized")


@dataclass(frozen=True)
class ExperimentSpec(Spec):
    """Base of every experiment kind: adds the frozen stream-seeding
    :meth:`content_hash` to the shared :class:`~repro.core.specs.Spec`
    machinery."""

    def content_hash(self) -> str:
        """Stable hex digest of the full spec content (seeds streams).

        Frozen format: this digest feeds SeedTree stream paths (see
        ``workloads.py``), so its byte recipe can never change without
        changing every downstream random number.  For cache addressing
        use :meth:`spec_hash`, which additionally canonicalises dtype
        wrappers and representation details.
        """
        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()


#: The registry is what makes the front door string-addressable:
#: ``Runner.run("dna_assay", concentration=...)`` and
#: ``spec_from_dict(json.loads(payload))`` both resolve through it.
EXPERIMENTS = KindRegistry("experiment", ExperimentSpec)
register_experiment = EXPERIMENTS.register
experiment_kinds = EXPERIMENTS.kinds
experiment_type = EXPERIMENTS.type_of
spec_from_dict = EXPERIMENTS.from_dict


# ---------------------------------------------------------------------------
# DNA microarray assay (Section 2 / Figs. 2-4)
# ---------------------------------------------------------------------------
@register_experiment("dna_assay")
@dataclass(frozen=True)
class DnaAssaySpec(ExperimentSpec):
    """One microarray assay measured on the 16x8 electrochemical chip.

    ``panel`` selects the probe design:

    * ``"random"`` — ``probe_count`` random probes tiled with
      ``replicates``; the sample carries perfect targets for
      ``target_subset`` (all probes when ``None``).
    * ``"mismatch"`` — one random target plus probes at 0 and each of
      ``mismatch_counts`` substitutions against it (the Fig. 2 design);
      ``target_subset`` is ignored.

    Concentrations are mol/m^3 (``10 * units.nM`` == 1e-5).

    ``faults`` is an optional tuple of fault entries (see
    :mod:`repro.faults`) injected into the digital readout; entries are
    normalized to canonical plain dicts so they sweep as campaign axes
    (``faults.rate``) and round trip through ``to_dict``.  An empty
    tuple serializes to *nothing* — zero-fault specs keep their
    pre-fault ``content_hash`` and results bit-identically.
    """

    rows: int = 16
    cols: int = 8
    panel: str = "random"
    probe_count: int = 16
    probe_length: int = 20
    replicates: int = 8
    control_every: int = 0
    mismatch_counts: tuple[int, ...] = (1, 2, 3)
    target_subset: Optional[tuple[int, ...]] = None
    concentration: float = 1e-5
    target_length: int = 2000
    hybridization_s: float = 3600.0
    wash_s: float = 120.0
    v_generator: float = 0.45
    v_collector: float = -0.25
    calibrate: bool = True
    calibration_frame_s: float = 0.05
    frame_s: float = 1.0
    faults: tuple = ()

    def __post_init__(self) -> None:
        from ..faults.specs import normalize_faults

        object.__setattr__(self, "faults", normalize_faults(self.faults))
        if self.rows < 1 or self.cols < 1:
            raise ValueError("array dimensions must be positive")
        if self.panel not in ("random", "mismatch"):
            raise ValueError(f"unknown panel design {self.panel!r}")
        if self.probe_count < 1 or self.probe_length < 1:
            raise ValueError("probe_count and probe_length must be positive")
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if self.concentration < 0:
            raise ValueError("concentration must be non-negative")
        if self.hybridization_s <= 0 or self.wash_s < 0:
            raise ValueError("invalid protocol times")
        if self.frame_s <= 0 or self.calibration_frame_s <= 0:
            raise ValueError("counting frames must be positive")
        if self.panel == "mismatch" and any(m < 1 for m in self.mismatch_counts):
            raise ValueError("mismatch counts must be >= 1")
        if self.target_subset is not None:
            bad = [i for i in self.target_subset if not 0 <= i < self.probe_count]
            if bad:
                raise ValueError(f"target_subset indices out of range: {bad}")

    def to_dict(self) -> dict[str, Any]:
        """Like the base, but an empty fault list is omitted entirely:
        ``content_hash()`` (which seeds streams) and ``spec_hash()``
        (the cache key) of zero-fault specs stay byte-identical to
        builds that predate the fault field."""
        data = super().to_dict()
        if not data.get("faults"):
            data.pop("faults", None)
        return data

    def chip_key(self) -> str:
        """The chip-configuration facet of the spec.

        Two specs with the same chip key can share one built-and-
        calibrated chip instance; the Runner batches on this.
        """
        return json.dumps(
            {
                "kind": "dna_chip",
                "rows": self.rows,
                "cols": self.cols,
                "v_generator": self.v_generator,
                "v_collector": self.v_collector,
                "calibrate": self.calibrate,
                "calibration_frame_s": self.calibration_frame_s,
            },
            sort_keys=True,
        )

    def layout_key(self) -> str:
        """The probe-panel facet: sweeps over sample composition keep
        the same spotted layout (and therefore comparable sites)."""
        return json.dumps(
            {
                "kind": "dna_layout",
                "rows": self.rows,
                "cols": self.cols,
                "panel": self.panel,
                "probe_count": self.probe_count,
                "probe_length": self.probe_length,
                "replicates": self.replicates,
                "control_every": self.control_every,
                "mismatch_counts": list(self.mismatch_counts),
            },
            sort_keys=True,
        )


# ---------------------------------------------------------------------------
# Neural recording (Section 3 / Figs. 5-6)
# ---------------------------------------------------------------------------
@register_experiment("neural_recording")
@dataclass(frozen=True)
class NeuralRecordingSpec(ExperimentSpec):
    """Record a random culture on the (sub-)array and detect spikes."""

    rows: int = 64
    cols: int = 64
    pitch_m: float = 7.8e-6
    n_neurons: int = 5
    diameter_range_m: tuple[float, float] = (25e-6, 80e-6)
    duration_s: float = 0.25
    firing_rate_hz: float = 25.0
    use_hh: bool = True
    threshold_sigma: float = 4.5
    tolerance_s: float = 3e-3

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1 or self.pitch_m <= 0:
            raise ValueError("invalid array geometry")
        if self.n_neurons < 1:
            raise ValueError("need at least one neuron")
        low, high = self.diameter_range_m
        if not 0 < low <= high:
            raise ValueError("invalid soma diameter range")
        if self.duration_s <= 0 or self.firing_rate_hz <= 0:
            raise ValueError("duration and firing rate must be positive")
        if self.threshold_sigma <= 0 or self.tolerance_s <= 0:
            raise ValueError("detection parameters must be positive")

    def chip_key(self) -> str:
        return json.dumps(
            {
                "kind": "neuro_chip",
                "rows": self.rows,
                "cols": self.cols,
                "pitch_m": self.pitch_m,
            },
            sort_keys=True,
        )

    def physics_key(self) -> str:
        """The simulation facet: everything except the detection
        analysis knobs, so a threshold/tolerance sweep re-scores the
        same culture and recording (paired comparison)."""
        data = self.to_dict()
        for analysis_only in ("threshold_sigma", "tolerance_s"):
            data.pop(analysis_only)
        return json.dumps(data, sort_keys=True)


# ---------------------------------------------------------------------------
# Drug-screening funnel (Fig. 1)
# ---------------------------------------------------------------------------
@register_experiment("screening")
@dataclass(frozen=True)
class ScreeningSpec(ExperimentSpec):
    """Run a compound library through the staged screening funnel.

    Specs that differ only in ``cmos`` share the same generated library
    *and* the same per-stage decision stream, so CMOS-vs-conventional
    comparisons are paired exactly as in the paper's Fig. 1 argument.
    """

    library_size: int = 100_000
    viable_rate: float = 1e-4
    cmos: bool = False

    def __post_init__(self) -> None:
        if self.library_size < 1:
            raise ValueError("library must contain at least one compound")
        if not 0.0 <= self.viable_rate <= 1.0:
            raise ValueError("viable rate must lie in [0, 1]")

    def library_key(self) -> str:
        return json.dumps(
            {
                "kind": "compound_library",
                "library_size": self.library_size,
                "viable_rate": self.viable_rate,
            },
            sort_keys=True,
        )


# ---------------------------------------------------------------------------
# In-pixel ADC transfer sweep (Fig. 3)
# ---------------------------------------------------------------------------
@register_experiment("adc_transfer")
@dataclass(frozen=True)
class AdcTransferSpec(ExperimentSpec):
    """Sweep the sawtooth ADC across the paper's current window.

    Not one of the three headline workloads, but registering it shows
    the registry's point: a fourth kind costs one spec class and one
    workload function.
    """

    i_low_a: float = 1e-12
    i_high_a: float = 100e-9
    points_per_decade: int = 4
    frame_s: float = 1.0
    max_rel_error: float = 0.05

    def __post_init__(self) -> None:
        if not 0 < self.i_low_a < self.i_high_a:
            raise ValueError("need 0 < i_low < i_high")
        if self.points_per_decade < 1:
            raise ValueError("points_per_decade must be >= 1")
        if self.frame_s <= 0:
            raise ValueError("frame must be positive")
        if self.max_rel_error <= 0:
            raise ValueError("max_rel_error must be positive")

    def sweep_key(self) -> str:
        """The measurement facet: max_rel_error only post-processes."""
        data = self.to_dict()
        data.pop("max_rel_error")
        return json.dumps(data, sort_keys=True)


# ---------------------------------------------------------------------------
# Array-scale sweep (the repro.engine workload)
# ---------------------------------------------------------------------------
@register_experiment("array_scale")
@dataclass(frozen=True)
class ArrayScaleSpec(ExperimentSpec):
    """Digitise a deterministic current pattern on an arbitrary-geometry
    DNA-chip array, batched over chip instances.

    The workload behind ``benchmarks/bench_scale_array.py``: it scales
    the Fig. 4 measurement loop from the 16x8 seed geometry to 128x128
    and beyond, on either backend.  ``pattern`` selects the site
    currents:

    * ``"logspan"`` — log-spaced from ``i_low_a`` to ``i_high_a`` across
      the sites (sweeps the dead-time-compressed top decade and the
      quantisation-dominated bottom decade in one frame);
    * ``"uniform"`` — every site at the decade midpoint
      ``sqrt(i_low * i_high)``.

    ``backend`` is the spec-level default; ``Runner.run(spec,
    backend=...)`` overrides it.  ``mismatch`` picks the vectorized
    parameter-draw mode (``"fast"`` or the object-paired ``"paired"``);
    the object backend always draws paired by construction.
    """

    rows: int = 128
    cols: int = 128
    n_chips: int = 1
    i_low_a: float = 1e-12
    i_high_a: float = 100e-9
    pattern: str = "logspan"
    frame_s: float = 0.1
    calibrate: bool = False
    calibration_frame_s: float = 0.05
    backend: str = "vectorized"
    mismatch: str = "fast"

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError("array dimensions must be positive")
        if self.n_chips < 1:
            raise ValueError("need at least one chip in the batch")
        if not 0 < self.i_low_a <= self.i_high_a:
            raise ValueError("need 0 < i_low <= i_high")
        if self.pattern not in ("logspan", "uniform"):
            raise ValueError(f"unknown current pattern {self.pattern!r}")
        if self.frame_s <= 0 or self.calibration_frame_s <= 0:
            raise ValueError("counting frames must be positive")
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}; choose from {BACKENDS}")
        if self.mismatch not in ("paired", "fast"):
            raise ValueError(f"unknown mismatch mode {self.mismatch!r}")

    def chip_key(self) -> str:
        """The chip-configuration facet (geometry + calibration plan).

        The backend deliberately does NOT participate: both backends
        derive the same chip/calibration streams from this key (paired
        mismatch draws), while the Runner keeps them in separate,
        backend-named caches so built chips never cross over."""
        return json.dumps(
            {
                "kind": "array_scale_chip",
                "rows": self.rows,
                "cols": self.cols,
                "n_chips": self.n_chips,
                "calibrate": self.calibrate,
                "calibration_frame_s": self.calibration_frame_s,
                "mismatch": self.mismatch,
            },
            sort_keys=True,
        )

    def site_currents(self):
        """The deterministic per-site current matrix (rows x cols)."""
        import numpy as np

        sites = self.rows * self.cols
        if self.pattern == "uniform":
            level = float(np.sqrt(self.i_low_a * self.i_high_a))
            return np.full((self.rows, self.cols), level)
        return np.logspace(
            np.log10(self.i_low_a), np.log10(self.i_high_a), sites
        ).reshape(self.rows, self.cols)
