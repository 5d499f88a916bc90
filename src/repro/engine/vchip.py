"""Array-scale DNA microarray chip on the vectorized backend.

:class:`VectorizedDnaChip` reproduces the calibration and readout
semantics of :class:`~repro.chip.dna_chip.DnaMicroarrayChip` — electrode
biasing through sampled DACs, bandgap-derived reference calibration,
assay/current digitisation, host-side current estimates, dead-pixel
bookkeeping and the 6-pin serial counter readout — but evaluates the
per-pixel physics as :mod:`repro.engine.kernels` calls over
``(n_chips, rows, cols)`` parameter arrays instead of per-object event
loops.  It scales from the 16x8 seed geometry to 128x128 and beyond,
and batches Monte-Carlo over whole chip instances in one object.

Parity with the object chip (see ``tests/test_engine_vchip.py``):

* With ``mismatch="paired"`` and the same construction generator, pixel
  parameters, DAC codes and reference currents are bit-identical to a
  ``DnaMicroarrayChip`` built from that generator (for ``n_chips > 1``,
  to the object chips built from ``spawn_children(rng, n_chips)``).
* Deterministic host-side math (current estimates, dead-pixel maps,
  serial readout) is bit-identical.
* Stochastic counting matches in distribution; per site the difference
  is bounded by start-phase quantisation (1 count) plus accumulated
  cycle jitter (``kernels.count_noise_sigma``).

The module also owns the *stacked* evaluation every array-scale caller
shares: :func:`draw_chips` draws chips from their own chip streams
(pixel planes, then the periphery, in constructor order),
:func:`calibrate_chips` and :func:`count_chips` replay each unit's own
(phase, jitter) draws into one kernel call, and
:func:`draw_array_scale` / :func:`count_array_scale` apply them to an
``ArrayScaleSpec``.  :class:`VectorizedDnaChip`, the batched campaign
executor and the wafer tiler all run these functions, so a unit's
results never depend on which of them evaluated it or how many other
units shared its kernel call.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, NamedTuple, Sequence

import numpy as np

from ..chip.dna_chip import ChipSpecs, counter_chunk_bytes, write_dna_register
from ..chip.registers import RegisterFile, dna_chip_registers
from ..chip.sequencer import SiteSequence
from ..chip.serial_interface import (
    CHIP_TO_HOST,
    Command,
    Frame,
    SerialLink,
    pack_counters,
    unpack_counters,
)
from ..core.rng import RngLike, ensure_rng, spawn_children
from ..core.units import FARADAY
from ..devices.bandgap import BandgapReference
from ..devices.current_mirror import ReferenceCurrentFanout
from ..devices.dac import ResistorStringDac
from ..dna.assay import AssayResult
from ..electrochem.redox_cycling import RedoxCyclingSensor
from . import kernels
from .params import DRAW_MODES, PixelArrayParams

if TYPE_CHECKING:  # pragma: no cover
    from ..experiments.specs import ArrayScaleSpec


#: Sites per stacked kernel call.  One call holds ~10 full-precision
#: planes per site (params + draws + counts), so 2^18 sites is ~20 MB
#: resident; larger unit groups are evaluated in chunks.
STACK_SITES = 1 << 18


def stack_chunks(units: list, sites_per_unit: int) -> Iterator[list]:
    """Consecutive runs of ``units`` holding at most :data:`STACK_SITES`
    sites together (at least one unit per run)."""
    size = max(1, STACK_SITES // max(1, sites_per_unit))
    for start in range(0, len(units), size):
        yield units[start : start + size]


class ChipPeriphery(NamedTuple):
    """The Fig. 4 periphery of one chip, in the order it is drawn."""

    bandgap: BandgapReference
    generator_dac: ResistorStringDac
    collector_dac: ResistorStringDac
    reference_tree: ReferenceCurrentFanout


def draw_chips(
    specs: ChipSpecs,
    chip_streams: Sequence[RngLike],
    n_chips: int,
    mismatch: str,
    periphery: bool,
) -> tuple[PixelArrayParams, list[ChipPeriphery]]:
    """Draw ``n_chips`` chips per unit from each unit's chip stream and
    stack them along the chip axis, units in order.

    A single chip consumes the stream itself; a batch one spawned child
    per chip.  Each chip draws its pixel planes, then (``periphery``)
    its periphery from the same generator in the object constructor's
    order.  Nothing is drawn from the stream after the periphery, so
    skipping it (an uncalibrated array-scale run never reads it) leaves
    the pixel draws unchanged.
    """
    params: list[PixelArrayParams] = []
    peripheries: list[ChipPeriphery] = []
    for stream in chip_streams:
        generator = ensure_rng(stream)
        for chip_rng in [generator] if n_chips == 1 else spawn_children(generator, n_chips):
            params.append(
                PixelArrayParams.draw(
                    specs.rows,
                    specs.cols,
                    rng=chip_rng,
                    mode=mismatch,
                    counter_bits=specs.counter_bits,
                )
            )
            if periphery:
                bandgap = BandgapReference.sample(chip_rng)
                peripheries.append(
                    ChipPeriphery(
                        bandgap,
                        ResistorStringDac.sample(chip_rng, bits=8, v_low=0.0, v_high=2.0),
                        ResistorStringDac.sample(chip_rng, bits=8, v_low=-1.0, v_high=1.0),
                        ReferenceCurrentFanout.build(
                            master_current=bandgap.reference_current(1.2e6),
                            count=8,
                            rng=chip_rng,
                        ),
                    )
                )
    return PixelArrayParams.stack(params), peripheries


def count_chips(
    params: PixelArrayParams,
    currents: np.ndarray,
    frame_s: float,
    streams: Sequence[RngLike],
) -> np.ndarray:
    """Digitise ``currents`` on every stacked chip in one kernel call.

    The chips split evenly into ``len(streams)`` units; each unit draws
    its start phases, then (when the comparators are noisy) its cycle
    jitter, from its own stream — exactly the draws
    ``kernels.count_in_frame(..., rng=stream)`` makes for that unit
    alone.
    """
    shape = params.shape
    per_unit = shape[0] // len(streams)
    block = (per_unit,) + shape[1:]
    noisy = bool(np.any(np.asarray(params.noise_rms_v) > 0))
    phase = np.empty(shape)
    z = np.empty(shape) if noisy else None
    for index, stream in enumerate(streams):
        generator = ensure_rng(stream)
        lo = index * per_unit
        phase[lo : lo + per_unit] = generator.uniform(0.0, 1.0, size=block)
        if z is not None:
            z[lo : lo + per_unit] = generator.normal(0.0, 1.0, size=block)
    return kernels.count_in_frame(
        np.broadcast_to(currents, shape),
        frame_s,
        start_phase=phase,
        jitter_z=z,
        counter_bits=params.counter_bits,
        **params.kernel_kwargs(),
    )


def calibrate_chips(
    params: PixelArrayParams,
    reference_trees: Sequence[ReferenceCurrentFanout],
    frame_s: float,
    streams: Sequence[RngLike],
) -> np.ndarray:
    """On-chip calibration of every stacked chip: each chip's reference
    tree branches, divided 100:1, are laid across its sites in turn,
    digitised (see :func:`count_chips`) and turned into per-pixel gain
    corrections shaped like ``params``."""
    site_index = np.arange(params.sites)
    i_ref = np.empty((params.n_chips, params.sites))
    for chip, tree in enumerate(reference_trees):
        branches = tree.branch_currents() / 100.0
        i_ref[chip] = branches[site_index % len(branches)]
    i_ref = i_ref.reshape(params.shape)
    counts = count_chips(params, i_ref, frame_s, streams)
    return kernels.calibration_corrections(counts, i_ref, frame_s, params.dead_time_s)


def draw_array_scale(
    spec: "ArrayScaleSpec", unit_streams: Sequence[dict]
) -> tuple[PixelArrayParams, list[ChipPeriphery]]:
    """Draw every unit's chips for an ``ArrayScaleSpec``: ``spec.n_chips``
    chips per unit from its ``"chip"`` stream, with the periphery only
    when the spec calibrates."""
    return draw_chips(
        ChipSpecs(rows=spec.rows, cols=spec.cols),
        [streams["chip"] for streams in unit_streams],
        spec.n_chips,
        spec.mismatch,
        periphery=spec.calibrate,
    )


def count_array_scale(
    spec: "ArrayScaleSpec",
    params: PixelArrayParams,
    peripheries: Sequence[ChipPeriphery],
    unit_streams: Sequence[dict],
) -> tuple[np.ndarray, np.ndarray]:
    """Calibrate (when the spec asks) and measure drawn array-scale chips:
    ``(counts, dead)`` with counts shaped like ``params`` and the dead
    pixels summed per chip.

    Calibration runs on the ``"calibration"`` streams and raises exactly
    where a single unit's ``auto_calibrate`` would; the workload records
    raw counts, so its corrections are not applied.  Counting runs on
    the ``"measure"`` streams.
    """
    if spec.calibrate:
        calibrate_chips(
            params,
            [periphery.reference_tree for periphery in peripheries],
            spec.calibration_frame_s,
            [streams["calibration"] for streams in unit_streams],
        )
    counts = count_chips(
        params, spec.site_currents(), spec.frame_s, [streams["measure"] for streams in unit_streams]
    )
    dead = kernels.dead_pixel_mask(params.leakage_a).reshape(params.n_chips, -1).sum(axis=1)
    return counts, dead


class VectorizedDnaChip:
    """A batch of Fig. 4 devices evaluated as array kernels.

    Parameters
    ----------
    specs:
        Array dimensions and process (any geometry, not just 16x8).
    n_chips:
        Batch size for Monte-Carlo over chip instances.  With
        ``n_chips == 1`` every measurement method accepts and returns
        ``(rows, cols)`` matrices exactly like the object chip; larger
        batches add a leading chip axis.
    rng:
        Seeds every per-instance variation, exactly as the object chip:
        with ``n_chips == 1`` the generator is consumed in the object
        constructor's order; batches consume one spawned child per chip.
    mismatch:
        ``"paired"`` (bit-identical draws to the object model) or
        ``"fast"`` (vectorised draws; the array-scale default is chosen
        by callers such as ``ArrayScaleSpec``).
    """

    def __init__(
        self,
        specs: ChipSpecs | None = None,
        n_chips: int = 1,
        rng: RngLike = None,
        mismatch: str = "paired",
    ) -> None:
        if n_chips < 1:
            raise ValueError("need at least one chip in the batch")
        if mismatch not in DRAW_MODES:
            raise ValueError(f"unknown mismatch mode {mismatch!r}; choose from {DRAW_MODES}")
        self.specs = specs or ChipSpecs()
        self.n_chips = n_chips
        self.mismatch = mismatch
        self.params, peripheries = draw_chips(
            self.specs, [rng], n_chips, mismatch, periphery=True
        )
        self.bandgaps = [p.bandgap for p in peripheries]
        self.generator_dacs = [p.generator_dac for p in peripheries]
        self.collector_dacs = [p.collector_dac for p in peripheries]
        self.reference_trees = [p.reference_tree for p in peripheries]

        # One shared sensor template: sites are electrochemically
        # identical by design (same IDA geometry and species), exactly
        # as in the object model where every pixel gets an identically
        # configured RedoxCyclingSensor.
        self.sensor = RedoxCyclingSensor()

        self.registers: RegisterFile = dna_chip_registers()
        self.link = SerialLink()
        self.sequence = SiteSequence(
            rows=self.specs.rows,
            cols=self.specs.cols,
            counter_bits=self.specs.counter_bits,
        )
        self.bias_ok_chips = np.ones(n_chips, dtype=bool)
        self.gain_correction = np.ones(self.params.shape)
        self._configured = False
        self._last_counts = np.zeros((n_chips, self.specs.sites), dtype=np.int64)

    # ------------------------------------------------------------------
    # Shapes and indexing
    # ------------------------------------------------------------------
    @property
    def batch_shape(self) -> tuple[int, int, int]:
        return self.params.shape

    def _site_index(self, row: int, col: int) -> int:
        if not (0 <= row < self.specs.rows and 0 <= col < self.specs.cols):
            raise IndexError(f"site ({row}, {col}) outside array")
        return row * self.specs.cols + col

    def _squeeze(self, array: np.ndarray) -> np.ndarray:
        """Drop the chip axis for single-chip batches (object-chip API)."""
        return array[0] if self.n_chips == 1 else array

    def _to_batch(self, matrix: np.ndarray, name: str) -> np.ndarray:
        """Accept (rows, cols) or (n_chips, rows, cols) inputs."""
        matrix = np.asarray(matrix, dtype=float)
        grid = (self.specs.rows, self.specs.cols)
        if matrix.shape == grid:
            return np.broadcast_to(matrix, self.batch_shape)
        if matrix.shape == self.batch_shape:
            return matrix
        raise ValueError(
            f"expected {name} shaped {grid} or {self.batch_shape}, got {matrix.shape}"
        )

    # ------------------------------------------------------------------
    # Configuration (over the serial link, as on silicon)
    # ------------------------------------------------------------------
    def configure_bias(self, v_generator: float, v_collector: float) -> bool:
        """Program the electrode DACs on every chip in the batch and
        validate redox-cycling bias against each chip's *actual* DAC
        outputs (the same :meth:`RedoxCyclingSensor.check_bias`
        predicate the object pixels apply).  Returns True when every
        chip is correctly biased."""
        ok = np.empty(self.n_chips, dtype=bool)
        for index, (gen_dac, col_dac) in enumerate(
            zip(self.generator_dacs, self.collector_dacs)
        ):
            gen_code = gen_dac.code_for_voltage(v_generator)
            col_code = col_dac.code_for_voltage(v_collector)
            if index == 0:
                # Protocol fidelity: the codes cross the serial stack
                # once (the batch models identical host commands).
                self._write_register("generator_dac", gen_code)
                self._write_register("collector_dac", col_code)
            ok[index] = self.sensor.check_bias(gen_dac.output(gen_code), col_dac.output(col_code))
        self.bias_ok_chips = ok
        self._configured = bool(ok.all())
        return self._configured

    def _write_register(self, name: str, value: int) -> None:
        write_dna_register(self.link, self.registers, name, value)

    # ------------------------------------------------------------------
    # Auto-calibration
    # ------------------------------------------------------------------
    def auto_calibrate(self, frame_s: float = 0.05, rng: RngLike = None) -> np.ndarray:
        """Vectorised on-chip calibration: each chip applies its own
        reference-tree branches (divided 100:1) across the array and
        stores per-pixel gain corrections.  Returns the corrections,
        flattened per chip like the object model's ``(sites,)`` array."""
        corrections = calibrate_chips(self.params, self.reference_trees, frame_s, [rng])
        self.gain_correction = corrections
        self._write_register("calibration_enable", 1)
        return self._squeeze(corrections.reshape(self.n_chips, self.specs.sites))

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------
    def measure_assay(
        self, assay: AssayResult, frame_s: float = 1.0, rng: RngLike = None
    ) -> np.ndarray:
        """Digitise an assay outcome on every chip in the batch: each
        site's surface concentration is re-transduced and converted by
        that chip's own pixel parameters."""
        if assay.rows != self.specs.rows or assay.cols != self.specs.cols:
            raise ValueError(
                f"assay grid {assay.rows}x{assay.cols} does not match the "
                f"{self.specs.rows}x{self.specs.cols} chip"
            )
        concentration = np.zeros((self.specs.rows, self.specs.cols))
        for site in assay.sites:
            concentration[site.row, site.col] = site.surface_concentration
        return self.measure_concentrations(concentration, frame_s=frame_s, rng=rng)

    def measure_concentrations(
        self, surface_concentration: np.ndarray, frame_s: float = 1.0, rng: RngLike = None
    ) -> np.ndarray:
        """Full transduction: surface concentration -> redox current ->
        count, vectorised."""
        concentration = self._to_batch(surface_concentration, "concentrations")
        species = self.sensor.species
        currents = kernels.sensor_currents(
            concentration,
            species.electrons_transferred * FARADAY * species.diffusion_coefficient,
            self.sensor.electrode.geometry_factor(),
            self.sensor.background_current,
            bias_ok=self.bias_ok_chips[:, None, None],
        )
        return self._count(currents, frame_s, rng)

    def measure_currents(
        self, currents: np.ndarray, frame_s: float = 1.0, rng: RngLike = None
    ) -> np.ndarray:
        """Directly digitise sensor currents (test mode)."""
        return self._count(self._to_batch(currents, "currents"), frame_s, rng)

    def _count(self, currents: np.ndarray, frame_s: float, rng: RngLike) -> np.ndarray:
        counts = count_chips(self.params, currents, frame_s, [rng])
        self._last_counts = counts.reshape(self.n_chips, self.specs.sites)
        return self._squeeze(counts)

    def current_estimates(self, counts: np.ndarray, frame_s: float) -> np.ndarray:
        """Host-side conversion of counts to amperes with stored
        per-pixel calibration (bit-identical formula to the object
        chip).  A ``(rows, cols)`` input against a multi-chip batch is
        evaluated with every chip's own calibration and returns the
        full ``(n_chips, rows, cols)`` stack."""
        counts = np.trunc(np.asarray(counts))  # counts are whole pulses
        grid = (self.specs.rows, self.specs.cols)
        if counts.shape not in (grid, self.batch_shape):
            raise ValueError("count matrix shape mismatch")
        batch = np.broadcast_to(counts, self.batch_shape) if counts.shape == grid else counts
        estimates = kernels.host_current_estimate(
            batch,
            frame_s,
            self.params.cint_host_nominal_f,
            self.gain_correction,
            self.params.swing_nominal_v,
        )
        return self._squeeze(estimates)

    # ------------------------------------------------------------------
    # Serial readout (the 6-pin data path)
    # ------------------------------------------------------------------
    def read_counters_serial(self) -> list:
        """Full digital path for the latest counts.  Single-chip batches
        return the object chip's flat ``list[int]``; larger batches a
        list of per-chip lists (the host polls chips in sequence)."""
        per_chip: list[list[int]] = []
        chunk = counter_chunk_bytes(self.specs.counter_bits)
        for chip in range(self.n_chips):
            request = Frame(Command.READ_COUNTERS, 0x00)
            self.link.transfer(request)
            payload = pack_counters(
                self._last_counts[chip].tolist(), self.specs.counter_bits
            )
            received = bytearray()
            for start in range(0, len(payload), chunk):
                part = payload[start : start + chunk]
                response = self.link.respond(part)
                roundtrip = self.link.transfer(response, direction=CHIP_TO_HOST)
                received.extend(roundtrip.payload)
            per_chip.append(unpack_counters(bytes(received), self.specs.counter_bits))
        return per_chip[0] if self.n_chips == 1 else per_chip

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------
    def inject_dead_pixel(self, row: int, col: int, chip: int = 0) -> None:
        """Make one pixel's leakage exceed the signal floor."""
        if not 0 <= chip < self.n_chips:
            raise IndexError(f"chip {chip} outside batch of {self.n_chips}")
        self._site_index(row, col)
        self.params.leakage_a[chip, row, col] = 10e-12

    def dead_pixel_map(self) -> np.ndarray:
        return self._squeeze(kernels.dead_pixel_mask(self.params.leakage_a))

    # ------------------------------------------------------------------
    # Bridges
    # ------------------------------------------------------------------
    @classmethod
    def from_object_chip(cls, chip) -> "VectorizedDnaChip":
        """Wrap an existing :class:`DnaMicroarrayChip`'s drawn state
        (pixel parameters, periphery, calibration) as a single-chip
        vectorized twin.  Parameter arrays, registers and the serial
        link are copies, so driving the twin never mutates the source
        chip; the read-only periphery devices are shared."""
        import copy

        twin = cls.__new__(cls)
        twin.specs = chip.specs
        twin.n_chips = 1
        twin.mismatch = "paired"
        twin.params = PixelArrayParams.from_pixels(
            chip.pixels, chip.specs.rows, chip.specs.cols
        )
        twin.bandgaps = [chip.bandgap]
        twin.generator_dacs = [chip.generator_dac]
        twin.collector_dacs = [chip.collector_dac]
        twin.reference_trees = [chip.reference_tree]
        # Own sensor copy: check_bias stores state on the instance.
        twin.sensor = copy.deepcopy(chip.pixels[0].sensor)
        twin.registers = copy.deepcopy(chip.registers)
        twin.link = copy.deepcopy(chip.link)
        twin.sequence = chip.sequence
        twin.bias_ok_chips = np.array([all(p.sensor.bias_ok for p in chip.pixels)])
        twin.gain_correction = np.array(
            [p.gain_correction for p in chip.pixels]
        ).reshape(twin.params.shape)
        twin._configured = chip._configured
        twin._last_counts = np.array(chip._last_counts, dtype=np.int64).reshape(
            1, chip.specs.sites
        )
        return twin
