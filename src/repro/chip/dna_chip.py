"""The 16x8 electrochemical DNA microarray chip (Fig. 4).

"The chips consist of a 8x16 sensor array including peripheral circuitry
(bandgap and current references, auto-calibration circuits, D/A-
converters to provide the required voltages for the electrochemical
operation) and 6 pin interface for power supply and serial digital data
transmission."  Basic CMOS process: Lmin = 0.5 um, tox = 15 nm, VDD = 5 V.

The model wires together:
  * 128 sensor sites, each a Fig. 3 sawtooth ADC with its own drawn
    manufacturing variation,
  * a bandgap + reference-current fanout + two electrode DACs periphery,
  * the 6-pin serial protocol for configuration and counter readout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from ..core.process import C5_PROCESS, ProcessSpec
from ..core.rng import RngLike, ensure_rng
from ..devices.bandgap import BandgapReference
from ..devices.current_mirror import ReferenceCurrentFanout
from ..devices.dac import ResistorStringDac
from ..dna.assay import AssayResult
from ..electrochem.redox_cycling import RedoxCyclingSensor
from ..pixel.pixel import DnaSensorPixel, PixelVariation, draw_variations, pixel_adc
from ..pixel.sawtooth_adc import SawtoothAdc
from .registers import RegisterFile, dna_chip_registers
from .sequencer import SiteSequence
from .serial_interface import Command, Frame, SerialLink


#: Register address map of the DNA chip's serial protocol.
DNA_REGISTER_ADDRESSES = {
    "generator_dac": 0x00,
    "collector_dac": 0x01,
    "frame_exponent": 0x02,
    "calibration_enable": 0x03,
    "reference_current_sel": 0x04,
}


def counter_chunk_bytes(counter_bits: int) -> int:
    """Largest whole-counter payload that fits a <=255-byte frame."""
    if counter_bits < 8 or counter_bits % 8:
        raise ValueError("counter width must be a byte multiple for packing")
    return 252 - (252 % (counter_bits // 8))


class ChipPeriphery(NamedTuple):
    """The Fig. 4 periphery of one chip, in the order it is drawn."""

    bandgap: BandgapReference
    generator_dac: ResistorStringDac
    collector_dac: ResistorStringDac
    reference_tree: ReferenceCurrentFanout


def draw_periphery(rng: RngLike) -> ChipPeriphery:
    """Draw one chip's periphery: the bandgap, the two electrode DACs and
    the reference tree fed from the bandgap, in that order."""
    generator = ensure_rng(rng)
    bandgap = BandgapReference.sample(generator)
    return ChipPeriphery(
        bandgap,
        ResistorStringDac.sample(generator, bits=8, v_low=0.0, v_high=2.0),
        ResistorStringDac.sample(generator, bits=8, v_low=-1.0, v_high=1.0),
        ReferenceCurrentFanout.build(
            master_current=bandgap.reference_current(1.2e6), count=8, rng=generator
        ),
    )


@dataclass
class ChipSpecs:
    """Name-plate data of the device (the Fig. 4 caption)."""

    rows: int = 16
    cols: int = 8
    process: ProcessSpec = field(default_factory=lambda: C5_PROCESS)
    pin_count: int = 6
    counter_bits: int = 24

    @property
    def sites(self) -> int:
        return self.rows * self.cols

    def as_rows(self) -> list[tuple[str, str]]:
        return [
            ("sensor array", f"{self.rows} x {self.cols} = {self.sites} sites"),
            ("process", self.process.name),
            ("Lmin", f"{self.process.l_min * 1e6:.2g} um"),
            ("tox", f"{self.process.t_ox * 1e9:.2g} nm"),
            ("VDD", f"{self.process.vdd:.2g} V"),
            ("interface", f"{self.pin_count}-pin serial"),
            ("counter width", f"{self.counter_bits} bits"),
        ]


class DnaMicroarrayChip:
    """Behavioural model of the full Fig. 4 device.

    Each site keeps only its in-pixel converter (``adcs``, flat
    row-major).  The chip holds the rest: one redox-cycling ``sensor``
    (every site's IDA is identical), per-site ``gain_correction`` and
    drawn ``cint_relative_error`` arrays, and the counters' saturating
    ``full_scale``.

    This class is the chip's one host half: periphery, bias programming,
    register writes, calibration, RUN_FRAME framing, host estimates and
    the serial readout.  :class:`~repro.engine.VectorizedDnaChip`
    inherits all of it and overrides only how pixels are drawn
    (``_draw_pixels``), how a frame is counted (``_count_frame``) and
    the pixel-state reads (``cint_host_nominal_f``, ``dead_time_s``,
    ``dead_pixel_map``, ``inject_dead_pixel``).

    Parameters
    ----------
    specs:
        Array dimensions and process.
    rng:
        Seeds every per-instance variation on the die (pixels, DACs,
        bandgap, reference tree).
    """

    def __init__(
        self,
        specs: ChipSpecs | None = None,
        rng: RngLike = None,
        recorder: object = None,
    ) -> None:
        self.specs = specs or ChipSpecs()
        # A trace recorder (duck-typed; see repro.trace) observing the
        # digital path: register traffic, serial frames, sample slots.
        self.recorder = recorder
        generator = ensure_rng(rng)
        self._draw_pixels(generator)
        self.sensor = RedoxCyclingSensor()
        self.gain_correction: np.ndarray = np.ones(self.specs.sites)
        self.full_scale = (1 << self.specs.counter_bits) - 1
        self.bandgap, self.generator_dac, self.collector_dac, self.reference_tree = (
            draw_periphery(generator)
        )
        self.registers: RegisterFile = dna_chip_registers(recorder=recorder)
        self.link = SerialLink(recorder=recorder)
        self.sequence = SiteSequence(
            rows=self.specs.rows,
            cols=self.specs.cols,
            counter_bits=self.specs.counter_bits,
        )
        # Latest per-site counts, flat row-major — held as an ndarray so
        # readout/serial paths index it instead of rebuilding list[int]
        # copies of the rows x cols loop.
        self._last_counts: np.ndarray = np.zeros(self.specs.sites, dtype=np.int64)

    def _draw_pixels(self, generator: np.random.Generator) -> None:
        """Each site's converter from its own drawn variation."""
        variations = draw_variations(generator, self.specs.sites)
        self.adcs: list[SawtoothAdc] = [pixel_adc(*row) for row in variations.tolist()]
        self.cint_relative_error: np.ndarray = variations[:, 1].copy()

    # ------------------------------------------------------------------
    # Indexing
    # ------------------------------------------------------------------
    def _site_index(self, row: int, col: int) -> int:
        if not (0 <= row < self.specs.rows and 0 <= col < self.specs.cols):
            raise IndexError(f"site ({row}, {col}) outside array")
        return row * self.specs.cols + col

    @property
    def pixels(self) -> list[DnaSensorPixel]:
        """Every site as a :meth:`pixel_at` view."""
        return [self.pixel_at(*divmod(index, self.specs.cols)) for index in range(self.specs.sites)]

    def pixel_at(self, row: int, col: int) -> DnaSensorPixel:
        """A :class:`DnaSensorPixel` built on demand around the site's
        converter, stored gain and the chip's sensor: a read-only view,
        so calibrating or counting on it leaves the chip alone."""
        index = self._site_index(row, col)
        adc = self.adcs[index]
        cint_relative_error = float(self.cint_relative_error[index])
        variation = PixelVariation(adc.comparator.offset_v, cint_relative_error, adc.leakage_a)
        pixel = DnaSensorPixel(variation, self.specs.counter_bits, self.sensor)
        pixel.adc, pixel.gain_correction = adc, float(self.gain_correction[index])
        return pixel

    # ------------------------------------------------------------------
    # Configuration (over the serial link, as on silicon)
    # ------------------------------------------------------------------
    def configure_bias(self, v_generator: float, v_collector: float) -> bool:
        """Program the electrode DACs and validate redox-cycling bias.

        Returns True when the (shared) sensor model is correctly biased.
        """
        if self.recorder is not None:
            self.recorder.seq_state("configure", detail="electrode DAC programming")
        gen_code = self.generator_dac.code_for_voltage(v_generator)
        col_code = self.collector_dac.code_for_voltage(v_collector)
        self._write_register("generator_dac", gen_code)
        self._write_register("collector_dac", col_code)
        v_gen_actual = self.generator_dac.output(gen_code)
        v_col_actual = self.collector_dac.output(col_code)
        return self.sensor.check_bias(v_gen_actual, v_col_actual)

    def _write_register(self, name: str, value: int) -> None:
        """One register write through the full serial stack."""
        frame = Frame(Command.WRITE_REG, DNA_REGISTER_ADDRESSES[name], bytes([value & 0xFF]))
        received = self.link.transfer(frame)
        self.registers.write(received.address, received.payload[0])

    def _count_frame(self, currents: Sequence[float], frame_s: float, rng: RngLike) -> list[int]:
        """Every site's converter counts its current (flat, row-major)
        for one frame, in site order on one generator; the counter holds
        at full scale."""
        generator = ensure_rng(rng)
        return [
            min(adc.count_in_frame(current, frame_s, rng=generator), self.full_scale)
            for adc, current in zip(self.adcs, currents)
        ]

    # ------------------------------------------------------------------
    # Auto-calibration
    # ------------------------------------------------------------------
    def auto_calibrate(self, frame_s: float = 0.05, rng: RngLike = None) -> np.ndarray:
        """Run the on-chip calibration: apply a branch of the reference
        tree (divided 100:1 into the ADC's mid-range) to every pixel and
        store gain corrections.  Returns the array of correction
        factors."""
        from ..engine import kernels

        if self.recorder is not None:
            self.recorder.seq_state("calibrate", detail=f"reference frame {frame_s} s")
        branch_currents = (self.reference_tree.branch_currents() / 100.0).tolist()
        references = [
            branch_currents[index % len(branch_currents)] for index in range(self.specs.sites)
        ]
        counts = self._count_frame(references, frame_s, rng)
        corrections = kernels.calibration_corrections(counts, references, frame_s, self.dead_time_s)
        self.gain_correction = corrections.copy()
        self._write_register("calibration_enable", 1)
        if self.recorder is not None:
            self.recorder.advance(frame_s)  # the calibration counting frame
        return corrections

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------
    def measure_assay(
        self, assay: AssayResult, frame_s: float = 1.0, rng: RngLike = None
    ) -> np.ndarray:
        """Digitise an assay outcome: each distinct spot's surface
        concentration is transduced by the sensor model, and every site's
        own ADC converts the current of its spot.  Returns the
        (rows x cols) count matrix.  The host opens the counting frame
        with a RUN_FRAME over the serial link.

        The transduction is one :func:`repro.engine.kernels.sensor_currents`
        call over the spots (elementwise, so bit-identical to
        :meth:`RedoxCyclingSensor.current` per site), indexed by the
        assay's row-major groups."""
        from ..engine import kernels

        if assay.rows != self.specs.rows or assay.cols != self.specs.cols:
            raise ValueError(
                f"assay grid {assay.rows}x{assay.cols} does not match the "
                f"{self.specs.rows}x{self.specs.cols} chip"
            )
        sensor = self.sensor
        concentrations = [spot.surface_concentration for spot in assay.spots]
        currents = kernels.sensor_currents(sensor, concentrations, sensor.bias_ok)[assay.groups]
        counts = self._measure_frame(currents, frame_s, rng, f"assay frame {frame_s} s")
        return counts.reshape(self.specs.rows, self.specs.cols).copy()

    def measure_currents(
        self, currents: np.ndarray, frame_s: float = 1.0, rng: RngLike = None
    ) -> np.ndarray:
        """Directly digitise a matrix of sensor currents (test mode).
        Like :meth:`measure_assay`, each call is one counting frame,
        opened by a RUN_FRAME over the serial link."""
        currents = np.asarray(currents, dtype=float)
        if currents.shape != (self.specs.rows, self.specs.cols):
            raise ValueError(f"expected {self.specs.rows}x{self.specs.cols} currents")
        counts = self._measure_frame(
            currents.ravel(), frame_s, rng, f"current pattern frame {frame_s} s"
        )
        return counts.reshape(currents.shape).astype(int)

    def _measure_frame(
        self, currents: np.ndarray, frame_s: float, rng: RngLike, detail: str
    ) -> np.ndarray:
        """One counting frame over every site (flat, row-major
        ``currents``): the host opens it with a RUN_FRAME, the sequencer
        enters its ``measure`` state (``detail`` is the trace label), and
        the counts are latched for the serial readout and returned."""
        self.link.transfer(Frame(Command.RUN_FRAME, 0x00))
        if self.recorder is not None:
            self.recorder.seq_state("measure", detail=detail)
        counts = self._count_frame(currents.tolist(), frame_s, rng)
        self._last_counts = np.array(counts, dtype=np.int64)
        if self.recorder is not None:
            self.recorder.advance(frame_s)  # the counting frame
        return self._last_counts

    @property
    def cint_host_nominal_f(self) -> np.ndarray:
        """The nominal Cint the host assumes per site (flat): ``actual /
        (1 + drawn error)``, as :meth:`DnaSensorPixel.current_estimate`."""
        cint_f = np.array([adc.cint.capacitance_f for adc in self.adcs])
        return cint_f / (1.0 + self.cint_relative_error)

    @property
    def dead_time_s(self) -> np.ndarray:
        """Each site's fixed per-cycle time (comparator delay + reset),
        which calibration adds to the nominal ramp period."""
        return np.array([adc.dead_time() for adc in self.adcs])

    def current_estimates(self, counts: np.ndarray, frame_s: float) -> np.ndarray:
        """Host-side conversion of counts to amperes with stored
        per-pixel calibration.

        Evaluated as one :mod:`repro.engine.kernels` call over the
        chip's per-site parameters (same formula and operation order
        as :meth:`DnaSensorPixel.current_estimate`, bit-identical).
        """
        from ..engine import kernels

        counts = np.trunc(np.asarray(counts))  # counts are whole pulses
        if counts.shape != (self.specs.rows, self.specs.cols):
            raise ValueError("count matrix shape mismatch")
        if frame_s <= 0:
            raise ValueError("frame must be positive")
        return kernels.host_current_estimate(
            counts,
            frame_s,
            self.cint_host_nominal_f.reshape(counts.shape),
            self.gain_correction.reshape(counts.shape),
        )

    # ------------------------------------------------------------------
    # Serial readout (the 6-pin data path)
    # ------------------------------------------------------------------
    def read_counters_serial(self, flip_frames: "dict[int, list[int]] | None" = None) -> list[int]:
        """Full digital path: pack the latest counts, push them through
        the bit-level link, unpack on the host side.

        ``flip_frames`` maps response-chunk index -> bit positions to
        corrupt (the checksum must catch it and raise
        :class:`~repro.chip.serial_interface.FrameError`, carrying the
        failing chunk index as ``frame_index``)."""
        from .readout import read_counters

        return read_counters(
            self._last_counts,
            self.registers,
            self.link,
            self.sequence,
            self.specs,
            self.recorder,
            flip_frames=flip_frames,
        ).counters

    def inject_dead_pixel(self, row: int, col: int) -> None:
        """Failure injection: make one pixel's leakage exceed the signal
        floor so it never fires."""
        self.adcs[self._site_index(row, col)].leakage_a = 10e-12

    def dead_pixel_map(self) -> np.ndarray:
        from ..engine import kernels

        leakage = np.array([adc.leakage_a for adc in self.adcs])
        return kernels.dead_pixel_mask(leakage).reshape(self.specs.rows, self.specs.cols)
