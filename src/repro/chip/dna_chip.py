"""The 16x8 electrochemical DNA microarray chip (Fig. 4).

"The chips consist of a 8x16 sensor array including peripheral circuitry
(bandgap and current references, auto-calibration circuits, D/A-
converters to provide the required voltages for the electrochemical
operation) and 6 pin interface for power supply and serial digital data
transmission."  Basic CMOS process: Lmin = 0.5 um, tox = 15 nm, VDD = 5 V.

The model wires together:
  * 128 sensor pixels, each a Fig. 3 sawtooth ADC with its own drawn
    manufacturing variation,
  * a bandgap + reference-current fanout + two electrode DACs periphery,
  * the 6-pin serial protocol for configuration and counter readout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.process import C5_PROCESS, ProcessSpec
from ..core.rng import RngLike, ensure_rng, spawn_children
from ..devices.bandgap import BandgapReference
from ..devices.current_mirror import ReferenceCurrentFanout
from ..devices.dac import ResistorStringDac
from ..dna.assay import AssayResult
from ..pixel.pixel import DnaSensorPixel, PixelVariation
from .registers import RegisterFile, dna_chip_registers
from .sequencer import SiteSequence
from .serial_interface import (
    CHIP_TO_HOST,
    Command,
    Frame,
    FrameError,
    SerialLink,
    pack_counters,
    unpack_counters,
)


#: Register address map of the DNA chip's serial protocol — the single
#: source of truth shared with the vectorized backend's chip model.
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


def write_dna_register(link: SerialLink, registers: RegisterFile, name: str, value: int) -> None:
    """One register write through the full serial stack — the protocol
    shared by the object chip and its vectorized twin."""
    frame = Frame(Command.WRITE_REG, DNA_REGISTER_ADDRESSES[name], bytes([value & 0xFF]))
    received = link.transfer(frame)
    registers.write(received.address, received.payload[0])


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
        pixel_rngs = spawn_children(generator, self.specs.sites)
        self.pixels: list[DnaSensorPixel] = [
            DnaSensorPixel(
                PixelVariation.draw(pixel_rng),
                counter_bits=self.specs.counter_bits,
            )
            for pixel_rng in pixel_rngs
        ]
        self.bandgap = BandgapReference.sample(generator)
        self.generator_dac = ResistorStringDac.sample(generator, bits=8, v_low=0.0, v_high=2.0)
        self.collector_dac = ResistorStringDac.sample(generator, bits=8, v_low=-1.0, v_high=1.0)
        self.reference_tree = ReferenceCurrentFanout.build(
            master_current=self.bandgap.reference_current(1.2e6),
            count=8,
            rng=generator,
        )
        self.registers: RegisterFile = dna_chip_registers(recorder=recorder)
        self.link = SerialLink(recorder=recorder)
        self.sequence = SiteSequence(
            rows=self.specs.rows,
            cols=self.specs.cols,
            counter_bits=self.specs.counter_bits,
        )
        self._configured = False
        # Latest per-site counts, flat row-major — held as an ndarray so
        # readout/serial paths index it instead of rebuilding list[int]
        # copies of the rows x cols loop.
        self._last_counts: np.ndarray = np.zeros(self.specs.sites, dtype=np.int64)

    # ------------------------------------------------------------------
    # Indexing
    # ------------------------------------------------------------------
    def _site_index(self, row: int, col: int) -> int:
        if not (0 <= row < self.specs.rows and 0 <= col < self.specs.cols):
            raise IndexError(f"site ({row}, {col}) outside array")
        return row * self.specs.cols + col

    def pixel_at(self, row: int, col: int) -> DnaSensorPixel:
        return self.pixels[self._site_index(row, col)]

    # ------------------------------------------------------------------
    # Configuration (over the serial link, as on silicon)
    # ------------------------------------------------------------------
    def configure_bias(self, v_generator: float, v_collector: float) -> bool:
        """Program the electrode DACs and validate redox-cycling bias.

        Returns True when every pixel's sensor is correctly biased.
        """
        if self.recorder is not None:
            self.recorder.seq_state("configure", detail="electrode DAC programming")
        gen_code = self.generator_dac.code_for_voltage(v_generator)
        col_code = self.collector_dac.code_for_voltage(v_collector)
        self._write_register("generator_dac", gen_code)
        self._write_register("collector_dac", col_code)
        v_gen_actual = self.generator_dac.output(gen_code)
        v_col_actual = self.collector_dac.output(col_code)
        all_ok = True
        for pixel in self.pixels:
            ok = pixel.sensor.check_bias(v_gen_actual, v_col_actual)
            all_ok = all_ok and ok
        self._configured = all_ok
        return all_ok

    def _write_register(self, name: str, value: int) -> None:
        write_dna_register(self.link, self.registers, name, value)

    # ------------------------------------------------------------------
    # Auto-calibration
    # ------------------------------------------------------------------
    def auto_calibrate(self, frame_s: float = 0.05, rng: RngLike = None) -> np.ndarray:
        """Run the on-chip calibration: apply a branch of the reference
        tree (divided 100:1 into the ADC's mid-range) to every pixel and
        store gain corrections.  Returns the array of correction
        factors."""
        if self.recorder is not None:
            self.recorder.seq_state("calibrate", detail=f"reference frame {frame_s} s")
        generator = ensure_rng(rng)
        branch_currents = self.reference_tree.branch_currents() / 100.0
        corrections = np.empty(self.specs.sites)
        for index, pixel in enumerate(self.pixels):
            i_ref = float(branch_currents[index % len(branch_currents)])
            corrections[index] = pixel.calibrate(i_ref, frame_s, rng=generator)
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
        """Digitise an assay outcome: every site's surface concentration
        is re-transduced by that pixel's own sensor and converted by its
        own ADC.  Returns the (rows x cols) count matrix."""
        if assay.rows != self.specs.rows or assay.cols != self.specs.cols:
            raise ValueError(
                f"assay grid {assay.rows}x{assay.cols} does not match the "
                f"{self.specs.rows}x{self.specs.cols} chip"
            )
        if self.recorder is not None:
            self.recorder.seq_state("measure", detail=f"assay frame {frame_s} s")
        generator = ensure_rng(rng)
        counts = np.zeros((self.specs.rows, self.specs.cols), dtype=int)
        for site in assay.sites:
            pixel = self.pixel_at(site.row, site.col)
            counts[site.row, site.col] = pixel.measure_concentration(
                site.surface_concentration, frame_s, rng=generator
            )
        self._last_counts = counts.reshape(-1).astype(np.int64)
        if self.recorder is not None:
            self.recorder.advance(frame_s)  # the counting frame
        return counts

    def measure_currents(
        self, currents: np.ndarray, frame_s: float = 1.0, rng: RngLike = None
    ) -> np.ndarray:
        """Directly digitise a matrix of sensor currents (test mode)."""
        currents = np.asarray(currents, dtype=float)
        if currents.shape != (self.specs.rows, self.specs.cols):
            raise ValueError(f"expected {self.specs.rows}x{self.specs.cols} currents")
        if self.recorder is not None:
            self.recorder.seq_state("measure", detail=f"current pattern frame {frame_s} s")
        generator = ensure_rng(rng)
        counts = np.zeros_like(currents, dtype=int)
        for row in range(self.specs.rows):
            for col in range(self.specs.cols):
                pixel = self.pixel_at(row, col)
                counts[row, col] = pixel.convert_current(
                    float(currents[row, col]), frame_s, rng=generator
                )
        self._last_counts = counts.reshape(-1).astype(np.int64)
        if self.recorder is not None:
            self.recorder.advance(frame_s)  # the counting frame
        return counts

    def current_estimates(self, counts: np.ndarray, frame_s: float) -> np.ndarray:
        """Host-side conversion of counts to amperes with stored
        per-pixel calibration.

        Evaluated as one :mod:`repro.engine.kernels` call over the
        gathered per-pixel parameters (same formula and operation order
        as the former per-pixel loop, bit-identical results).
        """
        from ..engine import kernels

        counts = np.trunc(np.asarray(counts))  # counts are whole pulses
        if counts.shape != (self.specs.rows, self.specs.cols):
            raise ValueError("count matrix shape mismatch")
        if frame_s <= 0:
            raise ValueError("frame must be positive")
        cint_nominal = np.array(
            [
                pixel.adc.cint.capacitance_f / (1.0 + pixel.variation.cint_relative_error)
                for pixel in self.pixels
            ]
        ).reshape(counts.shape)
        gains = np.array([pixel.gain_correction for pixel in self.pixels]).reshape(counts.shape)
        return kernels.host_current_estimate(counts, frame_s, cint_nominal, gains)

    # ------------------------------------------------------------------
    # Serial readout (the 6-pin data path)
    # ------------------------------------------------------------------
    def read_counters_serial(
        self,
        flip_bits: list[int] | None = None,
        flip_frame: int = 0,
        flip_frames: "dict[int, list[int]] | None" = None,
    ) -> list[int]:
        """Full digital path: pack the latest counts, push them through
        the bit-level link, unpack on the host side.

        ``flip_bits`` injects bit corruption into response chunk number
        ``flip_frame`` (the checksum must catch it and raise
        :class:`~repro.chip.serial_interface.FrameError`).  For
        multi-frame corruption pass ``flip_frames``, a mapping of chunk
        index -> bit positions; it overrides the singular pair.  A
        decode failure carries the failing chunk index on the raised
        error as ``frame_index``."""
        if self.recorder is not None:
            self.recorder.seq_state("readout", detail="serial counter shift-out")
        request = Frame(Command.READ_COUNTERS, 0x00)
        self.link.transfer(request)
        if self.recorder is not None:
            # One sample-slot event per site, timestamped by the
            # SiteSequence schedule relative to the start of shift-out.
            base = self.recorder.now
            for row in range(self.specs.rows):
                for col in range(self.specs.cols):
                    self.recorder.seq_sample(
                        row,
                        col,
                        time_s=base + self.sequence.site_time_s(row, col),
                        slot_s=self.sequence.site_slot_s,
                        slot=row * self.specs.cols + col,
                    )
        payload = pack_counters(self._last_counts.tolist(), self.specs.counter_bits)
        # Large payloads are split into <=255-byte frames.
        chunk = counter_chunk_bytes(self.specs.counter_bits)
        if flip_frames is None:
            flip_frames = {flip_frame: flip_bits} if flip_bits else {}
        received = bytearray()
        for index, start in enumerate(range(0, len(payload), chunk)):
            part = payload[start : start + chunk]
            response = self.link.respond(part)
            try:
                roundtrip = self.link.transfer(
                    response,
                    flip_bits=flip_frames.get(index),
                    direction=CHIP_TO_HOST,
                )
            except FrameError as exc:
                exc.frame_index = index  # type: ignore[attr-defined]
                raise
            received.extend(roundtrip.payload)
        return unpack_counters(bytes(received), self.specs.counter_bits)

    def inject_dead_pixel(self, row: int, col: int) -> None:
        """Failure injection: make one pixel's leakage exceed the signal
        floor so it never fires."""
        pixel = self.pixel_at(row, col)
        pixel.adc.leakage_a = 10e-12

    def dead_pixel_map(self) -> np.ndarray:
        from ..engine import kernels

        leakage = np.array([pixel.adc.leakage_a for pixel in self.pixels])
        return kernels.dead_pixel_mask(leakage).reshape(self.specs.rows, self.specs.cols)

    # ------------------------------------------------------------------
    # Vectorized-backend bridge
    # ------------------------------------------------------------------
    def vectorized(self) -> "object":
        """This chip's drawn state wrapped as a
        :class:`~repro.engine.vchip.VectorizedDnaChip` twin — same pixel
        parameters, periphery and calibration, evaluated as array
        kernels (see :mod:`repro.engine` for the parity contract)."""
        from ..engine import VectorizedDnaChip

        return VectorizedDnaChip.from_object_chip(self)
