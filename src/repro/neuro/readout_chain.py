"""The complete Fig. 6 signal path.

"... difference currents between M1 and M2 ... are compensated by the
closed regulation loop composed of A, M3, and M4 and further amplified
through the whole signal path ... the subsequent current gain stages
also undergo a calibration procedure before used for signal
amplification."

Stage budget straight from the figure annotations:

    pixel -> regulation loop (transimpedance) -> x100 -> x7 readout
    amplifier (BW = 4 MHz) -> 8-to-1 multiplexer -> output driver
    (BW = 32 MHz) -> off-chip x4 -> x2 -> conversion

Total voltage gain 100 * 7 * 4 * 2 = 5600.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.rng import RngLike, ensure_rng
from ..core.signals import Trace
from ..core.units import MHz
from ..devices.amplifier import AmplifierChain, GainStage


# Figure annotations.
ON_CHIP_GAINS = (100.0, 7.0)
OFF_CHIP_GAINS = (4.0, 2.0)
READOUT_AMP_BW = 4 * MHz
OUTPUT_DRIVER_BW = 32 * MHz
TOTAL_GAIN = 100.0 * 7.0 * 4.0 * 2.0  # = 5600


@dataclass
class ReadoutChainBudget:
    """Static nameplate numbers for reports."""

    total_gain: float = TOTAL_GAIN
    on_chip_gain: float = ON_CHIP_GAINS[0] * ON_CHIP_GAINS[1]
    off_chip_gain: float = OFF_CHIP_GAINS[0] * OFF_CHIP_GAINS[1]
    readout_bw_hz: float = READOUT_AMP_BW
    driver_bw_hz: float = OUTPUT_DRIVER_BW


def build_readout_chain(
    rng: RngLike = None,
    gain_error_sigma: float = 0.03,
    offset_sigma_v: float = 0.004,
    noise_density_v2_hz: float = (8e-9) ** 2,
    rail_v: float = 2.5,
) -> AmplifierChain:
    """One channel's amplifier cascade with drawn imperfections.

    Offsets and gain errors are per-instance (the reason the paper
    calibrates these stages); noise density is a typical MOS amplifier
    input-referred floor (~8 nV/rtHz).
    """
    generator = ensure_rng(rng)

    def draw_stage(gain: float, bw: float, label: str) -> GainStage:
        return GainStage(
            nominal_gain=gain,
            bandwidth_hz=bw,
            gain_error=float(generator.normal(0.0, gain_error_sigma)),
            offset_v=float(generator.normal(0.0, offset_sigma_v)),
            input_noise_density=noise_density_v2_hz,
            rail_low=-rail_v,
            rail_high=rail_v,
            label=label,
        )

    return AmplifierChain(
        stages=[
            draw_stage(ON_CHIP_GAINS[0], 3 * READOUT_AMP_BW, "x100 pixel amp"),
            draw_stage(ON_CHIP_GAINS[1], READOUT_AMP_BW, "x7 readout amp (4 MHz)"),
            draw_stage(1.0, OUTPUT_DRIVER_BW, "output driver (32 MHz)"),
            draw_stage(OFF_CHIP_GAINS[0], OUTPUT_DRIVER_BW, "x4 off-chip"),
            draw_stage(OFF_CHIP_GAINS[1], OUTPUT_DRIVER_BW, "x2 off-chip"),
        ]
    )


@dataclass
class ChannelFrontEnd:
    """Pixel-facing transimpedance of the regulation loop (A, M3, M4).

    The loop absorbs the pixel difference current and presents a
    proportional voltage to the x100 stage.  Its transimpedance is set
    so gm_pixel * R_ti = 1: the chain input voltage equals the coupled
    electrode voltage, making the x5600 budget directly applicable.
    """

    transimpedance_ohm: float = 20_000.0
    input_current_noise_density: float = (0.5e-12) ** 2  # A^2/Hz

    def __post_init__(self) -> None:
        if self.transimpedance_ohm <= 0:
            raise ValueError("transimpedance must be positive")

    def current_to_voltage(self, current_trace: Trace, rng: RngLike = None) -> Trace:
        """Convert the pixel difference current into the chain input."""
        voltage = current_trace * self.transimpedance_ohm
        if self.input_current_noise_density > 0:
            from ..core.noise import white_noise_trace

            noise = white_noise_trace(
                self.input_current_noise_density,
                current_trace.duration,
                current_trace.dt,
                rng=rng,
            )
            if noise.n == voltage.n:
                voltage = voltage + noise * self.transimpedance_ohm
        voltage.label = "chain input"
        return voltage


@dataclass
class ReadoutChannel:
    """One of the 16 parallel channels: front end + calibrated cascade."""

    front_end: ChannelFrontEnd = field(default_factory=ChannelFrontEnd)
    chain: AmplifierChain = None  # type: ignore[assignment]
    calibrated: bool = False

    def __post_init__(self) -> None:
        if self.chain is None:
            self.chain = build_readout_chain()

    @classmethod
    def sample(cls, rng: RngLike = None) -> "ReadoutChannel":
        return cls(chain=build_readout_chain(rng))

    def calibrate(self, residual_v: float = 50e-6) -> None:
        """The paper's gain-stage calibration: zero each stage's offset
        to within ``residual_v``."""
        self.chain.calibrate_all(residual_v)
        self.calibrated = True

    def process_current(self, current_trace: Trace, rng: RngLike = None, include_noise: bool = True) -> Trace:
        generator = ensure_rng(rng)
        voltage = self.front_end.current_to_voltage(current_trace, rng=generator if include_noise else None)
        return self.chain.process(voltage, rng=generator, include_noise=include_noise)

    def dc_output(self, current_a: float) -> float:
        """Static output for a DC difference current — shows how an
        uncalibrated chain saturates on pixel offsets alone."""
        return self.chain.dc_transfer(current_a * self.front_end.transimpedance_ohm)

    def output_headroom_used(self, current_a: float, rail_v: float = 2.5) -> float:
        """|output| / rail for a DC input; >=1 means clipped."""
        return abs(self.dc_output(current_a)) / rail_v
