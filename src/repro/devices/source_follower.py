"""Source follower — the level shifter inside the Fig. 3 regulation loop.

The op-amp output drives the sensor electrode through a source follower
transistor; its sub-unity gain and level shift are part of the loop's
static error budget.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.process import ProcessSpec, default_process
from .mosfet import Mosfet


@dataclass
class SourceFollower:
    """NMOS source follower with a current-source load.

    Parameters
    ----------
    device:
        The follower transistor.
    bias_current:
        Load current pulled from the source node.
    body_effect_factor:
        Fractional gain reduction from the bulk transconductance
        (gmb/gm); typical 0.1-0.25 for the paper's technology.
    """

    device: Mosfet
    bias_current: float
    body_effect_factor: float = 0.2

    def __post_init__(self) -> None:
        if self.bias_current <= 0:
            raise ValueError("bias current must be positive")
        if not 0.0 <= self.body_effect_factor < 1.0:
            raise ValueError("body effect factor must lie in [0, 1)")

    def level_shift(self) -> float:
        """Gate-to-source DC shift at the bias current."""
        return self.device.vgs_for_current(self.bias_current)

    def small_signal_gain(self) -> float:
        """vout/vin = gm/(gm + gmb) < 1."""
        vgs = self.level_shift()
        gm = self.device.gm(vgs, self.device.process.vdd / 2.0)
        gmb = self.body_effect_factor * gm
        return gm / (gm + gmb)

    def output_for_input(self, v_in: float) -> float:
        """Static output voltage: input minus the bias-dependent Vgs."""
        return v_in - self.level_shift()

    def output_resistance(self) -> float:
        """1/gm output resistance seen by the electrode node."""
        vgs = self.level_shift()
        gm = self.device.gm(vgs, self.device.process.vdd / 2.0)
        if gm <= 0:
            raise ValueError("follower has no transconductance at this bias")
        return 1.0 / gm


def default_follower(process: ProcessSpec | None = None, bias_current: float = 10e-6) -> SourceFollower:
    """Follower sized like the DNA pixel's electrode driver."""
    process = process or default_process()
    device = Mosfet(width=10e-6, length=1e-6, polarity="n", process=process)
    return SourceFollower(device=device, bias_current=bias_current)
