"""Current mirrors and reference current sources.

The DNA chip periphery distributes bandgap-derived reference currents to
all 128 pixels; the neural pixel's M2 is a mirrored calibration current
source.  Mirror ratio errors come from threshold and beta mismatch of the
device pair, so mirrors are built from two :class:`~repro.devices.mosfet.Mosfet`
instances rather than an abstract gain number.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.mismatch import MismatchSampler
from ..core.process import ProcessSpec, default_process
from ..core.rng import RngLike, ensure_rng
from .mosfet import Mosfet


@dataclass
class CurrentMirror:
    """A two-transistor mirror with explicit devices.

    Parameters
    ----------
    reference, output:
        The diode-connected input device and the output device.  Their
        W/L ratio sets the nominal gain.
    """

    reference: Mosfet
    output: Mosfet

    @classmethod
    def matched_pair(
        cls,
        width: float,
        length: float,
        gain: float = 1.0,
        process: ProcessSpec | None = None,
        rng: RngLike = None,
    ) -> "CurrentMirror":
        """Build a mirror whose output device is ``gain`` times wider,
        with Pelgrom mismatch applied to both devices."""
        if gain <= 0:
            raise ValueError("mirror gain must be positive")
        process = process or default_process()
        sampler = MismatchSampler(process, width, length)
        generator = ensure_rng(rng)
        m_ref = Mosfet(width, length, "n", process, sampler.draw(generator))
        sampler_out = MismatchSampler(process, width * gain, length)
        m_out = Mosfet(width * gain, length, "n", process, sampler_out.draw(generator))
        return cls(reference=m_ref, output=m_out)

    @property
    def nominal_gain(self) -> float:
        return (self.output.width / self.output.length) / (
            self.reference.width / self.reference.length
        )

    def transfer(self, i_in: float, v_out: float | None = None) -> float:
        """Output current for input current ``i_in``.

        Solves the diode-connected input for its gate voltage, then
        evaluates the output device at that gate voltage — mismatch and
        channel-length modulation produce the realistic ratio error.
        """
        if i_in <= 0:
            raise ValueError("mirror input current must be positive")
        v_gate = self.reference.vgs_for_current(i_in, vds=None)
        # Diode connection: vds = vgs on the reference side.
        v_gate = self._solve_diode(i_in)
        if v_out is None:
            v_out = self.reference.process.vdd / 2.0
        return self.output.ids(v_gate, v_out)

    def _solve_diode(self, i_in: float) -> float:
        """Gate voltage of the diode-connected reference carrying i_in."""
        lo, hi = -1.0, self.reference.process.vdd + 2.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if self.reference.ids(mid, mid) < i_in:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def gain_error(self, i_in: float) -> float:
        """Relative deviation of the realised gain from nominal."""
        realised = self.transfer(i_in) / i_in
        return realised / self.nominal_gain - 1.0


@dataclass
class ReferenceCurrentFanout:
    """Distributes one master current to many outputs through mirrors.

    Models the DNA chip's current-reference tree: each branch has its own
    mismatch, so pixels see slightly different bias currents; the chip's
    auto-calibration must absorb this spread.
    """

    master_current: float
    branches: list[CurrentMirror]

    @classmethod
    def build(
        cls,
        master_current: float,
        count: int,
        width: float = 4e-6,
        length: float = 2e-6,
        process: ProcessSpec | None = None,
        rng: RngLike = None,
    ) -> "ReferenceCurrentFanout":
        if master_current <= 0:
            raise ValueError("master current must be positive")
        if count <= 0:
            raise ValueError("need at least one branch")
        generator = ensure_rng(rng)
        branches = [
            CurrentMirror.matched_pair(width, length, 1.0, process, generator)
            for _ in range(count)
        ]
        return cls(master_current=master_current, branches=branches)

    def branch_currents(self) -> np.ndarray:
        return np.asarray([mirror.transfer(self.master_current) for mirror in self.branches])

    def spread(self) -> float:
        """sigma/mean of the distributed currents."""
        currents = self.branch_currents()
        return float(np.std(currents) / np.mean(currents))
