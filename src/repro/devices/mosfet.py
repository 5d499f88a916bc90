"""Behavioural MOSFET model (EKV-style continuous weak/strong inversion).

The sensor transistors of both chips operate across regimes: the DNA
pixel's reset device and source follower sit in strong inversion, while
pixel leakage floors and the neural pixel's small-signal behaviour hinge
on an accurate transconductance around the calibration bias.  A smooth
single-expression model (forward/reverse EKV interpolation) avoids the
discontinuities of piecewise square-law models, which matters when the
calibration loop solves for a gate voltage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..core.mismatch import MismatchSample
from ..core.process import ProcessSpec, default_process
from ..core.units import thermal_voltage


@dataclass(frozen=True)
class Mosfet:
    """An NMOS or PMOS transistor instance.

    All voltages are *device-referred*: for PMOS pass source-gate /
    source-drain magnitudes, the model is symmetric.  ``mismatch`` shifts
    the threshold and the current factor of this instance.

    Instances are immutable: the derived EKV parameters (``vth``,
    ``n_factor``, ``specific_current``, the thermal voltage and the
    channel-length factor) are computed once at construction, so the
    inverse solves' ~100 ``ids`` evaluations per call only read them.

    Parameters
    ----------
    width, length:
        Drawn dimensions in meters.
    polarity:
        ``"n"`` or ``"p"``; selects nominal Vth and mobility.
    process:
        Technology parameters.
    mismatch:
        Per-device deviation (from :class:`~repro.core.mismatch.MismatchSampler`).
    temperature_k:
        Junction temperature for the thermal voltage and leakage.
    """

    width: float
    length: float
    polarity: str = "n"
    process: ProcessSpec = field(default_factory=default_process)
    mismatch: MismatchSample | None = None
    temperature_k: float = 300.0
    #: Effective threshold of this instance (nominal + mismatch).
    vth: float = field(init=False, repr=False, compare=False)
    n_factor: float = field(init=False, repr=False, compare=False)
    #: EKV specific current 2*n*beta*Vt^2 separating weak/strong inversion.
    specific_current: float = field(init=False, repr=False, compare=False)
    _vt: float = field(init=False, repr=False, compare=False)
    _lambda: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.width <= 0 or self.length <= 0:
            raise ValueError("device dimensions must be positive")
        if self.polarity not in ("n", "p"):
            raise ValueError(f"polarity must be 'n' or 'p', got {self.polarity!r}")
        process = self.process
        nominal = process.vth_n if self.polarity == "n" else process.vth_p
        delta = self.mismatch.delta_vth if self.mismatch else 0.0
        n_factor = process.subthreshold_slope_n
        vt = thermal_voltage(self.temperature_k)
        derived = {
            "vth": nominal + delta,
            "n_factor": n_factor,
            "specific_current": 2.0 * n_factor * self.beta * vt * vt,
            "_vt": vt,
            # Channel-length modulation, scaled to drawn length.
            "_lambda": process.lambda_chl * (process.l_min / self.length),
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    # Derived parameters
    # ------------------------------------------------------------------
    @property
    def beta(self) -> float:
        """Current factor mu*Cox*W/L of this instance, A/V^2."""
        mu_cox = self.process.mu_n_cox if self.polarity == "n" else self.process.mu_p_cox
        rel = 1.0 + (self.mismatch.delta_beta_rel if self.mismatch else 0.0)
        return mu_cox * (self.width / self.length) * rel

    @property
    def gate_capacitance(self) -> float:
        """Gate-oxide capacitance, the storage cap of the neural pixel."""
        return self.process.gate_capacitance(self.width, self.length)

    def junction_leakage(self) -> float:
        """Drain-junction leakage (A); the integration-node floor current.

        Scales with drawn drain area approximated as W * 3 Lmin.
        """
        area = self.width * 3.0 * self.process.l_min
        return self.process.junction_leak_density * area

    # ------------------------------------------------------------------
    # Large-signal current
    # ------------------------------------------------------------------
    def _inversion_charge(self, v_pinch_minus_vchannel: float) -> float:
        """EKV interpolation ln^2(1 + exp(x/2)) in normalised units."""
        x = v_pinch_minus_vchannel / self._vt
        # Numerically safe log1p(exp(x/2)).
        half = 0.5 * x
        if half > 40.0:
            log_term = half
        else:
            log_term = math.log1p(math.exp(half))
        return log_term * log_term

    def ids(self, vgs: float, vds: float, vsb: float = 0.0) -> float:
        """Drain current in amperes for the given terminal voltages.

        Symmetric EKV form: I = Is * (i_f - i_r) with pinch-off voltage
        Vp = (Vgs - Vth)/n.  Channel-length modulation multiplies the
        saturation component.  Negative ``vds`` returns the negated
        current of the mirrored device (model symmetry).
        """
        if vds < 0:
            return -self.ids(vgs - vds, -vds, vsb)
        vp = (vgs - self.vth - 0.2 * vsb) / self.n_factor
        i_f = self._inversion_charge(vp)
        i_r = self._inversion_charge(vp - vds)
        current = self.specific_current * (i_f - i_r)
        current *= 1.0 + self._lambda * vds
        return current

    def ids_saturation(self, vgs: float) -> float:
        """Current with the drain far in saturation (vds = vdd/2)."""
        return self.ids(vgs, self.process.vdd / 2.0)

    # ------------------------------------------------------------------
    # Small-signal
    # ------------------------------------------------------------------
    def gm(self, vgs: float, vds: float, delta: float = 1e-6) -> float:
        """Transconductance dId/dVgs by symmetric difference."""
        return (self.ids(vgs + delta, vds) - self.ids(vgs - delta, vds)) / (2 * delta)

    def gds(self, vgs: float, vds: float, delta: float = 1e-6) -> float:
        """Output conductance dId/dVds by symmetric difference."""
        return (self.ids(vgs, vds + delta) - self.ids(vgs, vds - delta)) / (2 * delta)

    def gm_over_id(self, vgs: float, vds: float) -> float:
        current = self.ids(vgs, vds)
        if current <= 0:
            raise ValueError("gm/Id undefined at non-positive current")
        return self.gm(vgs, vds) / current

    # ------------------------------------------------------------------
    # Inverse solve — the calibration primitive
    # ------------------------------------------------------------------
    def gate_bracket(self, target_ids: float, vds: float) -> tuple[float, float]:
        """The gate-voltage search interval ``(-1, vdd + 2)`` V of the
        inverse solves.

        Raises ``ValueError`` when ``target_ids`` lies outside the
        currents its two endpoints carry at ``vds``.
        """
        lo, hi = -1.0, self.process.vdd + 2.0
        i_lo = self.ids(lo, vds)
        i_hi = self.ids(hi, vds)
        if i_lo > target_ids or i_hi < target_ids:
            raise ValueError(f"target {target_ids} A out of range [{i_lo}, {i_hi}]")
        return lo, hi

    def vgs_for_current(self, target_ids: float, vds: float | None = None) -> float:
        """Gate-source voltage that makes the device carry ``target_ids``.

        This is what the pixel calibration loop of Fig. 6 physically does:
        force a current through M1 and let the feedback find (and store)
        the gate voltage.  Solved by bisection on the monotone ids(vgs).
        """
        if target_ids <= 0:
            raise ValueError(f"target current must be positive, got {target_ids}")
        if vds is None:
            vds = self.process.vdd / 2.0
        lo, hi = self.gate_bracket(target_ids, vds)
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if self.ids(mid, vds) < target_ids:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def flicker_corner_hz(self, vgs: float, vds: float) -> float:
        """Approximate 1/f corner frequency at this bias.

        Corner where flicker input-referred PSD Kf/(Cox^2 W L f) equals the
        thermal channel noise referred to the gate.
        """
        gm = self.gm(vgs, vds)
        if gm <= 0:
            raise ValueError("flicker corner undefined at zero gm")
        from ..core.units import BOLTZMANN

        thermal_psd = 4.0 * BOLTZMANN * self.temperature_k * (2.0 / 3.0) / gm
        cox2_wl = (self.process.c_ox**2) * self.width * self.length
        if cox2_wl <= 0:
            raise ValueError("invalid geometry")
        flicker_num = self.process.flicker_kf / cox2_wl
        return flicker_num / thermal_psd
