"""Integration capacitor with leakage and voltage coefficient.

Cint of the Fig. 3 sawtooth generator: the sensor current charges it, the
reset transistor discharges it.  Leakage across it (plus junction leakage
of the attached devices) sets the error floor of the 1 pA measurements.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class Capacitor:
    """Linear capacitor with parallel leakage and first-order V-coefficient.

    Parameters
    ----------
    capacitance_f:
        Nominal value at 0 V bias.
    leakage_conductance_s:
        Parallel conductance (A/V of leak).
    voltage_coefficient:
        Fractional capacitance change per volt.
    """

    capacitance_f: float
    leakage_conductance_s: float = 0.0
    voltage_coefficient: float = 0.0

    def __post_init__(self) -> None:
        if self.capacitance_f <= 0:
            raise ValueError("capacitance must be positive")
        if self.leakage_conductance_s < 0:
            raise ValueError("leakage conductance must be non-negative")

    def effective_capacitance(self, voltage: float) -> float:
        return self.capacitance_f * (1.0 + self.voltage_coefficient * voltage)

    def charge_time(self, current_a: float, delta_v: float, start_v: float = 0.0) -> float:
        """Time for a constant current to slew the cap by ``delta_v``.

        Accounts for the leakage opposing the charge: dV/dt =
        (I - G*V)/C.  Raises if the current cannot reach the target
        (leak-limited plateau below delta_v).
        """
        if current_a <= 0 or delta_v <= 0:
            raise ValueError("current and delta_v must be positive")
        cap = self.effective_capacitance(start_v + 0.5 * delta_v)
        g = self.leakage_conductance_s
        if g == 0:
            return cap * delta_v / current_a
        import math

        v_inf = current_a / g
        v_end = start_v + delta_v
        if v_inf <= v_end:
            raise ValueError(
                f"current {current_a} A cannot charge past {v_inf:.3g} V "
                f"(leak-limited); target {v_end:.3g} V"
            )
        tau = cap / g
        return tau * math.log((v_inf - start_v) / (v_inf - v_end))

    def droop(self, voltage: float, duration_s: float) -> float:
        """Voltage lost to leakage over ``duration_s`` starting at ``voltage``."""
        if duration_s < 0:
            raise ValueError("duration must be non-negative")
        if self.leakage_conductance_s == 0:
            return 0.0
        import math

        tau = self.effective_capacitance(voltage) / self.leakage_conductance_s
        return voltage * (1.0 - math.exp(-duration_s / tau))
