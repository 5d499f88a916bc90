"""Label-free detection principles (Section 2, refs [7-11]).

"Alternative label-free principles are under development.  They focus
on the effect of impedance or mass changes at the sensors' surfaces
after hybridization."

Two behavioural models:

* :class:`ImpedanceSensor` — capacitance of the electrode/electrolyte
  interface drops as hybridized DNA displaces counter-ions and thickens
  the dielectric stack (refs [7, 8]).
* :class:`MassResonator` — a film bulk acoustic resonator (FBAR, refs
  [9, 10]) whose resonance frequency shifts down with the areal mass of
  bound DNA (Sauerbrey regime).

Both expose ``signal(occupancy)`` and a detection limit so the
ablation bench can compare them against the labelled redox-cycling
chain on equal footing.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.units import AVOGADRO, nm

# Mean molar mass of one DNA base pair (g/mol -> kg/mol).
BASE_PAIR_MASS_KG_PER_MOL = 650.0 * 1e-3
# Relative permittivity of a hybridized DNA layer vs the double layer.
DNA_LAYER_EPS_R = 8.0
DOUBLE_LAYER_EPS_R = 30.0
EPS0 = 8.8541878128e-12


@dataclass(frozen=True)
class ImpedanceSensor:
    """Capacitive (impedance-change) DNA sensor.

    Parameters
    ----------
    electrode_area:
        Active electrode area, m^2.
    double_layer_thickness:
        Effective Helmholtz/diffuse-layer thickness, m.
    dna_layer_thickness:
        Added dielectric thickness at full duplex coverage, m (a 20-mer
        duplex stands a few nm tall).
    capacitance_resolution:
        Smallest relative capacitance change the readout can resolve
        (limited by drift and reference matching; ~1e-3 typical).
    """

    electrode_area: float = 1e-8  # 100 um x 100 um
    double_layer_thickness: float = 1.0 * nm
    dna_layer_thickness: float = 4.0 * nm
    capacitance_resolution: float = 1e-3

    def __post_init__(self) -> None:
        if self.electrode_area <= 0:
            raise ValueError("electrode area must be positive")
        if self.double_layer_thickness <= 0 or self.dna_layer_thickness <= 0:
            raise ValueError("layer thicknesses must be positive")
        if not 0 < self.capacitance_resolution < 1:
            raise ValueError("capacitance resolution must lie in (0, 1)")

    def bare_capacitance(self) -> float:
        """Interface capacitance with no DNA layer, F."""
        return EPS0 * DOUBLE_LAYER_EPS_R * self.electrode_area / self.double_layer_thickness

    def capacitance(self, occupancy: float) -> float:
        """Interface capacitance at duplex coverage ``occupancy``.

        The DNA layer adds a series dielectric over the covered
        fraction; covered and bare regions act in parallel.
        """
        if not 0.0 <= occupancy <= 1.0:
            raise ValueError("occupancy must lie in [0, 1]")
        c_bare = self.bare_capacitance()
        if occupancy == 0.0:
            return c_bare
        c_dl_areal = EPS0 * DOUBLE_LAYER_EPS_R / self.double_layer_thickness
        c_dna_areal = EPS0 * DNA_LAYER_EPS_R / self.dna_layer_thickness
        covered_areal = 1.0 / (1.0 / c_dl_areal + 1.0 / c_dna_areal)
        areal = occupancy * covered_areal + (1.0 - occupancy) * c_dl_areal
        return areal * self.electrode_area

    def signal(self, occupancy: float) -> float:
        """Relative capacitance change |dC/C0| — the measured quantity."""
        c0 = self.bare_capacitance()
        return abs(self.capacitance(occupancy) - c0) / c0

    def detection_limit_occupancy(self) -> float:
        """Smallest resolvable duplex coverage."""
        full = self.signal(1.0)
        if full <= 0:
            raise ValueError("sensor produces no signal at full coverage")
        return min(1.0, self.capacitance_resolution / full)


@dataclass(frozen=True)
class MassResonator:
    """FBAR-style gravimetric DNA sensor (refs [9, 10]).

    Parameters
    ----------
    resonance_hz:
        Unloaded resonance (FBARs: ~2 GHz).
    mass_sensitivity:
        |df/f| per areal mass, m^2/kg (FBAR: ~1000-3000 cm^2/g =
        0.1-0.3 m^2/kg... expressed here as relative shift per kg/m^2).
    frequency_resolution_hz:
        Short-term stability of the oscillator readout.
    probe_density:
        Immobilized probes per m^2.
    target_length_bases:
        Captured strand length in bases (sets the added mass).
    """

    resonance_hz: float = 2.0e9
    mass_sensitivity: float = 2000.0  # relative shift per kg/m^2
    frequency_resolution_hz: float = 200.0
    probe_density: float = 3.0e16
    target_length_bases: int = 200

    def __post_init__(self) -> None:
        if self.resonance_hz <= 0 or self.mass_sensitivity <= 0:
            raise ValueError("resonance and sensitivity must be positive")
        if self.frequency_resolution_hz <= 0:
            raise ValueError("frequency resolution must be positive")
        if self.probe_density <= 0 or self.target_length_bases < 1:
            raise ValueError("invalid probe/target parameters")

    def areal_mass(self, occupancy: float) -> float:
        """Bound-DNA areal mass, kg/m^2."""
        if not 0.0 <= occupancy <= 1.0:
            raise ValueError("occupancy must lie in [0, 1]")
        per_molecule = self.target_length_bases * BASE_PAIR_MASS_KG_PER_MOL / AVOGADRO
        return occupancy * self.probe_density * per_molecule

    def frequency_shift(self, occupancy: float) -> float:
        """Downward resonance shift, Hz (Sauerbrey regime)."""
        return -self.resonance_hz * self.mass_sensitivity * self.areal_mass(occupancy)

    def signal(self, occupancy: float) -> float:
        """|df| in Hz — the measured quantity."""
        return abs(self.frequency_shift(occupancy))

    def detection_limit_occupancy(self) -> float:
        """Smallest resolvable duplex coverage."""
        full = self.signal(1.0)
        if full <= 0:
            raise ValueError("resonator produces no shift at full coverage")
        return min(1.0, self.frequency_resolution_hz / full)


def compare_detection_limits(
    redox_background_a: float = 0.5e-12,
    redox_full_scale_a: float = 100e-9,
    impedance: ImpedanceSensor | None = None,
    resonator: MassResonator | None = None,
) -> dict[str, float]:
    """Occupancy detection limits of the three principles.

    The labelled redox-cycling chain resolves down to a current equal to
    its background; the label-free sensors to their instrument
    resolutions.  Returns {principle: minimal occupancy}.
    """
    if redox_background_a <= 0 or redox_full_scale_a <= redox_background_a:
        raise ValueError("invalid redox current window")
    impedance = impedance or ImpedanceSensor()
    resonator = resonator or MassResonator()
    return {
        "redox cycling (enzyme label)": redox_background_a / redox_full_scale_a,
        "impedance (label-free)": impedance.detection_limit_occupancy(),
        "mass resonator (label-free)": resonator.detection_limit_occupancy(),
    }
