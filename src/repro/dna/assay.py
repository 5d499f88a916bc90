"""End-to-end DNA microarray assay (the Fig. 2 protocol).

Phases, exactly as the figure:

  a)-c)  immobilization — probes at known positions (``ProbeLayout``);
  d)-e)  hybridization — sample applied to the whole chip; match sites
         bind, mismatch sites bind weakly;
  f)-g)  washing — unbound/weak duplexes stripped;
  then   electrochemical readout — enzyme labels generate redox product,
         redox cycling converts surface concentration into the 1 pA -
         100 nA sensor currents that the in-pixel ADCs digitise.

Competition: when several sample targets can bind the same probe, the
site's capture is shared proportionally to each target's k_on * c.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..electrochem.diffusion import surface_concentration_quasi_static
from ..electrochem.enzyme import LabelledSurface
from ..electrochem.redox_cycling import RedoxCyclingSensor
from .hybridization import DEFAULT_KINETICS, HybridizationKinetics
from .sample import Sample
from .sequences import Probe
from .spotting import ProbeLayout


@dataclass(frozen=True)
class AssayProtocol:
    """Timing and chemistry of one assay run.

    Parameters
    ----------
    hybridization_s:
        Exposure time to the sample (typ. 30-120 min).
    wash_s:
        Washing duration (typ. 30-300 s).
    boundary_layer_m:
        Diffusion boundary layer above the sensors during readout.
    max_cross_mismatches:
        Targets with more mismatches than this against a probe are
        treated as non-binding (saves O(sites x targets) rate math for
        obviously unrelated sequences).
    """

    hybridization_s: float = 3600.0
    wash_s: float = 120.0
    boundary_layer_m: float = 50e-6
    max_cross_mismatches: int = 6

    def __post_init__(self) -> None:
        if self.hybridization_s <= 0 or self.wash_s < 0:
            raise ValueError("invalid protocol times")
        if self.boundary_layer_m <= 0:
            raise ValueError("boundary layer must be positive")


@dataclass(frozen=True)
class SiteResult:
    """Physical outcome at one array position."""

    row: int
    col: int
    probe_name: str  # "" for bare control spots
    best_match_mismatches: int  # mismatches of the closest-binding target (99 = none)
    occupancy_after_hybridization: float
    occupancy_after_wash: float
    bound_density: float  # molecules/m^2 after washing
    surface_concentration: float  # mol/m^3 of redox product at readout
    sensor_current: float  # A

    @property
    def is_match_site(self) -> bool:
        return self.best_match_mismatches == 0


@dataclass
class AssayResult:
    """All site results plus array-level summaries."""

    sites: list[SiteResult]
    rows: int
    cols: int

    def current_map(self) -> np.ndarray:
        image = np.zeros((self.rows, self.cols))
        for site in self.sites:
            image[site.row, site.col] = site.sensor_current
        return image

    def site_at(self, row: int, col: int) -> SiteResult:
        for site in self.sites:
            if site.row == row and site.col == col:
                return site
        raise KeyError(f"no site at ({row}, {col})")

    def match_sites(self) -> list[SiteResult]:
        return [s for s in self.sites if s.is_match_site]

    def mismatch_sites(self) -> list[SiteResult]:
        return [s for s in self.sites if not s.is_match_site and s.probe_name]

    def discrimination_ratio(self) -> float:
        """Median match current over median non-match current."""
        matches = [s.sensor_current for s in self.match_sites()]
        others = [s.sensor_current for s in self.mismatch_sites()]
        if not matches or not others:
            raise ValueError("need both match and mismatch sites for a ratio")
        return float(np.median(matches) / np.median(others))

    def dynamic_range_decades(self) -> float:
        currents = [s.sensor_current for s in self.sites if s.sensor_current > 0]
        if not currents:
            raise ValueError("no positive currents recorded")
        return float(np.log10(max(currents) / min(currents)))


class MicroarrayAssay:
    """Runs the Fig. 2 protocol over a layout and a sample.

    Parameters
    ----------
    layout:
        Probe placement.
    kinetics:
        Hybridization rate model.
    labelled_surface:
        Enzyme-label chemistry converting bound targets to product flux.
    sensor:
        Electrochemical transducer (one per site, identical geometry).
    """

    def __init__(
        self,
        layout: ProbeLayout,
        kinetics: HybridizationKinetics = DEFAULT_KINETICS,
        labelled_surface: LabelledSurface | None = None,
        sensor: RedoxCyclingSensor | None = None,
    ) -> None:
        self.layout = layout
        self.kinetics = kinetics
        self.labelled_surface = labelled_surface or LabelledSurface()
        self.sensor = sensor or RedoxCyclingSensor()

    # ------------------------------------------------------------------
    def run(self, sample: Sample, protocol: AssayProtocol | None = None) -> AssayResult:
        protocol = protocol or AssayProtocol()
        sites = []
        for row, col in self.layout.all_positions():
            spot = self.layout.spot(row, col)
            sites.append(self._run_site(spot, sample, protocol))
        return AssayResult(sites=sites, rows=self.layout.rows, cols=self.layout.cols)

    # ------------------------------------------------------------------
    def _run_site(self, spot, sample: Sample, protocol: AssayProtocol) -> SiteResult:
        if spot.probe is None or spot.probe_density <= 0:
            # Bare control spot: background current only.
            background = self.sensor.current(0.0)
            return SiteResult(
                row=spot.row, col=spot.col, probe_name="",
                best_match_mismatches=99,
                occupancy_after_hybridization=0.0,
                occupancy_after_wash=0.0,
                bound_density=0.0,
                surface_concentration=0.0,
                sensor_current=background,
            )
        probe = spot.probe
        binders = self._binding_targets(probe, sample, protocol)
        theta_hyb, theta_wash, best_mm = self._site_occupancy(probe, binders, protocol)
        bound_density = theta_wash * spot.probe_density
        flux = self.labelled_surface.product_flux(bound_density)
        concentration = surface_concentration_quasi_static(
            flux,
            protocol.boundary_layer_m,
            self.labelled_surface.label.product.diffusion_coefficient,
        )
        current = self.sensor.current(concentration)
        return SiteResult(
            row=spot.row, col=spot.col, probe_name=probe.name,
            best_match_mismatches=best_mm,
            occupancy_after_hybridization=theta_hyb,
            occupancy_after_wash=theta_wash,
            bound_density=bound_density,
            surface_concentration=concentration,
            sensor_current=current,
        )

    def _binding_targets(self, probe: Probe, sample: Sample, protocol: AssayProtocol):
        """(target, concentration, mismatches) triples that can bind."""
        binders = []
        for target, concentration in sample.contents.items():
            if concentration <= 0:
                continue
            mismatches = target.mismatches_with(probe)
            if mismatches <= protocol.max_cross_mismatches:
                binders.append((target, concentration, mismatches))
        return binders

    def _site_occupancy(self, probe: Probe, binders, protocol: AssayProtocol):
        """Competitive Langmuir: share the site by k_on*c weight, each
        component relaxing with its own rate, then wash."""
        if not binders:
            return 0.0, 0.0, 99
        best_mm = min(mm for _, _, mm in binders)
        theta_hyb_total = 0.0
        theta_wash_total = 0.0
        # Occupancy headroom: solve each component as if alone, then
        # re-normalise so the sum cannot exceed the single-site Langmuir
        # bound for the combined loading.
        singles = []
        for target, concentration, mismatches in binders:
            theta = self.kinetics.occupancy_after(
                protocol.hybridization_s,
                concentration,
                mismatches,
                0.0,
                len(probe.sequence),
                target.length,
            )
            singles.append((theta, mismatches))
        total = sum(theta for theta, _ in singles)
        scale = 1.0 if total <= 1.0 else 1.0 / total
        for theta, mismatches in singles:
            theta_scaled = theta * scale
            theta_hyb_total += theta_scaled
            theta_wash_total += self.kinetics.occupancy_after_wash(
                protocol.wash_s, mismatches, theta_scaled
            )
        return min(theta_hyb_total, 1.0), min(theta_wash_total, 1.0), best_mm
