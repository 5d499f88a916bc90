"""Enzyme-label product generation at a sensor surface.

Bound targets carry alkaline-phosphatase labels; the surface flux of
redox product is the label surface density times the Michaelis-Menten
turnover.  This couples the DNA layer (bound-target density) to the
electrochemical layer (surface flux -> concentration -> current).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.units import AVOGADRO
from .species import ALKALINE_PHOSPHATASE, EnzymeLabel


@dataclass
class LabelledSurface:
    """Enzyme-labelled captured targets on one sensor site.

    Parameters
    ----------
    label:
        The enzyme chemistry.
    labels_per_target:
        Average enzyme count per hybridized target molecule.
    substrate_concentration:
        Bulk substrate (pAPP) concentration, mol/m^3; assumed unconsumed
        (large excess) over the measurement window.
    """

    label: EnzymeLabel = ALKALINE_PHOSPHATASE
    labels_per_target: float = 1.0
    substrate_concentration: float = 1.0  # 1 mM

    def __post_init__(self) -> None:
        if self.labels_per_target <= 0:
            raise ValueError("labels_per_target must be positive")
        if self.substrate_concentration < 0:
            raise ValueError("substrate concentration must be non-negative")

    def product_flux(self, bound_target_density: float) -> float:
        """Surface product-generation flux, mol/(m^2 s).

        ``bound_target_density`` in molecules/m^2 (from the hybridization
        model).
        """
        if bound_target_density < 0:
            raise ValueError("bound target density must be non-negative")
        enzymes_per_area = bound_target_density * self.labels_per_target
        rate_per_enzyme = self.label.turnover_rate(self.substrate_concentration)
        return enzymes_per_area * rate_per_enzyme / AVOGADRO
