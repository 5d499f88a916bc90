"""Drug-screening funnel (Fig. 1): compound libraries, stages, economics."""

from .compounds import CompoundLibrary
from .funnel import FunnelResult, ScreeningFunnel, StageOutcome
from .stages import (
    ScreeningStage,
    animal_stage,
    cell_based_stage,
    clinical_stage,
    default_funnel_stages,
    molecular_stage,
)

__all__ = [
    "CompoundLibrary",
    "FunnelResult",
    "ScreeningFunnel",
    "ScreeningStage",
    "StageOutcome",
    "animal_stage",
    "cell_based_stage",
    "clinical_stage",
    "default_funnel_stages",
    "molecular_stage",
]
