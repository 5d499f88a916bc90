"""The drug-screening funnel simulation (Fig. 1).

Runs a compound library through the staged screen, accumulating cost and
calendar time per stage, and reports the two Fig. 1 series —
datapoints/day (falling) and cost/datapoint (rising) — alongside the
attrition from ~10^5 compounds to ~1 drug candidate.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.rng import RngLike, ensure_rng
from .compounds import CompoundLibrary
from .stages import ScreeningStage, default_funnel_stages


@dataclass(frozen=True)
class StageOutcome:
    """Book-keeping of one funnel stage."""

    stage_name: str
    candidates_in: int
    candidates_out: int
    viable_in: int
    viable_out: int
    cost: float
    days: float
    cost_per_datapoint: float
    datapoints_per_day: float

    @property
    def pass_rate(self) -> float:
        return self.candidates_out / self.candidates_in if self.candidates_in else 0.0

    @property
    def viable_retention(self) -> float:
        return self.viable_out / self.viable_in if self.viable_in else 1.0


@dataclass
class FunnelResult:
    """Full funnel outcome."""

    outcomes: list[StageOutcome]
    final_library: CompoundLibrary

    @property
    def total_cost(self) -> float:
        return sum(outcome.cost for outcome in self.outcomes)

    @property
    def total_days(self) -> float:
        return sum(outcome.days for outcome in self.outcomes)

    @property
    def survivors(self) -> int:
        return self.final_library.size

    @property
    def surviving_viable(self) -> int:
        return self.final_library.viable_count()

    def cost_series(self) -> list[float]:
        return [outcome.cost_per_datapoint for outcome in self.outcomes]

    def throughput_series(self) -> list[float]:
        return [outcome.datapoints_per_day for outcome in self.outcomes]

    def monotone_cost_increase(self) -> bool:
        """Fig. 1's rising cost arrow."""
        series = self.cost_series()
        return all(b > a for a, b in zip(series, series[1:]))

    def monotone_throughput_decrease(self) -> bool:
        """Fig. 1's falling datapoints/day arrow."""
        series = self.throughput_series()
        return all(b < a for a, b in zip(series, series[1:]))

    def as_rows(self) -> list[tuple]:
        return [
            (
                outcome.stage_name,
                outcome.candidates_in,
                outcome.candidates_out,
                outcome.datapoints_per_day,
                outcome.cost_per_datapoint,
                outcome.cost,
                outcome.days,
            )
            for outcome in self.outcomes
        ]


class ScreeningFunnel:
    """A staged screen over a compound library."""

    def __init__(self, stages: list[ScreeningStage] | None = None) -> None:
        self.stages = stages if stages is not None else default_funnel_stages()
        if not self.stages:
            raise ValueError("funnel needs at least one stage")

    def run(self, library: CompoundLibrary, rng: RngLike = None) -> FunnelResult:
        generator = ensure_rng(rng)
        outcomes: list[StageOutcome] = []
        current = library
        for stage in self.stages:
            mask = stage.screen(current, generator)
            survivors = current.subset(mask)
            outcomes.append(
                StageOutcome(
                    stage_name=stage.name,
                    candidates_in=current.size,
                    candidates_out=survivors.size,
                    viable_in=current.viable_count(),
                    viable_out=survivors.viable_count(),
                    cost=stage.stage_cost(current.size),
                    days=stage.stage_days(current.size),
                    cost_per_datapoint=stage.cost_per_datapoint,
                    datapoints_per_day=stage.datapoints_per_day,
                )
            )
            current = survivors
            if current.size == 0:
                break
        return FunnelResult(outcomes=outcomes, final_library=current)
