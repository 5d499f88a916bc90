"""The compiled form of a campaign: an explicit, ordered list of runs.

A :class:`Plan` is what executors actually consume — every axis already
expanded, every point carrying its own spec, replicate index, derived
Runner root seed and resolved compute backend.  Because a point's result
is a pure function of ``(point.spec, point.seed, point.backend)``, a Plan
can be partitioned across threads, processes or machines in any order
and still reassemble into bit-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator, Optional

from ..experiments.specs import ExperimentSpec

if TYPE_CHECKING:  # pragma: no cover
    from .spec import CampaignSpec


@dataclass(frozen=True)
class PlanPoint:
    """One scheduled run: position, spec, replicate, Runner root seed
    and the backend it runs on — with the engine version, its whole
    content key."""

    index: int
    spec: ExperimentSpec
    replicate: int
    seed: int
    #: Resolved once by ``CampaignSpec.compile``; executors and cache
    #: keys read it and never fall back to defaults themselves.
    backend: str
    #: The axis fields this point overrides on the campaign base spec —
    #: the columns a report table shows.
    assignment: dict[str, Any] = field(default_factory=dict)

    def describe(self) -> dict[str, Any]:
        """The manifest entry for this point (result-independent half).

        Assignment values are JSON-normalised (tuples become lists) so
        in-memory metadata compares equal to metadata reloaded from a
        JSONL store."""
        return {
            "point": self.index,
            "kind": self.spec.kind,
            "replicate": self.replicate,
            "seed": self.seed,
            "assignment": {
                key: list(value) if isinstance(value, tuple) else value
                for key, value in self.assignment.items()
            },
            "spec_hash": self.spec.content_hash(),
        }


@dataclass(frozen=True)
class Plan:
    """An ordered tuple of :class:`PlanPoint` plus its provenance."""

    points: tuple[PlanPoint, ...]
    campaign: Optional["CampaignSpec"] = None
    seed: int = 0

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[PlanPoint]:
        return iter(self.points)

    def __getitem__(self, index: int) -> PlanPoint:
        return self.points[index]

    def kinds(self) -> list[str]:
        """Distinct experiment kinds in the plan, in first-seen order."""
        seen: list[str] = []
        for point in self.points:
            if point.spec.kind not in seen:
                seen.append(point.spec.kind)
        return seen

    def groups_by_spec(self) -> "dict[tuple[str, str, str], list[PlanPoint]]":
        """Points grouped by ``(kind, spec content hash, backend)``,
        first-seen order preserved.  Points of one group share an
        identical spec and backend and differ only in replicate/seed —
        the unit the batched executor compiles into one chip-batched
        engine call."""
        groups: dict[tuple[str, str, str], list[PlanPoint]] = {}
        for point in self.points:
            groups.setdefault(
                (point.spec.kind, point.spec.content_hash(), point.backend), []
            ).append(point)
        return groups

    def describe(self) -> list[dict[str, Any]]:
        return [point.describe() for point in self.points]

    def summary(self) -> str:
        kinds = "+".join(self.kinds()) or "empty"
        return f"<Plan {len(self)} points ({kinds}), seed={self.seed}>"
