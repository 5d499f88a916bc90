"""The uniform analysis report: scalars + tables, JSON/markdown/text.

Every analysis returns one :class:`AnalysisReport` — the analysis spec
that produced it, a provenance block about the source campaign, a flat
``scalars`` mapping (the headline numbers), and ordered tables.  The
three renderings serve the three consumers: ``to_dict``/``to_json`` for
machines (deterministic: sorted keys, floats via repr, NaN/inf mapped
to null so the payload is strict JSON), ``to_markdown`` for docs and
PRs, ``to_text`` for the terminal (via :mod:`repro.core.tables`, so
``repro analyze`` output matches the rest of the CLI).

Reports deliberately carry **no wall-clock or executor fields**: a
report is a pure function of the stored campaign data and the analysis
spec, so the same campaign analysed twice — or run serial vs process,
stored in memory vs JSONL — yields byte-identical JSON.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any

from ..core.tables import format_cell, render_kv, render_table
from ..core.values import plain


def _finite_or_none(value: Any) -> Any:
    """The report's rule on plain values: strict JSON has no NaN/Inf."""
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _md_cell(value: Any) -> str:
    text = format_cell(value) if not isinstance(value, str) else value
    return text.replace("|", "\\|")


@dataclass
class ReportTable:
    """One titled table of an analysis report."""

    title: str
    headers: list[str]
    rows: list[list[Any]]

    def to_dict(self) -> dict[str, Any]:
        return {
            "title": self.title,
            "headers": list(self.headers),
            "rows": plain(self.rows, _finite_or_none),
        }

    def to_text(self) -> str:
        if not self.rows:
            return f"{self.title}\n(no rows)"
        return render_table(self.headers, self.rows, title=self.title)

    def to_markdown(self) -> str:
        lines = [f"### {self.title}", ""]
        lines.append("| " + " | ".join(self.headers) + " |")
        lines.append("| " + " | ".join("---" for _ in self.headers) + " |")
        for row in self.rows:
            lines.append("| " + " | ".join(_md_cell(cell) for cell in row) + " |")
        return "\n".join(lines)


@dataclass
class AnalysisReport:
    """What every analysis spec's ``run`` hands back."""

    kind: str
    analysis: dict[str, Any]  # the spec's to_dict()
    source: dict[str, Any]  # campaign provenance (no wall times)
    scalars: dict[str, Any] = field(default_factory=dict)
    tables: list[ReportTable] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    #: Preformatted monospace diagrams (e.g. ASCII wafer maps), each
    #: ``{"title": str, "lines": [str, ...]}``.  Rendered verbatim.
    diagrams: list[dict[str, Any]] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        data = {
            "schema": "repro-analysis/1",
            "kind": self.kind,
            "analysis": plain(self.analysis, _finite_or_none),
            "source": plain(self.source, _finite_or_none),
            "scalars": plain(self.scalars, _finite_or_none),
            "tables": [table.to_dict() for table in self.tables],
            "notes": list(self.notes),
        }
        # Only when present, so analyses without diagrams keep their
        # exact pre-existing JSON bytes.
        if self.diagrams:
            data["diagrams"] = [
                {"title": str(d.get("title", "")), "lines": [str(line) for line in d["lines"]]}
                for d in self.diagrams
            ]
        return data

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True, allow_nan=False)

    def to_text(self) -> str:
        blocks = [render_kv(f"analysis: {self.kind}", sorted(self.source.items()))]
        if self.scalars:
            blocks.append(render_kv("results", list(self.scalars.items())))
        for table in self.tables:
            blocks.append(table.to_text())
        for diagram in self.diagrams:
            title = diagram.get("title", "")
            body = "\n".join(diagram["lines"])
            blocks.append(f"{title}\n{body}" if title else body)
        for note in self.notes:
            blocks.append(f"note: {note}")
        return "\n\n".join(blocks)

    def to_markdown(self) -> str:
        lines = [f"## Analysis: {self.kind}", ""]
        if self.source:
            for key in sorted(self.source):
                lines.append(f"- **{key}**: {_md_cell(self.source[key])}")
            lines.append("")
        if self.scalars:
            lines.append("### Results")
            lines.append("")
            lines.append("| quantity | value |")
            lines.append("| --- | --- |")
            for key, value in self.scalars.items():
                lines.append(f"| {key} | {_md_cell(value)} |")
            lines.append("")
        for table in self.tables:
            lines.append(table.to_markdown())
            lines.append("")
        for diagram in self.diagrams:
            title = diagram.get("title", "")
            if title:
                lines.append(f"### {title}")
                lines.append("")
            lines.append("```")
            lines.extend(str(line) for line in diagram["lines"])
            lines.append("```")
            lines.append("")
        for note in self.notes:
            lines.append(f"> {note}")
        return "\n".join(lines).rstrip() + "\n"

    def summary(self) -> str:
        return (
            f"<AnalysisReport {self.kind}: {len(self.scalars)} scalars, "
            f"{len(self.tables)} tables>"
        )
