"""Output checks: content digests pinned per workload and seed, plus the
seed-independent invariants every run must hold.

A digest covers what a user of the stack gets back: every campaign
point's artifact-free ``ResultSet.to_dict()`` payload and the analysis
report's JSON, hashed with ``repro.service.keys.content_digest``.  The
payload's ``version`` field is left out: it names the library release,
which every release bumps, and is not an output.

A non-finite number in an output fails the check, with one documented
exception: a neural-recording neuron that fired no spike (or sits off
the array) has no spike SNR, and the workload records that as ``nan``.
Those cells are hashed as ``null``; ``content_digest`` refuses any other
NaN or infinity.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable, Mapping, Optional

PINNED_PATH = Path(__file__).with_name("pinned.json")


class OutputMismatch(Exception):
    """An output failed a check; the message says which and why."""


def _digest(value: Any) -> str:
    from repro.service.keys import content_digest

    try:
        return content_digest(value)
    except ValueError as error:  # NaN or infinity somewhere in the output
        raise OutputMismatch(f"non-finite output: {error}") from None


def _no_signal(records: Mapping[str, list], index: int) -> bool:
    return records["true_spikes"][index] == 0 or records["best_row"][index] == -1


def point_digest(payload: Mapping[str, Any]) -> str:
    """Digest of one point's ``ResultSet.to_dict()`` payload."""
    content = {key: value for key, value in payload.items() if key != "version"}
    records = content.get("records", {})
    if "snr" in records and "true_spikes" in records:
        content["records"] = {
            **records,
            "snr": [
                None if value != value and _no_signal(records, index) else value
                for index, value in enumerate(records["snr"])
            ],
        }
    return _digest(content)


def run_digest(point_digests: Iterable[str], analyses: Iterable[Any]) -> str:
    """Digest of a whole round: its point digests in order and the JSON
    of every analysis it fetched."""
    return _digest({"points": list(point_digests), "analyses": list(analyses)})


def load_pinned(path: Path = PINNED_PATH) -> dict[str, dict[str, str]]:
    return json.loads(path.read_text(encoding="utf-8"))


def pinned_digest(workload: str, seed: int, size: str) -> Optional[str]:
    """The digest pinned for ``workload`` at ``seed``, or ``None`` when
    that seed (or a non-default size) has none."""
    if size != "default":
        return None
    return load_pinned().get(workload, {}).get(str(seed))


def check_round(
    workload: str, seed: int, size: str, digest: str, first: Optional[str]
) -> None:
    """Every round of a run repeats the same inputs, so it must repeat
    the first round's digest; at a pinned seed it must also match the
    pin."""
    if first is not None and digest != first:
        raise OutputMismatch(f"{workload}: round digest {digest} differs from {first}")
    pinned = pinned_digest(workload, seed, size)
    if pinned is not None and digest != pinned:
        raise OutputMismatch(f"{workload} seed {seed}: digest {digest} != pinned {pinned}")
