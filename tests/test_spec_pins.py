"""Spec bytes pinned against ``tests/golden/spec_pins.json``.

Facet strings seed every generator and appear verbatim in each
ResultSet's ``seeds.streams`` block, so one changed byte moves every
digest downstream of them.  For every ``examples/specs/*.json``
experiment spec, every compiled point of the Fig. 4 example campaign and
every registered experiment kind's default spec, this pins each facet
string, the stream paths, ``content_hash()``, ``spec_hash()`` and the
result-cache ``point_key``.  It also pins the campaign's ``to_json()``
and ``campaign.json`` sidecar bytes, and ``spec_hash()`` of every
registered analysis and fault kind's default spec (plus the example
analysis spec).

The file is a fixed reference, like ``result_digests.json``: a refactor
of the spec layer proves "same bytes" against it.  Regenerate it only
with a change whose stated purpose is new spec bytes::

    PYTHONPATH=src python tests/test_spec_pins.py
"""

import json
import tempfile
from pathlib import Path

import pytest

import repro
from repro.campaigns import CampaignSpec, run_campaign
from repro.experiments.specs import EXPERIMENTS, spec_from_dict
from repro.experiments.workloads import resolve_backend
from repro.faults.specs import FAULTS
from repro.inference.specs import ANALYSES
from repro.service.keys import point_key

GOLDEN = Path(__file__).parent / "golden" / "spec_pins.json"
SPECS = Path(__file__).parents[1] / "examples" / "specs"
CAMPAIGN = SPECS / "fig4_concentration_campaign.json"
ANALYSIS_EXAMPLES = ("dose_response_analysis.json",)
EXPERIMENT_EXAMPLES = ("dna_assay.json", "dna_assay_faulted.json", "wafer_small.json")

#: The kinds that ship with the package (tests may register more).
BUILTIN = {
    "experiment": (
        "adc_transfer", "array_scale", "dna_assay", "neural_recording", "screening", "wafer"
    ),
    "analysis": ("detection", "dose_response", "fault_tolerance", "wafer_yield", "yield"),
    "fault": ("register_corrupt", "sequencer_stall", "serial_bitflip", "stuck_pixel"),
}


def _load(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _experiment_pins(spec, seed: int, backend: str) -> dict:
    return {
        "facets": {name: spec.facet(name) for name in spec.facets},
        "streams": spec.stream_plan().streams,
        "content_hash": spec.content_hash(),
        "spec_hash": spec.spec_hash(),
        "point_key": point_key(spec.to_dict(), seed, backend, repro.__version__),
    }


def _experiments() -> dict:
    pins = {}
    for name in EXPERIMENT_EXAMPLES:
        spec = spec_from_dict(_load(SPECS / name))
        pins[f"example/{name}"] = _experiment_pins(spec, 0, resolve_backend(spec, None))
    for point in CampaignSpec.from_dict(_load(CAMPAIGN)).compile(seed=0).points:
        pins[f"campaign/point{point.index}"] = _experiment_pins(
            point.spec, point.seed, point.backend
        )
    for kind in sorted(BUILTIN["experiment"]):
        spec = EXPERIMENTS.type_of(kind)()
        pins[f"default/{kind}"] = _experiment_pins(spec, 0, resolve_backend(spec, None))
    return pins


def _campaign() -> dict:
    campaign = CampaignSpec.from_dict(_load(CAMPAIGN))
    with tempfile.TemporaryDirectory() as out:
        run_campaign(campaign, seed=0, store="jsonl", out=out)
        sidecar = (Path(out) / "campaign.json").read_text(encoding="utf-8")
    return {"to_json": campaign.to_json(), "sidecar": sidecar}


def _spec_hashes() -> dict:
    pins = {
        f"{registry.noun}/{kind}": registry.type_of(kind)().spec_hash()
        for registry in (ANALYSES, FAULTS)
        for kind in sorted(BUILTIN[registry.noun])
    }
    for name in ANALYSIS_EXAMPLES:
        pins[f"example/{name}"] = ANALYSES.from_dict(_load(SPECS / name)).spec_hash()
    return pins


SECTIONS = {"experiments": _experiments, "campaign": _campaign, "spec_hashes": _spec_hashes}


def test_builtin_kinds_are_registered():
    for registry in (EXPERIMENTS, ANALYSES, FAULTS):
        assert set(BUILTIN[registry.noun]) <= set(registry.kinds())


@pytest.mark.parametrize("section", sorted(SECTIONS))
def test_spec_bytes_match_golden(section):
    golden = _load(GOLDEN)
    assert SECTIONS[section]() == golden[section]


if __name__ == "__main__":
    pins = {section: compute() for section, compute in sorted(SECTIONS.items())}
    GOLDEN.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
