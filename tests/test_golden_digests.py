"""Result digests pinned against ``tests/golden/result_digests.json``.

Each entry is the sha256 of ``result.without_artifacts().to_json()`` for
one (spec, seed, backend, route) case: the DNA assay on both backends,
plain, faulted and on the Fig. 2 mismatch panel with bare controls;
``array_scale`` on the vectorized backend through a warm ``Runner`` and
through the batched campaign executor, and on the object backend; and the neural recording on both backends, template
and Hodgkin-Huxley.  The file is a fixed reference: a refactor proves
"same bits" against it, and it is regenerated only by a change whose
stated purpose is a new model (bump ``repro.__version__`` then)::

    PYTHONPATH=src python tests/test_golden_digests.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.campaigns import CampaignSpec, run_campaign
from repro.experiments import ArrayScaleSpec, DnaAssaySpec, NeuralRecordingSpec, Runner
from repro.experiments.specs import spec_from_dict

GOLDEN = Path(__file__).parent / "golden" / "result_digests.json"
FAULTED_SPEC = Path(__file__).parents[1] / "examples" / "specs" / "dna_assay_faulted.json"


def _digest(result) -> str:
    return hashlib.sha256(result.without_artifacts().to_json().encode("utf-8")).hexdigest()


def _runner(spec, seed, backend):
    """One point on a fresh Runner, then a second (frame-time) point on
    the same warm Runner, whose chips come from the cache."""
    runner = Runner(seed=seed)
    warm = spec.replace(frame_s=spec.frame_s / 2)
    return [_digest(r) for r in runner.run_batch([spec, warm], backend=backend)]


def _batched(spec, seed):
    campaign = CampaignSpec(base=spec, replicates=2, backend="vectorized")
    result = run_campaign(campaign, seed=seed, executor="batched")
    return [_digest(result.result_for(index)) for index in range(len(result.plan))]


def _single(spec, seed, backend):
    return [_digest(Runner(seed=seed).run(spec, backend=backend))]


def _cases() -> dict:
    faulted = spec_from_dict(json.loads(FAULTED_SPEC.read_text(encoding="utf-8")))
    neural = NeuralRecordingSpec(rows=16, cols=16, n_neurons=3, duration_s=0.02)
    # The Fig. 2 mismatch panel: repeated probes, one target and bare
    # controls between the spots.
    panel = DnaAssaySpec(panel="mismatch", control_every=5)
    dna = (("plain", DnaAssaySpec()), ("faults", faulted), ("mismatch", panel))
    cases = {
        f"dna_assay/{backend}/{label}": (_single, spec, 3, backend)
        for backend in ("object", "vectorized")
        for label, spec in dna
    }
    for mismatch in ("paired", "fast"):
        for calibrate in (False, True):
            for n_chips in (1, 3):
                spec = ArrayScaleSpec(
                    rows=8,
                    cols=8,
                    n_chips=n_chips,
                    frame_s=0.05,
                    calibrate=calibrate,
                    mismatch=mismatch,
                )
                name = f"array_scale/vectorized/{mismatch}/cal{int(calibrate)}/n{n_chips}"
                cases[f"{name}/runner"] = (_runner, spec, 7, "vectorized")
                cases[f"{name}/batched"] = (_batched, spec, 7)
    for calibrate in (False, True):
        spec = ArrayScaleSpec(rows=8, cols=8, n_chips=2, frame_s=0.05, calibrate=calibrate)
        cases[f"array_scale/object/cal{int(calibrate)}/runner"] = (_runner, spec, 7, "object")
    for backend in ("object", "vectorized"):
        for label, use_hh in (("template", False), ("hh", True)):
            spec = neural.replace(use_hh=use_hh)
            cases[f"neural_recording/{backend}/{label}"] = (_single, spec, 5, backend)
    return cases


CASES = _cases()


def compute(name: str) -> list[str]:
    run, *args = CASES[name]
    return run(*args)


def test_golden_file_covers_every_case():
    assert sorted(json.loads(GOLDEN.read_text(encoding="utf-8"))) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_result_digests_match_golden(name):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert compute(name) == golden[name]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    digests = {name: compute(name) for name in sorted(CASES)}
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
