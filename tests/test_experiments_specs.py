"""Spec serialization, validation and the experiment registry."""

import hashlib
import json

import numpy as np
import pytest

from repro.experiments import (
    AdcTransferSpec,
    DnaAssaySpec,
    ExperimentSpec,
    NeuralRecordingSpec,
    Runner,
    ScreeningSpec,
    experiment_kinds,
    experiment_type,
    spec_from_dict,
)

ALL_SPECS = [
    DnaAssaySpec(),
    DnaAssaySpec(panel="mismatch", mismatch_counts=(1, 2), replicates=28, control_every=16),
    DnaAssaySpec(target_subset=(0, 1, 2, 3), concentration=1e-6),
    NeuralRecordingSpec(),
    NeuralRecordingSpec(rows=32, cols=32, n_neurons=3, use_hh=False),
    ScreeningSpec(),
    ScreeningSpec(library_size=5000, cmos=True),
    AdcTransferSpec(),
    AdcTransferSpec(points_per_decade=2, frame_s=4.0),
]


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.content_hash()[:8])
def test_to_dict_from_dict_round_trip(spec):
    data = spec.to_dict()
    assert data["kind"] == spec.kind
    rebuilt = type(spec).from_dict(data)
    assert rebuilt == spec
    # And through the kind-dispatching loader, including a JSON hop.
    assert spec_from_dict(json.loads(spec.to_json())) == spec


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.content_hash()[:8])
def test_content_hash_is_stable_and_discriminating(spec):
    assert spec.content_hash() == type(spec).from_dict(spec.to_dict()).content_hash()
    others = [other for other in ALL_SPECS if other != spec]
    assert all(other.content_hash() != spec.content_hash() for other in others)


def test_replace_produces_new_validated_spec():
    spec = DnaAssaySpec()
    swept = spec.replace(concentration=1e-7)
    assert swept.concentration == 1e-7
    assert spec.concentration == 1e-5  # original untouched (frozen)
    with pytest.raises(ValueError):
        spec.replace(concentration=-1.0)


def test_registry_contains_all_builtin_kinds():
    kinds = experiment_kinds()
    for kind in ("adc_transfer", "dna_assay", "neural_recording", "screening"):
        assert kind in kinds
    assert experiment_type("dna_assay") is DnaAssaySpec


@pytest.mark.parametrize(
    "factory",
    [
        lambda: DnaAssaySpec(panel="nonsense"),
        lambda: DnaAssaySpec(replicates=0),
        lambda: DnaAssaySpec(concentration=-1e-9),
        lambda: DnaAssaySpec(target_subset=(99,)),
        lambda: DnaAssaySpec(panel="mismatch", mismatch_counts=(0,)),
        lambda: NeuralRecordingSpec(n_neurons=0),
        lambda: NeuralRecordingSpec(diameter_range_m=(80e-6, 25e-6)),
        lambda: NeuralRecordingSpec(duration_s=0.0),
        lambda: ScreeningSpec(library_size=0),
        lambda: ScreeningSpec(viable_rate=1.5),
        lambda: AdcTransferSpec(i_low_a=1e-9, i_high_a=1e-12),
        lambda: AdcTransferSpec(frame_s=0.0),
    ],
)
def test_validation_rejects_bad_specs(factory):
    with pytest.raises(ValueError):
        factory()


def test_facet_keys_separate_chip_from_sample():
    a = DnaAssaySpec(concentration=1e-7)
    b = DnaAssaySpec(concentration=1e-4)
    # Same chip + layout facets (shareable substrates) ...
    assert a.facet("chip") == b.facet("chip")
    assert a.facet("layout") == b.facet("layout")
    # ... but distinct experiments.
    assert a.content_hash() != b.content_hash()
    assert a.facet("chip") != DnaAssaySpec(v_generator=0.5).facet("chip")
    assert a.facet("layout") != DnaAssaySpec(replicates=4).facet("layout")


def test_every_declared_facet_and_stream_resolves():
    import dataclasses

    from repro.experiments.specs import CONTENT_HASH, EXPERIMENTS

    assert "wafer" in EXPERIMENTS.types  # importing repro registers every kind
    for kind, cls in EXPERIMENTS.types.items():
        fields = {field.name for field in dataclasses.fields(cls)}
        for name, facet in cls.facets.items():
            assert set(facet.fields) <= fields, (kind, name, set(facet.fields) - fields)
        for name, (_, facet) in cls.streams.items():
            assert facet == CONTENT_HASH or facet in cls.facets, (kind, name, facet)


def _digest(result) -> str:
    return hashlib.sha256(result.without_artifacts().to_json().encode("utf-8")).hexdigest()


#: A NumPy value in a spec field, and the backend to run it on.
NUMPY_FIELDS = {
    "dna-replicates-object": (DnaAssaySpec(), "replicates", np.int64(8), "object"),
    "dna-replicates-vectorized": (DnaAssaySpec(), "replicates", np.int64(8), "vectorized"),
    "dna-calibrate-object": (DnaAssaySpec(), "calibrate", np.bool_(True), "object"),
    "dna-calibrate-vectorized": (DnaAssaySpec(), "calibrate", np.bool_(True), "vectorized"),
    "screening-library_size": (ScreeningSpec(), "library_size", np.int64(1000), "object"),
}


@pytest.mark.parametrize("case", sorted(NUMPY_FIELDS))
def test_numpy_scalar_fields_run_like_plain_values(case):
    """Facets render through the value normalizer, so a NumPy field
    (which ``content_hash()`` already accepts) runs, with the same bits
    as the plain value."""
    base, field, value, backend = NUMPY_FIELDS[case]
    with_numpy = base.replace(**{field: value})
    with_plain = base.replace(**{field: value.item()})
    digests = [
        _digest(Runner(seed=2).run(spec, backend=backend)) for spec in (with_numpy, with_plain)
    ]
    assert digests[0] == digests[1]


def test_custom_registration_round_trips():
    from dataclasses import dataclass

    from repro.experiments import register_experiment
    from repro.experiments.specs import EXPERIMENTS

    @register_experiment("test_only_kind")
    @dataclass(frozen=True)
    class TestOnlySpec(ExperimentSpec):
        knob: float = 1.0

    try:
        assert experiment_type("test_only_kind") is TestOnlySpec
        assert spec_from_dict({"kind": "test_only_kind", "knob": 2.5}) == TestOnlySpec(knob=2.5)
        with pytest.raises(ValueError, match="already registered"):
            register_experiment("test_only_kind")(DnaAssaySpec)
    finally:
        EXPERIMENTS.types.pop("test_only_kind", None)
