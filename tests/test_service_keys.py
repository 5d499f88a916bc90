"""Canonical content keys: normalisation, stability, spec_hash."""

import json
import subprocess
import sys

import numpy as np
import pytest

from repro.experiments import AdcTransferSpec, DnaAssaySpec
from repro.inference import DoseResponseAnalysis
from repro.service import canonical_json, canonicalize, content_digest, point_key, spec_key

SPEC = DnaAssaySpec(probe_count=4, replicates=4, target_subset=(0, 1))


# ---------------------------------------------------------------------------
# Canonicalization
# ---------------------------------------------------------------------------
def test_dict_insertion_order_is_irrelevant():
    assert canonical_json({"a": 1, "b": 2}) == canonical_json({"b": 2, "a": 1})


def test_tuples_and_lists_hash_identically():
    assert content_digest({"subset": (0, 1)}) == content_digest({"subset": [0, 1]})


def test_numpy_scalars_collapse_to_python_values():
    assert canonicalize(np.float64(1e-6)) == 1e-6
    assert canonicalize(np.int64(7)) == 7
    assert canonicalize(np.bool_(True)) is True
    assert content_digest({"c": np.float64(1e-6)}) == content_digest({"c": 1e-6})


def test_numpy_arrays_become_nested_lists():
    assert canonicalize(np.array([[1, 2], [3, 4]])) == [[1, 2], [3, 4]]


def test_bool_stays_bool_not_int():
    # bool is an int subclass; 1 and True must not collide.
    assert canonical_json({"x": True}) != canonical_json({"x": 1})


def test_nonfinite_floats_are_rejected():
    with pytest.raises(ValueError, match="non-finite"):
        canonical_json({"x": float("nan")})
    with pytest.raises(ValueError, match="non-finite"):
        canonical_json({"x": float("inf")})


def test_uncanonicalizable_types_raise():
    with pytest.raises(TypeError, match="canonicalize"):
        canonicalize(object())


def test_canonical_json_is_compact_sorted_ascii():
    text = canonical_json({"b": [1.5, "é"], "a": None})
    assert text == '{"a":null,"b":[1.5,"\\u00e9"]}'


# ---------------------------------------------------------------------------
# point_key
# ---------------------------------------------------------------------------
def test_point_key_changes_with_every_component():
    base = point_key(SPEC.to_dict(), 1, "object", "1.0")
    assert point_key(SPEC.replace(concentration=3e-6).to_dict(), 1, "object", "1.0") != base
    assert point_key(SPEC.to_dict(), 2, "object", "1.0") != base
    assert point_key(SPEC.to_dict(), 1, "vectorized", "1.0") != base
    assert point_key(SPEC.to_dict(), 1, "object", "1.1") != base


def test_point_key_ignores_representation_details():
    noisy = {key: value for key, value in reversed(list(SPEC.to_dict().items()))}
    noisy["concentration"] = np.float64(noisy["concentration"])
    noisy["target_subset"] = tuple(noisy["target_subset"])
    assert point_key(noisy, 1, "object", "1.0") == point_key(SPEC.to_dict(), 1, "object", "1.0")


# ---------------------------------------------------------------------------
# spec_hash
# ---------------------------------------------------------------------------
def test_spec_hash_matches_spec_key_of_to_dict():
    assert SPEC.spec_hash() == spec_key(SPEC.to_dict())
    analysis = DoseResponseAnalysis()
    assert analysis.spec_hash() == spec_key(analysis.to_dict())


def test_spec_hash_is_distinct_from_frozen_content_hash():
    # content_hash seeds the random streams and its byte recipe is
    # frozen; spec_hash is the cache-address hash.  They must coexist.
    assert SPEC.spec_hash() != SPEC.content_hash()


def test_spec_hash_survives_serialization_round_trip():
    from repro.experiments import spec_from_dict

    round_tripped = spec_from_dict(json.loads(json.dumps(SPEC.to_dict())))
    assert round_tripped.spec_hash() == SPEC.spec_hash()
    # Round-tripping turns tuples into lists; to_dict must re-normalise
    # so the payloads (not just the hashes) agree.
    assert round_tripped.to_dict() == SPEC.to_dict()


def test_to_dict_normalises_numpy_leaves():
    spec = AdcTransferSpec(i_low_a=float(np.float64(1e-11)), i_high_a=1e-8)
    payload = spec.to_dict()
    assert json.dumps(payload)  # JSON-serializable without a custom encoder
    assert spec.spec_hash() == spec_key(json.loads(json.dumps(payload)))


def test_spec_hash_is_stable_across_processes():
    import os
    from pathlib import Path

    import repro

    code = (
        "from repro.experiments import DnaAssaySpec\n"
        "print(DnaAssaySpec(probe_count=4, replicates=4, "
        "target_subset=(0, 1)).spec_hash())"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout.strip()
    assert out == SPEC.spec_hash()
