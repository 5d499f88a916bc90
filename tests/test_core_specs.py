"""The one spec base and kind registry shared by experiment, analysis
and fault specs."""

import json
import re
from dataclasses import dataclass

import pytest

from repro.experiments import DnaAssaySpec
from repro.experiments.specs import EXPERIMENTS
from repro.faults import SerialBitflipFault
from repro.faults.specs import FAULTS
from repro.inference import DoseResponseAnalysis
from repro.inference.specs import ANALYSES


@pytest.mark.parametrize(
    "registry, spec",
    [
        pytest.param(
            EXPERIMENTS, DnaAssaySpec(target_subset=(0, 1), concentration=1e-6), id="experiment"
        ),
        pytest.param(
            ANALYSES, DoseResponseAnalysis(model="hill", n_resamples=123, seed=7), id="analysis"
        ),
        pytest.param(
            FAULTS, SerialBitflipFault(rate=0.4, n_flips=3, direction="host_to_chip"), id="fault"
        ),
    ],
)
def test_every_registry_keeps_one_contract(registry, spec):
    cls, kind, noun = type(spec), spec.kind, registry.noun
    data = spec.to_dict()
    assert registry.type_of(kind) is cls and kind in registry.kinds()
    assert registry.from_dict(json.loads(spec.to_json())) == spec

    duplicate = f"{noun} kind '{kind}' already registered to {cls.__name__}"
    with pytest.raises(ValueError, match=duplicate):

        @registry.register(kind)
        @dataclass(frozen=True)
        class Impostor(registry.base):
            pass

    assert registry.type_of(kind) is cls
    with pytest.raises(TypeError, match=f"dict is not an? {registry.base.__name__}"):
        registry.register("bogus")(dict)

    unknown = f"unknown {noun} kind 'bogus'; registered kinds: {registry.kinds()}"
    with pytest.raises(KeyError, match=re.escape(unknown)):
        registry.type_of("bogus")
    with pytest.raises(KeyError, match=f"unknown {noun} kind 'bogus'"):
        registry.from_dict({**data, "kind": "bogus"})
    with pytest.raises(ValueError, match=f"{noun} dict needs a 'kind' entry"):
        registry.from_dict({key: value for key, value in data.items() if key != "kind"})
    with pytest.raises(ValueError, match=rf"unknown fields for {cls.__name__}: \['bogus'\]"):
        registry.from_dict({**data, "bogus": 1})
    other = next(name for name in registry.kinds() if name != kind)
    with pytest.raises(ValueError, match=f"{cls.__name__} cannot load kind '{other}'"):
        cls.from_dict({**data, "kind": other})
