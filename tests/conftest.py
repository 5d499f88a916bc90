"""Shared fixtures: seeded generators and small chip instances."""

import numpy as np
import pytest

from repro.chip import DnaMicroarrayChip
from repro.neuro import ArrayGeometry, NeuralArrayModel
from repro.neuro.action_potential import HodgkinHuxleyNeuron


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def dna_chip():
    """One DNA chip shared by read-only tests (cheap to build but reused)."""
    chip = DnaMicroarrayChip(rng=777)
    chip.configure_bias(0.45, -0.25)
    return chip


@pytest.fixture(scope="session")
def hh_run():
    """A 30 ms Hodgkin-Huxley run with the default single pulse."""
    return HodgkinHuxleyNeuron().simulate(0.03, dt_s=20e-6)


@pytest.fixture(scope="session")
def small_array():
    """A calibrated 16x16 neural array."""
    array = NeuralArrayModel(ArrayGeometry(16, 16, 7.8e-6), rng=99)
    array.calibrate()
    return array


@pytest.fixture
def chip_builds(monkeypatch):
    """Count DNA chip builds (either backend) through a one-item list."""
    from repro.experiments import workloads

    calls = [0]
    build = workloads._build_dna_chip

    def counted(*args, **kwargs):
        calls[0] += 1
        return build(*args, **kwargs)

    monkeypatch.setattr(workloads, "_build_dna_chip", counted)
    return calls
