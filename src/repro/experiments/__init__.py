"""Unified experiment API: declarative specs -> Runner -> ResultSets.

The one front door for all the paper's workloads::

    from repro.experiments import DnaAssaySpec, Runner

    runner = Runner(seed=1)
    result = runner.run(DnaAssaySpec(concentration=1e-5))
    print(result.metrics["discrimination_ratio"])
    payload = result.to_json()

Specs are frozen and serializable (``to_dict``/``from_dict``); the
Runner owns the seed tree, batches over shared chips/layouts/libraries,
and always returns the uniform :class:`ResultSet`.
"""

from .results import ResultSet, stack_metrics
from .runner import Runner, RunnerStats
from .specs import (
    BACKENDS,
    AdcTransferSpec,
    ArrayScaleSpec,
    DnaAssaySpec,
    ExperimentSpec,
    NeuralRecordingSpec,
    ScreeningSpec,
    experiment_kinds,
    experiment_type,
    register_experiment,
    spec_from_dict,
)
from .workloads import register_workload, validate_backend, workload_for

__all__ = [
    "AdcTransferSpec",
    "ArrayScaleSpec",
    "BACKENDS",
    "DnaAssaySpec",
    "ExperimentSpec",
    "NeuralRecordingSpec",
    "ResultSet",
    "Runner",
    "RunnerStats",
    "ScreeningSpec",
    "experiment_kinds",
    "experiment_type",
    "register_experiment",
    "register_workload",
    "spec_from_dict",
    "stack_metrics",
    "validate_backend",
    "workload_for",
]
