"""repro — behavioural reproduction of "CMOS-Based Biosensor Arrays"
(R. Thewes et al., DATE 2005).

The library models both platforms the paper presents:

* **DNA microarray chips** (Section 2): electrochemical redox-cycling
  sensors whose 1 pA - 100 nA currents are digitised in-pixel by a
  current-to-frequency sawtooth ADC (Fig. 3), integrated as a 16x8-site
  chip with bandgap/DAC periphery and a 6-pin serial interface (Fig. 4).
* **Neural-recording arrays** (Section 3): 128x128 pixels at 7.8 um
  pitch sampling cleft voltages of 100 uV - 5 mV at 2 kframe/s, with
  per-pixel current calibration and a x5600 readout chain (Figs. 5-6).
* **Drug-screening funnel** (Fig. 1): the staged-economics simulation
  motivating highly parallel CMOS biosensing.

Quick start — declare an experiment, hand it to the Runner::

    from repro.experiments import DnaAssaySpec, Runner

    runner = Runner(seed=1)
    result = runner.run(DnaAssaySpec(target_subset=(0, 1), concentration=1e-6))
    print(result.metrics["discrimination_ratio"])

The imperative layer underneath (chips, assays, cultures, funnels)
remains fully public for custom flows.  See ``examples/`` for full
scenarios and ``benchmarks/`` for the figure-by-figure reproduction
harness.
"""

__version__ = "1.10.0"

from . import (
    analysis,
    campaigns,
    chip,
    core,
    devices,
    dna,
    electrochem,
    engine,
    experiments,
    inference,
    neuro,
    pixel,
    screening,
    service,
    trace,
    wafer,
)
from .campaigns import CampaignResult, CampaignSpec, run_campaign
from .engine import VectorizedDnaChip
from .chip import (
    ChipSpecs,
    DnaMicroarrayChip,
    NEURO_SCAN,
    NeuralRecordingChip,
    RecordingResult,
    ScanTiming,
)
from .core import Trace, units
from .dna import (
    AssayProtocol,
    AssayResult,
    DnaSequence,
    HybridizationKinetics,
    MicroarrayAssay,
    Probe,
    ProbeLayout,
    Sample,
    Target,
    perfect_target_for,
)
from .electrochem import InterdigitatedElectrode, RedoxCyclingSensor
from .experiments import (
    AdcTransferSpec,
    ArrayScaleSpec,
    DnaAssaySpec,
    ExperimentSpec,
    NeuralRecordingSpec,
    ResultSet,
    Runner,
    ScreeningSpec,
)
from .inference import AnalysisReport, analyze
from .service import JobManager, ResultCache, ServiceClient
from .neuro import (
    CellChipJunction,
    Culture,
    HodgkinHuxleyNeuron,
    NeuralArrayModel,
    NeuralSensorPixel,
    StimulusProtocol,
    detect_spikes,
    score_detection,
)
from .pixel import DnaSensorPixel, SawtoothAdc
from .screening import CompoundLibrary, ScreeningFunnel
from .wafer import WaferSpec

__all__ = [
    "AdcTransferSpec",
    "AnalysisReport",
    "ArrayScaleSpec",
    "AssayProtocol",
    "AssayResult",
    "CampaignResult",
    "CampaignSpec",
    "CellChipJunction",
    "ChipSpecs",
    "CompoundLibrary",
    "Culture",
    "DnaAssaySpec",
    "DnaMicroarrayChip",
    "DnaSensorPixel",
    "DnaSequence",
    "ExperimentSpec",
    "HodgkinHuxleyNeuron",
    "HybridizationKinetics",
    "InterdigitatedElectrode",
    "JobManager",
    "MicroarrayAssay",
    "NEURO_SCAN",
    "NeuralArrayModel",
    "NeuralRecordingChip",
    "NeuralRecordingSpec",
    "NeuralSensorPixel",
    "Probe",
    "ProbeLayout",
    "RecordingResult",
    "RedoxCyclingSensor",
    "ResultCache",
    "ResultSet",
    "Runner",
    "Sample",
    "ServiceClient",
    "SawtoothAdc",
    "ScanTiming",
    "ScreeningFunnel",
    "ScreeningSpec",
    "StimulusProtocol",
    "Target",
    "Trace",
    "VectorizedDnaChip",
    "WaferSpec",
    "analysis",
    "analyze",
    "campaigns",
    "chip",
    "core",
    "detect_spikes",
    "devices",
    "dna",
    "electrochem",
    "engine",
    "experiments",
    "inference",
    "neuro",
    "perfect_target_for",
    "pixel",
    "run_campaign",
    "score_detection",
    "screening",
    "service",
    "trace",
    "units",
    "wafer",
]
