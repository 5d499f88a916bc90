"""repro.engine — the vectorized array-scale simulation backend.

Evaluates both flagship workloads' pixel physics as closed-form NumPy
kernels over ``(n_chips, rows, cols)`` arrays:

* the Fig. 3 sawtooth-ADC physics (ramp time, comparator delay, reset
  dead time, leakage, counting quantisation, per-pixel mismatch).  The
  DNA chip has one host half, :class:`~repro.chip.DnaMicroarrayChip`;
  :class:`VectorizedDnaChip` is a single-chip subclass of it that holds
  its pixels as parameter planes and counts each frame in one kernel
  call.  Batches of chips run only through the stacked evaluator
  (:func:`draw_array_scale`, :func:`calibrate_array_scale`,
  :func:`count_array_scale`, chunked by :func:`stack_chunks`), which
  the Runner's vectorized ``array_scale``, the batched campaign
  executor and the wafer tiler share;
* the Fig. 5/6 neural-recording pipeline (M1/M2 calibration planes,
  batched Hodgkin-Huxley integration, interp-free frame synthesis,
  broadcast chain transfer, array-wide spike detection), packaged as
  :class:`VectorizedNeuroChip` over :class:`NeuroArrayParams` +
  :mod:`repro.engine.neuro_kernels`.

Select it through the experiment front door::

    from repro.experiments import (
        ArrayScaleSpec, DnaAssaySpec, NeuralRecordingSpec, Runner,
    )

    runner = Runner(seed=1)
    runner.run(DnaAssaySpec(), backend="vectorized")          # parity-checked
    runner.run(ArrayScaleSpec(rows=128, cols=128, n_chips=16))
    runner.run(NeuralRecordingSpec(), backend="vectorized")   # parity-checked

Parity contract vs the object backend (documented tolerances, enforced
by ``tests/test_engine_*``): deterministic math is bit-identical;
mismatch draws are bit-identical in ``"paired"`` mode (the neural
planes are plane-drawn and bit-identical by construction); stochastic
counts agree per site to within 1 count of start-phase quantisation
plus the accumulated cycle jitter (``kernels.count_noise_sigma``); the
neural template-AP recording is bit-identical end to end, and the HH
path matches to floating-point accumulation error with exact ground
truth (see :mod:`repro.engine.neuro_kernels`).
"""

from . import kernels, neuro_kernels
from .neuro_params import NeuroArrayParams
from .params import DRAW_MODES, PixelArrayParams
from .vchip import (
    STACK_SITES,
    VectorizedDnaChip,
    calibrate_array_scale,
    count_array_scale,
    draw_array_scale,
    stack_chunks,
)
from .vneuro import VectorizedNeuroChip

__all__ = [
    "DRAW_MODES",
    "STACK_SITES",
    "NeuroArrayParams",
    "PixelArrayParams",
    "VectorizedDnaChip",
    "VectorizedNeuroChip",
    "calibrate_array_scale",
    "count_array_scale",
    "draw_array_scale",
    "kernels",
    "neuro_kernels",
    "stack_chunks",
]
