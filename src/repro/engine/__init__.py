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
* the Fig. 5/6 neural-recording pipeline (batched Hodgkin-Huxley
  integration, interp-free frame synthesis, broadcast chain transfer,
  array-wide spike detection) in :mod:`repro.engine.neuro_kernels`.
  The neural chip has one host,
  :class:`~repro.chip.NeuralRecordingChip`, whose M1/M2 planes are the
  :class:`~repro.neuro.array.NeuralArrayModel`;
  :class:`VectorizedNeuroChip` is a subclass of it that evaluates the
  activity and the frames with these kernels.

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
mismatch draws are bit-identical in ``"paired"`` mode (both neural
chips draw the same ``NeuralArrayModel`` planes); stochastic
counts agree per site to within 1 count of start-phase quantisation
plus the accumulated cycle jitter (``kernels.count_noise_sigma``); the
neural template-AP recording is bit-identical end to end, and the HH
path matches to floating-point accumulation error with exact ground
truth (see :mod:`repro.engine.neuro_kernels`).
"""

from . import kernels, neuro_kernels
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
