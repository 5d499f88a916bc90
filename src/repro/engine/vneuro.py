"""The neural-recording chip on the vectorized backend.

The 128x128 chip of Figs. 5-6 has one host,
:class:`~repro.chip.neuro_chip.NeuralRecordingChip`: the
:class:`~repro.neuro.array.NeuralArrayModel` M1/M2 planes and their
calibration, sixteen readout channels, the scan timing, registers +
serial configuration, the recorder hooks, the spike-train draw, the
noise add, the chain transfer and the recording assembly.
:class:`VectorizedNeuroChip` is a subclass that takes the same
constructor, so it draws the same planes and channels from the same
generator, and overrides only the two hot steps with
:mod:`repro.engine.neuro_kernels` batched operations:

* the activity evaluation — one batched Hodgkin-Huxley integration
  (:func:`~repro.engine.neuro_kernels.hh_batch`) or the shared template
  tables instead of one integration per neuron;
* the frame synthesis — one table gather and scatter
  (:func:`~repro.engine.neuro_kernels.synthesize_frames`) instead of
  one ``np.interp`` per covered pixel.

Parity with the object chip (see
``tests/test_experiments_neuro_backend_parity.py``):

* The template-AP path (``use_hh=False``) is bit-identical end to end:
  waveforms, frames, noise realisation and output movie.
* The Hodgkin-Huxley path batches the RK4 integration over neurons
  (``np.exp`` vs ``math.exp``); trajectories agree to floating-point
  accumulation error, ground-truth spike times exactly in practice,
  and frames to the documented tolerance.
"""

from __future__ import annotations

import numpy as np

from ..chip.neuro_chip import NeuralRecordingChip
from ..neuro.array import RecordedMovie
from ..neuro.culture import Culture
from . import neuro_kernels


class VectorizedNeuroChip(NeuralRecordingChip):
    """One 128x128 device whose activity and frames are evaluated as
    whole-array kernels.  Everything else is the object chip's own
    code."""

    def activity_tables(
        self, culture: Culture, stimuli, duration_s: float, use_hh: bool
    ) -> tuple[np.ndarray, float, dict]:
        """Junction-voltage waveform tables + ground truth for a set of
        stimulated neurons: ``(tables, table_dt_s, ground_truth)``."""
        dt_s = 20e-6
        if use_hh:
            hh = neuro_kernels.hh_batch(stimuli, duration_s, dt_s=dt_s)
            return self._hh_tables(culture, hh)
        junctions = [neuron.junction for neuron in culture.neurons]
        tables, truths = neuro_kernels.template_tables(
            stimuli,
            [j.junction_area for j in junctions],
            [j.seal_resistance for j in junctions],
            duration_s,
            dt_s=dt_s,
        )
        ground_truth = {
            neuron.index: truths[i] for i, neuron in enumerate(culture.neurons)
        }
        return tables, dt_s, ground_truth

    def _hh_tables(
        self, culture: Culture, hh: neuro_kernels.BatchedHH
    ) -> tuple[np.ndarray, float, dict]:
        """Junction tables + ground truth from a (possibly shared)
        batched HH integration whose rows follow ``culture.neurons``."""
        junctions = [neuron.junction for neuron in culture.neurons]
        tables = neuro_kernels.junction_tables(
            hh,
            [j.junction_area for j in junctions],
            [j.seal_resistance for j in junctions],
            [j.ion_channel_factor for j in junctions],
        )
        ground_truth = {
            neuron.index: hh.spike_times[i] for i, neuron in enumerate(culture.neurons)
        }
        return tables, hh.dt_s, ground_truth

    def movie_from_tables(
        self,
        culture: Culture,
        tables: np.ndarray,
        table_dt_s: float,
        n_frames: int,
        generator,
    ) -> RecordedMovie:
        """Sample the waveform tables onto electrode-referred frames in
        one scatter pass, then add the chain's noise (the same draw as
        the object chip)."""
        pair_rows, pair_cols, pair_waves = neuro_kernels.coverage_pairs(culture)
        frames = neuro_kernels.synthesize_frames(
            tables,
            table_dt_s,
            pair_rows,
            pair_cols,
            pair_waves,
            n_frames,
            self.scan.frame_rate_hz,
            self.geometry.rows,
            self.geometry.cols,
        )
        return self._add_noise(frames, generator)
