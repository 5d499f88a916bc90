"""Vectorised kernels for the Fig. 5/6 neural-recording physics.

The object-model hot path simulates every neuron's Hodgkin-Huxley
trajectory in a per-neuron Python loop, then samples each covered pixel
with one ``np.interp`` call per (neuron, pixel) pair
(:meth:`~repro.neuro.array.NeuralArrayModel.record`).  These kernels
evaluate the same physics as whole-array NumPy operations:

* :func:`hh_batch` — one RK4 integration over *all* neurons at once
  (state vectors of shape ``(n_neurons,)`` instead of one Python object
  per neuron); per-step cost is flat in the neuron count up to
  thousands of cells.  Below that the cost is NumPy call overhead, so
  each RK4 step is fused into as few calls as the operation order
  allows: packed gating blocks, preallocated stage buffers, and the
  post-step ionic current taken from the next step's first stage.
* :func:`template_tables` — the analytic-AP fast path: the template
  waveform and its derivative are computed once and shared across every
  neuron and spike (the object model rebuilds them per spike).
* :func:`synthesize_frames` — the batched frame-synthesis kernel: all
  action-potential waveforms are scattered onto the pixel frames in one
  interp-free pass (a table gather over precomputed waveform tables
  followed by one ``np.add.at`` accumulation).
* :func:`apply_chain_transfer` — the per-channel readout gain +
  clipping as a single broadcast (bit-identical to the object chip's
  per-channel loop).
* :func:`mad_sigma_matrix` / :func:`detect_spikes_matrix` — array-wide
  threshold spike detection over a matrix of traces.

Parity contract with the object model (enforced by
``tests/test_engine_neuro.py`` / ``tests/test_experiments_neuro_backend_parity.py``):

* The frame-synthesis gather reproduces ``np.interp``'s interval search
  and slope arithmetic, so frames built from *identical* waveform
  tables are bit-identical to the object recording (the template-AP
  path is therefore bit-identical end to end).
* :func:`hh_batch` is bit-identical to the unfused batched loop it
  replaced (kept as a frozen oracle in the tests): fusion changes how
  many NumPy calls run, never the per-element operation order.
  Against the scalar object model it evaluates the same RK4
  expressions, but with ``np.exp`` where the scalar model calls
  ``math.exp``; trajectories agree to floating-point accumulation
  error (sub-micro-volt over the paper's recording lengths) and spike
  times agree exactly in practice.
* Detection kernels evaluate the same median/threshold formulas as
  :mod:`repro.neuro.spike_detection` and are bit-identical on equal
  traces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..neuro.action_potential import HHParameters, template_action_potential

HH_REFRACTORY_S = 2e-3  # detect_spike_times' default hold-off


# ---------------------------------------------------------------------------
# Batched Hodgkin-Huxley integration
# ---------------------------------------------------------------------------
@dataclass
class BatchedHH:
    """Batched HH trajectories: the per-neuron quantities the junction
    model consumes, as ``(n_neurons, steps)`` arrays.

    ``membrane_v`` is in volts; the current densities in A/m^2 —
    matching :class:`~repro.neuro.action_potential.HHResult` unit for
    unit.  ``spike_times`` holds one array per neuron.
    """

    membrane_v: np.ndarray
    ionic_a_m2: np.ndarray
    capacitive_a_m2: np.ndarray
    dt_s: float
    spike_times: list

    @property
    def n_neurons(self) -> int:
        return self.membrane_v.shape[0]

    def subset(self, index) -> "BatchedHH":
        """Row view for a sub-population (used by the campaign fast
        path to split a union batch back into per-point batches)."""
        index = np.asarray(index)
        return BatchedHH(
            membrane_v=self.membrane_v[index],
            ionic_a_m2=self.ionic_a_m2[index],
            capacitive_a_m2=self.capacitive_a_m2[index],
            dt_s=self.dt_s,
            spike_times=[self.spike_times[i] for i in index.tolist()],
        )


def stimulus_matrix(stimuli, steps: int, dt_s: float) -> np.ndarray:
    """Injected current density (uA/cm^2) on the integration grid,
    ``(steps, n_neurons)``.

    Evaluates each :class:`StimulusProtocol`'s pulse sums exactly as
    ``current_ua_cm2`` does per step (``start <= t < start + width``),
    pulse order preserved.
    """
    t = np.arange(steps) * dt_s
    out = np.zeros((steps, len(stimuli)))
    for column, stimulus in enumerate(stimuli):
        for start, width, amplitude in stimulus.pulses:
            out[(t >= start) & (t < start + width), column] += amplitude
    return out


# Gating-rate layout of the packed exponential block: rows are the
# arguments of alpha_n, alpha_m, beta_n, beta_m, alpha_h, beta_h in the
# scalar model's ``-(v + offset) / scale`` form.
_GATE_OFFSETS = np.array([55.0, 40.0, 65.0, 65.0, 65.0, 35.0])[:, None]
_GATE_SCALES = np.array([-10.0, -10.0, -80.0, -18.0, -20.0, -10.0])[:, None]
_ALPHA_SINGULAR = np.array([0.1, 1.0])[:, None]  # alpha_n, alpha_m at x == 0
_ALPHA_GAINS = np.array([0.01, 0.1])[:, None]
_BETA_GAINS = np.array([0.125, 4.0])[:, None]


def _derivatives(
    state: np.ndarray,
    i_stim,
    p: HHParameters,
    out: np.ndarray,
    scratch: tuple,
    i_ion: np.ndarray | None = None,
) -> np.ndarray:
    """The batched twin of ``HodgkinHuxleyNeuron._derivatives``.

    Same expressions in the same per-element operation order, arrays
    over neurons (``state``/``out`` are ``(4, n_neurons)``), fused into
    as few NumPy calls as that order allows:

    * one broadcast add of ``v`` to the six gating offsets, one divide
      and one ``np.exp`` over the packed ``(6, n)`` block — ``x / -c``
      equals ``-(x / c)`` bitwise in IEEE arithmetic, so the arguments
      match the scalar model's ``-(v+a)/c`` exactly;
    * ``alpha_n``/``alpha_m`` as one stacked ``np.where``, ``beta_n``/
      ``beta_m`` as one scaled multiply;
    * one ``alpha * (1 - g) - beta * g`` pass over the three gates.

    ``scratch`` is the caller's ``(x, e, alpha, beta)`` buffers (shapes
    ``(6, n)``, ``(6, n)``, ``(3, n)``, ``(3, n)``).  When ``i_ion`` is
    given, the ionic current ``i_Na + i_K + i_leak`` at ``state`` is
    written into it.  Callers hold the ``np.errstate`` guard for the
    (measure-zero) gating singularities patched by the ``np.where``.
    """
    x, e, alpha, beta = scratch
    v = state[0]
    gates = state[1:]
    np.add(v, _GATE_OFFSETS, out=x)
    np.divide(x, _GATE_SCALES, out=e)
    np.exp(e, out=e)
    alpha[:2] = np.where(
        np.abs(x[:2]) < 1e-7, _ALPHA_SINGULAR, _ALPHA_GAINS * x[:2] / (1.0 - e[:2])
    )
    np.multiply(e[4], 0.07, out=alpha[2])
    np.multiply(e[2:4], _BETA_GAINS, out=beta[:2])
    np.add(e[5], 1.0, out=beta[2])
    np.divide(1.0, beta[2], out=beta[2])
    n, m, h = gates
    i_na = p.g_na * m**3 * h * (v - p.e_na)
    i_k = p.g_k * n**4 * (v - p.e_k)
    i_leak = p.g_leak * (v - p.e_leak)
    if i_ion is not None:
        np.add(i_na + i_k, i_leak, out=i_ion)
    out[0] = (i_stim - i_na - i_k - i_leak) / p.c_m
    np.subtract(alpha * (1.0 - gates), beta * gates, out=out[1:])
    return out


def refractory_prune(times: np.ndarray, refractory_s: float) -> np.ndarray:
    """Keep the first event of every refractory window (the hold-off
    loop shared by both detectors)."""
    if len(times) == 0:
        return np.asarray(times, dtype=float)
    kept = [times[0]]
    for t in times[1:]:
        if t - kept[-1] >= refractory_s:
            kept.append(t)
    return np.asarray(kept)


def hh_batch(
    stimuli,
    duration_s: float,
    dt_s: float = 10e-6,
    params: HHParameters | None = None,
) -> BatchedHH:
    """Integrate every neuron's HH trajectory in one batched RK4 sweep.

    ``stimuli`` is one :class:`StimulusProtocol` per neuron.  Matches
    :meth:`HodgkinHuxleyNeuron.simulate` expression for expression
    (including the post-step current decomposition, the unit
    conversions and the spike-time detection); the only difference is
    ``np.exp`` in place of ``math.exp``, so trajectories agree to
    floating-point accumulation error rather than bitwise.  Against
    the frozen unfused batched loop (the test oracle) every output —
    ``membrane_v``, ``ionic_a_m2``, ``capacitive_a_m2`` and the spike
    times — is bit-identical.

    Raises :class:`FloatingPointError` naming the first neuron whose
    membrane voltage or ionic current went non-finite (a stimulus too
    strong for ``dt_s``); the ``np.errstate`` guard only covers the
    removable gating singularities.
    """
    if duration_s <= 0 or dt_s <= 0:
        raise ValueError("duration and dt must be positive")
    p = params or HHParameters()
    count = len(stimuli)
    steps = int(round(duration_s / dt_s))
    dt_ms = dt_s * 1e3
    if count == 0:
        empty = np.zeros((0, steps))
        return BatchedHH(empty, empty.copy(), empty.copy(), dt_s, [])

    # Identical steady-state seed for every neuron (the scalar model's
    # ``steady_state(v_rest)`` values, evaluated once).
    from ..neuro.action_potential import HodgkinHuxleyNeuron

    n0, m0, h0 = HodgkinHuxleyNeuron(p).steady_state(p.v_rest)
    state = np.empty((4, count))
    state[0] = float(p.v_rest)
    state[1] = float(n0)
    state[2] = float(m0)
    state[3] = float(h0)

    stim = stimulus_matrix(stimuli, steps, dt_s)
    v_out = np.empty((steps, count))
    i_ion = np.empty((steps, count))
    half = 0.5 * dt_ms
    sixth = dt_ms / 6.0
    k1, k2, k3, k4, stage, acc = np.empty((6, 4, count))
    scratch = (
        np.empty((6, count)),
        np.empty((6, count)),
        np.empty((3, count)),
        np.empty((3, count)),
    )
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for step in range(steps):
            i_stim = stim[step]
            # k1 is evaluated at the previous step's end state, so it
            # also yields that step's post-step ionic current.
            _derivatives(state, i_stim, p, k1, scratch, i_ion[step - 1] if step else None)
            np.multiply(k1, half, out=stage)
            np.add(state, stage, out=stage)
            _derivatives(stage, i_stim, p, k2, scratch)
            np.multiply(k2, half, out=stage)
            np.add(state, stage, out=stage)
            _derivatives(stage, i_stim, p, k3, scratch)
            np.multiply(k3, dt_ms, out=stage)
            np.add(state, stage, out=stage)
            _derivatives(stage, i_stim, p, k4, scratch)
            np.multiply(k2, 2, out=stage)
            np.add(k1, stage, out=acc)
            np.multiply(k3, 2, out=stage)
            np.add(acc, stage, out=acc)
            np.add(acc, k4, out=acc)
            np.multiply(acc, sixth, out=acc)
            np.add(state, acc, out=state)
            v_out[step] = state[0]
        if steps:
            _derivatives(state, stim[-1], p, k1, scratch, i_ion[-1])

    finite = np.isfinite(v_out).all(axis=0) & np.isfinite(i_ion).all(axis=0)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise FloatingPointError(
            f"Hodgkin-Huxley integration diverged: neuron {bad} has non-finite "
            f"membrane voltage or ionic current (dt_s={dt_s:g}; reduce dt_s "
            "or the stimulus amplitude)"
        )

    v_volts = v_out.T * 1e-3
    ionic = i_ion.T * 0.01
    capacitive = np.gradient(v_volts, dt_s, axis=1) * (p.c_m * 0.01)

    spike_times = []
    for row in v_volts:
        above = row > 0.0
        crossings = np.nonzero(above[1:] & ~above[:-1])[0] + 1
        spike_times.append(refractory_prune(crossings * dt_s, HH_REFRACTORY_S))
    return BatchedHH(v_volts, ionic, capacitive, dt_s, spike_times)


def junction_tables(hh: BatchedHH, areas, seal_resistances, ion_channel_factors) -> np.ndarray:
    """Junction voltages V_J for a batch of HH trajectories.

    ``(cap + mu * ion) * area * R_seal`` per neuron — the exact
    operation order of
    :meth:`~repro.neuro.junction.CellChipJunction.junction_voltage`,
    broadcast over the neuron axis.  Returns ``(n_neurons, steps)``.
    """
    mu = np.asarray(ion_channel_factors, dtype=float)[:, None]
    area = np.asarray(areas, dtype=float)[:, None]
    seal = np.asarray(seal_resistances, dtype=float)[:, None]
    density = hh.capacitive_a_m2 + hh.ionic_a_m2 * mu
    return density * area * seal


# ---------------------------------------------------------------------------
# Template-AP fast path
# ---------------------------------------------------------------------------
def template_tables(
    stimuli,
    areas,
    seal_resistances,
    duration_s: float,
    dt_s: float = 20e-6,
    c_m_f_per_m2: float = 0.01,
) -> tuple[np.ndarray, list]:
    """Per-neuron junction waveform tables for the analytic-AP path.

    Mirrors the ``use_hh=False`` branch of
    :meth:`NeuralRecordingChip.record_culture` bit for bit — same
    template, same derivative, same per-spike scatter (in spike order)
    — but computes the shared template AP and its derivative once
    instead of once per spike.  Returns ``(tables, ground_truth)``
    where ``tables`` is ``(n_neurons, n_samples)`` and ``ground_truth``
    one spike-time array per neuron.
    """
    n_samples = max(1, int(round(duration_s / dt_s)))
    tables = np.zeros((len(stimuli), n_samples))
    truths: list = []
    if not stimuli:
        return tables, truths
    ap = template_action_potential(
        duration_s=min(6e-3, duration_s), dt_s=dt_s, t_spike_s=1e-3
    )
    dvdt = np.gradient(ap.samples, dt_s)  # == Trace.derivative()
    for index, stimulus in enumerate(stimuli):
        spike_times = np.asarray([pulse[0] for pulse in stimulus.pulses])
        vj_one = dvdt * (c_m_f_per_m2 * areas[index]) * seal_resistances[index]
        row = tables[index]
        for t_spike in spike_times:
            offset = int(t_spike / dt_s)
            end = min(n_samples, offset + len(vj_one))
            if end > offset:
                row[offset:end] += vj_one[: end - offset]
        truths.append(spike_times + 1e-3)
    return tables, truths


# ---------------------------------------------------------------------------
# Batched frame synthesis
# ---------------------------------------------------------------------------
def sample_waveform_tables(
    waveforms: np.ndarray, dt_s: float, wave_index: np.ndarray, times: np.ndarray
) -> np.ndarray:
    """Linear interpolation of uniform-grid waveform tables, vectorised.

    ``waveforms`` is ``(n_waves, n_samples)`` sampled at ``k * dt_s``;
    ``wave_index``/``times`` select which waveform each output row reads
    and at which instants (``times`` is ``(n_rows, n_points)``).
    Reproduces ``np.interp(t, grid, w, left=0.0, right=0.0)`` exactly:
    same interval search, same slope arithmetic, zeros outside the
    table.
    """
    waveforms = np.asarray(waveforms, dtype=float)
    times = np.asarray(times, dtype=float)
    n_samples = waveforms.shape[1]
    out_shape = (times.shape[0], times.shape[1])
    if n_samples == 0:
        return np.zeros(out_shape)
    grid = np.arange(n_samples) * dt_s
    wave = np.repeat(np.asarray(wave_index, dtype=np.intp), times.shape[1])
    t = times.reshape(-1)
    if n_samples == 1:
        values = np.where(t == grid[0], waveforms[wave, 0], 0.0)
        return values.reshape(out_shape)
    inside = (t >= grid[0]) & (t <= grid[-1])
    j = np.searchsorted(grid, t, side="right") - 1
    jc = np.clip(j, 0, n_samples - 2)
    x0 = grid[jc]
    y0 = waveforms[wave, jc]
    slope = (waveforms[wave, jc + 1] - y0) / (grid[jc + 1] - x0)
    values = slope * (t - x0) + y0
    values = np.where(j == n_samples - 1, waveforms[wave, n_samples - 1], values)
    values = np.where(inside, values, 0.0)
    return values.reshape(out_shape)


def synthesize_frames(
    waveforms: np.ndarray,
    dt_s: float,
    pair_rows: np.ndarray,
    pair_cols: np.ndarray,
    pair_waves: np.ndarray,
    n_frames: int,
    frame_rate_hz: float,
    rows: int,
    cols: int,
) -> np.ndarray:
    """Scatter every waveform onto its covered pixels in one pass.

    ``(pair_rows, pair_cols, pair_waves)`` enumerate the
    (pixel, neuron) coverage pairs in the object model's iteration
    order (neurons outer, covered pixels inner).  Each pair samples its
    waveform at the frame instants plus the row's mux offset
    (``row * row_time``), exactly as
    :meth:`NeuralArrayModel.record` does, but the sampling is one table
    gather per distinct (waveform, row) pair and the accumulation one
    ``np.add.at`` — no per-pixel ``np.interp`` calls.  Returns
    ``(n_frames, rows, cols)`` frames, bit-identical to the object
    loop for identical waveform tables.
    """
    if n_frames <= 0:
        raise ValueError("need at least one frame")
    if frame_rate_hz <= 0:
        raise ValueError("frame rate must be positive")
    pair_rows = np.asarray(pair_rows, dtype=np.intp)
    pair_cols = np.asarray(pair_cols, dtype=np.intp)
    pair_waves = np.asarray(pair_waves, dtype=np.intp)
    if not (len(pair_rows) == len(pair_cols) == len(pair_waves)):
        raise ValueError("pair arrays must have equal lengths")
    if len(pair_rows) == 0:
        return np.zeros((n_frames, rows, cols))
    frame_times = np.arange(n_frames) / frame_rate_hz
    row_time = 1.0 / (frame_rate_hz * rows)
    # Sample once per distinct (waveform, row): every column under the
    # same soma row shares its mux offset, so the gather is ~10x
    # smaller than the pair list.
    key = pair_waves * rows + pair_rows
    unique_keys, group = np.unique(key, return_inverse=True)
    group_waves = unique_keys // rows
    group_rows = unique_keys % rows
    sample_times = frame_times[None, :] + (group_rows * row_time)[:, None]
    values = sample_waveform_tables(waveforms, dt_s, group_waves, sample_times)
    # Accumulate in (pixel, frame) layout; pairs arrive in the object
    # model's neuron-major order, so per-pixel summation order matches.
    accumulator = np.zeros((rows * cols, n_frames))
    np.add.at(accumulator, pair_rows * cols + pair_cols, values[group])
    return np.ascontiguousarray(
        accumulator.reshape(rows, cols, n_frames).transpose(2, 0, 1)
    )


def coverage_pairs(culture) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (pixel row, pixel col, neuron position) coverage triplets in
    the object model's iteration order.  The third array indexes the
    *position* of the neuron in ``culture.neurons`` (== the waveform
    table row), not ``neuron.index``."""
    pair_rows: list[int] = []
    pair_cols: list[int] = []
    pair_waves: list[int] = []
    for position, neuron in enumerate(culture.neurons):
        for row, col in culture.pixels_for_neuron(neuron):
            pair_rows.append(row)
            pair_cols.append(col)
            pair_waves.append(position)
    return (
        np.asarray(pair_rows, dtype=np.intp),
        np.asarray(pair_cols, dtype=np.intp),
        np.asarray(pair_waves, dtype=np.intp),
    )


# ---------------------------------------------------------------------------
# Readout-chain transfer
# ---------------------------------------------------------------------------
def apply_chain_transfer(
    frames: np.ndarray, gains, rails, mux_depth: int
) -> np.ndarray:
    """Static per-channel chain transfer (gain + rail clipping) as one
    broadcast.  ``gains``/``rails`` hold one value per readout channel;
    channel *k* serves columns ``[k * mux_depth, (k+1) * mux_depth)``.
    Bit-identical to the object chip's per-channel block loop."""
    gain_cols = np.repeat(np.asarray(gains, dtype=float), mux_depth)
    rail_cols = np.repeat(np.asarray(rails, dtype=float), mux_depth)
    if len(gain_cols) != frames.shape[2]:
        raise ValueError(
            f"{len(gain_cols)} channel columns do not cover {frames.shape[2]} array columns"
        )
    return np.clip(frames * gain_cols, -rail_cols, rail_cols)


# ---------------------------------------------------------------------------
# Array-wide spike detection
# ---------------------------------------------------------------------------
def mad_sigma_matrix(traces: np.ndarray) -> np.ndarray:
    """Robust noise sigma per trace row: ``median(|x - median|)/0.6745``
    — :func:`~repro.neuro.spike_detection.mad_noise_estimate` over a
    ``(n_traces, n_samples)`` matrix."""
    traces = np.asarray(traces, dtype=float)
    median = np.median(traces, axis=1, keepdims=True)
    return np.median(np.abs(traces - median), axis=1) / 0.6745


def detect_spikes_matrix(
    traces: np.ndarray,
    dt_s: float,
    threshold_sigma: float = 5.0,
    refractory_s: float = 2e-3,
    polarity: str = "both",
    t0: float = 0.0,
) -> list:
    """Threshold detection over a matrix of traces — the array-wide
    twin of :func:`~repro.neuro.spike_detection.detect_spikes`
    (same MAD threshold, same edge rule, same refractory hold-off),
    evaluated with whole-matrix operations.  Returns one spike-time
    array per row."""
    if threshold_sigma <= 0:
        raise ValueError("threshold must be positive")
    if polarity not in ("pos", "neg", "both"):
        raise ValueError(f"unknown polarity {polarity!r}")
    traces = np.asarray(traces, dtype=float)
    if traces.ndim != 2:
        raise ValueError("traces must be (n_traces, n_samples)")
    median = np.median(traces, axis=1, keepdims=True)
    sigma = np.median(np.abs(traces - median), axis=1) / 0.6745
    sigma = np.where(sigma == 0, 1e-12, sigma)
    level = (threshold_sigma * sigma)[:, None]
    centred = traces - median
    if polarity == "pos":
        hot = centred > level
    elif polarity == "neg":
        hot = centred < -level
    else:
        hot = np.abs(centred) > level
    rising = hot[:, 1:] & ~hot[:, :-1]
    out = []
    for row in range(traces.shape[0]):
        edges = np.nonzero(rising[row])[0] + 1
        out.append(refractory_prune(t0 + edges * dt_s, refractory_s))
    return out
