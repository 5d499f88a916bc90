"""Vectorised kernels for the Fig. 5/6 neural-recording physics.

The object-model hot path simulates every neuron's Hodgkin-Huxley
trajectory in a per-neuron Python loop, then samples each covered pixel
with one ``np.interp`` call per (neuron, pixel) pair
(:meth:`~repro.neuro.array.NeuralArrayModel.record`).  These kernels
evaluate the same physics as whole-array NumPy operations:

* :func:`hh_batch` — one RK4 integration over *all* neurons at once
  (one ``(4, n_neurons)`` state block held as ``(v, m, n, h)`` instead
  of one Python object per neuron); per-step cost is flat in the neuron
  count up to thousands of cells.  Below that the cost is NumPy call
  overhead, so each RK4 stage is 25 calls over buffers bound once per
  integration: one packed gating block whose alpha and beta rows line
  up with the gates, one ``(3, n)`` ionic-current block, and the
  post-step ionic current taken from the next step's first stage.  The
  ``[m, n]`` rows are read through a positive-stride view: over a
  negative-stride view ``np.power`` takes another SIMD path at one
  neuron and its bits differ from ``m**3``.
* :func:`template_tables` — the analytic-AP fast path: the template
  waveform and its derivative are computed once and shared across every
  neuron and spike (the object model rebuilds them per spike).
* :func:`synthesize_frames` — the batched frame-synthesis kernel: all
  action-potential waveforms are scattered onto the pixel frames in one
  interp-free pass (a table gather over precomputed waveform tables
  followed by one ``np.add.at`` accumulation).
* :func:`apply_chain_transfer` — the per-channel readout gain +
  clipping as one broadcast and two in-place bounds: the chain transfer
  of both neural chips (``NeuralRecordingChip.output_movie``).
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


# Packed gating block, one row per rate: alpha_m, alpha_n, alpha_h,
# beta_m, beta_n, beta_h.  ``rates[:3]`` are the alphas and ``rates[3:]``
# the betas of the gates (m, n, h) at ``state[1:]``; the offsets and
# scales give the scalar model's ``-(v + offset) / scale`` arguments.
_GATE_OFFSETS = np.array([40.0, 55.0, 65.0, 65.0, 65.0, 35.0])[:, None]
_GATE_SCALES = np.array([-10.0, -10.0, -20.0, -18.0, -80.0, -10.0])[:, None]
_ALPHA_GAINS = np.array([0.1, 0.01])[:, None]  # alpha_m, alpha_n
_ALPHA_SINGULAR = np.array([1.0, 0.1])[:, None]  # their limits at x == 0
_EXP_GAINS = np.array([0.07, 4.0, 0.125])[:, None]  # alpha_h, beta_m, beta_n
_POWERS = np.array([3.0, 4.0])[:, None]  # m**3, n**4


def _derivatives(p: HHParameters, count: int):
    """Bind the batched twin of ``HodgkinHuxleyNeuron._derivatives``
    for one :func:`hh_batch` call.

    Returns ``derivatives(src, i_stim, out, i_ion=None)``: ``src`` is the
    ``(v, gates, [m, n], h)`` views of a ``(4, count)`` state held as
    ``(v, m, n, h)``, ``out`` the ``(dv, dgates)`` rows of a derivative
    block.  It evaluates the scalar model's expressions in the same
    per-element operation order, in 25 NumPy calls over the neurons:

    * one broadcast add of ``v`` to the six gating offsets, one divide
      and one ``np.exp`` over the packed ``(6, n)`` block — ``x / -c``
      equals ``-(x / c)`` bitwise in IEEE arithmetic, so the arguments
      match the scalar model's ``-(v+a)/c`` exactly;
    * ``alpha_m``/``alpha_n`` by ``out=`` multiply, subtract and
      divide, their removable singularities patched by one
      ``np.copyto(..., where=|x| < 1e-7)``; ``alpha_h``, ``beta_m`` and
      ``beta_n`` as one scaled multiply; ``beta_h`` in two calls;
    * the ionic currents ``(i_Na, i_K, i_leak)`` as one ``(3, n)``
      block: one ``np.power`` of the ``[m, n]`` view by ``[3, 4]``,
      times ``[g_na, g_k]``, row 0 times ``h``, then the conductance
      block (leak row ``g_leak``) times ``v - [e_na, e_k, e_leak]``;
    * ``dv/dt`` and ``alpha * (1 - g) - beta * g`` in four in-place
      calls each.

    The ``[m, n]`` view has a positive stride on purpose: over a
    negative-stride view (``state[2:0:-1]`` of an ``(v, n, m, h)``
    state) ``np.power`` takes another SIMD path at one neuron, whose
    bits differ from ``m**3``.

    When ``i_ion`` is given, the ionic current ``i_Na + i_K + i_leak``
    at ``src`` is written into it.  Every buffer, view and parameter
    column is bound here, once per call, so concurrent calls share
    nothing.  Callers hold the ``np.errstate`` guard for the
    (measure-zero) gating singularities patched by the ``np.copyto``.
    """
    x, e, rates = np.empty((3, 6, count))
    x_alpha, e_alpha, r_alpha = x[:2], e[:2], rates[:2]
    e_exp, r_exp = e[2:5], rates[2:5]
    e_beta_h, beta_h = e[5], rates[5]
    alpha, beta = rates[:3], rates[3:]
    conductance, current = np.empty((2, 3, count))
    conductance[2] = p.g_leak
    g_mn, g_na = conductance[:2], conductance[0]
    i_na, i_k, i_leak = current
    gains = np.array([p.g_na, p.g_k])[:, None]
    reversal = np.array([p.e_na, p.e_k, p.e_leak])[:, None]
    decay = np.empty((3, count))

    def derivatives(src, i_stim, out, i_ion=None):
        v, gates, m_n, h = src
        dv, dgates = out
        np.add(v, _GATE_OFFSETS, x)
        np.divide(x, _GATE_SCALES, e)
        np.exp(e, e)
        np.multiply(x_alpha, _ALPHA_GAINS, r_alpha)
        np.subtract(1.0, e_alpha, e_alpha)
        np.divide(r_alpha, e_alpha, r_alpha)
        np.copyto(r_alpha, _ALPHA_SINGULAR, where=np.abs(x_alpha) < 1e-7)
        np.multiply(e_exp, _EXP_GAINS, r_exp)
        np.add(e_beta_h, 1.0, beta_h)
        np.divide(1.0, beta_h, beta_h)
        np.power(m_n, _POWERS, g_mn)
        np.multiply(g_mn, gains, g_mn)
        np.multiply(g_na, h, g_na)
        np.subtract(v, reversal, current)
        np.multiply(conductance, current, current)
        if i_ion is not None:
            np.add(i_na, i_k, i_ion)
            np.add(i_ion, i_leak, i_ion)
        np.subtract(i_stim, i_na, dv)
        np.subtract(dv, i_k, dv)
        np.subtract(dv, i_leak, dv)
        np.divide(dv, p.c_m, dv)
        np.subtract(1.0, gates, dgates)
        np.multiply(alpha, dgates, dgates)
        np.multiply(beta, gates, decay)
        np.subtract(dgates, decay, dgates)

    return derivatives


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

    The state is one ``(4, n_neurons)`` block in ``(v, m, n, h)`` row
    order, integrated in place.  Every buffer and view the step loop
    touches is bound before it: each RK4 stage is one
    :func:`_derivatives` call (25 NumPy calls) plus two to form the
    next stage state.  ``k1`` is evaluated at the previous step's end
    state, so it also yields that step's post-step ionic current.

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
    state = np.array([[p.v_rest], [m0], [n0], [h0]], dtype=float).repeat(count, axis=1)

    stim = stimulus_matrix(stimuli, steps, dt_s)
    v_out = np.empty((steps, count))
    # Row s + 1 holds the post-step ionic current of step s; row 0 (the
    # current at the seed state) is computed and dropped.
    i_ion = np.empty((steps + 1, count))
    half = 0.5 * dt_ms
    sixth = dt_ms / 6.0
    k1, k2, k3, k4, stage, acc = np.empty((6, 4, count))
    at_state = (state[0], state[1:], state[1:3], state[3])
    at_stage = (stage[0], stage[1:], stage[1:3], stage[3])
    d1, d2, d3, d4 = ((k[0], k[1:]) for k in (k1, k2, k3, k4))
    derivatives = _derivatives(p, count)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i_stim, ion_before, v_row in zip(stim, i_ion, v_out):
            derivatives(at_state, i_stim, d1, ion_before)
            np.multiply(k1, half, stage)
            np.add(state, stage, stage)
            derivatives(at_stage, i_stim, d2)
            np.multiply(k2, half, stage)
            np.add(state, stage, stage)
            derivatives(at_stage, i_stim, d3)
            np.multiply(k3, dt_ms, stage)
            np.add(state, stage, stage)
            derivatives(at_stage, i_stim, d4)
            np.multiply(k2, 2, stage)
            np.add(k1, stage, acc)
            np.multiply(k3, 2, stage)
            np.add(acc, stage, acc)
            np.add(acc, k4, acc)
            np.multiply(acc, sixth, acc)
            np.add(state, acc, state)
            v_row[...] = at_state[0]
        if steps:
            derivatives(at_state, stim[-1], d1, i_ion[-1])
    i_ion = i_ion[1:]

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
    :meth:`NeuralRecordingChip.activity_tables` bit for bit — same
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
    Bit-identical to a per-channel ``np.clip`` of each column block."""
    gain_cols = np.repeat(np.asarray(gains, dtype=float), mux_depth)
    rail_cols = np.repeat(np.asarray(rails, dtype=float), mux_depth)
    if len(gain_cols) != frames.shape[2]:
        raise ValueError(
            f"{len(gain_cols)} channel columns do not cover {frames.shape[2]} array columns"
        )
    # Two in-place bounds instead of ``np.clip``, which is slow against
    # per-column array bounds; both propagate NaN, so the bits match.
    out = frames * gain_cols
    np.maximum(out, -rail_cols, out=out)
    return np.minimum(out, rail_cols, out=out)


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
