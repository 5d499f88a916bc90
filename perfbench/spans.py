"""Wall-clock spans and counters wrapped around the stack's layer entry points.

The traced run measures each layer from the benchmark's own files: it
replaces a public entry point with a wrapper for the length of one
round and puts the original back afterwards.  Nothing under ``src/`` is
edited.  Every name is patched where its caller looks it up at call
time: ``hh_batch`` is reached as ``neuro_kernels.hh_batch`` from
``campaigns/batched.py``, so the module attribute is what gets wrapped;
``CampaignResult.analyze`` imports ``repro.inference.analyze`` on every
call, so the package attribute is wrapped; ``point_key`` is bound into
``repro.service.cache`` by ``from .keys import point_key``, so that
module's global is wrapped.

A span records its duration and, per thread, how much of it its child
spans covered, so a layer's self time is its duration minus its
children.  Counters live in per-thread dictionaries so the hot ones
(``Mosfet.ids`` runs ~10^5 times per round) add no lock.
"""

from __future__ import annotations

import contextlib
import inspect
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Iterator


class Recorder:
    """Spans and counts for one round; safe to feed from several threads."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._thread_counts: list[dict[str, int]] = []
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.samples: dict[str, list[float]] = defaultdict(list)
        #: Per thread name: summed duration of outermost spans, i.e. the
        #: part of that thread's time some layer accounts for.
        self.covered_s: dict[str, float] = defaultdict(float)

    def _stack(self) -> list[list[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        stack = self._stack()
        frame = [0.0]  # child seconds, filled in by nested spans
        stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            duration = time.perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][0] += duration
            with self._lock:
                self.total_s[name] += duration
                self.self_s[name] += duration - frame[0]
                self.calls[name] += 1
                self.samples[name].append(duration)
                if not stack:
                    self.covered_s[threading.current_thread().name] += duration

    def count(self, name: str, n: int = 1) -> None:
        counts = getattr(self._local, "counts", None)
        if counts is None:
            counts = self._local.counts = defaultdict(int)
            with self._lock:
                self._thread_counts.append(counts)
        counts[name] += n

    def counts(self) -> dict[str, int]:
        merged: dict[str, int] = defaultdict(int)
        with self._lock:
            for counts in self._thread_counts:
                for name, value in counts.items():
                    merged[name] += value
        return dict(merged)


class NullRecorder:
    """What untraced rounds use: the same calls, no bookkeeping."""

    def span(self, name: str) -> contextlib.AbstractContextManager:
        return contextlib.nullcontext()

    def count(self, name: str, n: int = 1) -> None:
        pass


def _timed(recorder: Recorder, name: str, original: Callable) -> Callable:
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        with recorder.span(name):
            return original(*args, **kwargs)

    return wrapper


def _counted(recorder: Recorder, name: str, original: Callable) -> Callable:
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        recorder.count(name)
        return original(*args, **kwargs)

    return wrapper


def _timed_chunks(recorder: Recorder, name: str, original: Callable) -> Callable:
    """A batch compiler is a generator of compiled chunks: the work runs
    inside each ``next``, so each step is its own span and each chunk
    counts as one batched group."""

    def wrapper(*args: Any, **kwargs: Any) -> Iterator[Any]:
        chunks = original(*args, **kwargs)
        while True:
            with recorder.span(name):
                chunk = next(chunks, None)
            if chunk is None:
                return
            recorder.count("campaigns.batched_groups")
            yield chunk

    return wrapper


def _hh_batch(recorder: Recorder, name: str, original: Callable) -> Callable:
    signature = inspect.signature(original)

    def wrapper(*args: Any, **kwargs: Any) -> Any:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        steps = int(round(bound.arguments["duration_s"] / bound.arguments["dt_s"]))
        recorder.count("engine.hh_neuron_steps", len(bound.arguments["stimuli"]) * steps)
        with recorder.span(name):
            return original(*args, **kwargs)

    return wrapper


def patch_table() -> list[tuple[Any, str, str, Callable]]:
    """``(owner, attribute, metric name, wrapper factory)`` for every
    layer boundary the benchmark measures; an owner that is a dict is
    patched by key (the batched executor looks its compilers up in
    ``BATCH_COMPILERS``)."""
    import repro.inference
    from repro.campaigns import batched, spec, store
    from repro.chip import dna_chip, readout
    from repro.devices import mosfet
    from repro.dna import assay
    from repro.engine import neuro_kernels, vneuro
    from repro.experiments import runner
    from repro.pixel import sawtooth_adc
    from repro.service import cache

    chip = dna_chip.DnaMicroarrayChip
    vchip = vneuro.VectorizedNeuroChip
    return [
        (spec.CampaignSpec, "compile", "campaigns.compile", _timed),
        (store.MemoryResultStore, "add", "campaigns.store_add", _timed),
        (batched.BATCH_COMPILERS, "neural_recording", "campaigns.batched", _timed_chunks),
        (batched.BATCH_COMPILERS, "array_scale", "campaigns.batched", _timed_chunks),
        (runner.Runner, "run", "experiments.run", _timed),
        (chip, "__init__", "chip.build", _timed),
        (chip, "auto_calibrate", "chip.calibrate", _timed),
        (chip, "measure_assay", "chip.measure", _timed),
        (chip, "current_estimates", "chip.estimate", _timed),
        (mosfet.Mosfet, "ids", "devices.mosfet_ids_calls", _counted),
        (sawtooth_adc.SawtoothAdc, "count_in_frame", "pixel.adc_frames", _counted),
        (assay.MicroarrayAssay, "run", "dna.assay", _timed),
        (readout, "read_counters_resilient", "chip.readout", _timed),
        (neuro_kernels, "hh_batch", "engine.hh_batch", _hh_batch),
        (vchip, "movie_from_tables", "engine.movie", _timed),
        (vchip, "output_movie", "engine.movie", _timed),
        (neuro_kernels, "detect_spikes_matrix", "engine.detect", _timed),
        (cache, "point_key", "service.point_key", _timed),
        (cache.ResultCache, "get", "service.cache_get", _timed),
        (cache.ResultCache, "put", "service.cache_put", _timed),
        (repro.inference, "analyze", "inference.analyze", _timed),
    ]


@contextlib.contextmanager
def traced(recorder: Recorder) -> Iterator[Recorder]:
    """Install every wrapper for the block and restore the originals."""
    saved = []
    try:
        for owner, attribute, name, factory in patch_table():
            if isinstance(owner, dict):
                original = current = owner[attribute]
            else:
                original = inspect.getattr_static(owner, attribute)
                current = getattr(owner, attribute)
            saved.append((owner, attribute, original))
            _assign(owner, attribute, factory(recorder, name, current))
        yield recorder
    finally:
        for owner, attribute, original in reversed(saved):
            _assign(owner, attribute, original)


def _assign(owner: Any, attribute: str, value: Any) -> None:
    if isinstance(owner, dict):
        owner[attribute] = value
    else:
        setattr(owner, attribute, value)
