"""The host's READ_COUNTERS controller: one serial counter shift-out.

However a chip's pixels were simulated, its counters leave over the
6-pin serial interface the same way, so this module holds the one
pack -> chunk -> respond -> transfer -> unpack loop.  :func:`read_counters`
runs it over a flat counts array and the chip's register file, link,
site sequence and specs, in one of two modes:

* **plain** (no policy) -- the first frame that fails to decode raises
  :class:`FrameError` carrying the failing response chunk as
  ``frame_index``.  Both chips' ``read_counters_serial`` use it.
* **resilient** (a :class:`ReadoutPolicy`, via
  :func:`read_counters_resilient`) -- what real hosts do instead of
  crashing on a corrupted frame:

  * **detect** -- frame decode failure (the two's-complement checksum
    catches any flip set that changes the byte sum mod 256) or register
    read-back mismatch against the host's shadow of the configuration
    registers;
  * **retry** -- up to ``max_retries`` re-transfers per chunk, waiting
    ``backoff_s * backoff_factor**attempt`` of *simulated* clock between
    attempts (the trace recorder's clock, never wall time);
  * **degrade** -- a chunk that exhausts its retries is zero-filled and
    its counter span reported in ``dead_sites`` instead of raising.

  Every detect/retry/recover/give-up decision lands in the trace as a
  typed ``readout.*`` event, so a capture replays the controller's exact
  decision sequence.  The plain mode emits none.

Fault injection reaches this path only through the duck-typed
``injector`` seam on the link -- no faults import here.  The plain mode
meets it only on the wire; register upsets, stuck pixels and sequencer
stalls are drawn by the resilient mode alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

from .dna_chip import ChipSpecs, counter_chunk_bytes
from .registers import RegisterFile
from .sequencer import SiteSequence
from .serial_interface import (
    CHIP_TO_HOST,
    HOST_TO_CHIP,
    Command,
    Frame,
    FrameError,
    SerialLink,
    pack_counters,
    unpack_counters,
)


@dataclass(frozen=True)
class ReadoutPolicy:
    """Bounded-retry policy; all waiting is simulated-clock time."""

    max_retries: int = 3
    backoff_s: float = 1e-4
    backoff_factor: float = 2.0
    verify_registers: bool = True

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_s < 0.0:
            raise ValueError(f"backoff_s must be >= 0, got {self.backoff_s}")
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )


@dataclass
class ReadoutOutcome:
    """What the host recovered, and the accounting of how."""

    counters: list[int] = field(default_factory=list)
    dead_sites: tuple[int, ...] = ()
    frames_total: int = 0
    frames_corrupted: int = 0
    frames_recovered: int = 0
    frames_lost: int = 0
    retries: int = 0
    registers_checked: int = 0
    registers_corrupted: int = 0
    registers_restored: int = 0
    stall_s_total: float = 0.0


def _verify_registers(
    registers: RegisterFile,
    expected: dict[str, int],
    outcome: ReadoutOutcome,
    recorder: Any,
) -> None:
    """Read back every register against the host shadow; rewrite
    mismatched host-writable ones (read-only upsets stay detected but
    unrecoverable)."""
    for name in sorted(expected):
        outcome.registers_checked += 1
        value = registers.read(name)
        if value == expected[name]:
            continue
        outcome.registers_corrupted += 1
        if recorder is not None:
            recorder.readout_detect(
                f"reg.{name}",
                error=f"read-back mismatch: got {value:#x}, shadow {expected[name]:#x}",
            )
        try:
            registers.write(name, expected[name])
        except ValueError:
            continue
        outcome.registers_restored += 1
        if recorder is not None:
            recorder.readout_recover(f"reg.{name}", attempts=1)


def _transfer(
    link: SerialLink,
    frame: Frame,
    direction: str,
    policy: ReadoutPolicy | None,
    outcome: ReadoutOutcome,
    recorder: Any,
    frame_index: int | None,
    channel: str,
    flip_bits: list[int] | None = None,
) -> tuple[Frame | None, int]:
    """Push one frame, retrying with deterministic backoff.

    Returns ``(decoded, failures)`` -- ``decoded`` is ``None`` after
    give-up.  Each attempt is a real wire crossing (the injector
    re-draws, ``flip_bits`` apply again), so transient corruption
    usually clears on retry.  Without a policy there is one attempt and
    a decode failure propagates, tagged with ``frame_index``.
    """
    failures = 0
    attempts = 1 if policy is None else policy.max_retries + 1
    for attempt in range(attempts):
        try:
            return link.transfer(frame, flip_bits=flip_bits, direction=direction), failures
        except FrameError as exc:
            if policy is None:
                if frame_index is not None:
                    exc.frame_index = frame_index  # type: ignore[attr-defined]
                raise
            failures += 1
            if recorder is not None:
                recorder.readout_detect(
                    channel, error=str(exc), frame=frame_index, attempt=attempt
                )
            if attempt == policy.max_retries:
                break
            delay = policy.backoff_s * policy.backoff_factor**attempt
            outcome.retries += 1
            if recorder is not None:
                recorder.readout_retry(
                    channel, delay_s=delay, frame=frame_index, attempt=attempt + 1
                )
                recorder.advance(delay)
    return None, failures


def read_counters(
    counts: np.ndarray,
    registers: RegisterFile,
    link: SerialLink,
    sequence: SiteSequence,
    specs: ChipSpecs,
    recorder: Any = None,
    policy: ReadoutPolicy | None = None,
    flip_frames: Mapping[int, list[int]] | None = None,
) -> ReadoutOutcome:
    """Shift one chip's ``counts`` (flat, row-major) out over ``link``.

    Without ``policy`` this is the plain read: the first corrupted frame
    raises :class:`FrameError`.  With one, the resilient read: it never
    raises on corruption, and unrecoverable chunks are zero-filled with
    their counter spans reported in ``dead_sites``.  ``flip_frames``
    maps response-chunk index -> bit positions to invert on every
    crossing of that chunk; an index outside the shift-out raises
    ``ValueError``.  ``recorder`` (duck-typed, see :mod:`repro.trace`)
    gets the readout phase, one sample slot per site and, in the
    resilient mode, the controller's decisions.
    """
    # Only the resilient mode draws the injector's off-wire faults.
    injector = getattr(link, "injector", None) if policy is not None else None
    outcome = ReadoutOutcome()
    if recorder is not None:
        mode = "serial" if policy is None else "resilient serial"
        recorder.seq_state("readout", detail=f"{mode} counter shift-out")

    if policy is not None:
        # Register integrity: the shadow is what the host believes it wrote.
        expected = registers.dump()
        if injector is not None:
            injector.corrupt_registers(registers)
        if policy.verify_registers:
            _verify_registers(registers, expected, outcome, recorder)
    if injector is not None:
        stuck = injector.stuck_sites(specs.sites, (1 << specs.counter_bits) - 1)
        if stuck:
            counts = counts.copy()
            for site, value in stuck:
                counts[site] = value

    payload = pack_counters(counts.tolist(), specs.counter_bits)
    # Large payloads are split into <=255-byte frames.
    chunk = counter_chunk_bytes(specs.counter_bits)
    starts = range(0, len(payload), chunk)
    outcome.frames_total = len(starts)
    flip_frames = flip_frames or {}
    outside = sorted(index for index in flip_frames if index not in range(len(starts)))
    if outside:
        raise ValueError(
            f"flip chunk {outside[0]} is outside the shift-out, which has "
            f"{len(starts)} chunk(s)"
        )

    request, _ = _transfer(
        link,
        Frame(Command.READ_COUNTERS, 0x00),
        HOST_TO_CHIP,
        policy,
        outcome,
        recorder,
        frame_index=None,
        channel="serial.request",
    )
    if request is None:
        # The chip never saw the command: the whole array is lost.
        if recorder is not None:
            recorder.readout_giveup(
                "serial.request", attempts=policy.max_retries + 1, sites_lost=specs.sites
            )
        outcome.frames_lost = len(starts)
        outcome.counters = [0] * specs.sites
        outcome.dead_sites = tuple(range(specs.sites))
        return outcome

    if recorder is not None:
        # One sample-slot event per site, timestamped by the
        # SiteSequence schedule relative to the start of shift-out.
        base = recorder.now
        for row in range(specs.rows):
            for col in range(specs.cols):
                recorder.seq_sample(
                    row,
                    col,
                    time_s=base + sequence.site_time_s(row, col),
                    slot_s=sequence.site_slot_s,
                    slot=row * specs.cols + col,
                )

    bytes_per_counter = specs.counter_bits // 8
    received = bytearray()
    dead: list[int] = []
    for index, start in enumerate(starts):
        part = payload[start : start + chunk]
        if injector is not None:
            stall = injector.stall_s(index)
            if stall > 0.0:
                outcome.stall_s_total += stall
                if recorder is not None:
                    recorder.advance(stall)
        roundtrip, failures = _transfer(
            link,
            link.respond(part),
            CHIP_TO_HOST,
            policy,
            outcome,
            recorder,
            frame_index=index,
            channel="serial",
            flip_bits=flip_frames.get(index),
        )
        if failures:
            outcome.frames_corrupted += 1
        if roundtrip is None:
            outcome.frames_lost += 1
            first = start // bytes_per_counter
            n_sites = len(part) // bytes_per_counter
            dead.extend(range(first, first + n_sites))
            if recorder is not None:
                recorder.readout_giveup(
                    "serial", attempts=policy.max_retries + 1, frame=index, sites_lost=n_sites
                )
            received.extend(bytes(len(part)))
        else:
            if failures:
                outcome.frames_recovered += 1
                if recorder is not None:
                    recorder.readout_recover("serial", attempts=failures + 1, frame=index)
            received.extend(roundtrip.payload)

    outcome.counters = unpack_counters(bytes(received), specs.counter_bits)
    outcome.dead_sites = tuple(dead)
    return outcome


def read_counters_resilient(
    counts: np.ndarray,
    registers: RegisterFile,
    link: SerialLink,
    sequence: SiteSequence,
    specs: ChipSpecs,
    recorder: Any = None,
    policy: ReadoutPolicy | None = None,
) -> ReadoutOutcome:
    """:func:`read_counters` under ``policy`` (default
    :class:`ReadoutPolicy`): identical counters to the plain read when
    nothing is injected, and never a raise on corruption."""
    return read_counters(
        counts, registers, link, sequence, specs, recorder, policy or ReadoutPolicy()
    )
