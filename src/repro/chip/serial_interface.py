"""The 6-pin serial interface (Section 2).

"... and 6 pin interface for power supply and serial digital data
transmission."  Pins: VDD, GND, CLK, DIN, DOUT, CS.  Everything —
register writes, assay triggers, counter readout — crosses these two
data pins as framed byte packets:

    [SOF 0xA5] [CMD] [ADDR] [LEN] [PAYLOAD x LEN] [CHKSUM]

CHKSUM is the two's-complement of the byte sum so the full frame sums to
zero mod 256.  The model is bit-accurate: bytes are serialised MSB-first
and can be corrupted per-bit for failure-injection tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import Any


SOF = 0xA5

PINS = ("VDD", "GND", "CLK", "DIN", "DOUT", "CS")

#: Direction tags of the wire a frame crosses: host -> chip is DIN,
#: chip -> host is DOUT.  Shared with the trace layer's event payloads.
HOST_TO_CHIP = "->"
CHIP_TO_HOST = "<-"

#: Most recent transcript entries a link keeps.  A cached chip's link
#: lives as long as its Runner, so an unbounded transcript would hold
#: every frame of every point; a full 16x8 readout is ~10 entries.
TRANSCRIPT_ENTRIES = 1024


class Command(IntEnum):
    """Host-to-chip command opcodes."""

    WRITE_REG = 0x01
    READ_REG = 0x02
    RUN_FRAME = 0x03
    READ_COUNTERS = 0x04
    CALIBRATE = 0x05
    RESET = 0x0F


class FrameError(ValueError):
    """Raised when a serial frame fails structural or checksum checks."""


@dataclass(frozen=True)
class Frame:
    """One decoded serial packet."""

    command: Command
    address: int
    payload: bytes = b""

    def __post_init__(self) -> None:
        if not 0 <= self.address <= 0xFF:
            raise FrameError(f"address {self.address} out of byte range")
        if len(self.payload) > 0xFF:
            raise FrameError("payload too long for one frame")


def checksum(data: bytes) -> int:
    """Two's-complement checksum byte."""
    return (-sum(data)) & 0xFF


def encode_frame(frame: Frame) -> bytes:
    """Frame -> raw bytes."""
    body = bytes([SOF, int(frame.command), frame.address, len(frame.payload)]) + frame.payload
    return body + bytes([checksum(body)])


def decode_frame(raw: bytes) -> Frame:
    """Raw bytes -> Frame, validating structure and checksum."""
    if len(raw) < 5:
        raise FrameError(f"frame too short ({len(raw)} bytes)")
    if raw[0] != SOF:
        raise FrameError(f"bad start byte {raw[0]:#04x}")
    length = raw[3]
    expected = 5 + length
    if len(raw) != expected:
        raise FrameError(f"length field says {expected} bytes, got {len(raw)}")
    if sum(raw) & 0xFF:
        raise FrameError("checksum mismatch")
    try:
        command = Command(raw[1])
    except ValueError as exc:
        raise FrameError(f"unknown command {raw[1]:#04x}") from exc
    return Frame(command=command, address=raw[2], payload=bytes(raw[4:4 + length]))


# ---------------------------------------------------------------------------
# Bit-level serialisation (what actually crosses DIN/DOUT)
# ---------------------------------------------------------------------------
def bytes_to_bits(data: bytes) -> list[int]:
    """MSB-first bit expansion."""
    bits = []
    for byte in data:
        bits.extend((byte >> i) & 1 for i in range(7, -1, -1))
    return bits


def bits_to_bytes(bits: list[int]) -> bytes:
    """Inverse of :func:`bytes_to_bits`; length must be a byte multiple."""
    if len(bits) % 8:
        raise FrameError(f"bit stream length {len(bits)} is not a byte multiple")
    if any(b not in (0, 1) for b in bits):
        raise FrameError("bit stream must contain only 0/1")
    out = bytearray()
    for i in range(0, len(bits), 8):
        byte = 0
        for bit in bits[i : i + 8]:
            byte = (byte << 1) | bit
        out.append(byte)
    return bytes(out)


@dataclass
class SerialLink:
    """A host <-> chip link with a transcript and error injection.

    ``flip_bits`` lists bit positions (in the full stream) to corrupt —
    the checksum must catch them.

    The transcript records *both* sides of every wire crossing as
    ``(direction, stage, bytes)`` triples: ``stage`` is ``"sent"`` (what
    the transmitter drove) or ``"received"`` (what arrived after any
    injected corruption), so flipped bits are visible as a byte diff.
    Only the latest :data:`TRANSCRIPT_ENTRIES` entries are kept.
    An optional ``recorder`` (:class:`~repro.trace.TraceRecorder`,
    duck-typed — this module never imports the trace package) gets one
    serial-frame event per transfer and its simulated clock advanced by
    the frame's wire time.

    An optional ``injector`` (:class:`~repro.faults.FaultInjector`,
    duck-typed the same way — this module never imports the faults
    package) is asked for extra flip positions on every transfer; its
    draws are seeded per run, so attached faults stay a pure function
    of ``(spec, seed)``.
    """

    clock_hz: float = 1e6
    transcript: list[tuple[str, str, bytes]] = field(default_factory=list)
    recorder: Any = None
    injector: Any = None

    def transfer(
        self,
        frame: Frame,
        flip_bits: list[int] | None = None,
        direction: str = HOST_TO_CHIP,
    ) -> Frame:
        """Send a frame through the bit-level pipe and decode it again.

        ``direction`` tags which wire the frame crosses
        (:data:`HOST_TO_CHIP` = DIN, :data:`CHIP_TO_HOST` = DOUT).
        """
        raw = encode_frame(frame)
        bits = bytes_to_bits(raw)
        flips = tuple(flip_bits or ())
        if self.injector is not None:
            injected = self.injector.frame_flips(len(bits), direction)
            if injected:
                flips = tuple(sorted(set(flips) | set(injected)))
        for position in flips:
            if not 0 <= position < len(bits):
                raise IndexError(f"bit position {position} outside stream")
            bits[position] ^= 1
        received = bits_to_bytes(bits)
        self.transcript.append((direction, "sent", raw))
        self.transcript.append((direction, "received", received))
        if len(self.transcript) > TRANSCRIPT_ENTRIES:
            del self.transcript[:-TRANSCRIPT_ENTRIES]
        duration_s = len(bits) / self.clock_hz
        try:
            decoded = decode_frame(received)
        except FrameError as exc:
            self._record(frame, direction, raw, received, flips, False, str(exc), duration_s)
            raise
        self._record(frame, direction, raw, received, flips, True, None, duration_s)
        return decoded

    def _record(
        self,
        frame: Frame,
        direction: str,
        raw: bytes,
        received: bytes,
        flips: tuple[int, ...],
        ok: bool,
        error: str | None,
        duration_s: float,
    ) -> None:
        if self.recorder is None:
            return
        self.recorder.serial_frame(
            direction=direction,
            command=frame.command.name,
            address=frame.address,
            length=len(frame.payload),
            sent=raw,
            received=received,
            flipped=flips,
            ok=ok,
            error=error,
            duration_s=duration_s,
        )
        self.recorder.advance(duration_s)

    def transfer_time_s(self, frame: Frame) -> float:
        """Wire time of one frame at the configured clock."""
        return len(bytes_to_bits(encode_frame(frame))) / self.clock_hz

    def respond(self, payload: bytes, command: Command = Command.READ_COUNTERS, address: int = 0) -> Frame:
        """Build a chip-to-host response frame.  The wire crossing (and
        its transcript/trace record) happens when the frame is pushed
        through :meth:`transfer` with ``direction=CHIP_TO_HOST``."""
        return Frame(command=command, address=address, payload=payload)


def pack_counters(counts: list[int], bits_per_counter: int = 24) -> bytes:
    """Serialise pixel counter values for READ_COUNTERS responses."""
    if bits_per_counter % 8:
        raise ValueError("counter width must be a byte multiple for packing")
    nbytes = bits_per_counter // 8
    out = bytearray()
    for count in counts:
        if count < 0 or count >= (1 << bits_per_counter):
            raise ValueError(f"count {count} does not fit {bits_per_counter} bits")
        out.extend(count.to_bytes(nbytes, "big"))
    return bytes(out)


def unpack_counters(data: bytes, bits_per_counter: int = 24) -> list[int]:
    """Inverse of :func:`pack_counters`."""
    if bits_per_counter % 8:
        raise ValueError("counter width must be a byte multiple for packing")
    nbytes = bits_per_counter // 8
    if len(data) % nbytes:
        raise ValueError("data length is not a whole number of counters")
    return [int.from_bytes(data[i : i + nbytes], "big") for i in range(0, len(data), nbytes)]
