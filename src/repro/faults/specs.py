"""Frozen, serializable fault specifications.

The fault taxonomy models the digital-readout failure modes the paper's
6-pin serial architecture is exposed to in the field:

=================  =========================================================
kind               what it corrupts
=================  =========================================================
serial_bitflip     bits on the DIN/DOUT wires (per-frame occurrence)
sequencer_stall    extra dead time before a response chunk shifts out
register_corrupt   stored configuration-register bits (per readout)
stuck_pixel        a site's counter latched at zero or full scale
=================  =========================================================

Each spec is a frozen dataclass carrying only JSON-serializable scalars,
so a fault list rides inside an :class:`~repro.experiments.specs
.ExperimentSpec` unchanged: it hashes into ``content_hash()``, round
trips through ``to_dict``/``from_dict`` (the process-executor boundary),
and sweeps as an ordinary campaign axis (``faults.rate``).

*When* a fault fires is decided by :class:`~repro.faults.injector
.FaultInjector` drawing from a named SeedTree stream — the occurrence
pattern is a pure function of ``(spec, seed)``, never of wall clock,
thread timing or executor choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Union

from ..core.specs import KindRegistry, Spec


@dataclass(frozen=True)
class FaultSpec(Spec):
    """Base class: a rate plus kind-specific knobs, all serializable."""

    rate: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(
                f"{type(self).__name__}.rate must lie in [0, 1], got {self.rate}"
            )


FAULTS = KindRegistry("fault", FaultSpec)
register_fault = FAULTS.register
fault_kinds = FAULTS.kinds
fault_from_dict = FAULTS.from_dict


@register_fault("serial_bitflip")
@dataclass(frozen=True)
class SerialBitflipFault(FaultSpec):
    """Bit corruption on the serial wires.

    With probability ``rate`` per frame crossing a matching wire,
    ``n_flips`` bit positions (drawn uniformly over the frame's bit
    stream) are inverted.  The frame checksum catches any flip set that
    changes the byte sum mod 256; sets that preserve it decode cleanly
    and become *silent* corruption.
    """

    n_flips: int = 1
    direction: str = "chip_to_host"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.n_flips < 1:
            raise ValueError(f"n_flips must be >= 1, got {self.n_flips}")
        if self.direction not in ("chip_to_host", "host_to_chip", "both"):
            raise ValueError(
                f"direction must be chip_to_host/host_to_chip/both, "
                f"got {self.direction!r}"
            )


@register_fault("sequencer_stall")
@dataclass(frozen=True)
class SequencerStallFault(FaultSpec):
    """A scan-sequencer hiccup: with probability ``rate`` per response
    chunk, ``stall_s`` of dead simulated time elapses before the chunk
    shifts out.  Purely temporal — visible in the trace clock, never in
    the decoded bytes."""

    stall_s: float = 1e-4

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.stall_s <= 0.0:
            raise ValueError(f"stall_s must be positive, got {self.stall_s}")


@register_fault("register_corrupt")
@dataclass(frozen=True)
class RegisterCorruptFault(FaultSpec):
    """Configuration-register upset: with probability ``rate`` per
    register per readout, ``n_bits`` stored bits flip.  The resilient
    controller's read-back verify detects the mismatch against the host
    shadow and rewrites host-writable registers."""

    n_bits: int = 1

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.n_bits < 1:
            raise ValueError(f"n_bits must be >= 1, got {self.n_bits}")


@register_fault("stuck_pixel")
@dataclass(frozen=True)
class StuckPixelFault(FaultSpec):
    """A site's counter latched at a rail: each site is stuck with
    probability ``rate``, reading all zeros (``mode="zero"``) or full
    scale (``mode="full"``).  Checksums cannot catch it — the corruption
    happens before packing — so stuck sites are the canonical *silent*
    failure the ``fault_tolerance`` analysis quantifies."""

    mode: str = "zero"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.mode not in ("zero", "full"):
            raise ValueError(f"mode must be zero/full, got {self.mode!r}")


FaultLike = Union[FaultSpec, Mapping[str, Any]]


def as_fault(entry: FaultLike) -> FaultSpec:
    """Coerce a FaultSpec or mapping to a validated FaultSpec."""
    if isinstance(entry, FaultSpec):
        return entry
    if isinstance(entry, Mapping):
        return fault_from_dict(entry)
    raise TypeError(
        f"fault entries must be FaultSpec or mapping, got {type(entry).__name__}"
    )


def normalize_faults(entries: Any) -> tuple[dict[str, Any], ...]:
    """Validate and canonicalize a fault list to a tuple of plain dicts.

    This is the storage form on experiment specs: plain dicts survive
    JSON and the process-executor ``to_dict``/``from_dict`` round trip
    byte-identically, and the entry *order* is part of the spec — the
    injector draws per entry in list order, so order is hashed.
    """
    if entries is None:
        return ()
    if isinstance(entries, (str, bytes, Mapping)):
        raise TypeError("faults must be a sequence of fault entries")
    return tuple(as_fault(entry).to_dict() for entry in entries)
