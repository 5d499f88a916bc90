"""Deterministic fault injection for the digital readout chain.

``repro.faults`` turns protocol-level failure modes — serial bit flips,
sequencer stalls, register upsets, stuck pixels — into frozen,
serializable spec entries that ride on experiment specs and sweep as
ordinary campaign axes (``--grid faults.rate=...``).  Occurrence
patterns are a pure function of ``(spec, seed)`` via SeedTree-keyed
streams, so the service cache, batched executor and resume machinery
work unchanged.  The chip package never imports this one: injection
reaches the hardware model through the same duck-typed seams the trace
recorder uses.
"""

from .injector import FaultInjector
from .specs import (
    FaultSpec,
    RegisterCorruptFault,
    SequencerStallFault,
    SerialBitflipFault,
    StuckPixelFault,
    as_fault,
    fault_from_dict,
    fault_kinds,
    normalize_faults,
    register_fault,
)

__all__ = [
    "FaultInjector",
    "FaultSpec",
    "RegisterCorruptFault",
    "SequencerStallFault",
    "SerialBitflipFault",
    "StuckPixelFault",
    "as_fault",
    "fault_from_dict",
    "fault_kinds",
    "normalize_faults",
    "register_fault",
]
