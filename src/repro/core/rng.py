"""Deterministic random-number management.

Every stochastic model in the library accepts either a seed (int), a
``numpy.random.Generator`` or ``None`` (fresh entropy).  Routing all
conversions through :func:`ensure_rng` keeps Monte-Carlo experiments
reproducible and lets tests pin seeds without monkeypatching globals.
"""

from __future__ import annotations

import hashlib
from typing import Iterator, Union

import numpy as np

RngLike = Union[None, int, np.random.Generator]


def ensure_rng(rng: RngLike = None) -> np.random.Generator:
    """Coerce ``rng`` into a ``numpy.random.Generator``.

    ``None`` creates a generator from OS entropy, an ``int`` seeds a new
    PCG64 generator, and an existing generator is passed through
    unchanged (so state is shared with the caller).
    """
    if rng is None:
        return np.random.default_rng()
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, (int, np.integer)):
        return np.random.default_rng(int(rng))
    raise TypeError(f"cannot build a Generator from {type(rng).__name__}")


def spawn_child(rng: RngLike, index: int) -> np.random.Generator:
    """Derive an independent child generator for sub-component ``index``.

    Used by array models so that pixel *k* gets its own stream: drawing
    extra samples for one pixel does not perturb its neighbours, which
    keeps Monte-Carlo comparisons (e.g. calibration on/off) paired.
    """
    if index < 0:
        raise ValueError(f"index must be non-negative, got {index}")
    parent = ensure_rng(rng)
    seed = int(parent.integers(0, 2**63 - 1)) ^ (0x9E3779B97F4A7C15 * (index + 1) % 2**63)
    return np.random.default_rng(seed)


def spawn_children(rng: RngLike, count: int) -> list[np.random.Generator]:
    """Return ``count`` independent child generators."""
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    parent = ensure_rng(rng)
    seeds = parent.integers(0, 2**63 - 1, size=count)
    # Generator(PCG64(seed)) is what default_rng(seed) builds, without
    # its per-call dispatch.
    return [np.random.Generator(np.random.PCG64(int(seed))) for seed in seeds]


# NumPy's SeedSequence mixing constants (numpy/random/bit_generator.pyx)
# and PCG64's 128-bit LCG multiplier.
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_consts(init: int, mult: int, calls: int) -> list[tuple[np.uint32, np.uint32]]:
    """(xor, multiply) pair of each successive hash call: every call
    xors with the running constant, advances it, then multiplies."""
    consts = [init]
    for _ in range(calls):
        consts.append(consts[-1] * mult & _MASK32)
    return [(np.uint32(a), np.uint32(b)) for a, b in zip(consts, consts[1:])]


# A seed below 2**63 is at most two entropy words, within the pool of
# four, so mix_entropy makes 4 + 4*3 hashmix calls; generate_state(4,
# uint64) hashes 8 words.
_HASHMIX = _hash_consts(0x43B0D7E5, 0x931E8875, 16)
_GENERATE = _hash_consts(0x8B51F9DD, 0x58F38DED, 8)
_MIX_L = np.uint32(0xCA01F9DD)
_MIX_R = np.uint32(0x4973F715)


def _hashmix(value: np.ndarray, call: int) -> np.ndarray:
    xor, mult = _HASHMIX[call]
    value = (value ^ xor) * mult
    return value ^ (value >> 16)


def _pcg64_states(seeds: np.ndarray) -> list[tuple[int, int]]:
    """``(state, inc)`` of ``PCG64(int(seed))`` for every seed at once.

    NumPy's ``SeedSequence(seed)`` hash with pool size 4, evaluated in
    uint32 lanes (a seed below 2**32 has one entropy word; the missing
    word hashes as zero either way), then PCG64's ``set_seed``:
    ``inc = seq << 1 | 1`` and two LCG steps from a zero state.
    """
    seeds = seeds.astype(np.uint64)
    low = (seeds & np.uint64(_MASK32)).astype(np.uint32)
    high = (seeds >> np.uint64(32)).astype(np.uint32)
    zero = np.zeros_like(low)
    pool = [_hashmix(word, call) for call, word in enumerate((low, high, zero, zero))]
    call = len(pool)
    for src in range(len(pool)):
        for dst in range(len(pool)):
            if src != dst:
                hashed = _hashmix(pool[src], call)
                call += 1
                mixed = _MIX_L * pool[dst] - _MIX_R * hashed
                pool[dst] = mixed ^ (mixed >> 16)
    words = []
    for index, (xor, mult) in enumerate(_GENERATE):
        value = (pool[index % len(pool)] ^ xor) * mult
        words.append((value ^ (value >> 16)).astype(np.uint64))
    # generate_state(4, uint64) views the 8 words as little-endian pairs.
    seed_hi, seed_lo, seq_hi, seq_lo = (
        (words[2 * k] | (words[2 * k + 1] << np.uint64(32))).tolist() for k in range(4)
    )
    states = []
    for s_hi, s_lo, q_hi, q_lo in zip(seed_hi, seed_lo, seq_hi, seq_lo):
        inc = ((q_hi << 64 | q_lo) << 1 | 1) & _MASK128
        start = (inc + (s_hi << 64 | s_lo)) & _MASK128
        states.append(((start * _PCG64_MULTIPLIER + inc) & _MASK128, inc))
    return states


def child_streams(rng: RngLike, count: int) -> Iterator[np.random.Generator]:
    """The children of ``spawn_children(rng, count)``, one at a time.

    Consumes the parent exactly as :func:`spawn_children` does and
    yields one reused generator, re-seeded in turn to each child's
    state: a yielded generator is valid only until the next one is
    requested.  The seeding runs as one vectorized pass, so callers that
    draw from each child in turn (a chip's pixels) skip building
    ``count`` ``PCG64`` objects.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    parent = ensure_rng(rng)
    states = _pcg64_states(parent.integers(0, 2**63 - 1, size=count))
    return _reseeded(states)


def _reseeded(states: list[tuple[int, int]]) -> Iterator[np.random.Generator]:
    bit_generator = np.random.PCG64(0)
    generator = np.random.Generator(bit_generator)
    for state, inc in states:
        bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield generator


def stable_entropy(*parts: object) -> tuple[int, ...]:
    """Hash arbitrary path components into four uint32 words.

    The mapping is stable across processes and Python versions (it feeds
    ``repr`` through SHA-256 rather than ``hash()``, which is salted), so
    it can key :class:`numpy.random.SeedSequence` spawn trees whose layout
    must be reproducible run-to-run.
    """
    digest = hashlib.sha256()
    for part in parts:
        digest.update(repr(part).encode("utf-8"))
        digest.update(b"\x1f")
    raw = digest.digest()
    return tuple(int.from_bytes(raw[i : i + 4], "little") for i in range(0, 16, 4))


class SeedTree:
    """A deterministic tree of named random streams.

    One root seed fans out into independent :class:`numpy.random.Generator`
    streams addressed by a path of strings/ints, e.g.
    ``tree.generator("chip", key)``.  Streams depend only on
    ``(root, path)`` — never on the order or number of previous requests —
    so callers can draw sub-streams lazily, in parallel, or repeatedly and
    always get the same bits.  This replaces hand-numbered seeds
    (``rng=1`` for the chip, ``rng=2`` for calibration, ...) with a single
    root plus self-describing stream names.
    """

    def __init__(self, root: int = 0) -> None:
        self.root = int(root)

    def __repr__(self) -> str:
        return f"SeedTree(root={self.root})"

    def sequence(self, *path: object) -> np.random.SeedSequence:
        """SeedSequence for the stream addressed by ``path``."""
        if not path:
            raise ValueError("a stream path needs at least one component")
        return np.random.SeedSequence(entropy=self.root, spawn_key=stable_entropy(*path))

    def generator(self, *path: object) -> np.random.Generator:
        """Fresh Generator for the stream addressed by ``path``."""
        return np.random.default_rng(self.sequence(*path))


class StreamPlan:
    """A workload's named stream paths, hashed once, for any root seed.

    ``plan.generators(root)[name]`` is exactly
    ``SeedTree(root).generator(*paths[name])``; the paths are hashed at
    construction, so a caller evaluating many roots of one spec (a
    campaign group, a wafer's dies) pays only for the generators.
    """

    def __init__(self, paths: dict[str, tuple[object, ...]]) -> None:
        self.spawn_keys = {name: stable_entropy(*path) for name, path in paths.items()}
        self.streams = {name: [str(part) for part in path] for name, path in paths.items()}

    def generators(self, root: int) -> dict[str, np.random.Generator]:
        """One fresh generator per named stream under ``root``."""
        return {
            name: np.random.default_rng(np.random.SeedSequence(entropy=root, spawn_key=key))
            for name, key in self.spawn_keys.items()
        }

    def provenance(self, root: int) -> dict[str, object]:
        """The ``seeds`` block a result built from ``root`` records."""
        return {"root": root, "streams": self.streams}
