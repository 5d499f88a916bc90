"""Deterministic random-number management.

Every stochastic model in the library accepts either a seed (int), a
``numpy.random.Generator`` or ``None`` (fresh entropy).  Routing all
conversions through :func:`ensure_rng` keeps Monte-Carlo experiments
reproducible and lets tests pin seeds without monkeypatching globals.
"""

from __future__ import annotations

import hashlib
from typing import Union

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
