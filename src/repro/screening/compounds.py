"""Compound libraries for the drug-screening funnel (Fig. 1).

"... aiming to identify one (combination of) compound(s) out of millions
of (combinations of) compounds from a library as a suitable drug for a
given purpose."

Each compound carries latent ground truth (is it actually a viable
drug?) plus continuous scores that the noisy per-stage assays observe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.rng import RngLike, ensure_rng


@dataclass
class CompoundLibrary:
    """A library of candidate compounds with hidden ground truth.

    Attributes
    ----------
    is_viable:
        Boolean ground truth per compound (would survive all stages in
        a perfect world).
    binding_score, cell_score, safety_score:
        Latent per-compound qualities in [0, 1] that the molecular,
        cell-based and animal/clinical stages respectively probe.
        Viable compounds score high on all three.
    """

    size: int
    is_viable: np.ndarray
    binding_score: np.ndarray
    cell_score: np.ndarray
    safety_score: np.ndarray

    @classmethod
    def generate(
        cls,
        size: int = 100_000,
        viable_rate: float = 1e-4,
        rng: RngLike = None,
    ) -> "CompoundLibrary":
        """Draw a library with ``viable_rate`` true positives.

        Viable compounds have scores Beta(8, 2)-distributed (high);
        non-viable ones Beta(2, 6) (low, with an overlapping tail that
        produces the false positives every real screen fights).
        """
        if size < 1:
            raise ValueError("library must contain at least one compound")
        if not 0.0 <= viable_rate <= 1.0:
            raise ValueError("viable rate must lie in [0, 1]")
        generator = ensure_rng(rng)
        viable = generator.uniform(size=size) < viable_rate
        # Guarantee at least one viable compound so funnels terminate
        # meaningfully in small test libraries.
        if not viable.any() and viable_rate > 0:
            viable[int(generator.integers(0, size))] = True

        def scores(flag: np.ndarray) -> np.ndarray:
            out = np.empty(size)
            n_pos = int(flag.sum())
            out[flag] = generator.beta(8.0, 2.0, size=n_pos)
            out[~flag] = generator.beta(2.0, 6.0, size=size - n_pos)
            return out

        return cls(
            size=size,
            is_viable=viable,
            binding_score=scores(viable),
            cell_score=scores(viable),
            safety_score=scores(viable),
        )

    def viable_count(self) -> int:
        return int(self.is_viable.sum())

    def subset(self, mask: np.ndarray) -> "CompoundLibrary":
        """Surviving sub-library after a screening stage."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self.size,):
            raise ValueError("mask shape must match library size")
        return CompoundLibrary(
            size=int(mask.sum()),
            is_viable=self.is_viable[mask],
            binding_score=self.binding_score[mask],
            cell_score=self.cell_score[mask],
            safety_score=self.safety_score[mask],
        )
