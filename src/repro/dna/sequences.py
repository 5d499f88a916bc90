"""DNA sequence algebra.

Probes on the microarray are 15-40-mers (Fig. 2 caption); targets are up
to 2-3 orders of magnitude longer.  The hybridization model only needs
the probe-facing subsequence, so targets carry a recognition region plus
a nominal total length.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.rng import RngLike, ensure_rng

_BASES = "ACGT"
_COMPLEMENT = {"A": "T", "T": "A", "C": "G", "G": "C"}


class DnaSequence:
    """An immutable 5'->3' DNA string over {A, C, G, T}."""

    __slots__ = ("_bases",)

    def __init__(self, bases: str) -> None:
        bases = bases.upper().replace(" ", "")
        if not bases:
            raise ValueError("empty DNA sequence")
        invalid = set(bases) - set(_BASES)
        if invalid:
            raise ValueError(f"invalid bases {sorted(invalid)} in sequence")
        self._bases = bases

    # ------------------------------------------------------------------
    # Basics
    # ------------------------------------------------------------------
    def __str__(self) -> str:
        return self._bases

    def __repr__(self) -> str:
        return f"DnaSequence({self._bases!r})"

    def __len__(self) -> int:
        return len(self._bases)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, DnaSequence):
            return self._bases == other._bases
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._bases)

    def __getitem__(self, index) -> str:
        return self._bases[index]

    # ------------------------------------------------------------------
    # Biology
    # ------------------------------------------------------------------
    def complement(self) -> "DnaSequence":
        """Base-wise complement (not reversed)."""
        return DnaSequence("".join(_COMPLEMENT[b] for b in self._bases))

    def reverse_complement(self) -> "DnaSequence":
        """The strand that hybridizes with this one."""
        return DnaSequence("".join(_COMPLEMENT[b] for b in reversed(self._bases)))

    def gc_content(self) -> float:
        """Fraction of G/C bases (duplex stability proxy)."""
        gc = sum(1 for b in self._bases if b in "GC")
        return gc / len(self._bases)

    def melting_temperature_c(self) -> float:
        """Approximate duplex melting temperature in Celsius.

        Wallace rule for short oligos (<14), GC-fraction formula
        otherwise — accurate enough to rank probe stabilities.
        """
        n = len(self._bases)
        at = sum(1 for b in self._bases if b in "AT")
        gc = n - at
        if n < 14:
            return 2.0 * at + 4.0 * gc
        return 64.9 + 41.0 * (gc - 16.4) / n

    def mismatches_against(self, probe: "DnaSequence") -> int:
        """Number of mismatched positions when ``probe`` is aligned
        against the reverse complement of this sequence's best window.

        The probe hybridizes to a target if the target contains a region
        (anti-)complementary to it.  We slide the probe's reverse
        complement along this sequence and return the minimum Hamming
        distance over all alignments (full overlap only).
        """
        pattern = str(probe.reverse_complement())
        text = self._bases
        if len(pattern) > len(text):
            # Probe longer than target region: count overhang as mismatch.
            best = self._hamming(pattern[: len(text)], text) + (len(pattern) - len(text))
            return best
        best = len(pattern)
        for start in range(len(text) - len(pattern) + 1):
            window = text[start : start + len(pattern)]
            distance = self._hamming(pattern, window)
            if distance < best:
                best = distance
                if best == 0:
                    break
        return best

    def is_perfect_match_for(self, probe: "DnaSequence") -> bool:
        return self.mismatches_against(probe) == 0

    @staticmethod
    def _hamming(a: str, b: str) -> int:
        return sum(1 for x, y in zip(a, b) if x != y)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def random(cls, length: int, rng: RngLike = None) -> "DnaSequence":
        if length < 1:
            raise ValueError("length must be positive")
        generator = ensure_rng(rng)
        indices = generator.integers(0, 4, size=length)
        return cls("".join(_BASES[i] for i in indices))

    def with_mismatches(self, count: int, rng: RngLike = None) -> "DnaSequence":
        """Return a copy with exactly ``count`` point substitutions —
        used to build the Fig. 2 mismatch test sites."""
        if not 0 <= count <= len(self):
            raise ValueError(f"cannot place {count} mismatches in a {len(self)}-mer")
        generator = ensure_rng(rng)
        positions = generator.choice(len(self), size=count, replace=False)
        bases = list(self._bases)
        for pos in positions:
            current = bases[pos]
            alternatives = [b for b in _BASES if b != current]
            bases[pos] = alternatives[int(generator.integers(0, 3))]
        return DnaSequence("".join(bases))


@dataclass(frozen=True)
class Probe:
    """An immobilized receptor oligo at a known array position."""

    name: str
    sequence: DnaSequence

    def __post_init__(self) -> None:
        if not 5 <= len(self.sequence) <= 60:
            raise ValueError(
                f"probe length {len(self.sequence)} outside practical 5-60 bases"
            )


@dataclass(frozen=True)
class Target:
    """A sample molecule: recognition region plus nominal full length.

    Real targets are "up to 2-3 orders of magnitude longer" than probes
    (Fig. 2 caption); ``total_length`` carries that without storing
    kilobases of sequence.
    """

    name: str
    recognition: DnaSequence
    total_length: int = 0

    def __post_init__(self) -> None:
        if self.total_length and self.total_length < len(self.recognition):
            raise ValueError("total_length cannot be below the recognition region")

    @property
    def length(self) -> int:
        return self.total_length or len(self.recognition)

    def mismatches_with(self, probe: Probe) -> int:
        return self.recognition.mismatches_against(probe.sequence)


def perfect_target_for(probe: Probe, total_length: int = 0, name: str | None = None) -> Target:
    """The fully complementary target of a probe."""
    return Target(
        name=name or f"{probe.name}-target",
        recognition=probe.sequence.reverse_complement(),
        total_length=total_length,
    )
