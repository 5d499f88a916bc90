"""Frozen, serializable specs and the registries that name their kinds.

Experiment, analysis and fault specs share one shape: a frozen
dataclass registered under a string ``kind``, with no imperative state
and no RNG objects, so the same spec can be re-run, swept, hashed or
shipped over the wire as plain JSON.  Each family keeps one
:class:`KindRegistry`, which is what makes tooling round trip
``spec -> to_dict() -> registry.from_dict()`` without knowing the
concrete type up front.  A spec may also declare facets (slices of its
fields, :class:`Facet`) that :meth:`Spec.facet` renders as frozen JSON
text through the one value normalizer, :func:`repro.core.values.plain`.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Any, Callable, ClassVar, Generic, Mapping, NamedTuple, Optional, TypeVar

from .values import plain


class Facet(NamedTuple):
    """A declared slice of a spec that keys shared streams and caches.

    ``Facet("dna_chip", ("rows", "cols"))`` renders
    ``{"cols": ..., "kind": "dna_chip", "rows": ...}``.  A facet built by
    :func:`all_fields_except` (``tag`` ``None``) renders the whole
    ``to_dict()``, tagged with the spec's own kind, minus ``fields``.
    """

    tag: Optional[str]
    fields: tuple[str, ...]


def all_fields_except(*fields: str) -> Facet:
    """The facet of every field but ``fields`` (analysis-only knobs)."""
    return Facet(None, fields)


SpecT = TypeVar("SpecT", bound="Spec")

#: ``json.dumps(value, sort_keys=True)``, without an encoder built per call.
_SORTED_JSON = json.JSONEncoder(sort_keys=True)


@dataclass(frozen=True)
class Spec:
    """Common serialization / hashing machinery for every spec family."""

    kind: ClassVar[str] = ""
    #: ``name -> Facet``: the slices :meth:`facet` renders.
    facets: ClassVar[Mapping[str, Facet]] = {}

    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {"kind": self.kind}
        for field in dataclasses.fields(self):
            data[field.name] = plain(getattr(self, field.name))
        return data

    @classmethod
    def from_dict(cls: type[SpecT], data: Mapping[str, Any]) -> SpecT:
        payload = dict(data)
        kind = payload.pop("kind", cls.kind)
        if kind != cls.kind:
            raise ValueError(f"{cls.__name__} cannot load kind {kind!r}")
        names = {field.name for field in dataclasses.fields(cls)}
        unknown = set(payload) - names
        if unknown:
            raise ValueError(f"unknown fields for {cls.__name__}: {sorted(unknown)}")
        coerced = {
            key: tuple(value) if isinstance(value, list) else value
            for key, value in payload.items()
        }
        return cls(**coerced)

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls: type[SpecT], payload: str) -> SpecT:
        return cls.from_dict(json.loads(payload))

    def facet(self, name: str) -> str:
        """The declared facet ``name`` as frozen JSON text.

        Frozen format: facet strings seed random streams and key shared
        substrates (chips, layouts, libraries), so their bytes never
        change without changing every downstream random number.
        """
        try:
            tag, fields = self.facets[name]
        except KeyError:
            raise KeyError(
                f"{type(self).__name__} declares no facet {name!r}; "
                f"declared: {sorted(self.facets)}"
            ) from None
        if tag is None:
            data = self.to_dict()
            for excluded in fields:
                del data[excluded]
        else:
            data = {"kind": tag}
            for field in fields:
                data[field] = plain(getattr(self, field))
        return _SORTED_JSON.encode(data)

    def replace(self: SpecT, **changes: Any) -> SpecT:
        """Functional update — the idiom for sweeps:
        ``[spec.replace(concentration=c) for c in standards]``."""
        return dataclasses.replace(self, **changes)

    def spec_hash(self) -> str:
        """Canonical, process-stable content hash of the spec.

        The digest runs through :mod:`repro.service.keys`
        canonicalisation — sorted keys, numpy scalars collapsed,
        tuple/list spelling unified — so two semantically identical
        specs hash identically whatever process, platform or
        construction path produced them.  This is the spec facet of the
        result cache's :func:`~repro.service.keys.point_key`.
        """
        from ..service.keys import spec_key

        return spec_key(self.to_dict())


class KindRegistry(Generic[SpecT]):
    """The ``kind -> spec class`` table of one spec family.

    ``noun`` names the family in error messages (``"experiment"``,
    ``"analysis"``, ``"fault"``); ``base`` is the class every
    registered spec must derive from.
    """

    def __init__(self, noun: str, base: type[SpecT]) -> None:
        self.noun = noun
        self.base = base
        self.types: dict[str, type[SpecT]] = {}

    def register(self, kind: str) -> Callable[[type], type]:
        """Class decorator: register a spec class under ``kind``."""

        def decorate(cls: type) -> type:
            if not issubclass(cls, self.base):
                article = "an" if self.base.__name__[0] in "AEIOU" else "a"
                raise TypeError(f"{cls.__name__} is not {article} {self.base.__name__}")
            existing = self.types.get(kind)
            if existing is not None and existing is not cls:
                raise ValueError(
                    f"{self.noun} kind {kind!r} already registered to {existing.__name__}"
                )
            cls.kind = kind
            self.types[kind] = cls
            return cls

        return decorate

    def kinds(self) -> list[str]:
        """All registered kinds, sorted."""
        return sorted(self.types)

    def type_of(self, kind: str) -> type[SpecT]:
        """The spec class registered under ``kind``."""
        try:
            return self.types[kind]
        except KeyError:
            raise KeyError(
                f"unknown {self.noun} kind {kind!r}; registered kinds: {self.kinds()}"
            ) from None

    def from_dict(self, data: Mapping[str, Any]) -> SpecT:
        """Rebuild any registered spec from its ``to_dict()`` payload."""
        if "kind" not in data:
            raise ValueError(f"{self.noun} dict needs a 'kind' entry")
        return self.type_of(data["kind"]).from_dict(data)
