"""Canonical content keys — the address space of the result cache.

The Runner guarantees that a run's numbers are a pure function of
``(spec, seed, backend, engine version)``: same four inputs, bit-identical
ResultSet.  That invariant is what makes a *content-addressed* cache
provably correct — if the key matches, the cached bytes ARE the answer,
no staleness policy needed.  This module defines that key.

Hashing JSON is only sound if the serialization is canonical, so
:func:`canonicalize` normalises every representation detail that does
not change the computation.  Its walk is the shared value normalizer,
:func:`repro.core.values.plain`:

* **dtype wrappers** — numpy scalars collapse to their Python values
  (``np.float64(1e-6)`` and ``1e-6`` hash identically; ``np.int64``
  would not even serialize otherwise), numpy arrays to nested lists;
* **sequence spelling** — tuples and lists hash identically (specs
  store tuples, JSON round-trips produce lists);
* **dict keys** — coerced to ``str``, and emitted sorted (two dicts
  built in different insertion orders hash identically).

On top of that walk the key layer adds its own rules:

* **float text** — ``json.dumps`` already emits ``repr``-shortest
  floats, which is process- and platform-stable for IEEE doubles; we
  reject NaN/Infinity outright because their JSON spellings are not
  interoperable (and no spec should carry them);
* **no guessing** — a value with no canonical JSON form (a set, an
  arbitrary object) raises instead of hashing its ``repr``.

Everything here is stdlib-only and import-light: ``ExperimentSpec
.spec_hash()`` reaches in lazily without dragging the whole service
subsystem (or an import cycle) behind it.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Any, Mapping

from ..core.values import plain

#: Schema tag baked into every point key; bump on incompatible changes
#: to the key derivation itself (a bump invalidates every cache).
KEY_SCHEMA = "repro-key/1"


def _canonical_scalar(value: Any) -> Any:
    """The key rules on one plain scalar: finite floats only, and no
    type without a canonical JSON form."""
    # Bool first: bool is an int subclass but must stay bool.
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, int):
        return int(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"non-finite float {value!r} has no canonical JSON form")
        return float(value)
    raise TypeError(f"cannot canonicalize {type(value).__name__} value {value!r}")


def canonicalize(value: Any) -> Any:
    """Reduce ``value`` to plain JSON types with a canonical shape.

    Dicts keep their (sorted-at-dump-time) keys coerced to ``str``,
    sequences become lists, numpy scalars/arrays become their Python
    equivalents.  Raises ``TypeError`` for values with no canonical JSON
    form and ``ValueError`` for non-finite floats.
    """
    return plain(value, _canonical_scalar)


def canonical_json(value: Any) -> str:
    """The canonical serialization: sorted keys, no whitespace, ASCII.

    Two semantically equal values (up to the normalisations of
    :func:`canonicalize`) always produce byte-identical text — the
    property every hash below rests on.
    """
    return json.dumps(
        canonicalize(value),
        sort_keys=True,
        separators=(",", ":"),
        ensure_ascii=True,
        allow_nan=False,
    )


def content_digest(value: Any) -> str:
    """SHA-256 hex digest of ``value``'s canonical JSON."""
    return hashlib.sha256(canonical_json(value).encode("utf-8")).hexdigest()


def point_key(
    spec_dict: Mapping[str, Any], seed: int, backend: str, engine_version: str
) -> str:
    """The content address of one campaign point's result.

    ``spec_dict`` is the spec's ``to_dict()`` payload (dict or spec-
    shaped mapping; field order irrelevant), ``seed`` the Runner root
    seed the point runs under, ``backend`` the *resolved* compute
    backend (a plan point's ``backend``), and ``engine_version`` the
    library version that owns the numbers.  Any difference in any
    component yields a different key; representation differences (tuple
    vs list, np.float64 vs float, dict insertion order) never do.
    """
    return content_digest(
        {
            "schema": KEY_SCHEMA,
            "spec": dict(spec_dict),
            "seed": int(seed),
            "backend": str(backend),
            "version": str(engine_version),
        }
    )


def spec_key(spec_dict: Mapping[str, Any]) -> str:
    """Content hash of a spec payload alone (no seed/backend/version) —
    what ``ExperimentSpec.spec_hash()`` / ``AnalysisSpec.spec_hash()``
    return."""
    return content_digest(dict(spec_dict))
