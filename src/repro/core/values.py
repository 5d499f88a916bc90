"""The one value normalizer: NumPy and container values -> plain JSON shapes.

Spec payloads and facets, result-cache keys, campaign axes, result
metrics and analysis reports all turn their values into plain Python
through :func:`plain`; each caller adds only its own rule on top (the
key layer's finite check, the report's ``NaN -> None``, ...).  Duck-typed
on ``.item()`` / ``.tolist()``, so this module never imports NumPy.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Optional

_PLAIN_SCALARS: frozenset[type] = frozenset({str, int, float, bool, type(None)})


def plain(value: Any, leaf: Optional[Callable[[Any], Any]] = None) -> Any:
    """Plain copy of ``value``: mappings become dicts with ``str`` keys,
    tuples and lists become lists, arrays nested lists and NumPy scalars
    their Python values, recursively.

    ``leaf``, when given, maps every scalar of the result — the place a
    caller's own rule goes.  ``replace(rows=np.int64(32))`` is a natural
    thing to write in a sweep; without this the payload would either
    fail to serialize or round trip to a differently typed spec.
    """
    if type(value) in _PLAIN_SCALARS:
        return value if leaf is None else leaf(value)
    if isinstance(value, Mapping):
        return {str(key): plain(entry, leaf) for key, entry in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(entry, leaf) for entry in value]
    item = getattr(value, "item", None)
    if item is not None and getattr(value, "shape", None) == ():
        value = item()
    else:
        tolist = getattr(value, "tolist", None)
        if tolist is not None:
            return plain(tolist(), leaf)
    return value if leaf is None else leaf(value)
