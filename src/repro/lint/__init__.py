"""repro.lint — AST-based determinism & purity linter.

Machine-enforces the invariants the rest of the repo hand-enforces:
same spec + seed => bit-identical results, content keys over canonical
JSON, frozen sweepable specs, lock discipline in the service layer.
Thirteen rules in three families:

* **D-rules** (determinism): no global RNG, no wall-clock in result
  paths, no order-sensitive filesystem/set iteration, no ``id()``,
  no salted ``hash()``, no environment reads.
* **S-rules** (specs): everything registered via ``register_experiment``
  / ``register_analysis`` / ``register_fault`` must be a frozen
  dataclass with canonically serializable fields, immutable defaults
  and a reachable ``spec_hash``/``content_hash``.
* **C-rules** (concurrency): attributes mutated under ``self._lock``
  stay under it; no bare ``acquire()``/``release()``.

Run ``repro lint [paths]`` (exit 0 clean / 1 findings / 2 usage error),
``repro lint --list-rules`` for the table, and suppress per line with
``# repro: noqa RULE`` or ``# repro: allow-wallclock``.  Stdlib-only —
``ast`` all the way down — so the gate costs nothing to install.
"""

from __future__ import annotations

from .base import CATEGORIES, RULES, ModuleContext, Rule, all_rules
from .engine import (
    PARSE_ERROR_RULE,
    apply_baseline,
    lint_paths,
    lint_source,
    resolve_rules,
)
from .findings import Finding

__all__ = [
    "CATEGORIES",
    "Finding",
    "ModuleContext",
    "PARSE_ERROR_RULE",
    "RULES",
    "Rule",
    "all_rules",
    "apply_baseline",
    "lint_paths",
    "lint_source",
    "resolve_rules",
]
