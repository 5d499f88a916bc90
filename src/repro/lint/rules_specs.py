"""S-rules: registered spec hygiene.

Everything registered through ``register_experiment`` /
``register_analysis`` / ``register_fault`` becomes sweepable,
serializable and content-addressable: campaign axes replace its fields,
``to_dict()`` payloads feed canonical JSON, ``spec_hash()`` keys the
result cache, and fault entries hash into every faulted spec's
``content_hash()``.  These rules make the preconditions of that
machinery — frozen, plain-typed, hash-reachable dataclasses —
mechanical instead of reviewed.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from .base import ModuleContext, register_rule
from .findings import Finding

#: Decorator names that put a class into a spec registry.
_REGISTER_DECORATORS = frozenset({"register_experiment", "register_analysis", "register_fault"})

#: Base classes known to provide spec_hash()/content_hash machinery.
_HASH_PROVIDING_BASES = frozenset({"Spec", "ExperimentSpec", "AnalysisSpec", "FaultSpec"})

_HASH_METHODS = frozenset({"spec_hash", "content_hash"})


def _decorator_name(node: ast.expr) -> Optional[str]:
    target = node.func if isinstance(node, ast.Call) else node
    if isinstance(target, ast.Name):
        return target.id
    if isinstance(target, ast.Attribute):
        return target.attr
    return None


def _registered_classes(ctx: ModuleContext) -> Iterator[ast.ClassDef]:
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.ClassDef) and any(
            _decorator_name(decorator) in _REGISTER_DECORATORS
            for decorator in node.decorator_list
        ):
            yield node


def _dataclass_decorator(cls: ast.ClassDef) -> Optional[ast.expr]:
    for decorator in cls.decorator_list:
        if _decorator_name(decorator) == "dataclass":
            return decorator
    return None


def _is_frozen(decorator: ast.expr) -> bool:
    if not isinstance(decorator, ast.Call):
        return False  # bare @dataclass: frozen defaults to False
    for keyword in decorator.keywords:
        if keyword.arg == "frozen":
            return isinstance(keyword.value, ast.Constant) and keyword.value.value is True
    return False


# ---------------------------------------------------------------------------
# S201 — frozen dataclass
# ---------------------------------------------------------------------------
@register_rule(
    "S201",
    "registered specs must be @dataclass(frozen=True)",
    "a spec that can mutate after construction can drift between the moment "
    "its content hash is taken and the moment it runs — the cache would then "
    "address the wrong computation.  Freezing makes the hash a property of "
    "the object, not of a moment.",
)
def check_frozen_spec(ctx: ModuleContext) -> Iterator[Finding]:
    for cls in _registered_classes(ctx):
        decorator = _dataclass_decorator(cls)
        if decorator is None:
            yield ctx.finding(
                "S201",
                cls,
                f"registered spec {cls.name} is not a dataclass — specs must "
                f"be @dataclass(frozen=True)",
            )
        elif not _is_frozen(decorator):
            yield ctx.finding(
                "S201",
                cls,
                f"registered spec {cls.name} is a mutable dataclass — "
                f"declare it @dataclass(frozen=True)",
            )


# ---------------------------------------------------------------------------
# S202 — serializable field types
# ---------------------------------------------------------------------------
_ATOM_NAMES = frozenset({"int", "float", "str", "bool"})
_GENERIC_NAMES = frozenset({"tuple", "Tuple", "Optional", "Union", "Literal"})


def _annotation_allowed(node: ast.AST) -> bool:
    if isinstance(node, ast.Constant):
        if node.value is None or node.value is Ellipsis:
            return True
        if isinstance(node.value, str):
            try:
                parsed = ast.parse(node.value, mode="eval")
            except SyntaxError:
                return False
            return _annotation_allowed(parsed.body)
        # Literal[...] members: plain scalars are serializable.
        return isinstance(node.value, (int, float, str, bool))
    if isinstance(node, ast.Name):
        return node.id in _ATOM_NAMES or node.id in _GENERIC_NAMES or node.id == "None"
    if isinstance(node, ast.Attribute):  # typing.Optional, t.Tuple, ...
        return node.attr in _GENERIC_NAMES
    if isinstance(node, ast.Subscript):
        if not _annotation_allowed(node.value):
            return False
        inner = node.slice
        elements = inner.elts if isinstance(inner, ast.Tuple) else [inner]
        head = node.value
        head_name = (
            head.id
            if isinstance(head, ast.Name)
            else head.attr
            if isinstance(head, ast.Attribute)
            else None
        )
        if head_name == "Literal":
            # Literal members are *values*, not type references — a string
            # here is the literal "fast", never a forward reference.
            return all(
                isinstance(element, ast.Constant)
                and (
                    element.value is None
                    or isinstance(element.value, (int, float, str, bool))
                )
                for element in elements
            )
        return all(_annotation_allowed(element) for element in elements)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        return _annotation_allowed(node.left) and _annotation_allowed(node.right)
    return False


def _is_classvar(annotation: ast.AST) -> bool:
    if isinstance(annotation, ast.Subscript):
        annotation = annotation.value
    name = (
        annotation.id
        if isinstance(annotation, ast.Name)
        else annotation.attr
        if isinstance(annotation, ast.Attribute)
        else None
    )
    return name == "ClassVar"


@register_rule(
    "S202",
    "registered spec fields must have serializable annotations",
    "spec fields travel through to_dict() -> canonical JSON -> spec_hash(); "
    "a field typed list/dict/set/ndarray/Any either fails to serialize, "
    "serializes unstably, or is mutable inside a frozen shell.  Allowed "
    "atoms: int/float/str/bool/None, tuples thereof, Optional/Union/Literal "
    "combinations.",
)
def check_spec_field_types(ctx: ModuleContext) -> Iterator[Finding]:
    for cls in _registered_classes(ctx):
        for statement in cls.body:
            if not isinstance(statement, ast.AnnAssign):
                continue
            if not isinstance(statement.target, ast.Name):
                continue
            if _is_classvar(statement.annotation):
                continue
            if _annotation_allowed(statement.annotation):
                continue
            spelled = ast.unparse(statement.annotation)
            yield ctx.finding(
                "S202",
                statement,
                f"spec field {cls.name}.{statement.target.id}: {spelled} is "
                f"not canonically serializable — use "
                f"int/float/str/bool/None/tuple compositions",
            )


# ---------------------------------------------------------------------------
# S203 — content hash reachable
# ---------------------------------------------------------------------------
def _provides_hash(
    cls: ast.ClassDef, local_classes: dict[str, ast.ClassDef], seen: frozenset[str]
) -> bool:
    if any(
        isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef))
        and statement.name in _HASH_METHODS
        for statement in cls.body
    ):
        return True
    for base in cls.bases:
        name = (
            base.id
            if isinstance(base, ast.Name)
            else base.attr
            if isinstance(base, ast.Attribute)
            else None
        )
        if name is None or name in seen:
            continue
        if name in _HASH_PROVIDING_BASES:
            return True
        local = local_classes.get(name)
        if local is not None and _provides_hash(local, local_classes, seen | {name}):
            return True
    return False


@register_rule(
    "S203",
    "registered specs must reach spec_hash()/content_hash()",
    "the campaign cache and the SeedTree both address specs by their content "
    "hash; a registered class outside the repro.core.specs.Spec "
    "hierarchy (and without its own spec_hash/content_hash) cannot be "
    "content-addressed and silently falls out of the purity contract.",
)
def check_spec_hash_reachable(ctx: ModuleContext) -> Iterator[Finding]:
    local_classes = {
        node.name: node
        for node in ast.walk(ctx.tree)
        if isinstance(node, ast.ClassDef)
    }
    for cls in _registered_classes(ctx):
        if not _provides_hash(cls, local_classes, frozenset({cls.name})):
            yield ctx.finding(
                "S203",
                cls,
                f"registered spec {cls.name} has no reachable "
                f"spec_hash()/content_hash() — derive from "
                f"ExperimentSpec/AnalysisSpec/FaultSpec or define one",
            )


# ---------------------------------------------------------------------------
# S204 — immutable defaults
# ---------------------------------------------------------------------------
_MUTABLE_CONSTRUCTORS = frozenset({"list", "dict", "set"})


def _mutable_default(value: ast.expr) -> Optional[str]:
    if isinstance(value, (ast.List, ast.ListComp)):
        return "list"
    if isinstance(value, (ast.Dict, ast.DictComp)):
        return "dict"
    if isinstance(value, (ast.Set, ast.SetComp)):
        return "set"
    if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
        if value.func.id in _MUTABLE_CONSTRUCTORS:
            return value.func.id
        if value.func.id == "field":
            for keyword in value.keywords:
                if (
                    keyword.arg == "default_factory"
                    and isinstance(keyword.value, ast.Name)
                    and keyword.value.id in _MUTABLE_CONSTRUCTORS
                ):
                    return keyword.value.id
                if keyword.arg == "default" and keyword.value is not None:
                    nested = _mutable_default(keyword.value)
                    if nested is not None:
                        return nested
    return None


@register_rule(
    "S204",
    "registered spec fields must not default to mutables",
    "a list/dict/set default (literal or default_factory) hides shared "
    "mutable state inside a frozen spec: two points of a sweep could alias "
    "one object, and to_dict() payloads stop being value-determined.  Use "
    "tuples.",
)
def check_spec_mutable_defaults(ctx: ModuleContext) -> Iterator[Finding]:
    for cls in _registered_classes(ctx):
        for statement in cls.body:
            if not (
                isinstance(statement, ast.AnnAssign)
                and isinstance(statement.target, ast.Name)
                and statement.value is not None
            ):
                continue
            kind = _mutable_default(statement.value)
            if kind is not None:
                yield ctx.finding(
                    "S204",
                    statement,
                    f"spec field {cls.name}.{statement.target.id} defaults to "
                    f"a mutable {kind} — use a tuple (frozen specs must hold "
                    f"immutable values)",
                )
