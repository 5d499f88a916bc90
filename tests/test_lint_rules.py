"""Per-rule fixtures for the determinism linter.

Every rule gets three cases: a snippet that must fire it (positive), a
close sibling that must not (negative), and the positive snippet
silenced by a ``# repro: noqa`` pragma.  These are the linter's
regression contract — a rule that stops firing on its fixture has
silently stopped guarding the tree.
"""

import textwrap
from pathlib import Path

import pytest

from repro.lint import (
    CATEGORIES,
    PARSE_ERROR_RULE,
    RULES,
    all_rules,
    lint_paths,
    lint_source,
    resolve_rules,
)


def findings_for(source, rule=None):
    source = textwrap.dedent(source)
    rules = resolve_rules([rule], None) if rule else None
    return lint_source(source, "fixture.py", rules=rules)


def rule_ids(source, rule=None):
    return [f.rule for f in findings_for(source, rule)]


# ----------------------------------------------------------------------
# Registry sanity
# ----------------------------------------------------------------------


def test_rule_registry_shape():
    rules = all_rules()
    assert len(rules) >= 12
    assert [r.id for r in rules] == sorted(r.id for r in rules)
    for rule in rules:
        assert rule.id[0] in CATEGORIES
        assert rule.summary and rule.rationale
    assert set(RULES) == {r.id for r in rules}


def test_resolve_rules_by_category_and_id():
    det = resolve_rules(["D"], None)
    assert {r.id for r in det} == {r.id for r in all_rules() if r.id[0] == "D"}
    only = resolve_rules(["D102", "C301"], None)
    assert {r.id for r in only} == {"D102", "C301"}
    without = resolve_rules(None, ["S"])
    assert all(r.id[0] != "S" for r in without)
    with pytest.raises(ValueError):
        resolve_rules(["Z999"], None)


# ----------------------------------------------------------------------
# D101 — global RNG
# ----------------------------------------------------------------------

D101_POSITIVE = """
    import numpy as np

    def draw():
        return np.random.normal(0.0, 1.0)
"""


def test_d101_fires_on_global_numpy_rng():
    assert "D101" in rule_ids(D101_POSITIVE)


def test_d101_fires_on_stdlib_random():
    src = """
        import random

        def draw():
            return random.random()
    """
    assert "D101" in rule_ids(src)


def test_d101_allows_generator_construction():
    src = """
        import numpy as np

        def make(seed):
            rng = np.random.default_rng(seed)
            return rng.normal(0.0, 1.0)
    """
    assert "D101" not in rule_ids(src)


def test_d101_noqa():
    src = """
        import numpy as np

        def draw():
            return np.random.normal(0.0, 1.0)  # repro: noqa D101
    """
    assert rule_ids(src) == []


# ----------------------------------------------------------------------
# D102 — wall clock
# ----------------------------------------------------------------------

D102_POSITIVE = """
    import time

    def stamp():
        return time.time()
"""


def test_d102_fires_on_wall_clock():
    assert "D102" in rule_ids(D102_POSITIVE)


def test_d102_fires_on_datetime_now():
    src = """
        import datetime

        def stamp():
            return datetime.datetime.now()
    """
    assert "D102" in rule_ids(src)


def test_d102_fires_on_default_factory_reference():
    # A bare reference (no call) still injects wall-clock at runtime.
    src = """
        import time
        from dataclasses import dataclass, field

        @dataclass
        class Job:
            submitted: float = field(default_factory=time.monotonic)
    """
    assert "D102" in rule_ids(src)


def test_d102_allow_wallclock_pragma():
    src = """
        import time

        def stamp():
            return time.perf_counter()  # repro: allow-wallclock
    """
    assert "D102" not in rule_ids(src)


def test_d102_negative_no_clock():
    src = """
        def stamp(clock):
            return clock()
    """
    assert "D102" not in rule_ids(src)


# ----------------------------------------------------------------------
# D103 — filesystem enumeration order
# ----------------------------------------------------------------------

D103_POSITIVE = """
    import os

    def names(root):
        out = []
        for name in os.listdir(root):
            out.append(name)
        return out
"""


def test_d103_fires_on_raw_listdir():
    assert "D103" in rule_ids(D103_POSITIVE)


def test_d103_fires_on_glob_method():
    src = """
        from pathlib import Path

        def entries(root):
            return [p.name for p in Path(root).glob("*.json")]
    """
    assert "D103" in rule_ids(src)


def test_d103_allows_sorted_consumption():
    src = """
        import os
        from pathlib import Path

        def names(root):
            count = len(os.listdir(root))
            return sorted(Path(root).glob("*.json")), count
    """
    assert "D103" not in rule_ids(src)


def test_d103_noqa():
    src = """
        import os

        def names(root):
            return list(os.listdir(root))  # repro: noqa D103
    """
    assert "D103" not in rule_ids(src)


# ----------------------------------------------------------------------
# D104 — set iteration order
# ----------------------------------------------------------------------

D104_POSITIVE = """
    def walk(pairs):
        for item in {p for p in pairs}:
            yield item
"""


def test_d104_fires_on_set_comprehension_loop():
    assert "D104" in rule_ids(D104_POSITIVE)


def test_d104_fires_on_set_literal_into_list():
    src = """
        def order():
            return list({3, 1, 2})
    """
    assert "D104" in rule_ids(src)


def test_d104_fires_via_local_name_dataflow():
    src = """
        def walk(pairs):
            seen = {p for p in pairs}
            for item in seen:
                yield item
    """
    assert "D104" in rule_ids(src)


def test_d104_allows_sorted_and_membership():
    src = """
        def walk(pairs, probe):
            seen = {p for p in pairs}
            ordered = sorted(seen)
            return ordered, probe in seen, len(seen)
    """
    assert "D104" not in rule_ids(src)


def test_d104_noqa():
    src = """
        def walk(pairs):
            for item in {p for p in pairs}:  # repro: noqa D104
                yield item
    """
    assert "D104" not in rule_ids(src)


# ----------------------------------------------------------------------
# D105 — id()
# ----------------------------------------------------------------------

D105_POSITIVE = """
    def key(obj):
        return id(obj)
"""


def test_d105_fires_on_id():
    assert "D105" in rule_ids(D105_POSITIVE)


def test_d105_negative_shadowed_name():
    src = """
        def key(record):
            return record.id
    """
    assert "D105" not in rule_ids(src)


def test_d105_noqa():
    src = """
        def key(obj):
            return id(obj)  # repro: noqa D105
    """
    assert "D105" not in rule_ids(src)


# ----------------------------------------------------------------------
# D106 — builtin hash()
# ----------------------------------------------------------------------

D106_POSITIVE = """
    def bucket(key):
        return hash(key) % 16
"""


def test_d106_fires_on_hash():
    assert "D106" in rule_ids(D106_POSITIVE)


def test_d106_allows_dunder_hash():
    src = """
        class Probe:
            def __init__(self, bases):
                self._bases = bases

            def __hash__(self):
                return hash(self._bases)
    """
    assert "D106" not in rule_ids(src)


def test_d106_noqa():
    src = """
        def bucket(key):
            return hash(key) % 16  # repro: noqa D106
    """
    assert "D106" not in rule_ids(src)


# ----------------------------------------------------------------------
# D107 — environment reads
# ----------------------------------------------------------------------

D107_POSITIVE = """
    import os

    def backend():
        return os.environ.get("REPRO_BACKEND", "vectorized")
"""


def test_d107_fires_on_environ():
    assert "D107" in rule_ids(D107_POSITIVE)


def test_d107_fires_on_getenv():
    src = """
        import os

        def backend():
            return os.getenv("REPRO_BACKEND")
    """
    assert "D107" in rule_ids(src)


def test_d107_allow_env_pragma():
    src = """
        import os

        def backend():
            return os.getenv("REPRO_BACKEND")  # repro: allow-env
    """
    assert "D107" not in rule_ids(src)


def test_d107_negative_plain_os_use():
    src = """
        import os

        def join(a, b):
            return os.path.join(a, b)
    """
    assert "D107" not in rule_ids(src)


# ----------------------------------------------------------------------
# D108 — fault modules must not construct RNGs
# ----------------------------------------------------------------------

D108_POSITIVE = """
    from numpy.random import default_rng

    def flips(seed):
        return default_rng(seed).integers(0, 64, size=2)
"""

D108_PATH = "src/repro/faults/injector.py"


def _faults_rule_ids(source, path=D108_PATH):
    return [f.rule for f in lint_source(textwrap.dedent(source), path)]


def test_d108_fires_on_default_rng_in_faults_module():
    assert "D108" in _faults_rule_ids(D108_POSITIVE)


def test_d108_fires_on_attribute_form():
    src = """
        import numpy as np

        def flips(seed):
            return np.random.Generator(np.random.PCG64(seed))
    """
    assert "D108" in _faults_rule_ids(src)


def test_d108_noqa_pragma():
    src = """
        from numpy.random import default_rng

        def flips(seed):
            return default_rng(seed).integers(0, 64, size=2)  # repro: noqa D108
    """
    assert "D108" not in _faults_rule_ids(src)


def test_d108_negative_outside_faults_path():
    assert "D108" not in _faults_rule_ids(
        D108_POSITIVE, path="src/repro/chip/readout.py"
    )


def test_d108_negative_consuming_a_passed_generator():
    src = """
        def flips(rng):
            return tuple(int(b) for b in rng.integers(0, 64, size=2))
    """
    assert "D108" not in _faults_rule_ids(src)


# ----------------------------------------------------------------------
# S201 — registered specs frozen
# ----------------------------------------------------------------------

S201_POSITIVE = """
    from dataclasses import dataclass

    from repro.experiments.specs import ExperimentSpec, register_experiment

    @register_experiment("fixture")
    @dataclass
    class LooseSpec(ExperimentSpec):
        gain: float = 1.0
"""


def test_s201_fires_on_unfrozen_registered_spec():
    assert "S201" in rule_ids(S201_POSITIVE)


def test_s201_fires_on_unfrozen_registered_fault():
    src = """
        from dataclasses import dataclass

        from repro.faults.specs import FaultSpec, register_fault

        @register_fault("fixture")
        @dataclass
        class LooseFault(FaultSpec):
            n_bits: int = 1
    """
    found = rule_ids(src)
    assert "S201" in found
    assert "S203" not in found  # FaultSpec carries spec_hash()


def test_s201_fires_on_missing_dataclass():
    src = """
        from repro.experiments.specs import ExperimentSpec, register_experiment

        @register_experiment("fixture")
        class PlainSpec(ExperimentSpec):
            gain = 1.0
    """
    assert "S201" in rule_ids(src)


def test_s201_allows_frozen_spec():
    src = """
        from dataclasses import dataclass

        from repro.experiments.specs import ExperimentSpec, register_experiment

        @register_experiment("fixture")
        @dataclass(frozen=True)
        class TightSpec(ExperimentSpec):
            gain: float = 1.0
    """
    assert "S201" not in rule_ids(src)


def test_s201_noqa():
    src = """
        from dataclasses import dataclass

        from repro.experiments.specs import ExperimentSpec, register_experiment

        @register_experiment("fixture")
        @dataclass
        class LooseSpec(ExperimentSpec):  # repro: noqa S201
            gain: float = 1.0
    """
    assert "S201" not in rule_ids(src)


# ----------------------------------------------------------------------
# S202 — serializable field annotations
# ----------------------------------------------------------------------

S202_POSITIVE = """
    from dataclasses import dataclass

    from repro.experiments.specs import ExperimentSpec, register_experiment

    @register_experiment("fixture")
    @dataclass(frozen=True)
    class ArraySpec(ExperimentSpec):
        overrides: list = ()
"""


def test_s202_fires_on_mutable_annotation():
    assert "S202" in rule_ids(S202_POSITIVE)


def test_s202_allows_canonical_annotations():
    src = """
        from dataclasses import dataclass
        from typing import ClassVar, Literal, Optional

        from repro.experiments.specs import ExperimentSpec, register_experiment

        @register_experiment("fixture")
        @dataclass(frozen=True)
        class ArraySpec(ExperimentSpec):
            KIND: ClassVar[str] = "array"
            rows: int = 16
            gain: float = 1.0
            pattern: "str" = "logspan"
            mode: Literal["fast", "full"] = "fast"
            label: Optional[str] = None
            shape: tuple[int, int] = (4, 4)
            window: "float | None" = None
    """
    assert "S202" not in rule_ids(src)


def test_s202_noqa():
    src = """
        from dataclasses import dataclass

        from repro.experiments.specs import ExperimentSpec, register_experiment

        @register_experiment("fixture")
        @dataclass(frozen=True)
        class ArraySpec(ExperimentSpec):
            overrides: list = ()  # repro: noqa S202
    """
    assert "S202" not in rule_ids(src)


# ----------------------------------------------------------------------
# S203 — reachable content hash
# ----------------------------------------------------------------------

S203_POSITIVE = """
    from dataclasses import dataclass

    from repro.experiments.specs import register_experiment

    @register_experiment("fixture")
    @dataclass(frozen=True)
    class OrphanSpec:
        gain: float = 1.0
"""


def test_s203_fires_without_hash_base():
    assert "S203" in rule_ids(S203_POSITIVE)


def test_s203_allows_known_base():
    src = """
        from dataclasses import dataclass

        from repro.experiments.specs import ExperimentSpec, register_experiment

        @register_experiment("fixture")
        @dataclass(frozen=True)
        class ChildSpec(ExperimentSpec):
            gain: float = 1.0
    """
    assert "S203" not in rule_ids(src)


def test_s203_allows_own_method():
    src = """
        from dataclasses import dataclass

        from repro.experiments.specs import register_experiment

        @register_experiment("fixture")
        @dataclass(frozen=True)
        class SelfHashed:
            gain: float = 1.0

            def spec_hash(self):
                return "deadbeef"
    """
    assert "S203" not in rule_ids(src)


def test_s203_noqa():
    src = """
        from dataclasses import dataclass

        from repro.experiments.specs import register_experiment

        @register_experiment("fixture")
        @dataclass(frozen=True)
        class OrphanSpec:  # repro: noqa S203
            gain: float = 1.0
    """
    assert "S203" not in rule_ids(src)


# ----------------------------------------------------------------------
# S204 — immutable defaults
# ----------------------------------------------------------------------

S204_POSITIVE = """
    from dataclasses import dataclass, field

    from repro.experiments.specs import ExperimentSpec, register_experiment

    @register_experiment("fixture")
    @dataclass(frozen=True)
    class ListySpec(ExperimentSpec):
        names: tuple = field(default_factory=list)
"""


def test_s204_fires_on_mutable_factory():
    assert "S204" in rule_ids(S204_POSITIVE)


def test_s204_fires_on_mutable_literal():
    src = """
        from dataclasses import dataclass

        from repro.experiments.specs import ExperimentSpec, register_experiment

        @register_experiment("fixture")
        @dataclass(frozen=True)
        class ListySpec(ExperimentSpec):
            names: tuple = []
    """
    assert "S204" in rule_ids(src)


def test_s204_allows_immutable_defaults():
    src = """
        from dataclasses import dataclass

        from repro.experiments.specs import ExperimentSpec, register_experiment

        @register_experiment("fixture")
        @dataclass(frozen=True)
        class TupleSpec(ExperimentSpec):
            names: tuple = ()
            label: str = "chip"
    """
    assert "S204" not in rule_ids(src)


def test_s204_noqa():
    src = """
        from dataclasses import dataclass, field

        from repro.experiments.specs import ExperimentSpec, register_experiment

        @register_experiment("fixture")
        @dataclass(frozen=True)
        class ListySpec(ExperimentSpec):
            names: tuple = field(default_factory=list)  # repro: noqa S204
    """
    assert "S204" not in rule_ids(src)


# ----------------------------------------------------------------------
# C301 — lock discipline
# ----------------------------------------------------------------------

C301_POSITIVE = """
    import threading

    class Counter:
        def __init__(self):
            self._lock = threading.Lock()
            self._count = 0

        def bump(self):
            with self._lock:
                self._count += 1

        def peek(self):
            return self._count
"""


def test_c301_fires_on_unguarded_read():
    assert "C301" in rule_ids(C301_POSITIVE)


def test_c301_allows_guarded_and_locked_helpers():
    src = """
        import threading

        class Counter:
            def __init__(self):
                self._lock = threading.Lock()
                self._count = 0

            def bump(self):
                with self._lock:
                    self._bump_locked()

            def _bump_locked(self):
                self._count += 1

            def peek(self):
                with self._lock:
                    return self._count
    """
    assert "C301" not in rule_ids(src)


def test_c301_infers_mutating_method_calls():
    src = """
        import threading

        class Registry:
            def __init__(self):
                self._lock = threading.Lock()
                self._items = []

            def add(self, item):
                with self._lock:
                    self._items.append(item)

            def snapshot(self):
                return list(self._items)
    """
    assert "C301" in rule_ids(src)


def test_c301_noqa():
    src = """
        import threading

        class Counter:
            def __init__(self):
                self._lock = threading.Lock()
                self._count = 0

            def bump(self):
                with self._lock:
                    self._count += 1

            def peek(self):
                return self._count  # repro: noqa C301
    """
    assert "C301" not in rule_ids(src)


# ----------------------------------------------------------------------
# C302 — bare acquire/release
# ----------------------------------------------------------------------

C302_POSITIVE = """
    import threading

    class Worker:
        def __init__(self):
            self._lock = threading.Lock()

        def run(self):
            self._lock.acquire()
            try:
                pass
            finally:
                self._lock.release()
"""


def test_c302_fires_on_bare_acquire_release():
    ids = rule_ids(C302_POSITIVE)
    assert ids.count("C302") == 2


def test_c302_allows_with_statement():
    src = """
        import threading

        class Worker:
            def __init__(self):
                self._lock = threading.Lock()

            def run(self):
                with self._lock:
                    pass
    """
    assert "C302" not in rule_ids(src)


def test_c302_noqa():
    src = """
        import threading

        class Worker:
            def __init__(self):
                self._lock = threading.Lock()

            def run(self):
                self._lock.acquire()  # repro: noqa C302
                self._lock.release()  # repro: noqa C302
    """
    assert "C302" not in rule_ids(src)


# ----------------------------------------------------------------------
# Pragmas, parse errors, selection plumbing
# ----------------------------------------------------------------------


def test_bare_noqa_suppresses_everything():
    src = """
        import time

        def stamp(obj):
            return time.time(), id(obj)  # repro: noqa
    """
    assert rule_ids(src) == []


def test_noqa_for_other_rule_does_not_suppress():
    src = """
        def key(obj):
            return id(obj)  # repro: noqa D102
    """
    assert "D105" in rule_ids(src)


def test_parse_error_reports_p001():
    findings = lint_source("def broken(:\n", "fixture.py")
    assert [f.rule for f in findings] == [PARSE_ERROR_RULE]


def test_select_narrows_rules():
    src = """
        import time

        def stamp(obj):
            return time.time(), id(obj)
    """
    assert rule_ids(src, rule="D105") == ["D105"]


def test_findings_are_sorted_and_stable():
    src = """
        import time

        def b(obj):
            return id(obj)

        def a():
            return time.time()
    """
    findings = findings_for(src)
    assert findings == sorted(findings)
    rendered = [f.render() for f in findings]
    assert all(r.startswith("fixture.py:") for r in rendered)


# ----------------------------------------------------------------------
# The tree itself
# ----------------------------------------------------------------------


def test_lint_self_clean():
    import repro

    package_root = Path(repro.__file__).parent
    assert lint_paths([str(package_root)]) == []
