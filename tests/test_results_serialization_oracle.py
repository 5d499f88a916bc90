"""Frozen-oracle tests for ResultSet serialization.

The functions below are test-local copies of ``ResultSet.to_dict``,
``ResultSet.to_rows`` and ``_as_python`` as they were when every value
went through a Python-level walk.  They are frozen on purpose: every
stored payload (cache entries, ``results.jsonl`` lines, content
digests) was written through them, so the library must keep producing
exactly the same plain-Python values and the same JSON bytes.
Hypothesis draws record columns of every kind a workload produces —
numeric and boolean dtypes, fixed-width strings, object columns of
mixed Python and NumPy scalars, 2-D columns, plain lists and empty
columns — plus NumPy-scalar metrics with and without a trace.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.experiments import DnaAssaySpec, ResultSet, Runner
from repro.trace.events import SEQ_SAMPLE, SEQ_STATE, SERIAL_FRAME, TraceEvent
from repro.trace.table import TraceTable

FAULTED_SPEC = (
    Path(__file__).resolve().parents[1] / "examples" / "specs" / "dna_assay_faulted.json"
)

SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


# ---------------------------------------------------------------------------
# The frozen oracles
# ---------------------------------------------------------------------------
def _oracle_as_python(value):
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return [_oracle_as_python(item) for item in value]
    return value


def _oracle_dtype_token(column):
    column = np.asarray(column)
    return "object" if column.dtype == object else column.dtype.str


def _oracle_to_rows(result):
    names = list(result.records)
    columns = [result.records[name] for name in names]
    return [
        {name: _oracle_as_python(column[i]) for name, column in zip(names, columns)}
        for i in range(result.n_records)
    ]


def _oracle_to_dict(result):
    return {
        "kind": result.kind,
        "spec": result.spec,
        "seeds": result.seeds,
        "version": result.version,
        "record_name": result.record_name,
        "records": {
            name: [_oracle_as_python(value) for value in column]
            for name, column in result.records.items()
        },
        "dtypes": {
            name: _oracle_dtype_token(column) for name, column in result.records.items()
        },
        "metrics": {name: _oracle_as_python(value) for name, value in result.metrics.items()},
        **({"trace": result.trace.to_dict()} if result.trace is not None else {}),
    }


def _canonical(value):
    """A form where ``==`` also compares exact types, float bits and NaN
    (``nan != nan`` would make a plain ``==`` fail on equal payloads,
    and ``True == 1`` would let a bool/int swap through)."""
    if isinstance(value, dict):
        return ("dict", {key: _canonical(item) for key, item in value.items()})
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, [_canonical(item) for item in value])
    if isinstance(value, float):
        return ("float", value.hex())
    return (type(value).__name__, value)


def assert_serializes_like_the_oracle(result):
    expected_dict = _oracle_to_dict(result)
    expected_rows = _oracle_to_rows(result)
    got_dict = result.to_dict()
    got_rows = result.to_rows()
    assert _canonical(got_dict) == _canonical(expected_dict)
    assert _canonical(got_rows) == _canonical(expected_rows)
    expected_json = json.dumps(expected_dict, sort_keys=True)
    assert json.dumps(got_dict, sort_keys=True) == expected_json
    assert result.to_json() == expected_json
    assert result.to_json(indent=2) == json.dumps(expected_dict, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------
FLOAT64 = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 2.2e-308]),
)
FLOAT32 = st.floats(width=32, allow_nan=True, allow_infinity=True, allow_subnormal=True)
TEXT = st.text(max_size=6)
INT64 = st.integers(-(2**63), 2**63 - 1)
OBJECT_ITEMS = st.one_of(
    TEXT,
    TEXT.map(np.str_),
    FLOAT64.map(np.float64),
    INT64.map(np.int64),
    st.none(),
)


def _object_column(items):
    column = np.empty(len(items), dtype=object)
    column[:] = items
    return column


def _column(kind, n):
    """A length-``n`` record column of the given kind."""
    if kind in ("int64", "int32", "uint8", "bool"):
        return hnp.arrays(np.dtype(kind), n)
    if kind == "float64":
        return hnp.arrays(np.float64, n, elements=FLOAT64)
    if kind == "float32":
        return hnp.arrays(np.float32, n, elements=FLOAT32)
    if kind == "unicode":
        return hnp.arrays(np.dtype("<U6"), n)
    if kind == "object":
        return st.lists(OBJECT_ITEMS, min_size=n, max_size=n).map(_object_column)
    if kind == "int2d":
        return st.integers(0, 3).flatmap(lambda k: hnp.arrays(np.int64, (n, k)))
    if kind == "float2d":
        return st.integers(0, 3).flatmap(
            lambda k: hnp.arrays(np.float64, (n, k), elements=FLOAT64)
        )
    if kind == "bool2d":
        return hnp.arrays(np.bool_, (n, 2))
    if kind == "list":
        return st.lists(st.one_of(INT64, FLOAT64, TEXT, st.booleans()), min_size=n, max_size=n)
    raise AssertionError(kind)


COLUMN_KINDS = (
    "int64", "int32", "uint8", "float64", "float32", "bool", "unicode",
    "object", "int2d", "float2d", "bool2d", "list",
)

METRIC_VALUES = st.one_of(
    FLOAT64.map(np.float64),
    FLOAT32.map(np.float32),
    INT64.map(np.int64),
    st.integers(-(2**31), 2**31 - 1).map(np.int32),
    st.booleans().map(np.bool_),
    FLOAT64,
    INT64,
    st.booleans(),
    TEXT,
    st.none(),
)


@st.composite
def traces(draw):
    kinds = [SEQ_STATE, SEQ_SAMPLE, SERIAL_FRAME]
    n = draw(st.integers(0, 4))
    events = [
        TraceEvent(
            seq=i,
            time_s=draw(st.floats(0, 1)),
            kind=draw(st.sampled_from(kinds)),
            channel=draw(st.sampled_from(["seq.state", "serial.din", "pixel.3.4"])),
            data={"value": draw(st.integers(0, 255)), "ok": draw(st.booleans())},
        )
        for i in range(n)
    ]
    return TraceTable(events, n_dropped=draw(st.integers(0, 3)))


@st.composite
def result_sets(draw):
    n = draw(st.integers(0, 6))
    kinds = draw(st.lists(st.sampled_from(COLUMN_KINDS), max_size=6))
    records = {f"c{i}_{kind}": draw(_column(kind, n)) for i, kind in enumerate(kinds)}
    metrics = draw(st.dictionaries(st.text(min_size=1, max_size=8), METRIC_VALUES, max_size=6))
    trace = draw(st.one_of(st.none(), traces()))
    return ResultSet(
        kind="x",
        spec={"kind": "x", "n": n},
        seeds={"root": draw(st.integers(0, 2**32 - 1))},
        version="0",
        record_name="site",
        records=records,
        metrics=metrics,
        trace=trace,
    )


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------
@SETTINGS
@given(result_sets())
def test_to_dict_and_to_rows_match_the_frozen_oracle(result):
    assert_serializes_like_the_oracle(result)


@pytest.mark.parametrize("kind", COLUMN_KINDS)
@settings(SETTINGS, max_examples=40)
@given(data=st.data())
def test_each_column_kind_alone_matches_the_frozen_oracle(kind, data):
    n = data.draw(st.integers(0, 5))
    result = ResultSet(
        kind="x", spec={"kind": "x"}, seeds={"root": 0}, version="0",
        records={"c": data.draw(_column(kind, n))},
        metrics={"m": np.float64(0.5)},
    )
    assert_serializes_like_the_oracle(result)


def test_empty_and_columnless_results_match_the_frozen_oracle():
    for records in (
        {},
        {"a": np.zeros(0), "b": np.zeros((0, 3), dtype=np.int32), "c": []},
        {"o": _object_column([])},
    ):
        result = ResultSet(kind="x", spec={}, seeds={}, version="0", records=records)
        assert_serializes_like_the_oracle(result)


def test_faulted_workload_result_matches_the_frozen_oracle():
    spec = DnaAssaySpec.from_dict(json.loads(FAULTED_SPEC.read_text(encoding="utf-8")))
    result = Runner(seed=3).run(spec)
    assert any(column.dtype == object for column in result.records.values())
    assert_serializes_like_the_oracle(result)
