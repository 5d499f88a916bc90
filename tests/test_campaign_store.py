"""Result stores: streaming JSONL + manifest round-trip, reports."""

import json

import pytest

from repro.campaigns import (
    MANIFEST_SCHEMA,
    CampaignSpec,
    JsonlResultStore,
    MemoryResultStore,
    make_store,
    manifest_summary,
    metrics_table,
    run_campaign,
)
from repro.experiments import DnaAssaySpec

BASE = DnaAssaySpec(probe_count=4, replicates=4, target_subset=(0, 1))
CAMPAIGN = CampaignSpec(
    base=BASE, grid={"concentration": (1e-7, 1e-6)}, replicates=2, name="store-test"
)


@pytest.fixture()
def stored(tmp_path):
    out = tmp_path / "campaign"
    result = run_campaign(CAMPAIGN, seed=3, executor="serial", store="jsonl", out=out)
    return out, result


# ---------------------------------------------------------------------------
# JSONL store
# ---------------------------------------------------------------------------
def test_jsonl_layout_and_manifest(stored):
    out, result = stored
    assert (out / "results.jsonl").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest == result.manifest
    assert manifest["schema"] == MANIFEST_SCHEMA
    assert manifest["name"] == "store-test"
    assert manifest["campaign"] == CAMPAIGN.to_dict()
    assert manifest["seed"] == 3
    assert manifest["executor"] == "serial"
    assert manifest["n_points"] == 4
    assert manifest["total_wall_s"] > 0
    points = manifest["points"]
    assert [p["point"] for p in points] == [0, 1, 2, 3]
    assert all(p["wall_s"] > 0 and p["n_records"] == 128 for p in points)
    assert points[0]["assignment"] == {"concentration": 1e-7}
    assert points[0]["spec_hash"] == BASE.replace(concentration=1e-7).content_hash()


def test_jsonl_round_trip_is_lossless(stored):
    out, result = stored
    reference = run_campaign(CAMPAIGN, seed=3, executor="serial")
    loaded = JsonlResultStore.load(out)
    assert loaded.manifest == result.manifest
    restored = loaded.results()
    originals = reference.results()
    assert len(restored) == len(originals) == 4
    for back, original in zip(restored, originals):
        assert back.to_json() == original.without_artifacts().to_json()
        for name in original.records:
            assert back.records[name].dtype == original.records[name].dtype


def test_jsonl_store_streams_instead_of_retaining(stored):
    out, _ = stored
    store = JsonlResultStore.load(out)
    # Metadata only in memory; results re-read lazily from disk.
    assert all("result" not in meta for meta in store.point_metas())
    first_meta, first_result = next(iter(store.iter_results()))
    assert first_meta["point"] == 0
    assert first_result.n_records == 128


def test_finalized_directories_are_guarded_from_overwrite(stored):
    out, _ = stored
    assert (out / "manifest.json").exists()
    # A finalized campaign cannot be destroyed by accident ...
    with pytest.raises(FileExistsError, match="finalized campaign"):
        JsonlResultStore(out)
    assert (out / "manifest.json").exists()
    assert (out / "results.jsonl").read_text() != ""
    # ... but an explicit overwrite truncates results AND removes the
    # old manifest, so run-1 provenance can never describe run-2 records.
    store = JsonlResultStore(out, overwrite=True)
    assert not (out / "manifest.json").exists()
    assert (out / "results.jsonl").read_text() == ""
    store.finalize({"schema": MANIFEST_SCHEMA})
    # A partial run (results without manifest) reopens without force.
    (out / "manifest.json").unlink()
    JsonlResultStore(out).finalize({"schema": MANIFEST_SCHEMA})


def test_jsonl_store_rejects_add_after_finalize(tmp_path):
    store = JsonlResultStore(tmp_path / "x")
    store.finalize({"schema": MANIFEST_SCHEMA})
    with pytest.raises(RuntimeError, match="finalized"):
        store.add(_first_outcome())
    with pytest.raises(FileNotFoundError):
        JsonlResultStore.load(tmp_path / "nowhere")


def _first_outcome():
    memory = MemoryResultStore()
    run_campaign(
        CampaignSpec(base=BASE, grid={"concentration": (1e-6,)}), seed=0, store=memory
    )
    return memory.outcomes()[0]


# ---------------------------------------------------------------------------
# make_store
# ---------------------------------------------------------------------------
def test_make_store_resolution(tmp_path):
    assert isinstance(make_store(None), MemoryResultStore)
    assert isinstance(make_store("memory"), MemoryResultStore)
    assert isinstance(make_store("jsonl", out=tmp_path / "a"), JsonlResultStore)
    assert isinstance(make_store(None, out=tmp_path / "b"), JsonlResultStore)
    assert isinstance(make_store(tmp_path / "c"), JsonlResultStore)
    existing = MemoryResultStore()
    assert make_store(existing) is existing
    with pytest.raises(ValueError, match="output directory"):
        make_store("jsonl")
    with pytest.raises(ValueError, match="writes nothing to disk"):
        make_store("memory", out=tmp_path / "d")
    with pytest.raises(ValueError, match="unknown store"):
        make_store("sqlite")
    # Directory *strings* are rejected: a typo'd store name must error,
    # not silently become a directory (Path or out= are the path spellings).
    with pytest.raises(ValueError, match="unknown store"):
        make_store(str(tmp_path / "dir-as-string"))
    # A store instance + a different out directory is a conflict ...
    with pytest.raises(ValueError, match="conflicts with the provided store"):
        make_store(MemoryResultStore(), out=tmp_path / "e")
    # ... but a JSONL instance already rooted at out passes through.
    rooted = JsonlResultStore(tmp_path / "f")
    assert make_store(rooted, out=tmp_path / "f") is rooted


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------
def test_numpy_scalar_metrics_survive_into_point_metadata():
    import numpy as np

    from repro.campaigns.store import _outcome_meta
    from repro.campaigns import PointOutcome
    from repro.experiments import ResultSet

    plan = CampaignSpec(base=BASE).compile(seed=0)
    result = ResultSet(
        kind="dna_assay", spec={}, seeds={}, version="0",
        metrics={
            "n_hits": np.int64(7), "ok": np.bool_(True), "ratio": np.float64(0.5),
            "plain": 3, "vector": np.arange(3),  # non-scalar: dropped
        },
    )
    meta = _outcome_meta(PointOutcome(point=plan[0], result=result, wall_s=0.1))
    assert meta["metrics"] == {"n_hits": 7, "ok": True, "ratio": 0.5, "plain": 3}


def test_load_rejects_foreign_manifest_schema(stored):
    out, _ = stored
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["schema"] = "repro-campaign/99"
    (out / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="repro-campaign/99"):
        JsonlResultStore.load(out)


def test_runner_run_campaign_forwards_out_for_jsonl(tmp_path):
    from repro.experiments import Runner

    out = tmp_path / "via-runner"
    result = run_campaign(CAMPAIGN, seed=3, store="jsonl", out=out)
    assert (out / "manifest.json").exists()
    assert result.manifest["seed"] == 3
    # And replicate-0 points match the plain-Runner result exactly.
    alone = Runner(seed=3).run(BASE.replace(concentration=1e-7))
    assert result.results()[0].to_json() == alone.to_json()


def test_metrics_table_from_live_and_loaded_store_match(stored):
    out, result = stored
    live = result.table(metrics=["discrimination_ratio"])
    loaded = metrics_table(JsonlResultStore.load(out), metrics=["discrimination_ratio"])
    assert live == loaded
    assert "concentration" in live and "discrimination_ratio" in live
    assert live.count("\n") == 4 + 2 - 1  # 4 points + header + rule


def test_metrics_table_defaults_to_common_scalar_metrics(stored):
    out, result = stored
    table = result.table()
    assert "discrimination_ratio" in table
    assert "wall_s" in table and "replicate" in table
    # The default-column table is identical live and reloaded (sorted
    # metric order on both paths).
    assert metrics_table(JsonlResultStore.load(out)) == table


def test_manifest_summary_block(stored):
    _, result = stored
    text = manifest_summary(result.manifest)
    assert "store-test" in text and "dna_assay" in text and "serial" in text


def test_empty_store_table():
    assert "no stored results" in metrics_table(MemoryResultStore())


def test_campaign_result_accessors(stored):
    _, result = stored
    assert result.n_points == len(result) == 4
    assert result.result_for(2).n_records == 128
    with pytest.raises(KeyError):
        result.result_for(99)
    assert "store=jsonl" in result.summary()
    assert result.total_wall_s > 0


def test_result_for_uses_offsets_on_loaded_stores(stored):
    out, result = stored
    loaded = JsonlResultStore.load(out)
    for point in (3, 0, 2):  # random access, any order
        assert loaded.result_for(point).to_json() == result.result_for(point).to_json()
    with pytest.raises(KeyError, match="point 99"):
        loaded.result_for(99)


# ---------------------------------------------------------------------------
# The streaming read API (iter_results / load_point)
# ---------------------------------------------------------------------------
def test_iter_results_is_lazy(stored):
    """Analyses stream a campaign: iterating must not materialise every
    ResultSet up front."""
    import types

    out, _ = stored
    loaded = JsonlResultStore.load(out)
    iterator = loaded.iter_results()
    assert isinstance(iterator, types.GeneratorType)
    meta, result = next(iterator)
    assert meta["point"] == 0 and result.n_records == 128
    iterator.close()  # abandoning mid-stream leaks nothing


def test_load_point_random_access(stored):
    out, result = stored
    loaded = JsonlResultStore.load(out)
    # O(1) seek on the recorded byte offset — same payload either way.
    assert loaded.load_point(3).to_json() == result.load_point(3).to_json()
    assert loaded.load_point(0).metrics["n_sites"] == 128
    with pytest.raises(KeyError, match="point 42"):
        loaded.load_point(42)


def test_load_point_on_memory_store(stored):
    _, result = stored
    memory = MemoryResultStore()
    reference = run_campaign(CAMPAIGN, seed=3, store=memory)
    assert memory.load_point(1).to_json() == reference.result_for(1).to_json()
    with pytest.raises(KeyError):
        memory.load_point(99)


def test_load_point_works_without_manifest(tmp_path):
    """A partial (crashed) campaign is still randomly accessible."""
    out = tmp_path / "partial"
    run_campaign(CAMPAIGN, seed=3, store="jsonl", out=out)
    (out / "manifest.json").unlink()
    loaded = JsonlResultStore.load(out)
    assert loaded.manifest is None
    assert loaded.load_point(2).n_records == 128


# ---------------------------------------------------------------------------
# Buffered append mode (flush_every > 1)
# ---------------------------------------------------------------------------
def test_buffered_store_round_trip_matches_per_point_flushing(tmp_path, stored):
    _, reference = stored
    out = tmp_path / "buffered"
    buffered = run_campaign(
        CAMPAIGN, seed=3, store="jsonl", out=out, flush_every=3
    )
    for a, b in zip(reference.results(), buffered.results()):
        assert a.to_json() == b.to_json()
    loaded = JsonlResultStore.load(out)
    assert loaded.manifest == buffered.store.manifest
    assert [meta["point"] for meta in loaded.point_metas()] == [
        meta["point"] for meta in buffered.store.point_metas()
    ]


def test_buffered_store_defers_disk_writes_until_threshold(tmp_path, stored):
    """Lines accumulate in the append buffer and land in whole batches
    — the partial file on disk only ever holds complete lines."""
    out_dir, reference = stored
    store = JsonlResultStore(tmp_path / "buffered", flush_every=2)
    from repro.campaigns.executors import PointOutcome

    plan = CAMPAIGN.compile(3)
    pairs = list(JsonlResultStore.load(out_dir).iter_results())
    path = store.root / store.RESULTS_NAME
    meta, result = pairs[0]
    store.add(PointOutcome(point=plan[meta["point"]], result=result, wall_s=1.0))
    assert path.stat().st_size == 0  # still buffered
    meta, result = pairs[1]
    store.add(PointOutcome(point=plan[meta["point"]], result=result, wall_s=1.0))
    size_after_flush = path.stat().st_size
    assert size_after_flush > 0
    with path.open() as handle:
        lines = handle.readlines()
    assert len(lines) == 2
    for line in lines:
        json.loads(line)  # every flushed line is complete JSON
    # One more buffered point: not on disk yet, but readable through the
    # store (result_for flushes pending lines first).
    meta, result = pairs[2]
    store.add(PointOutcome(point=plan[meta["point"]], result=result, wall_s=1.0))
    assert path.stat().st_size == size_after_flush
    fetched = store.result_for(meta["point"])
    assert fetched.to_json() == result.to_json()
    assert path.stat().st_size > size_after_flush


def test_buffered_store_partial_run_loses_only_the_tail(tmp_path, stored):
    out_dir, _ = stored
    store = JsonlResultStore(tmp_path / "buffered", flush_every=3)
    from repro.campaigns.executors import PointOutcome

    plan = CAMPAIGN.compile(3)
    pairs = list(JsonlResultStore.load(out_dir).iter_results())
    for meta, result in pairs:  # 4 points: one flush of 3, 1 buffered
        store.add(
            PointOutcome(point=plan[meta["point"]], result=result, wall_s=1.0)
        )
    # Simulate a crash: reload the directory without finalize — the
    # buffered point never reached disk, the three flushed ones did.
    loaded = JsonlResultStore.load(tmp_path / "buffered")
    assert loaded.manifest is None
    assert len(loaded.point_metas()) == 3


def test_buffered_store_finalize_flushes_everything(tmp_path):
    out = tmp_path / "buffered"
    result = run_campaign(CAMPAIGN, seed=3, store="jsonl", out=out, flush_every=1000)
    lines = (out / "results.jsonl").read_text().strip().splitlines()
    assert len(lines) == len(result.plan)


def test_flush_every_validation(tmp_path):
    with pytest.raises(ValueError, match="flush_every"):
        JsonlResultStore(tmp_path / "x", flush_every=0)
    with pytest.raises(ValueError, match="jsonl"):
        make_store("memory", flush_every=8)
    with pytest.raises(ValueError, match="jsonl"):
        make_store(None, flush_every=8)
    with pytest.raises(ValueError, match="jsonl"):
        make_store(MemoryResultStore(), flush_every=8)
    store = JsonlResultStore(tmp_path / "y", flush_every=4)
    assert make_store(store, flush_every=4) is store
    with pytest.raises(ValueError, match="conflicts"):
        make_store(store, flush_every=2)
    configured = make_store("jsonl", out=tmp_path / "z", flush_every=6)
    assert configured.flush_every == 6
