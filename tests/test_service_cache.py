"""ResultCache correctness: accounting, dedup, corruption, concurrency."""

import json
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaigns import CampaignSpec, run_campaign
from repro.experiments import (
    ArrayScaleSpec,
    DnaAssaySpec,
    NeuralRecordingSpec,
    Runner,
    ScreeningSpec,
)
from repro.service import (
    CACHE_SCHEMA,
    KEY_SCHEMA,
    CachedDispatch,
    ResultCache,
    content_digest,
    make_cache,
    plan_keys,
    point_key,
)

BASE = DnaAssaySpec(probe_count=4, replicates=4, target_subset=(0, 1))
CAMPAIGN = CampaignSpec(
    base=BASE, grid={"concentration": (1e-7, 1e-6)}, replicates=2, name="cache-test"
)


def _payloads(result):
    return json.dumps(
        {meta["point"]: res.to_dict() for meta, res in result.iter_results()},
        sort_keys=True,
    )


# ---------------------------------------------------------------------------
# Hit/miss accounting
# ---------------------------------------------------------------------------
def test_get_put_get_counts_hits_and_misses(tmp_path):
    cache = ResultCache(root=tmp_path / "cache")
    result = Runner(seed=1).run(BASE)
    key = point_key(BASE.to_dict(), 1, "object", "x")
    assert cache.get(key) is None
    cache.put(key, result)
    assert cache.get(key) is not None
    assert key in cache
    stats = cache.stats_dict()
    assert (stats["hits"], stats["misses"], stats["puts"]) == (1, 1, 1)
    assert stats["entries"] == 1


def test_memory_only_cache_needs_no_directory():
    cache = ResultCache()  # root=None
    result = Runner(seed=1).run(BASE)
    cache.put("k", result)
    assert cache.get("k") is not None
    assert cache.n_entries() == 1
    assert cache.stats_dict()["root"] is None


def test_memory_lru_evicts_but_disk_still_serves(tmp_path):
    cache = ResultCache(root=tmp_path / "cache", max_memory=1)
    result = Runner(seed=1).run(BASE)
    cache.put("a" * 64, result)
    cache.put("b" * 64, result)  # evicts "a..." from memory
    assert cache.stats.evictions == 1
    assert cache.get("a" * 64) is not None  # served from disk
    assert cache.stats.disk_hits == 1


def test_disk_cache_survives_reopen(tmp_path):
    result = Runner(seed=1).run(BASE)
    ResultCache(root=tmp_path / "cache").put("k" * 64, result)
    reopened = ResultCache(root=tmp_path / "cache")
    restored = reopened.get("k" * 64)
    assert restored is not None
    assert restored.to_dict() == result.without_artifacts().to_dict()


def test_schema_mismatch_refuses_the_directory(tmp_path):
    root = tmp_path / "cache"
    ResultCache(root=root)
    (root / "cache.json").write_text(json.dumps({"schema": "repro-cache/999"}))
    with pytest.raises(ValueError, match="schema"):
        ResultCache(root=root)


def test_make_cache_resolution(tmp_path):
    assert make_cache(None) is None
    cache = ResultCache(root=tmp_path / "cache")
    assert make_cache(cache) is cache
    assert make_cache(tmp_path / "other").root == tmp_path / "other"
    with pytest.raises(TypeError, match="cache"):
        make_cache(42)


# ---------------------------------------------------------------------------
# Cross-campaign dedup + bit-identical replay
# ---------------------------------------------------------------------------
def test_identical_resubmission_is_all_hits_and_bit_identical(tmp_path):
    cache = ResultCache(root=tmp_path / "cache")
    cold = run_campaign(CAMPAIGN, seed=1, cache=cache)
    warm = run_campaign(CAMPAIGN, seed=1, cache=cache)
    assert cold.manifest["cache"] == {
        "n_points": 4, "n_unique": 4, "hits": 0, "computed": 4, "replayed": 0, "failed": 0,
    }
    assert warm.manifest["cache"] == {
        "n_points": 4, "n_unique": 4, "hits": 4, "computed": 0, "replayed": 0, "failed": 0,
    }
    assert _payloads(warm) == _payloads(cold)


def test_overlapping_grids_share_work_across_campaigns(tmp_path):
    cache = ResultCache(root=tmp_path / "cache")
    first = CampaignSpec(base=BASE, grid={"concentration": (1e-7, 1e-6)})
    second = CampaignSpec(base=BASE, grid={"concentration": (1e-6, 1e-5)})
    run_campaign(first, seed=1, cache=cache)
    overlap = run_campaign(second, seed=1, cache=cache)
    # 1e-6 was computed by the first campaign; only 1e-5 is new.
    assert overlap.manifest["cache"]["hits"] == 1
    assert overlap.manifest["cache"]["computed"] == 1


def test_duplicate_points_within_a_campaign_compute_once(tmp_path):
    # A zip axis repeating the same value yields identical points.
    duplicated = CampaignSpec(base=BASE, zip={"concentration": (1e-6, 1e-6, 1e-6)})
    result = run_campaign(duplicated, seed=1, cache=ResultCache(root=tmp_path / "c"))
    assert result.manifest["cache"] == {
        "n_points": 3, "n_unique": 1, "hits": 0, "computed": 1, "replayed": 2, "failed": 0,
    }
    payloads = [res.to_dict() for res in result.results()]
    assert payloads[0] == payloads[1] == payloads[2]


def test_cached_run_matches_uncached_run(tmp_path):
    plain = run_campaign(CAMPAIGN, seed=2)
    cached = run_campaign(CAMPAIGN, seed=2, cache=ResultCache(root=tmp_path / "c"))
    assert _payloads(cached) == _payloads(plain)


def test_different_seed_backend_or_version_never_hits(tmp_path):
    plan = CAMPAIGN.compile(1)
    keys_a = plan_keys(plan)
    assert set(plan_keys(plan, engine_version="0.0").values()).isdisjoint(keys_a.values())
    assert set(plan_keys(CAMPAIGN.compile(2)).values()).isdisjoint(keys_a.values())
    vectorized = CAMPAIGN.compile(1, backend="vectorized")
    assert set(plan_keys(vectorized).values()).isdisjoint(keys_a.values())


# ---------------------------------------------------------------------------
# Plan keys: each point carries its resolved backend; keys never moved
# ---------------------------------------------------------------------------
ARRAY = ArrayScaleSpec(rows=8, cols=8)

#: name -> (campaign, compile-time override, each point's backend, the
#: keys at seed 3 under engine 1.10.0).  The hex was recorded from the
#: campaign-level backend resolution; cache directories written then
#: must keep hitting, so per-point backends must reproduce it exactly.
PINNED_PLAN_KEYS = {
    "dna_grid": (
        CampaignSpec(base=BASE, grid={"concentration": (1e-7, 1e-6)}, replicates=2),
        None,
        ("object",) * 4,
        (
            "18d18ba6f2c8302ac2c8ee9111e7229d0f738bf71964e340a02020b0b9755cc0",
            "471ef0fff8f94516c824971c6f8de79236fbf88b89aeb04093de6a342b57481a",
            "ed6d64b57674099ef0bf102d052e575c529be58e7be1ab5fc56675e77d115326",
            "3d7aa68c0d7865810d6fd985a2a829a785037c6c8d318628e59102aa80ff6158",
        ),
    ),
    "array_scale_spec_default": (
        CampaignSpec(base=ARRAY, replicates=2),
        None,
        ("vectorized",) * 2,
        (
            "9b22e344b3ae0afad441dc2fc252b0651756ed24aa0464c123b99ade25f0c6c9",
            "1f11ca9d29baa50d3273c241337422120dba8be76b05edc397435603174b74fb",
        ),
    ),
    "campaign_backend_object": (
        CampaignSpec(base=ARRAY, backend="object"),
        None,
        ("object",),
        ("7f303176d276cf7e74d2369dc1e24237fec96394e55c423a34167857c15afe5b",),
    ),
    "grid_over_spec_backend": (
        CampaignSpec(base=ARRAY, grid={"backend": ("object", "vectorized")}),
        None,
        ("object", "vectorized"),
        (
            "77bd900f6f764d5f4b6baf12ec451398426a74b9c8176d54915c0f144e79fe64",
            "9b22e344b3ae0afad441dc2fc252b0651756ed24aa0464c123b99ade25f0c6c9",
        ),
    ),
    "neural_vectorized_override": (
        CampaignSpec(base=NeuralRecordingSpec(n_neurons=4)),
        "vectorized",
        ("vectorized",),
        ("0851806a9b8b7debe1ad8cdc36c213006664bae2c8b98dc0f329f75812baa828",),
    ),
    "vectorized_campaign_overridden_to_object": (
        CampaignSpec(base=ARRAY, backend="vectorized"),
        "object",
        ("object",),
        ("7f303176d276cf7e74d2369dc1e24237fec96394e55c423a34167857c15afe5b",),
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_PLAN_KEYS))
def test_plan_keys_match_the_pinned_hex(name):
    campaign, override, backends, expected = PINNED_PLAN_KEYS[name]
    plan = campaign.compile(3, backend=override)
    assert tuple(point.backend for point in plan) == backends
    keys = plan_keys(plan, engine_version="1.10.0")
    assert tuple(keys[point.index] for point in plan) == expected


def _frozen_point_key(spec_dict, seed, backend, engine_version):
    """The key derivation before points carried their backend: a
    campaign-level ``backend`` of ``None`` fell back to the spec's own
    ``backend`` field, then to ``"object"``."""
    if backend is None:
        backend = str(spec_dict.get("backend", "object") or "object")
    return content_digest(
        {
            "schema": KEY_SCHEMA,
            "spec": dict(spec_dict),
            "seed": int(seed),
            "backend": str(backend),
            "version": str(engine_version),
        }
    )


BACKEND_CHOICES = st.sampled_from([None, "object", "vectorized"])


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["dna_assay", "array_scale", "neural_recording", "screening"]),
    campaign_backend=BACKEND_CHOICES,
    override=BACKEND_CHOICES,
    backend_axis=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_plan_keys_resolve_like_the_campaign_level_backend(
    kind, campaign_backend, override, backend_axis, seed
):
    base = {
        "dna_assay": BASE,
        "array_scale": ARRAY,
        "neural_recording": NeuralRecordingSpec(n_neurons=4),
        "screening": ScreeningSpec(library_size=500),
    }[kind]
    grid = {"backend": ("object", "vectorized")} if backend_axis and kind == "array_scale" else {}
    campaign = CampaignSpec(base=base, grid=grid, replicates=2, backend=campaign_backend)
    level = override if override is not None else campaign_backend
    try:
        plan = campaign.compile(seed, backend=override)
    except ValueError as error:
        # Only an object-only kind asked to run vectorized is refused.
        assert kind == "screening" and level == "vectorized", error
        return
    assert kind != "screening" or level != "vectorized"
    expected = {
        point.index: _frozen_point_key(point.spec.to_dict(), point.seed, level, "9.9")
        for point in plan
    }
    assert plan_keys(plan, engine_version="9.9") == expected


def test_cache_entries_record_meta(tmp_path):
    cache = ResultCache(root=tmp_path / "cache")
    run_campaign(CAMPAIGN, seed=1, cache=cache)
    entries = sorted((tmp_path / "cache" / "objects").glob("??/*.json"))
    assert len(entries) == 4
    entry = json.loads(entries[0].read_text())
    assert entry["schema"] == CACHE_SCHEMA
    assert entry["key"] == entries[0].stem
    assert entry["meta"]["kind"] == "dna_assay"
    assert entry["meta"]["spec_hash"]


# ---------------------------------------------------------------------------
# Corruption: recompute, never crash, never a wrong number
# ---------------------------------------------------------------------------
def _corrupt_one_entry(root, mutate):
    path = sorted(root.glob("objects/??/*.json"))[0]
    entry = json.loads(path.read_text())
    mutate(path, entry)
    return path


@pytest.mark.parametrize(
    "mutate",
    [
        lambda path, entry: path.write_text("not json {"),
        lambda path, entry: path.write_text(json.dumps({**entry, "key": "0" * 64})),
        lambda path, entry: path.write_text(json.dumps({**entry, "result_sha256": "0" * 64})),
        lambda path, entry: path.write_text(json.dumps({"schema": "bogus/1"})),
        lambda path, entry: path.write_text(path.read_text()[: len(path.read_text()) // 2]),
    ],
    ids=["unparseable", "wrong-key", "bad-digest", "wrong-schema", "truncated"],
)
def test_corrupt_entry_is_a_miss_and_gets_recomputed(tmp_path, mutate):
    root = tmp_path / "cache"
    cold = run_campaign(CAMPAIGN, seed=1, cache=ResultCache(root=root, max_memory=0))
    _corrupt_one_entry(root, mutate)
    # Fresh instance: nothing in memory, every read verifies the disk.
    cache = ResultCache(root=root, max_memory=0)
    warm = run_campaign(CAMPAIGN, seed=1, cache=cache)
    assert warm.manifest["cache"]["hits"] == 3
    assert warm.manifest["cache"]["computed"] == 1  # the corrupted one
    assert cache.stats.corrupt == 1
    assert _payloads(warm) == _payloads(cold)
    # put() repaired the entry: a third run is all hits.
    repaired = run_campaign(CAMPAIGN, seed=1, cache=ResultCache(root=root, max_memory=0))
    assert repaired.manifest["cache"]["hits"] == 4


def test_missing_entry_file_is_a_plain_miss_not_corrupt(tmp_path):
    cache = ResultCache(root=tmp_path / "cache")
    assert cache.get("f" * 64) is None
    assert cache.stats.corrupt == 0
    assert cache.stats.misses == 1


# ---------------------------------------------------------------------------
# Concurrent writers
# ---------------------------------------------------------------------------
def test_concurrent_writers_on_one_cache_dir(tmp_path):
    root = tmp_path / "cache"
    result = Runner(seed=1).run(BASE).without_artifacts()
    keys = [format(n, "064x") for n in range(8)]
    errors = []

    def writer():
        try:
            cache = ResultCache(root=root, max_memory=0)
            for key in keys:
                cache.put(key, result)
                got = cache.get(key)
                assert got is not None
                assert got.to_dict() == result.to_dict()
        except Exception as error:  # noqa: BLE001 — collected for the assert
            errors.append(error)

    threads = [threading.Thread(target=writer) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []
    survivor = ResultCache(root=root)
    assert survivor.n_entries() == len(keys)
    for key in keys:
        assert survivor.get(key).to_dict() == result.to_dict()
    # No temp-file litter from the atomic writes.
    assert not list(root.glob("objects/??/*.tmp"))


def test_dispatch_requires_matching_plan_and_summary(tmp_path):
    cache = ResultCache(root=tmp_path / "cache")
    plan = CAMPAIGN.compile(1)
    from repro.campaigns import SerialExecutor

    dispatch = CachedDispatch(plan, SerialExecutor(), cache)
    outcomes = list(dispatch.outcomes())
    assert sorted(outcome.point.index for outcome in outcomes) == [0, 1, 2, 3]
    assert dispatch.summary()["computed"] == 4


