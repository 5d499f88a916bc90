"""Executor parity: serial / process are bit-identical per point.

The acceptance bar for the campaign subsystem: a ≥64-point campaign
(grid × replicates) produces bit-identical per-point ResultSets under
every executor, at any worker count, on both compute backends.
"""

import numpy as np
import pytest

from repro.campaigns import (
    CampaignSpec,
    MemoryResultStore,
    ProcessExecutor,
    SerialExecutor,
    make_executor,
    run_campaign,
)
from repro.campaigns.executors import MAX_CACHED_RUNNERS, _fetch_runner, _next_uses
from repro.experiments import DnaAssaySpec, Runner, ScreeningSpec

BASE = DnaAssaySpec(probe_count=4, replicates=4, target_subset=(0, 1))
# 4 concentrations × 16 replicates = 64 points (grid × replicates).
CAMPAIGN = CampaignSpec(
    base=BASE,
    grid={"concentration": (1e-8, 1e-7, 1e-6, 1e-5)},
    replicates=16,
    name="parity-64",
)


def _jsons(result):
    return [r.to_json() for r in result.results()]


@pytest.fixture(scope="module")
def serial_object():
    return run_campaign(CAMPAIGN, seed=11, executor="serial")


@pytest.fixture(scope="module")
def serial_vectorized():
    return run_campaign(CAMPAIGN, seed=11, executor="serial", backend="vectorized")


def test_campaign_has_at_least_64_points(serial_object):
    assert len(serial_object) == CAMPAIGN.n_points == 64


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_process_matches_serial_object_backend(serial_object, workers):
    processed = run_campaign(CAMPAIGN, seed=11, executor="process", workers=workers)
    assert _jsons(processed) == _jsons(serial_object)


def test_process_matches_serial_vectorized_backend(serial_vectorized):
    processed = run_campaign(
        CAMPAIGN, seed=11, executor="process", workers=2, backend="vectorized"
    )
    assert _jsons(processed) == _jsons(serial_vectorized)


def test_backends_differ_but_only_within_tolerance_semantics(serial_object, serial_vectorized):
    """Sanity: the two backends consume streams differently, so the
    campaign runs are *not* expected to be bitwise-equal across
    backends — only within each backend."""
    assert _jsons(serial_object) != _jsons(serial_vectorized)
    assert [r.metrics["backend"] for r in serial_vectorized.results()] == ["vectorized"] * 64


def test_replicate_zero_matches_plain_runner(serial_object):
    alone = Runner(seed=11).run(BASE.replace(concentration=1e-8))
    assert serial_object.results()[0].to_json() == alone.without_artifacts().to_json()


def test_replicates_actually_vary(serial_object):
    counts = [tuple(r.column("count")) for r in serial_object.results()[:16]]
    assert len(set(counts)) == 16  # same spec, 16 seeds, 16 different chips


def test_results_come_back_in_plan_order_despite_parallel_completion():
    result = run_campaign(CAMPAIGN, seed=11, executor="process", workers=3)
    metas = result.store.point_metas()
    ordered = sorted(metas, key=lambda m: m["point"])
    assert [m["point"] for m in ordered] == list(range(64))
    assert result.manifest["points"][5]["point"] == 5
    assert all(m["wall_s"] > 0 for m in metas)


def test_campaign_backend_field_and_override():
    campaign = CampaignSpec(base=BASE, grid={"concentration": (1e-6,)}, backend="vectorized")
    from_field = run_campaign(campaign, seed=2)
    assert from_field.results()[0].metrics["backend"] == "vectorized"
    overridden = run_campaign(campaign, seed=2, backend="object")
    assert overridden.results()[0].metrics["backend"] == "object"


def test_serial_executor_rejects_multiple_workers():
    with pytest.raises(ValueError, match="one worker"):
        SerialExecutor(workers=2)
    assert make_executor("serial").name == "serial"
    assert make_executor("process", workers=2).workers == 2
    for removed in ("gpu", "thread", "async"):
        with pytest.raises(ValueError, match="unknown executor"):
            make_executor(removed)


def _walk_cache(plan):
    """Fetch every point's Runner through one plan-aware cache, yielding
    the cache after each fetch."""
    runners = {}
    points = plan.points
    for position, (point, next_use) in enumerate(zip(points, _next_uses(points))):
        assert _fetch_runner(runners, point.seed, position, next_use).seed == point.seed
        yield runners


def test_next_uses_is_the_next_position_of_the_same_seed():
    plan = CampaignSpec(base=BASE, grid={"concentration": (1e-8, 1e-7)}, replicates=3).compile(0)
    # Replicates innermost: seeds recur 3 positions apart.
    assert _next_uses(plan.points) == [3, 4, 5, None, None, None]


def test_runner_cache_is_bounded():
    replicates = MAX_CACHED_RUNNERS * 3
    campaign = CampaignSpec(
        base=BASE, grid={"concentration": (1e-8, 1e-7, 1e-6)}, replicates=replicates
    )
    sizes = [len(runners) for runners in _walk_cache(campaign.compile(seed=5))]
    assert max(sizes) == MAX_CACHED_RUNNERS
    # Nothing recurs after the last round, so nothing stays cached.
    assert sizes[-1] == 0


def test_runner_cache_keeps_a_runner_only_while_its_seed_recurs():
    runners = {}
    once = _fetch_runner(runners, 7, position=0, next_use=None)
    assert once.seed == 7 and runners == {}
    again = _fetch_runner(runners, 8, position=1, next_use=4)
    assert runners == {8: (4, again)}
    assert _fetch_runner(runners, 8, position=4, next_use=None) is again
    assert runners == {}
    # A Runner whose next point already passed (a peer worker ran it)
    # is dropped at the next fetch.
    _fetch_runner(runners, 9, position=5, next_use=6)
    _fetch_runner(runners, 10, position=7, next_use=9)
    assert list(runners) == [10]


def test_runner_cache_evicts_the_runner_needed_furthest_ahead():
    runners = {}
    for seed in range(MAX_CACHED_RUNNERS):
        _fetch_runner(runners, seed, position=seed, next_use=100 + seed)
    furthest = MAX_CACHED_RUNNERS - 1
    _fetch_runner(runners, 99, position=MAX_CACHED_RUNNERS, next_use=50)
    assert len(runners) == MAX_CACHED_RUNNERS
    assert 99 in runners and furthest not in runners
    # A newcomer needed later than everything cached is not kept at all.
    _fetch_runner(runners, 98, position=MAX_CACHED_RUNNERS + 1, next_use=1000)
    assert 98 not in runners and len(runners) == MAX_CACHED_RUNNERS


#: The fault schedule of the end-to-end benchmark's faulted Fig. 4 points
#: (``BASE`` is its Fig. 4 spec).
FIG4_FAULTS = (
    {"kind": "serial_bitflip", "rate": 0.3, "n_flips": 2},
    {"kind": "stuck_pixel", "rate": 0.02},
)
#: Register upsets too: read-only registers hit by one are put back only
#: by the readout's own scrub, which a reused chip depends on.
UPSET_FAULTS = FIG4_FAULTS + ({"kind": "register_corrupt", "rate": 0.1},)


@pytest.fixture(
    scope="module", params=[(), FIG4_FAULTS, UPSET_FAULTS], ids=["clean", "faulted", "upsets"]
)
def fig4_recurring(request):
    """2 concentrations x 17 replicates (every seed recurs 17 points
    later, one past the cache bound) plus each point run alone: its
    result and the register file its chip is left with."""
    base = BASE.replace(faults=request.param)
    campaign = CampaignSpec(base=base, grid={"concentration": (1e-7, 1e-6)}, replicates=17)
    alone = [
        Runner(point.seed).run(point.spec, backend=point.backend)
        for point in campaign.compile(seed=3)
    ]
    return (
        campaign,
        [r.without_artifacts().to_json() for r in alone],
        [r.artifacts["chip"].registers.dump() for r in alone],
    )


@pytest.fixture
def chip_builds(monkeypatch):
    from repro.experiments import workloads

    calls = [0]
    build = workloads._build_dna_chip

    def counted(*args, **kwargs):
        calls[0] += 1
        return build(*args, **kwargs)

    monkeypatch.setattr(workloads, "_build_dna_chip", counted)
    return calls


@pytest.mark.parametrize("executor", ["serial", "batched"])
def test_recurring_seeds_reuse_their_chips(fig4_recurring, chip_builds, executor):
    campaign, alone, registers = fig4_recurring
    result = run_campaign(campaign, seed=3, executor=executor)
    # 17 chips for the first concentration; 16 are kept for the second
    # and one is rebuilt (a least-recently-used cache of 16 would rebuild
    # all 34).
    assert chip_builds[0] == 18
    assert [r.without_artifacts().to_json() for r in result.results()] == alone
    # A faulted point leaves a reused chip's registers as it found them.
    assert [r.artifacts["chip"].registers.dump() for r in result.results()] == registers


def test_recurring_seeds_match_alone_on_process_workers(fig4_recurring):
    campaign, alone, _ = fig4_recurring
    result = run_campaign(campaign, seed=3, executor="process", workers=2)
    assert _jsons(result) == alone


def test_process_executor_rejects_nonpositive_workers():
    with pytest.raises(ValueError, match="workers must be >= 1"):
        ProcessExecutor(workers=0)
    with pytest.raises(ValueError, match="workers must be >= 1"):
        ProcessExecutor(workers=-3)
    assert ProcessExecutor().workers >= 1  # None -> all cores


def test_make_executor_passes_instances_through():
    executor = ProcessExecutor(workers=2)
    assert make_executor(executor) is executor
    assert make_executor(executor, workers=2) is executor  # agreeing count: fine
    with pytest.raises(ValueError, match="conflicts with the provided"):
        make_executor(executor, workers=4)


def test_bad_executor_arguments_never_touch_an_existing_store(tmp_path):
    """The data-loss guard: a finalized campaign must survive a rerun
    that dies on setup validation, even with overwrite=True."""
    campaign = CampaignSpec(base=ScreeningSpec(library_size=500))
    out = tmp_path / "precious"
    run_campaign(campaign, seed=1, store="jsonl", out=out)
    before = (out / "results.jsonl").read_text()
    assert before and (out / "manifest.json").exists()
    with pytest.raises(ValueError, match="seed must be an integer"):
        run_campaign(campaign, seed=1.5, store="jsonl", out=out, overwrite=True)
    with pytest.raises(ValueError, match="unknown backend"):
        run_campaign(
            campaign, seed=1, store="jsonl", out=out, overwrite=True,
            backend="vectorised",  # typo
        )
    with pytest.raises(ValueError, match="does not support backend"):
        run_campaign(
            campaign, seed=1, store="jsonl", out=out, overwrite=True,
            backend="vectorized",  # screening is object-only
        )
    assert (out / "results.jsonl").read_text() == before
    assert (out / "manifest.json").exists()


@pytest.mark.parametrize("seed", [1.5, True, np.float64(2.0), "3"])
def test_run_campaign_rejects_a_non_integer_seed(seed):
    with pytest.raises(ValueError, match="seed must be an integer"):
        run_campaign(CampaignSpec(base=BASE), seed=seed)


def test_run_campaign_accepts_numpy_integer_seeds():
    campaign = CampaignSpec(base=BASE, replicates=2)
    plain = run_campaign(campaign, seed=7)
    wrapped = run_campaign(campaign, seed=np.int64(7))
    assert wrapped.manifest["seed"] == 7
    assert [p.seed for p in wrapped.plan] == [p.seed for p in plain.plan]
    assert [r.to_dict() for r in wrapped.results()] == [r.to_dict() for r in plain.results()]


def test_memory_store_keeps_artifacts_for_in_process_executors():
    campaign = CampaignSpec(base=BASE, grid={"concentration": (1e-6,)})
    store = MemoryResultStore()
    result = run_campaign(campaign, seed=1, executor="serial", store=store)
    assert result.store is store
    assert "chip" in store.outcomes()[0].result.artifacts
    # ... while process results are artifact-free by construction.
    processed = run_campaign(campaign, seed=1, executor="process", workers=1)
    assert processed.results()[0].artifacts == {}
