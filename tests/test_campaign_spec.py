"""CampaignSpec validation, axis expansion, serialization, seed stability."""

import json

import pytest

from repro.campaigns import CampaignSpec, replicate_seed
from repro.experiments import DnaAssaySpec, ScreeningSpec

BASE = DnaAssaySpec(probe_count=4, replicates=4, target_subset=(0, 1))


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------
def test_rejects_non_spec_base():
    with pytest.raises(TypeError, match="ExperimentSpec"):
        CampaignSpec(base={"kind": "dna_assay"})


def test_rejects_unknown_axis_field():
    with pytest.raises(ValueError, match="not on DnaAssaySpec"):
        CampaignSpec(base=BASE, grid={"nonsense": (1, 2)})
    with pytest.raises(ValueError, match="not on DnaAssaySpec"):
        CampaignSpec(base=BASE, zip={"nope": (1,)})


def test_rejects_empty_axis_and_bad_replicates():
    with pytest.raises(ValueError, match="no values"):
        CampaignSpec(base=BASE, grid={"concentration": ()})
    with pytest.raises(ValueError, match="replicates"):
        CampaignSpec(base=BASE, replicates=0)


def test_rejects_grid_zip_overlap_and_ragged_zip():
    with pytest.raises(ValueError, match="both grid and zip"):
        CampaignSpec(
            base=BASE,
            grid={"concentration": (1e-6,)},
            zip={"concentration": (1e-5,)},
        )
    with pytest.raises(ValueError, match="equal lengths"):
        CampaignSpec(base=BASE, zip={"concentration": (1e-6, 1e-5), "frame_s": (1.0,)})


def test_rejects_bare_scalar_axis_values():
    # A lone string must not explode character-by-character, and other
    # scalars must name the axis instead of raising a raw TypeError.
    with pytest.raises(ValueError, match="wrap it in a list"):
        CampaignSpec(base=BASE, grid={"panel": "mismatch"})
    with pytest.raises(ValueError, match="wrap it in a list"):
        CampaignSpec(base=BASE, zip={"panel": "mismatch"})
    with pytest.raises(ValueError, match="'concentration'.*wrap it in a list"):
        CampaignSpec(base=BASE, grid={"concentration": 1e-6})
    assert CampaignSpec(base=BASE, grid={"panel": ("mismatch",)}).n_points == 1


def test_rejects_unknown_backend():
    with pytest.raises(ValueError, match="unknown backend"):
        CampaignSpec(base=BASE, backend="gpu")


# ---------------------------------------------------------------------------
# Expansion
# ---------------------------------------------------------------------------
def test_grid_is_cartesian_product_in_declaration_order():
    campaign = CampaignSpec(
        base=BASE,
        grid={"concentration": (1e-7, 1e-6), "frame_s": (0.5, 1.0, 2.0)},
    )
    assert campaign.n_points == 6
    assignments = campaign.assignments()
    assert assignments[0] == {"concentration": 1e-7, "frame_s": 0.5}
    # Last grid axis varies fastest.
    assert assignments[1] == {"concentration": 1e-7, "frame_s": 1.0}
    assert assignments[-1] == {"concentration": 1e-6, "frame_s": 2.0}


def test_zip_advances_in_lockstep():
    campaign = CampaignSpec(
        base=BASE, zip={"concentration": (1e-7, 1e-6), "frame_s": (0.5, 2.0)}
    )
    assert campaign.n_points == 2
    assert campaign.assignments() == [
        {"concentration": 1e-7, "frame_s": 0.5},
        {"concentration": 1e-6, "frame_s": 2.0},
    ]


def test_replicates_are_innermost_and_share_the_spec():
    campaign = CampaignSpec(base=BASE, grid={"concentration": (1e-7, 1e-6)}, replicates=3)
    plan = campaign.compile(seed=9)
    assert len(plan) == 6
    assert [p.replicate for p in plan] == [0, 1, 2, 0, 1, 2]
    assert plan[0].spec == plan[1].spec == plan[2].spec
    assert plan[0].spec.concentration == 1e-7
    assert plan[3].spec.concentration == 1e-6
    assert [p.index for p in plan] == list(range(6))


def test_axis_values_hit_spec_validation():
    campaign = CampaignSpec(base=BASE, grid={"concentration": (1e-6, -1.0)})
    with pytest.raises(ValueError, match="non-negative"):
        campaign.compile(seed=0)


# ---------------------------------------------------------------------------
# Seed derivation
# ---------------------------------------------------------------------------
def test_replicate_zero_keeps_the_root_seed():
    assert replicate_seed(17, 0) == 17
    assert replicate_seed(17, 1) != 17
    with pytest.raises(ValueError):
        replicate_seed(17, -1)


def test_replicate_seeds_are_stable_and_distinct():
    seeds = [replicate_seed(3, r) for r in range(8)]
    assert seeds == [replicate_seed(3, r) for r in range(8)]  # deterministic
    assert len(set(seeds)) == 8
    assert [replicate_seed(4, r) for r in range(1, 8)] != seeds[1:]  # root-sensitive


def test_point_seed_independent_of_surrounding_axes():
    """Extending an axis must not reseed existing points."""
    small = CampaignSpec(base=BASE, grid={"concentration": (1e-6,)}, replicates=2)
    large = CampaignSpec(
        base=BASE, grid={"concentration": (1e-8, 1e-7, 1e-6)}, replicates=2
    )
    small_points = {
        (p.spec.content_hash(), p.replicate): p.seed for p in small.compile(seed=5)
    }
    large_points = {
        (p.spec.content_hash(), p.replicate): p.seed for p in large.compile(seed=5)
    }
    for key, seed in small_points.items():
        assert large_points[key] == seed


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------
def test_numpy_axis_values_are_normalized_at_construction():
    """tuple(np.arange(...)) axes must serialize all the way through
    (content_hash, JSONL lines, manifests) — no 'int64 is not JSON
    serializable' mid-campaign."""
    import numpy as np

    campaign = CampaignSpec(
        base=BASE,
        grid={"probe_count": np.arange(2, 6, 2)},
        zip={"replicates": (np.int64(4), np.int64(8))},
    )
    assert campaign.grid["probe_count"] == (2, 4)
    assert all(type(v) is int for v in campaign.grid["probe_count"])
    assert all(type(v) is int for v in campaign.zip["replicates"])
    json.dumps(campaign.to_dict())  # round-trips cleanly
    plan = campaign.compile(seed=1)
    json.dumps(plan.describe())
    assert plan[0].spec.to_json()  # spec fields are plain python too


def test_campaign_round_trips_through_json():
    campaign = CampaignSpec(
        base=ScreeningSpec(library_size=2000),
        grid={"viable_rate": (1e-4, 1e-3)},
        zip={},
        replicates=2,
        backend=None,
        name="screen-mc",
    )
    back = CampaignSpec.from_json(campaign.to_json())
    assert back == campaign
    assert CampaignSpec.from_dict(json.loads(campaign.to_json())) == campaign
    assert back.base == campaign.base
    assert back.n_points == 4


def test_from_dict_rejects_garbage():
    with pytest.raises(ValueError, match="'base' spec"):
        CampaignSpec.from_dict({"grid": {}})
    with pytest.raises(ValueError, match="unknown campaign fields"):
        CampaignSpec.from_dict({"base": BASE.to_dict(), "bogus": 1})


def test_summary_mentions_shape():
    campaign = CampaignSpec(
        base=BASE, grid={"concentration": (1e-7, 1e-6)}, replicates=4, name="fig4"
    )
    text = campaign.summary()
    assert "fig4" in text and "8 points" in text and "concentration×2" in text
