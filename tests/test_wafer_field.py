"""The correlated mismatch field: variance split, determinism, draw order."""

import hashlib

import numpy as np
import pytest

from repro.core.rng import SeedTree
from repro.engine.params import DEFAULT_SIGMA_CINT_REL, DEFAULT_SIGMA_OFFSET_V
from repro.wafer import WaferSpec, sample_field, wafer_field_for

SPEC = WaferSpec(
    wafer_diameter_mm=60.0,
    die_width_mm=12.0,
    die_height_mm=12.0,
    rows=8,
    cols=8,
    radial_gradient=0.3,
    reticle_sigma=0.2,
)

# SHA256 over every placed die's (offset, cint) planes for SPEC at root
# seed 12345 — the frozen bytes of the correlated field.  If this test
# fails, the field recipe changed and every stored correlated wafer run
# is silently invalidated.
FIELD_DIGEST = "83d91ca2e90642bee00c22e15b2ce82ff158c450d9d2a918b7b2169464c71bee"


def field_digest(field):
    digest = hashlib.sha256()
    for die in field.layout.dies:
        offset, cint = field.die_planes(die)
        digest.update(np.ascontiguousarray(offset).tobytes())
        digest.update(np.ascontiguousarray(cint).tobytes())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Variance decomposition
# ---------------------------------------------------------------------------
def test_radial_profile_is_standardised_over_placed_pixels():
    field = wafer_field_for(SPEC, 0)
    profiles = np.stack([field.radial_profile(d) for d in field.layout.dies])
    assert float(profiles.mean()) == pytest.approx(0.0, abs=1e-12)
    assert float(profiles.var()) == pytest.approx(1.0, rel=1e-12)


def test_radial_component_variance_is_exactly_its_share():
    # Standardisation makes the radial share exact (population variance
    # over placed pixels), not just exact in expectation.
    field = wafer_field_for(SPEC, 0)
    profiles = np.stack([field.radial_profile(d) for d in field.layout.dies])
    radial_offset = field.radial_amp_offset_v * profiles
    assert float(radial_offset.var()) == pytest.approx(
        SPEC.radial_gradient * DEFAULT_SIGMA_OFFSET_V**2, rel=1e-9
    )
    radial_cint = field.radial_amp_cint_rel * profiles
    assert float(radial_cint.var()) == pytest.approx(
        SPEC.radial_gradient * DEFAULT_SIGMA_CINT_REL**2, rel=1e-9
    )


def test_reticle_component_variance_matches_its_share():
    # One die per reticle on a large wafer -> enough independent
    # exposures for the sample variance to sit near its share.
    spec = WaferSpec(
        wafer_diameter_mm=150.0,
        die_width_mm=8.0,
        die_height_mm=8.0,
        rows=4,
        cols=4,
        reticle_rows=1,
        reticle_cols=1,
        radial_gradient=0.0,
        reticle_sigma=0.5,
    )
    field = wafer_field_for(spec, 11)
    assert field.layout.n_reticles > 200
    offsets = np.asarray(
        [field.reticle_offset_v[d.reticle_y, d.reticle_x] for d in field.layout.dies]
    )
    expected = spec.reticle_sigma * DEFAULT_SIGMA_OFFSET_V**2
    assert float(offsets.var()) == pytest.approx(expected, rel=0.25)
    cints = np.asarray(
        [field.reticle_cint_rel[d.reticle_y, d.reticle_x] for d in field.layout.dies]
    )
    assert float(cints.var()) == pytest.approx(
        spec.reticle_sigma * DEFAULT_SIGMA_CINT_REL**2, rel=0.25
    )


def test_white_scale_is_sqrt_of_the_remaining_fraction():
    field = wafer_field_for(SPEC, 0)
    assert field.white_scale == pytest.approx(np.sqrt(SPEC.white_fraction))
    assert wafer_field_for(SPEC.replace(radial_gradient=0.0, reticle_sigma=0.0), 0).white_scale == 1.0


def test_variance_fractions_sum_to_total():
    # The three shares reconstruct the engine's default variance.
    field = wafer_field_for(SPEC, 3)
    total = (
        field.white_scale**2 * DEFAULT_SIGMA_OFFSET_V**2
        + SPEC.radial_gradient * DEFAULT_SIGMA_OFFSET_V**2
        + SPEC.reticle_sigma * DEFAULT_SIGMA_OFFSET_V**2
    )
    assert total == pytest.approx(DEFAULT_SIGMA_OFFSET_V**2)


# ---------------------------------------------------------------------------
# Determinism and draw order
# ---------------------------------------------------------------------------
def test_field_bytes_are_frozen_for_a_fixed_seed():
    assert field_digest(wafer_field_for(SPEC, 12345)) == FIELD_DIGEST


def test_wafer_field_for_matches_the_runner_stream():
    rng = SeedTree(7).generator("wafer", "field", SPEC.facet("field"))
    direct = sample_field(SPEC, rng)
    via = wafer_field_for(SPEC, 7)
    assert field_digest(direct) == field_digest(via)


def test_draw_order_is_independent_of_the_split():
    # All four stream draws happen regardless of the fractions, so from
    # the same generator state the underlying realisation is shared and
    # only the scaling differs.
    a = sample_field(SPEC, np.random.default_rng(42))
    b = sample_field(
        SPEC.replace(radial_gradient=0.0, reticle_sigma=0.8), np.random.default_rng(42)
    )
    np.testing.assert_allclose(
        a.reticle_offset_v / np.sqrt(SPEC.reticle_sigma),
        b.reticle_offset_v / np.sqrt(0.8),
    )
    c = sample_field(
        SPEC.replace(radial_gradient=0.9, reticle_sigma=0.0), np.random.default_rng(42)
    )
    assert np.sign(a.radial_amp_offset_v) == np.sign(c.radial_amp_offset_v)


def test_white_only_field_has_no_correlated_component():
    field = wafer_field_for(SPEC.replace(radial_gradient=0.0, reticle_sigma=0.0), 5)
    assert field.white_only
    assert field.radial_amp_offset_v == 0.0
    assert not field.reticle_offset_v.any()
    assert not wafer_field_for(SPEC, 5).white_only


def test_reticle_offsets_cover_the_full_reticle_extent():
    field = wafer_field_for(SPEC, 9)
    layout = field.layout
    assert field.reticle_offset_v.shape == (layout.n_reticle_y, layout.n_reticle_x)
    assert field.reticle_cint_rel.shape == (layout.n_reticle_y, layout.n_reticle_x)


# ---------------------------------------------------------------------------
# Spec-side validation of the split
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(radial_gradient=-0.1), r"radial_gradient must lie in \[0, 1\]"),
        (dict(reticle_sigma=1.5), r"reticle_sigma must lie in \[0, 1\]"),
        (dict(radial_gradient=0.7, reticle_sigma=0.7), "exceed the total"),
    ],
)
def test_invalid_variance_split_raises(kwargs, message):
    with pytest.raises(ValueError, match=message):
        SPEC.replace(**kwargs)
