"""The wafer subsystem's load-bearing invariant: per-die bit-parity.

With the correlated components zeroed (white-only), every die of a
wafer run must be **bit-identical** to a standalone run of the same
die spec at the same derived seed — records and metrics, field by
field.  And whatever the split, results must be invariant to the tile
size the out-of-core evaluator happens to use.
"""

import numpy as np

from repro.experiments import Runner
from repro.wafer import (
    WaferSpec,
    iter_die_outputs,
    wafer_die_seed,
    wafer_field_for,
    wafer_records_and_metrics,
)

WHITE = WaferSpec(
    wafer_diameter_mm=60.0, die_width_mm=12.0, die_height_mm=12.0, rows=8, cols=8
)
CORRELATED = WHITE.replace(radial_gradient=0.3, reticle_sigma=0.2)
SEED = 7


def assert_die_matches_standalone(die, die_spec, records, metrics, seed):
    standalone = Runner(seed=wafer_die_seed(seed, die.grid_x, die.grid_y)).run(die_spec)
    assert set(records) == set(standalone.records)
    for name in records:
        assert np.array_equal(records[name], standalone.records[name]), name
    assert metrics == standalone.metrics


# ---------------------------------------------------------------------------
# White-only parity
# ---------------------------------------------------------------------------
def test_every_white_only_die_is_bit_identical_to_standalone():
    assert WHITE.white_only
    for die, die_spec, records, metrics in iter_die_outputs(WHITE, SEED):
        assert die_spec == WHITE.die_template()
        assert_die_matches_standalone(die, die_spec, records, metrics, SEED)


def test_white_only_parity_holds_with_calibration():
    spec = WHITE.replace(calibrate=True)
    for die, die_spec, records, metrics in iter_die_outputs(spec, SEED):
        assert die_spec.calibrate
        assert_die_matches_standalone(die, die_spec, records, metrics, SEED)


def test_white_only_parity_holds_for_overridden_dies():
    spec = WHITE.replace(
        die_overrides=((1, 1, "frame_s", 0.25), (2, 2, "calibrate", True))
    )
    seen_overridden = 0
    for die, die_spec, records, metrics in iter_die_outputs(spec, SEED):
        if (die.grid_x, die.grid_y) == (1, 1):
            assert die_spec.frame_s == 0.25
            seen_overridden += 1
        elif (die.grid_x, die.grid_y) == (2, 2):
            assert die_spec.calibrate
            seen_overridden += 1
        else:
            assert die_spec == spec.die_template()
        assert_die_matches_standalone(die, die_spec, records, metrics, SEED)
    assert seen_overridden == 2


def test_die_seed_is_keyed_by_grid_coordinate_not_list_position():
    # Widening the exclusion (within the same grid extent) drops dies
    # without reseeding the rest: survivors keep byte-identical records.
    wide = WHITE.replace(edge_exclusion_mm=6.0)
    assert wide.layout().n_grid_x == WHITE.layout().n_grid_x
    assert wide.layout().n_dies < WHITE.layout().n_dies
    full = {
        (die.grid_x, die.grid_y): records
        for die, _, records, _ in iter_die_outputs(WHITE, SEED)
    }
    for die, _, records, _ in iter_die_outputs(wide, SEED):
        reference = full[(die.grid_x, die.grid_y)]
        for name in records:
            assert np.array_equal(records[name], reference[name])


def test_wafer_die_seed_is_stable():
    # Frozen derivation — stored wafer campaigns replay die by die.
    assert wafer_die_seed(7, 1, 2) == wafer_die_seed(7, 1, 2)
    assert wafer_die_seed(7, 1, 2) != wafer_die_seed(7, 2, 1)
    assert wafer_die_seed(8, 1, 2) != wafer_die_seed(7, 1, 2)


# ---------------------------------------------------------------------------
# Correlated mode
# ---------------------------------------------------------------------------
def test_correlated_field_actually_shifts_results():
    white_records, _ = wafer_records_and_metrics(WHITE, SEED)
    corr_records, _ = wafer_records_and_metrics(CORRELATED, SEED)
    assert not np.array_equal(white_records["mean_count"], corr_records["mean_count"])


def test_results_are_invariant_to_tile_size(monkeypatch):
    from repro.engine import vchip

    baseline, base_metrics = wafer_records_and_metrics(CORRELATED, SEED)
    for tile_sites in (64, 257, 1 << 18):
        monkeypatch.setattr(vchip, "STACK_SITES", tile_sites)
        records, metrics = wafer_records_and_metrics(CORRELATED, SEED)
        for name in baseline:
            assert np.array_equal(records[name], baseline[name]), (name, tile_sites)
        assert metrics == base_metrics


def test_injected_field_replays_the_sampled_one():
    field = wafer_field_for(CORRELATED, SEED)
    direct, _ = wafer_records_and_metrics(CORRELATED, SEED)
    injected, _ = wafer_records_and_metrics(CORRELATED, SEED, field=field)
    for name in direct:
        assert np.array_equal(direct[name], injected[name])

