"""Fault injection: sweep readout fault rates and measure resilience.

Protocol-level failure modes — serial bit flips on the 6-pin link,
sequencer stalls, register upsets, stuck pixels — ride on experiment
specs as frozen, serializable entries and sweep as ordinary campaign
axes.  Occurrence patterns are a pure function of (spec, seed), so the
cache, every executor, and resume all work unchanged.  This
walkthrough:

1. runs a faulted assay once and reads the resilient-readout
   accounting (detected, retried, recovered, degraded) off its
   metrics,
2. sweeps ``faults.rate`` as a campaign axis and proves executor
   parity and cache-replay bit-identity under injected faults, and
3. analyzes the campaign with the ``fault_tolerance`` inference spec:
   detection rate, silent-corruption rate and site survival with
   Wilson and bootstrap confidence intervals.

Run:  python examples/fault_sweep.py
"""

import tempfile

from repro.campaigns import CampaignSpec, run_campaign
from repro.experiments import DnaAssaySpec, Runner

FAULTS = (
    # 30% of serial frames get 2 flipped bits (checksum-detectable);
    {"kind": "serial_bitflip", "rate": 0.3, "n_flips": 2},
    # 2% of pixels stick at zero (silent — no checksum sees them).
    {"kind": "stuck_pixel", "rate": 0.02},
)
SPEC = DnaAssaySpec(
    probe_count=4, replicates=4, target_subset=(0, 1), faults=FAULTS
)
CAMPAIGN = CampaignSpec(
    base=SPEC,
    grid={"faults.rate": (0.0, 0.1, 0.3, 0.6)},
    replicates=4,
    name="fault-rate-sweep",
)


def main() -> None:
    # ------------------------------------------------------------------
    # 1. One faulted run: the host reads through the resilient
    #    controller (detect -> bounded retry -> degrade) and the
    #    accounting lands in the metrics.
    # ------------------------------------------------------------------
    result = Runner(seed=3).run(SPEC, backend="object")
    m = result.metrics
    print(
        f"frames: {m['fault_frames_total']} total, "
        f"{m['fault_frames_corrupted']} corrupted, "
        f"{m['fault_frames_recovered']} recovered after "
        f"{m['fault_retries']} retries, {m['fault_frames_lost']} lost"
    )
    print(
        f"sites:  {m['fault_sites_dead']} dead, "
        f"{m['fault_sites_silent']} silently corrupted, "
        f"survival {m['fault_site_survival']:.3f}"
    )

    # Same (spec, seed) => byte-identical result, faults and all.
    assert Runner(seed=3).run(SPEC, backend="object").to_json() == result.to_json()
    print("faulted run is deterministic: serialized results are byte-identical")

    # ------------------------------------------------------------------
    # 2. Sweep the fault rate as a campaign axis.  A dotted grid key
    #    rewrites every fault entry, so one axis scales the whole
    #    fault environment.
    # ------------------------------------------------------------------
    serial = run_campaign(CAMPAIGN, seed=11)
    processed = run_campaign(CAMPAIGN, seed=11, executor="process", workers=2)
    reference = [r.to_json() for r in serial.results()]
    assert [r.to_json() for r in processed.results()] == reference
    print(f"\n{len(serial)} points, process executor bit-identical to serial")

    with tempfile.TemporaryDirectory() as tmp:
        cold = run_campaign(CAMPAIGN, seed=11, cache=tmp)
        warm = run_campaign(CAMPAIGN, seed=11, cache=tmp)
        assert warm.manifest["cache"]["hits"] == len(serial)
        assert [r.to_json() for r in warm.results()] == reference
    print("cache replay of the faulted campaign is bit-identical (100% hits)")

    # ------------------------------------------------------------------
    # 3. The fault_tolerance analysis: how often corruption was
    #    *detected* vs silent, and what fraction of sites survived,
    #    with confidence intervals — grouped by the swept rate.
    # ------------------------------------------------------------------
    report = serial.analyze()  # auto-picks fault_tolerance
    assert report.analysis["kind"] == "fault_tolerance"
    s = report.scalars
    print(
        f"\ndetection rate {s['detection_rate']:.3f} "
        f"[{s['detection_ci_low']:.3f}, {s['detection_ci_high']:.3f}]  "
        f"silent-corruption rate {s['silent_corruption_rate']:.4f}  "
        f"site survival {s['site_survival']:.3f}"
    )
    print()
    print(report.to_text())


if __name__ == "__main__":
    main()
