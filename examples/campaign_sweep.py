"""Campaign sweep: Fig. 4's concentration series × Fig. 6-style chip
Monte Carlo, through the declarative campaign front door.

One ``CampaignSpec`` replaces the for-loop: a ``grid`` axis sweeps the
target concentration (the Fig. 4 dose series) while ``replicates``
re-runs every dose on freshly seeded chips (chip-to-chip spread, the
Fig. 6 argument).  The process executor fans points out across cores —
bit-identical to a serial run — and the JSONL store streams results to
disk with a provenance manifest, so nothing accumulates in RAM and the
sweep can be reloaded and re-reported later without re-running.

Run:  python examples/campaign_sweep.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.campaigns import CampaignSpec, JsonlResultStore, manifest_summary, run_campaign
from repro.core import units
from repro.experiments import DnaAssaySpec


def main() -> None:
    campaign = CampaignSpec(
        base=DnaAssaySpec(
            probe_count=8,
            replicates=8,
            target_subset=(0, 1, 2, 3),
        ),
        grid={"concentration": tuple(c * units.nM for c in (0.1, 1.0, 10.0, 100.0))},
        replicates=4,  # 4 independently seeded chips per dose
        name="fig4-dose-series-x-chip-mc",
    )
    print(campaign.summary())

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "campaign"
        result = run_campaign(
            campaign,
            seed=1,
            executor="process",      # serial gives bit-identical results
            store="jsonl",
            out=out,
        )
        print()
        print(manifest_summary(result.manifest))
        print()
        print(result.table(metrics=["discrimination_ratio", "median_match_current_a"]))

        # The store is the archive: reload and aggregate without re-running.
        # Each replicate is an independently seeded chip, so the spread
        # of the *measured* match current across replicates is the
        # chip-to-chip variation (mismatch + measurement noise) on top
        # of the shared chemistry.
        loaded = JsonlResultStore.load(out)
        per_dose: dict = {}
        for meta, point_result in loaded.iter_results():
            match = point_result.select(point_result.column("is_match"))
            measured = float(np.median(match["current_estimate_a"]))
            per_dose.setdefault(meta["assignment"]["concentration"], []).append(measured)
        print()
        print("chip-to-chip spread of the measured match current (4 chips/dose):")
        for dose, medians in sorted(per_dose.items()):
            values = np.asarray(medians)
            spread = (values.max() - values.min()) / values.mean()
            print(
                f"  {dose / units.nM:6.1f} nM: "
                f"median {units.si_format(float(np.median(values)), 'A')}, "
                f"chip-to-chip spread {100 * spread:.2f}%"
            )


if __name__ == "__main__":
    main()
