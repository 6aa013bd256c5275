"""Write ``seedpool.json``: each campaign cell's candidate seeds by cost.

    PYTHONPATH=src python -m benchmarks.suite.seedpool

Runs every candidate seed of every campaign cell once with
``run_campaign`` at the workload's trial count and sorts the candidates
by the campaign's simulated cycles (the sum over its trials, so a trial
that hangs counts its whole fuel).  :func:`workloads.campaign_seed`
draws from this order.  Rerun it when a change alters trial outcomes,
which shows as changed digests; takes a few minutes.
"""

from __future__ import annotations

import json
import sys
from statistics import median

from benchmarks.suite.workloads import (
    POOL_SIZE,
    SEED_POOL,
    WORKLOADS,
    CampaignWorkload,
    pool_seed,
)


def main() -> int:
    from repro.faults.campaign import run_campaign

    cells = {}
    for workload in WORKLOADS.values():
        if isinstance(workload, CampaignWorkload):
            cells.update(workload.setup(0, False, None).cells)
    order = {}
    for label, campaign in sorted(cells.items()):
        cost = {
            k: sum(t.cycles for t in run_campaign(
                campaign, seed=pool_seed(label, k)).trials)
            for k in range(POOL_SIZE)
        }
        order[label] = sorted(cost, key=lambda k: (cost[k], k))
        print(f"{label:<22} cycles min {min(cost.values())} median "
              f"{median(cost.values()):.0f} max {max(cost.values())}",
              flush=True)
    # One cell per line keeps the file readable and its diffs small.
    rows = ",\n".join(f"  {json.dumps(label)}: {json.dumps(ks)}"
                      for label, ks in order.items())
    SEED_POOL.write_text(
        f'{{"pool_size": {POOL_SIZE},\n'
        f'"cost": "sum of trial cycles of run_campaign, cheapest first",\n'
        f'"cells": {{\n{rows}\n}}}}\n'
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
