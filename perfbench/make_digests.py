"""Rewrite digests.json: the digest of round 0 of every workload for
seeds 0-511 and the held-out seed.

    python3 perfbench/make_digests.py

Run it only when a change is meant to alter what is simulated; a change
meant only for speed must leave every digest as it is.
"""

import json
import sys

import run

SEEDS = list(range(512)) + [run.HELD_OUT_SEED]


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    from workloads import WORKLOADS
    table = {name: {str(seed): run.reference_digest(cls, seed)
                    for seed in SEEDS}
             for name, cls in WORKLOADS.items()}
    run.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
