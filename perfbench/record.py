"""Re-record ``perfbench/expected.json``: the digest of every cell.

Run from the repository root after a change that is *meant* to alter
simulated results (placement, timing arithmetic), never to make a failing
check pass::

    python3 perfbench/record.py

The fig2 workloads ignore the seed, so they are recorded once. The seeded
workloads are recorded for benchmark seeds ``0 .. RECORDED_SEEDS-1``; at any
other seed ``run.py`` checks repeatability and invariants only.
"""

from __future__ import annotations

import json
import sys

from run import EXPECTED, ROOT

DIGEST_CHARS = 16
MADE_WITH_SEED = 0
RECORDED_SEEDS = 40


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    digests: dict[str, dict[str, str]] = {}
    recorded_seeds: dict[str, list[int]] = {}
    for workload in WORKLOADS.values():
        seeds = list(range(RECORDED_SEEDS)) if workload.seeded else [MADE_WITH_SEED]
        table = digests.setdefault(workload.name, {})
        for seed in seeds:
            for cell in workload.run_pass(seed, None).cells:
                if cell.error:
                    print(f"{workload.name} seed {seed} {cell.key}: {cell.error}",
                          file=sys.stderr)
                    return 1
                table[cell.key] = cell.digest[:DIGEST_CHARS]
            print(f"{workload.name} seed {seed}: {len(table)} digests", flush=True)
        if workload.seeded:
            recorded_seeds[workload.name] = seeds
    payload = {
        "made_with_seed": MADE_WITH_SEED,
        "recorded_seeds": recorded_seeds,
        "digests": digests,
    }
    with open(EXPECTED, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
