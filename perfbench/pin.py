"""Recompute the pinned outcome fingerprints in ``pinned.json``.

Run from the root of a checkout, after a change that is meant to alter
the simulated outcome (never to make a benchmark run pass)::

    python3 perfbench/pin.py --seeds 0-63,7919 [--workload NAME ...]
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", required=True, help="e.g. 0-63,7919")
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    sys.path.insert(0, HERE)
    from hostclock import HostClock
    from workloads import WORKLOADS, set_up

    seeds: list[int] = []
    for part in args.seeds.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    path = os.path.join(HERE, "pinned.json")
    with open(path) as fh:
        pinned = json.load(fh)
    for name in args.workload or list(WORKLOADS):
        workload = WORKLOADS[name]
        for seed in seeds:
            clock = HostClock(calibrated=False)
            cluster, _ = set_up(workload, seed, clock)
            outcome = workload.driver.measure(cluster, seed, clock)
            new = outcome.fingerprint()
            old = pinned.setdefault(name, {}).get(str(seed))
            note = "" if old in (None, new) else f" (was {old})"
            pinned[name][str(seed)] = new
            print(name, seed, new + note, flush=True)
            with open(path, "w") as fh:
                json.dump(pinned, fh, indent=1, sort_keys=True)
                fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
