"""Record the stdout digest of every op for the committed seed.

Usage, from the root of a checkout:

    python3 bench/record_digests.py

Builds each workload's corpus for digests.json's seed, runs every op once,
checks each output against the answer key, and rewrites digests.json. Run
it only at a commit whose output is known good: later runs on that seed
fail any op whose stdout bytes differ from the recorded digest.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

from corpus import DIGESTS
from run import WORKLOADS, run_child


def main() -> int:
    with open(DIGESTS) as fh:
        seed = json.load(fh)["seed"]
    commit = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"], capture_output=True, text=True
    ).stdout.strip()
    recorded = {"seed": seed, "commit": commit, "workloads": {}}
    for workload in WORKLOADS:
        work = os.path.join(".bench_work", f"digests-{workload}-{os.getpid()}")
        os.makedirs(work)
        try:
            run_child("corpus.py", [workload, str(seed), work], None)
            res = run_child("worker.py", ["digests", work, "0"], None)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if res["failed"]:
            print("\n".join(res["reasons"]), file=sys.stderr)
            return 1
        recorded["workloads"][workload] = res["digests"]
    with open(DIGESTS, "w") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
