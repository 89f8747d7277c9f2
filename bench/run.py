"""specseq benchmark: one workload, one seed, one run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run writes its seeded inputs under .bench_work/, then measures the
workload in a fresh Python process with SS_THREADS unset, driving the
public ss entry point (specseq.cli.main) in-process with stdout captured.
With --trace 0 it reports the end-to-end metrics, with op and set-up times
scaled by a reference computation timed in the same process (see worker.py)
and the unscaled figures printed on a line of their own; set-up is measured
in that process and in more fresh processes (see SETUP_SAMPLES), and the
median is reported. With --trace 1 a separate process runs a fixed op list twice,
untraced and traced, and reports the per-layer metrics; its spans are
written to .bench_work/trace-<workload>-<seed>.json.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. Exit code 0 means the run completed, whether or not
every op was correct; any other code means no result was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("pages-scaled", "certify-models")
# set-up is sampled in at least 3 fresh processes, and in more (up to 9)
# while their total is under 3 s, since short set-ups are the noisiest
SETUP_SAMPLES = 3
SETUP_TOTAL_S = 3.0
SETUP_MAX_SAMPLES = 9
DEADLINE_S = 170

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "op_cpu_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "linalg.self_s": "s",
    "linalg.calls": "count",
    "linalg.eliminations": "count",
    "linalg.cells_reduced": "count",
    "linalg.matvec_cells": "count",
    "linalg.max_bits": "bits",
    "filtered.self_s": "s",
    "filtered.calls": "count",
    "filtered.preimage_hit_ratio": "ratio",
    "spectral.self_s": "s",
    "spectral.calls": "count",
    "spectral.first_pages": "count",
    "spectral.pages_built": "count",
    "spectral.direct_cells": "count",
    "algebra.self_s": "s",
    "algebra.calls": "count",
    "algebra.validate_s": "s",
    "algebra.validate_triples": "count",
    "algebra.leibniz_s": "s",
    "algebra.leibniz_checks": "count",
    "algebra.leibniz_pairs": "count",
    "algebra.extend_s": "s",
    "lefschetz.self_s": "s",
    "lefschetz.calls": "count",
    "lefschetz.certify_s": "s",
    "lefschetz.polarize_s": "s",
    "lefschetz.cert_steps": "count",
    "models.self_s": "s",
    "models.calls": "count",
    "models.load_s": "s",
    "models.d2_s": "s",
    "fuzz.self_s": "s",
    "cli.self_s": "s",
    "cli.out_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
}


def run_child(script: str, args: list[str], deadline: float | None) -> dict:
    """Run a benchmark script in a fresh process; parse its last stdout line.

    The child is killed and reaped if it is still running at the deadline
    (a time.monotonic() value; None waits indefinitely).
    """
    env = dict(os.environ)
    env.pop("SS_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH", "")) if p
    )
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, script), *args],
        env=env,
        stdout=subprocess.PIPE,
        timeout=None if deadline is None else max(1.0, deadline - time.monotonic()),
        check=True,
    )
    lines = proc.stdout.decode().strip().splitlines()
    return json.loads(lines[-1]) if lines else {}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join("src", "specseq", "cli.py")):
        print("bench: run from the root of a specseq checkout (no src/specseq here)",
              file=sys.stderr)
        return 2
    base = ".bench_work"
    work = os.path.join(base, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        run_child("corpus.py", [args.workload, str(args.seed), work], deadline)
        if args.trace:
            trace_file = os.path.join(base, f"trace-{args.workload}-{args.seed}.json")
            res = run_child("worker.py", ["trace", work, str(args.seconds), trace_file], deadline)
            metrics = {k: {"value": res["metrics"][k], "unit": u} for k, u in PER_LAYER.items()}
            print(f"bench: {args.workload} top layers by self time: "
                  f"{', '.join(res['top_layers'])}")
        else:
            res = run_child("worker.py", ["timed", work, str(args.seconds)], deadline)
            setups = [(res["setup_s"], res["unscaled"]["setup_s"])]
            while len(setups) < SETUP_SAMPLES or (
                sum(raw for _, raw in setups) < SETUP_TOTAL_S
                and len(setups) < SETUP_MAX_SAMPLES
            ):
                one = run_child("worker.py", ["setup", work, "0"], deadline)
                setups.append((one["setup_s"], one["unscaled_setup_s"]))
            res["setup_s"] = statistics.median(s for s, _ in setups)
            res["unscaled"]["setup_s"] = statistics.median(raw for _, raw in setups)
            metrics = {k: {"value": res[k], "unit": u} for k, u in END_TO_END.items()}
            print("bench: unscaled " + " ".join(
                f"{k}={v:.6g}" for k, v in res["unscaled"].items()))
    except subprocess.CalledProcessError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 3
    except subprocess.TimeoutExpired as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 4
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for reason in res["reasons"]:
        print(f"bench: failed op {reason}")
    print(f"bench: {args.workload} seed {args.seed}: {res['attempted']} ops, "
          f"{res['failed']} failed (fail_ratio {res['failed'] / res['attempted']:.4f})")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
