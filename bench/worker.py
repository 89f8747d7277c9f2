"""Run one workload's ops in this process, through the public ss entry point.

Usage, from the checkout root with src on PYTHONPATH:

    python3 bench/worker.py setup|timed|trace|digests WORKDIR SECONDS [TRACE_FILE]

setup  imports specseq.cli and runs the warm-up ops, then reports the time,
       scaled like the op times by the reference computation's fastest of
       SETUP_REF_CALLS calls made right after (see setup_scale()).
timed  does the same, then calls the ops in order, in a closed loop with one
       client, for at least MIN_PASSES passes over the list and until
       SECONDS have passed. Each op's time is the fastest of its runs: this
       2-core box is shared, and a run can be 40 % slower than the same
       work a moment later, always in the slow direction. Throughput is
       the op count over the sum of those times; p50 and p90 are taken over
       the ops. Whole minutes can be 30 % slow, too, so between ops the
       loop also times a fixed reference computation (see reference()),
       and the times are scaled to a machine on which it takes REF_NOMINAL_MS;
       the unscaled figures are reported beside them. Outputs are checked
       after the loop, outside the timed phase.
trace  does the same set-up, runs the first trace_ops ops untraced, then
       again with spans at the layer entry points (see tracer.py), and
       compares the stdout bytes of the two passes op by op.
digests runs every op once, checks it, and reports the sha256 of each
       op's stdout (see record_digests.py).

Prints one JSON object on its last stdout line.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction

MIN_PASSES = 2
# the reference computation runs before an op once this long has passed
# since its last run; its fast times in a run set that run's scale
REF_EVERY_S = 0.2
REF_SIZE = 20
REF_NOMINAL_MS = 12.0
SETUP_REF_CALLS = 10


def run_op(main, argv: list[str]) -> tuple[object, bytes, float, float]:
    """Call main(argv) with stdout captured: (exit code, stdout, wall s, cpu s)."""
    buf = io.StringIO()
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(buf):
            rc = main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # an op that raises is a failed op, not a failed run
        traceback.print_exc()
        rc = "exception"
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    return rc, buf.getvalue().encode(), wall, cpu


def reference() -> tuple[float, float]:
    """Time a fixed computation that shares no code with specseq: (wall s, cpu s).

    It is elimination of a Hilbert matrix over fractions.Fraction, the kind
    of work specseq does, so that a slow spell of the machine slows it about
    as much as it slows the ops.
    """
    t0, c0 = time.perf_counter(), time.process_time()
    n = REF_SIZE
    rows = [[Fraction(1, i + j + 1) for j in range(n)] for i in range(n)]
    for c in range(n):
        for i in range(c + 1, n):
            f = rows[i][c] / rows[c][c]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return time.perf_counter() - t0, time.process_time() - c0


def setup_scale() -> float:
    """Scale factor for a set-up time just measured: the set-up of one
    process is too short to sample the reference during it, so the reference
    runs SETUP_REF_CALLS times right after, and the fastest call counts."""
    return REF_NOMINAL_MS / 1000 / min(reference()[0] for _ in range(SETUP_REF_CALLS))


def _quantile(values: list[float], q: float) -> float:
    return sorted(values)[min(len(values) - 1, int(q * len(values)))]


def set_up(spec: dict):
    t0 = time.perf_counter()
    from specseq.cli import main

    for argv in spec["warmup"]:
        rc = run_op(main, argv)[0]
        if rc != 0:
            raise SystemExit(f"warm-up op {argv} exited with {rc}")
    return main, time.perf_counter() - t0


def _failures(spec: dict, results) -> tuple[int, list[str]]:
    """Count failed ops; results holds (op index, rc, stdout) per op run."""
    from checks import check

    verdicts: dict[tuple[int, object, str], str | None] = {}
    failed, reasons = 0, []
    for idx, rc, out in results:
        digest = hashlib.sha256(out).hexdigest()
        if (idx, rc, digest) not in verdicts:
            op = spec["ops"][idx]
            verdicts[(idx, rc, digest)] = check(op, spec["keys"], rc, out, spec.get("digests"))
        reason = verdicts[(idx, rc, digest)]
        if reason is not None:
            failed += 1
            reasons.append(f"{spec['ops'][idx]['id']}: {reason}")
    return failed, reasons


def timed(spec: dict, seconds: float) -> dict:
    main, setup_s = set_up(spec)
    setup_scaled = setup_s * setup_scale()
    ops = spec["ops"]
    best_wall = [float("inf")] * len(ops)
    best_cpu = [float("inf")] * len(ops)
    results = []
    kept: dict[tuple[int, str], bytes] = {}
    ref_wall, ref_cpu = [], []
    start = next_ref = time.perf_counter()
    i = 0
    while i < MIN_PASSES * len(ops) or time.perf_counter() - start < seconds:
        if time.perf_counter() >= next_ref:
            wall, cpu = reference()
            ref_wall.append(wall)
            ref_cpu.append(cpu)
            next_ref = time.perf_counter() + REF_EVERY_S
        idx = i % len(ops)
        rc, out, wall, cpu = run_op(main, ops[idx]["argv"])
        best_wall[idx] = min(best_wall[idx], wall)
        best_cpu[idx] = min(best_cpu[idx], cpu)
        # identical outputs share one bytes object, so memory stays small
        out = kept.setdefault((idx, hashlib.sha256(out).hexdigest()), out)
        results.append((idx, rc, out))
        i += 1
    failed, reasons = _failures(spec, results)

    def figures(wall_scale: float, cpu_scale: float) -> dict:
        return {
            "ops_per_s": len(ops) / (sum(best_wall) * wall_scale),
            "op_p50_ms": statistics.median(best_wall) * wall_scale * 1000,
            "op_p90_ms": statistics.quantiles(best_wall, n=10)[8] * wall_scale * 1000,
            "op_cpu_p50_ms": statistics.median(best_cpu) * cpu_scale * 1000,
        }

    # an op's time is its fastest of `calls` calls, so the reference is
    # read at the matching order statistic, its 1 / (calls + 1) quantile
    calls = i / len(ops)
    ref_s = _quantile(ref_wall, 1 / (calls + 1))
    nominal = REF_NOMINAL_MS / 1000
    return {
        "attempted": i,
        "failed": failed,
        "reasons": reasons[:20],
        **figures(nominal / ref_s, nominal / _quantile(ref_cpu, 1 / (calls + 1))),
        "unscaled": {**figures(1.0, 1.0), "ref_ms": ref_s * 1000, "setup_s": setup_s},
        "setup_s": setup_scaled,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def trace(spec: dict, trace_file: str) -> dict:
    main, setup_s = set_up(spec)
    from tracer import ROOT, Tracer, top_layers

    ops = spec["ops"]
    todo = [i % len(ops) for i in range(spec["trace_ops"])]
    plain = [run_op(main, ops[idx]["argv"]) for idx in todo]

    tracer = Tracer()
    tracer.install()
    try:
        traced = [
            run_op(lambda argv: tracer.span("cli", ROOT, main, argv), ops[idx]["argv"])
            for idx in todo
        ]
    finally:
        tracer.uninstall()
    tracer.counters["cli.out_bytes"] = sum(len(out) for _, out, _, _ in traced)

    failed, reasons = _failures(
        spec, [(idx, rc, out) for idx, (rc, out, _, _) in zip(todo, plain)]
    )
    for idx, a, b in zip(todo, plain, traced):
        if a[:2] != b[:2]:
            failed += 1
            reasons.append(f"{ops[idx]['id']}: stdout or exit code changed under tracing")
    metrics = tracer.summary()
    metrics["trace.overhead_ratio"] = sum(w for _, _, w, _ in plain) / sum(
        w for _, _, w, _ in traced
    )
    top = top_layers(metrics)
    with open(trace_file, "w") as fh:
        json.dump({"top_layers": top, "metrics": metrics, "spans": tracer.dump()}, fh)
    return {
        "attempted": len(todo),
        "failed": failed,
        "reasons": reasons[:20],
        "top_layers": top,
        "metrics": metrics,
        "setup_s": setup_s,
    }


def digests(spec: dict) -> dict:
    main = set_up(spec)[0]
    spec.pop("digests", None)
    results = [(idx, *run_op(main, op["argv"])[:2]) for idx, op in enumerate(spec["ops"])]
    failed, reasons = _failures(spec, results)
    return {
        "failed": failed,
        "reasons": reasons,
        "digests": {
            spec["ops"][idx]["id"]: hashlib.sha256(out).hexdigest() for idx, _, out in results
        },
    }


def main(argv: list[str]) -> None:
    mode, work, seconds = argv[0], argv[1], float(argv[2])
    with open(os.path.join(work, "ops.json")) as fh:
        spec = json.load(fh)
    if mode == "setup":
        setup_s = set_up(spec)[1]
        result = {"setup_s": setup_s * setup_scale(), "unscaled_setup_s": setup_s}
    elif mode == "digests":
        result = digests(spec)
    elif mode == "timed":
        result = timed(spec, seconds)
    else:
        result = trace(spec, argv[3])
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
