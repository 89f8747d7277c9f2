"""Tests of the benchmark itself: answer keys, span arithmetic, tracing.

Run from the root of a checkout:

    PYTHONPATH=src python -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import corpus  # noqa: E402
import worker  # noqa: E402
from complexes import MAX_PAGE, scaled_complex  # noqa: E402
from tracer import self_times  # noqa: E402


@pytest.mark.parametrize("seed", range(4))
def test_key_matches_engine_on_small_complexes(seed):
    from specseq import FilteredComplex, SpectralSequence
    from specseq.spectral import decalage_renumbering_report, e_infinity_compare

    rng = random.Random(f"test:{seed}")
    cx, key = scaled_complex(rng, 10 + 2 * seed, 4 + seed % 2, 3 + seed)
    fk = FilteredComplex.from_json(json.loads(json.dumps(cx)))
    ss = SpectralSequence(fk)
    for r in range(1, MAX_PAGE + 1):
        dims = {f"{p},{q}": d for (p, q), d in ss.page(r).dims().items()}
        assert dims == key["pages"][str(r)], r
    assert json.loads(json.dumps(e_infinity_compare(fk))) == key["abutment"]
    table = json.loads(json.dumps(decalage_renumbering_report(fk)["table"]))
    assert table == key["decalage_table"]


def test_self_time_subtracts_merged_clipped_children():
    # 0: root [0, 10]; 1: [1, 4] and 2: [3, 6] overlap; 3: [2, 3] inside 1;
    # 4: [9, 12] overhangs the root and counts only up to 10 there
    parent = [-1, 0, 0, 1, 0]
    start = [0.0, 1.0, 3.0, 2.0, 9.0]
    end = [10.0, 4.0, 6.0, 3.0, 12.0]
    assert self_times(parent, start, end) == [4.0, 2.0, 3.0, 1.0, 3.0]


def test_check_rejects_a_wrong_page_dimension():
    cx, key = scaled_complex(random.Random("test:check"), 10, 4, 3)
    op = {"id": "c", "expect": {"kind": "compute", "rc": 0, "key": "c", "maps": False}}
    out = json.loads(json.dumps({"pages": key["pages"], "abutment": key["abutment"]}))
    good = json.dumps(out).encode()
    assert checks.check(op, {"c": key}, 0, good) is None
    cell = next(iter(out["pages"]["1"]))
    out["pages"]["1"][cell] += 1
    assert checks.check(op, {"c": key}, 0, json.dumps(out).encode()) is not None
    assert checks.check(op, {"c": key}, 5, good) is not None


def _one_op_spec(workload, tmp_path, pick):
    spec = corpus.build(workload, 7, str(tmp_path))
    spec.pop("digests", None)
    spec["ops"] = [next(op for op in spec["ops"] if pick(op))]
    spec["trace_ops"] = 1
    return spec


PICKS = {
    "pages-scaled maps": ("pages-scaled", lambda op: op["id"].endswith(".maps")),
    "certify-models certify": ("certify-models", lambda op: op["id"].endswith("certify.torus2")),
    "certify-models fuzz": ("certify-models", lambda op: op["argv"][0] == "fuzz"),
}


@pytest.mark.parametrize("case", sorted(PICKS))
def test_tracing_keeps_stdout_and_repeats_counters(case, tmp_path):
    workload, pick = PICKS[case]
    spec = _one_op_spec(workload, tmp_path, pick)
    runs = [worker.trace(spec, str(tmp_path / f"trace{i}.json")) for i in range(2)]
    for res in runs:
        assert res["failed"] == 0, res["reasons"]
    counters = [
        {k: v for k, v in res["metrics"].items() if not k.endswith("_s") and k != "trace.overhead_ratio"}
        for res in runs
    ]
    assert counters[0] == counters[1]
    assert counters[0]["cli.out_bytes"] > 0


def test_run_refuses_a_directory_without_the_program(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "certify-models",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == b""
