"""Write one workload's seeded inputs, op list and answer keys.

Usage, from the checkout root with src on PYTHONPATH:

    python3 bench/corpus.py WORKLOAD SEED WORKDIR

Writes WORKDIR/ops.json and the input files its ops name. The same workload
and seed always give byte-identical files. Model algebras and derivations
for certify-models are built here with the engine; this time is corpus
generation, outside every measured phase.
"""

from __future__ import annotations

import json
import os
import random
import sys
from fractions import Fraction

from complexes import scaled_complex

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "digests.json")

# pages-scaled has 40 distinct ops and certify-models 44: few enough that a
# 50 s run calls each about twenty times, so that an op's fastest call
# steadies, and enough that p90 has four ops beyond it. A traced run runs
# every op once.

# pages-scaled: size schedule of the complexes; the seed varies everything else
PAGES_COMPLEXES = 10
PAGES_TOTAL_DIMS = (14, 16, 18, 20, 22)
PAGES_WIDTHS = (3, 4, 5, 6)

# certify-models: a fixed list of (command, model, datum) slots; the seed
# draws only the coefficients of the nonzero torus2 data, so that an op's cost
# varies little between workload seeds. The torus1 x pn8 product is the
# slowest op; six torus1 x pn4 products are the next 15 %, so that p90 falls
# among them, away from a boundary between op kinds. Data on models other than
# torus2 are zero. torus3 ops are left out: one takes over 2 s, as long as a
# pass over all the others, and would run only a few times in a run. The fuzz
# slots are `ss fuzz --kind derivations --cases 1` on a seeded fuzz seed whose
# one case draws a nonzero torus2 datum of the slot's kind (see _fuzz_seed).
CERTIFY_OPS = (
    ("product", "pn8", ""), ("certify", "torus2", "free"), ("d2", "pn4", "zero"),
    ("product", "pn4", ""), ("d2", "torus2", "constrained"), ("certify", "pn8", "zero"),
    ("product", "pn2", ""), ("d2", "torus1xpn2", "zero"), ("certify", "torus2", "zero"),
    ("d2", "torus2", "free"), ("product", "pn4", ""), ("certify", "torus1xpn2", "zero"),
    ("certify", "torus2", "constrained"), ("d2", "pn8", "zero"), ("product", "pn2", ""),
    ("d2", "torus2", "zero"), ("certify", "pn4", "zero"), ("product", "pn4", ""),
    ("certify", "torus2", "free"), ("d2", "torus1xpn2", "zero"),
    ("d2", "torus2", "constrained"), ("product", "pn4", ""), ("certify", "pn8", "zero"),
    ("certify", "torus2", "zero"), ("d2", "torus2", "free"), ("product", "pn2", ""),
    ("d2", "pn4", "zero"), ("certify", "torus2", "constrained"), ("product", "pn4", ""),
    ("d2", "torus1xpn2", "zero"), ("d2", "torus2", "zero"), ("certify", "torus1xpn2", "zero"),
    ("certify", "torus2", "free"), ("d2", "pn8", "zero"), ("product", "pn2", ""),
    ("d2", "torus2", "constrained"), ("certify", "pn4", "zero"), ("product", "pn4", ""),
    ("certify", "torus2", "constrained"), ("d2", "torus2", "free"),
    ("fuzz", "torus2", "constrained"), ("fuzz", "torus2", "free"),
    ("fuzz", "torus2", "constrained"), ("fuzz", "torus2", "free"),
)


def _write(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True)


def _complex_ops(cid: str, path: str) -> list[dict]:
    return [
        {
            "id": f"{cid}.compute",
            "argv": ["compute", "--input", path, "--pages", "6"],
            "expect": {"kind": "compute", "rc": 0, "key": cid, "maps": False},
        },
        {
            "id": f"{cid}.maps",
            "argv": ["compute", "--input", path, "--pages", "6", "--with-maps"],
            "expect": {"kind": "compute", "rc": 0, "key": cid, "maps": True},
        },
        {
            "id": f"{cid}.oracle",
            "argv": ["oracle", "--input", path],
            "expect": {"kind": "oracle", "rc": 0},
        },
        {
            "id": f"{cid}.decalage",
            "argv": ["decalage", "--input", path],
            "expect": {"kind": "decalage", "rc": 0, "key": cid},
        },
    ]


def pages_scaled(seed: int, work: str) -> dict:
    rng = random.Random(f"pages-scaled:{seed}")
    ops, keys = [], {}
    for i in range(PAGES_COMPLEXES):
        cid = f"c{i:02d}"
        cx, key = scaled_complex(
            rng,
            PAGES_TOTAL_DIMS[i % len(PAGES_TOTAL_DIMS)],
            4 + i % 2,
            PAGES_WIDTHS[i % len(PAGES_WIDTHS)],
        )
        path = os.path.join(work, f"{cid}.json")
        _write(path, cx)
        keys[cid] = key
        ops += _complex_ops(cid, path)
    # warm-up uses a small complex that does not depend on the workload seed
    cx, _ = scaled_complex(random.Random("pages-scaled:warmup"), 10, 4, 3)
    path = os.path.join(work, "warmup.json")
    _write(path, cx)
    warmup = [op["argv"] for op in _complex_ops("warmup", path)]
    return {"ops": ops, "warmup": warmup, "keys": keys}


def _cell_counts(model_json: dict) -> dict[tuple[int, int], int]:
    counts: dict[tuple[int, int], int] = {}
    for entry in model_json["basis"]:
        pq = (entry["p"], entry["q"])
        counts[pq] = counts.get(pq, 0) + 1
    return counts


def _kunneth(a: dict, b: dict) -> dict[str, int]:
    """Cell dimensions of a tensor product from those of its factors."""
    out: dict[tuple[int, int], int] = {}
    for (p1, q1), x in a.items():
        for (p2, q2), y in b.items():
            key = (p1 + p2, q1 + q2)
            out[key] = out.get(key, 0) + x * y
    return {f"{p},{q}": v for (p, q), v in sorted(out.items())}


def _fuzz_seed(rng: random.Random, constrained: bool) -> int:
    """A fuzz seed whose derivation case 0 is a nonzero torus2 datum, of the
    given kind; it replays the draws ss fuzz makes from its seed string."""
    while True:
        s = rng.randrange(10**6)
        draw = random.Random(f"{s}:derivation:0")
        if draw.choice([2, 2, 3]) != 2:
            continue
        if (draw.random() < 0.5) == constrained and draw.random() >= 0.25:
            return s


def _is_zero_datum(datum: dict) -> bool:
    if Fraction(datum["scale"]) == 0:
        return True
    return all(Fraction(c) == 0 for tab in datum["images"].values() for c in tab.values())


def certify_models(seed: int, work: str) -> dict:
    from specseq.fuzz import random_obstruction_datum
    from specseq.models import ObstructionDatum, build_model, d2_from_alpha

    models = {f"torus{n}": build_model("torus", n) for n in (1, 2)}
    models.update({f"pn{n}": build_model("pn", n) for n in (2, 4, 8)})
    models["torus1xpn2"] = build_model("product", a=models["torus1"], b=models["pn2"])
    paths, cells = {}, {}
    for name, model in models.items():
        paths[name] = os.path.join(work, f"{name}.json")
        data = model.to_json()
        _write(paths[name], data)
        cells[name] = _cell_counts(data)

    rng = random.Random(f"certify-models:{seed}")
    ops = []
    for slot, (cmd, name, kind) in enumerate(CERTIFY_OPS):
        oid = f"{slot:02d}.{cmd}.{name}"
        if cmd == "fuzz":
            argv = ["fuzz", "--kind", "derivations", "--cases", "1",
                    "--seed", str(_fuzz_seed(rng, kind == "constrained"))]
            ops.append({"id": oid, "argv": argv, "expect": {"kind": "fuzz", "rc": 0}})
            continue
        if cmd == "product":
            argv = ["model", "product", "--a", paths["torus1"], "--b", paths[name]]
            expect = {
                "kind": "product",
                "rc": 0,
                "name": f"torus1x{name}",
                "e2_table": _kunneth(cells["torus1"], cells[name]),
            }
            ops.append({"id": oid, "argv": argv, "expect": expect})
            continue
        model = models[name]
        if kind == "zero":
            od = ObstructionDatum(model, {}, 1)
        else:
            od = random_obstruction_datum(rng, model, constrained=kind == "constrained")
        datum = od.to_json()
        zero = _is_zero_datum(datum)
        if cmd == "d2":
            path = os.path.join(work, f"{oid}.alpha.json")
            _write(path, datum)
            argv = ["d2", "--model", paths[name], "--alpha", path]
            expect = {"kind": "d2", "rc": 0, "zero": zero, "model": name}
        else:
            path = os.path.join(work, f"{oid}.derivation.json")
            _write(path, d2_from_alpha(od).to_json())
            argv = ["certify", "--algebra", paths[name], "--derivation", path]
            expect = {"kind": "certify", "rc": 0 if zero else 2, "zero": zero}
        ops.append({"id": oid, "argv": argv, "expect": expect})
    zero_d = os.path.join(work, "warmup.derivation.json")
    _write(zero_d, d2_from_alpha(ObstructionDatum(models["torus2"], {}, 1)).to_json())
    warmup = [
        ["d2", "--model", paths["torus2"]],
        ["certify", "--algebra", paths["torus2"], "--derivation", zero_d],
        ["model", "product", "--a", paths["torus1"], "--b", paths["pn2"]],
        # fills the torus2 model cache and its constraint cache
        ["fuzz", "--kind", "derivations", "--cases", "1",
         "--seed", str(_fuzz_seed(random.Random("certify-models:warmup"), True))],
    ]
    return {"ops": ops, "warmup": warmup, "keys": {}}


WORKLOADS = {
    "pages-scaled": pages_scaled,
    "certify-models": certify_models,
}


def build(workload: str, seed: int, work: str) -> dict:
    spec = WORKLOADS[workload](seed, work)
    spec["workload"] = workload
    spec["seed"] = seed
    spec["trace_ops"] = len(spec["ops"])
    with open(DIGESTS) as fh:
        recorded = json.load(fh)
    if recorded["seed"] == seed:
        spec["digests"] = recorded["workloads"].get(workload, {})
    _write(os.path.join(work, "ops.json"), spec)
    return spec


if __name__ == "__main__":
    build(sys.argv[1], int(sys.argv[2]), sys.argv[3])
