"""Per-op output checks against the answer keys written with the corpus.

check() returns None when an op's exit code and stdout are right, else a
one-line reason. Page dimensions, abutment totals and the decalage table are
compared with the generator's key; differential ranks are recomputed here
with plain Fraction elimination, so no check trusts the engine under test.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

from complexes import rank


def _compute(expect: dict, key: dict, out: dict) -> str | None:
    if out.get("pages") != key["pages"]:
        return "page dimensions differ from the key"
    if out.get("abutment") != key["abutment"]:
        return "abutment differs from the key"
    if not expect["maps"]:
        return None if "maps" not in out else "maps printed without --with-maps"
    maps = out.get("maps", {})
    for r, expected in key["d_ranks"].items():
        printed = maps.get(r, {})
        if set(printed) != set(expected):
            return f"nonzero d_{r} at cells {sorted(printed)}, key says {sorted(expected)}"
        for cell, matrix in printed.items():
            p, q = map(int, cell.split(","))
            rows = key["pages"][r].get(f"{p + int(r)},{q - int(r) + 1}", 0)
            cols = key["pages"][r].get(cell, 0)
            if len(matrix) != rows or any(len(row) != cols for row in matrix):
                return f"d_{r} at {cell} has the wrong shape"
            if rank([[Fraction(a) for a in row] for row in matrix]) != expected[cell]:
                return f"d_{r} at {cell} has the wrong rank"
    return None


def _decalage(expect: dict, key: dict, out: dict) -> str | None:
    if not out.get("ok") or out.get("mismatches"):
        return "decalage report not ok"
    if out.get("table") != key["decalage_table"]:
        return "decalage table differs from the key"
    return None


def _oracle(expect: dict, key: dict, out: dict) -> str | None:
    if out.get("ok") is not True or out.get("mismatches"):
        return "oracle report not ok"
    return None


def _fuzz(expect: dict, key: dict, out: dict) -> str | None:
    if out.get("counterexamples") != 0:
        return f"{out.get('counterexamples')} counterexamples"
    return None


def _d2(expect: dict, key: dict, out: dict) -> str | None:
    if out.get("model") != expect["model"]:
        return "wrong model name"
    if out.get("serre_sign", {}).get("ok") is not True:
        return "Serre sign check failed"
    if out.get("is_zero") is not expect["zero"]:
        return "is_zero disagrees with the datum"
    return None


def _certify(expect: dict, key: dict, out: dict) -> str | None:
    if (out.get("verdict") == "certified") is not expect["zero"]:
        return f"verdict {out.get('verdict')!r} for a {'zero' if expect['zero'] else 'nonzero'} datum"
    return None


def _product(expect: dict, key: dict, out: dict) -> str | None:
    if out.get("name") != expect["name"]:
        return "wrong product name"
    if out.get("e2_table") != expect["e2_table"]:
        return "e2 table differs from the Kunneth product of the factors"
    return None


_CHECKS = {
    "compute": _compute,
    "decalage": _decalage,
    "oracle": _oracle,
    "fuzz": _fuzz,
    "d2": _d2,
    "certify": _certify,
    "product": _product,
}


def check(op: dict, keys: dict, rc, stdout: bytes, digests: dict | None = None) -> str | None:
    """Why an op's result is wrong, or None when it is right."""
    expect = op["expect"]
    if rc != expect["rc"]:
        return f"exit code {rc}, expected {expect['rc']}"
    try:
        out = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    reason = _CHECKS[expect["kind"]](expect, keys.get(expect.get("key")), out)
    if reason is None and digests:
        if hashlib.sha256(stdout).hexdigest() != digests.get(op["id"]):
            return "stdout differs from the digest recorded for this seed"
    return reason
