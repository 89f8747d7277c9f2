"""Outside-in span tracing of specseq's layer entry points, for traced runs.

install() replaces each public entry point named in TARGETS, in every
specseq module that binds it, with a wrapper that records one span (name,
parent, start, end) and updates the layer counters. Element arithmetic,
scalar and vec are deliberately not wrapped: they run millions of times and
would charge the certifier's arithmetic to the algebra layer. Nothing here
is imported when tracing is off.

Spans are kept in memory and summarised when the run ends. Time spent in
counter hooks (for example scanning returned rationals for their bit length)
runs on a paused clock, so it is excluded from every span.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from array import array
from fractions import Fraction

LAYERS = ("linalg", "filtered", "spectral", "algebra", "lefschetz", "models", "fuzz", "cli")

# (layer, module, attribute path) of every traced entry point
TARGETS = [
    ("linalg", "specseq.linalg", "Matrix.rank"),
    ("linalg", "specseq.linalg", "Matrix.nullspace"),
    ("linalg", "specseq.linalg", "Matrix.solve_many"),
    ("linalg", "specseq.linalg", "Matrix.apply"),
    ("linalg", "specseq.linalg", "Matrix.__matmul__"),
    ("linalg", "specseq.linalg", "Subspace.span"),
    ("linalg", "specseq.linalg", "Subspace.intersect"),
    ("linalg", "specseq.linalg", "preimage"),
    ("linalg", "specseq.linalg", "kernel"),
    ("linalg", "specseq.linalg", "image"),
    ("linalg", "specseq.linalg", "induced_map"),
    ("linalg", "specseq.linalg", "Subquotient.of"),
    ("linalg", "specseq.linalg", "Subquotient.coset_coords"),
    ("linalg", "specseq.linalg", "Subquotient.lift"),
    ("linalg", "specseq.linalg", "sparse_rank"),
    ("linalg", "specseq.linalg", "pairing_rank"),
    ("filtered", "specseq.filtered", "CochainComplex.__init__"),
    ("filtered", "specseq.filtered", "CochainComplex.betti"),
    ("filtered", "specseq.filtered", "FilteredComplex.__init__"),
    ("filtered", "specseq.filtered", "FilteredComplex.from_json"),
    ("filtered", "specseq.filtered", "FilteredComplex.d_preimage"),
    ("spectral", "specseq.spectral", "first_page"),
    ("spectral", "specseq.spectral", "turn_page"),
    ("spectral", "specseq.spectral", "page_direct"),
    ("spectral", "specseq.spectral", "e_infinity_compare"),
    ("spectral", "specseq.spectral", "oracle_report"),
    ("spectral", "specseq.spectral", "decalage"),
    ("spectral", "specseq.spectral", "decalage_renumbering_report"),
    ("algebra", "specseq.algebra", "BigradedAlgebra.__init__"),
    ("algebra", "specseq.algebra", "BigradedAlgebra.from_json"),
    ("algebra", "specseq.algebra", "BigradedAlgebra.validate"),
    ("algebra", "specseq.algebra", "Derivation.__init__"),
    ("algebra", "specseq.algebra", "Derivation.from_json"),
    ("algebra", "specseq.algebra", "Derivation.leibniz_violations"),
    ("algebra", "specseq.algebra", "derivation_extend"),
    ("algebra", "specseq.algebra", "verify_leibniz"),
    ("lefschetz", "specseq.lefschetz", "PolarizedAlgebra.__init__"),
    ("lefschetz", "specseq.lefschetz", "PolarizedAlgebra.primitive_cell"),
    ("lefschetz", "specseq.lefschetz", "split_differential"),
    ("lefschetz", "specseq.lefschetz", "serre_sign_check"),
    ("lefschetz", "specseq.lefschetz", "degeneration_certify"),
    ("models", "specseq.models", "build_model"),
    ("models", "specseq.models", "tensor_model"),
    ("models", "specseq.models", "d2_from_alpha"),
    ("models", "specseq.models", "VarietyModel.from_json"),
    ("fuzz", "specseq.fuzz", "random_filtered_complex"),
    ("fuzz", "specseq.fuzz", "random_obstruction_datum"),
]

ROOT = "cli.op"

# inclusive time of the outermost spans of one entry point, reported as a layer metric
TIMED = {
    "algebra.validate_s": "BigradedAlgebra.validate",
    "algebra.leibniz_s": "Derivation.leibniz_violations",
    "algebra.extend_s": "derivation_extend",
    "lefschetz.certify_s": "degeneration_certify",
    "lefschetz.polarize_s": "PolarizedAlgebra.__init__",
    "models.load_s": "VarietyModel.from_json",
    "models.d2_s": "d2_from_alpha",
}

COUNTERS = (
    "linalg.eliminations",
    "linalg.cells_reduced",
    "linalg.matvec_cells",
    "linalg.max_bits",
    "filtered.nested_preimages",
    "algebra.validate_triples",
    "algebra.leibniz_pairs",
    "lefschetz.cert_steps",
    "cli.out_bytes",
)


def _bits(value) -> int:
    """Largest numerator or denominator bit length inside a returned value."""
    if isinstance(value, Fraction):
        return max(value.numerator.bit_length(), value.denominator.bit_length())
    if isinstance(value, (tuple, list)):
        return max(map(_bits, value), default=0)
    entries = getattr(value, "entries", None)  # Matrix
    if entries is not None:
        return _bits(entries)
    rows = getattr(value, "complement", None)  # Subquotient
    if rows is None:
        rows = getattr(value, "basis_rows", None)  # Subspace
    return _bits(rows) if rows is not None else 0


def self_times(parent, start, end) -> list[float]:
    """Per-span self time: duration minus the part its children cover.

    parent[i] is the index of span i's parent (-1 for a root) and is smaller
    than i. Child intervals are clipped to the parent and merged before they
    are subtracted, so overlapping or overhanging children are not counted
    twice.
    """
    children: dict[int, list[int]] = {}
    for i, p in enumerate(parent):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = []
    for i in range(len(parent)):
        lo, hi = start[i], end[i]
        covered = 0.0
        cur_lo = cur_hi = None
        for c in sorted(children.get(i, ()), key=lambda c: start[c]):
            a, b = max(start[c], lo), min(end[c], hi)
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((hi - lo) - covered)
    return out


class Tracer:
    """Span recorder with a clock that stops while counter hooks run."""

    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.open_by_name: list[int] = []
        self.paused = 0.0
        self.counters = {k: 0 for k in COUNTERS}
        self._restore: list[tuple[object, str, object]] = []

    def now(self) -> float:
        return time.perf_counter() - self.paused

    def register(self, layer: str, name: str) -> int:
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(layer)
            self.open_by_name.append(0)
        return self.name_id[name]

    def open(self, nid: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_start.append(self.now())
        self.span_end.append(0.0)
        self.stack.append(idx)
        self.open_by_name[nid] += 1
        return idx

    def close(self, idx: int, nid: int) -> None:
        self.span_end[idx] = self.now()
        self.stack.pop()
        self.open_by_name[nid] -= 1

    def span(self, layer: str, name: str, fn, *args, **kwargs):
        """Run fn inside one span; used for the per-op root span."""
        nid = self.register(layer, name)
        idx = self.open(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx, nid)

    # -- patching

    def _wrap(self, layer: str, name: str, fn):
        nid = self.register(layer, name)
        hook = _HOOKS.get(name)
        tracer = self
        # span's hook needs the length of its vector argument
        materialise = name == "Subspace.span"

        def traced(*args, **kwargs):
            if materialise and not isinstance(args[1], list):
                args = (args[0], list(args[1]))
            idx = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx, nid)
            if hook is not None or layer == "linalg":
                t0 = time.perf_counter()
                if hook is not None:
                    hook(tracer, args, kwargs, result)
                if layer == "linalg":
                    bits = _bits(result)
                    if bits > tracer.counters["linalg.max_bits"]:
                        tracer.counters["linalg.max_bits"] = bits
                tracer.paused += time.perf_counter() - t0
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        return traced

    def install(self) -> None:
        """Wrap every target in place, in each specseq module that binds it."""
        importlib.import_module("specseq.cli")
        for layer, modname, path in TARGETS:
            owner = importlib.import_module(modname)
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            attr = parts[-1]
            raw = inspect.getattr_static(owner, attr)
            is_static = isinstance(raw, staticmethod)
            fn = raw.__func__ if is_static else raw
            wrapped = self._wrap(layer, path, fn)
            self._restore.append((owner, attr, raw))
            setattr(owner, attr, staticmethod(wrapped) if is_static else wrapped)
            if inspect.ismodule(owner):
                for mod in list(sys.modules.values()):
                    if mod is owner or not getattr(mod, "__name__", "").startswith("specseq"):
                        continue
                    for key, val in list(vars(mod).items()):
                        if val is fn:
                            self._restore.append((mod, key, fn))
                            setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

    # -- results

    def summary(self) -> dict:
        """Per-layer metrics over every span recorded so far."""
        selfs = self_times(self.span_parent, self.span_start, self.span_end)
        metrics: dict[str, float] = {}
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = 0.0
            metrics[f"{layer}.calls"] = 0
        by_name_calls = [0] * len(self.names)
        for i, nid in enumerate(self.span_name):
            layer = self.layer_of[nid]
            metrics[f"{layer}.self_s"] += selfs[i]
            metrics[f"{layer}.calls"] += 1
            by_name_calls[nid] += 1

        def calls(name: str) -> int:
            nid = self.name_id.get(name)
            return by_name_calls[nid] if nid is not None else 0

        for metric, name in TIMED.items():
            metrics[metric] = self._outermost_time(name)
        c = self.counters
        d_pre = calls("FilteredComplex.d_preimage")
        metrics.update({
            "linalg.eliminations": c["linalg.eliminations"],
            "linalg.cells_reduced": c["linalg.cells_reduced"],
            "linalg.matvec_cells": c["linalg.matvec_cells"],
            "linalg.max_bits": c["linalg.max_bits"],
            "filtered.preimage_hit_ratio": (
                1 - c["filtered.nested_preimages"] / d_pre if d_pre else 0.0
            ),
            "spectral.first_pages": calls("first_page"),
            "spectral.pages_built": calls("first_page") + calls("turn_page"),
            "spectral.direct_cells": calls("page_direct"),
            "algebra.validate_triples": c["algebra.validate_triples"],
            "algebra.leibniz_checks": calls("Derivation.leibniz_violations"),
            "algebra.leibniz_pairs": c["algebra.leibniz_pairs"],
            "lefschetz.cert_steps": c["lefschetz.cert_steps"],
            "cli.out_bytes": c["cli.out_bytes"],
        })
        return metrics

    def _outermost_time(self, name: str) -> float:
        nid = self.name_id.get(name)
        if nid is None:
            return 0.0
        total = 0.0
        for i, n in enumerate(self.span_name):
            if n != nid:
                continue
            p = self.span_parent[i]
            while p >= 0 and self.span_name[p] != nid:
                p = self.span_parent[p]
            if p < 0:
                total += self.span_end[i] - self.span_start[i]
        return total

    def dump(self) -> dict:
        """Every span, as parallel columns, for writing out when the run ends."""
        return {
            "names": self.names,
            "layers": self.layer_of,
            "name": list(self.span_name),
            "parent": list(self.span_parent),
            "start": list(self.span_start),
            "end": list(self.span_end),
        }


def top_layers(metrics: dict, k: int = 3) -> list[str]:
    """The k layers with the most self time."""
    return sorted(LAYERS, key=lambda layer: -metrics[f"{layer}.self_s"])[:k]


# -- counter hooks: (tracer, args, kwargs, result)


def _count_elimination(tracer: Tracer, rows: int, cols: int) -> None:
    tracer.counters["linalg.eliminations"] += 1
    tracer.counters["linalg.cells_reduced"] += rows * cols


def _matrix_elim(t, args, kwargs, result):
    m = args[0]
    _count_elimination(t, m.rows, m.cols)


def _solve_many(t, args, kwargs, result):
    m = args[0]
    _count_elimination(t, m.rows, m.cols + len(result))


def _span(t, args, kwargs, result):
    ambient, vectors = args[0], args[1]
    if vectors:
        _count_elimination(t, len(vectors), ambient)


def _sparse_rank(t, args, kwargs, result):
    rows = args[0]
    cols = {c for r in rows for c in r}
    _count_elimination(t, len(rows), len(cols))


def _apply(t, args, kwargs, result):
    m = args[0]
    t.counters["linalg.matvec_cells"] += m.rows * m.cols


def _preimage(t, args, kwargs, result):
    if t.open_by_name[t.name_id["FilteredComplex.d_preimage"]] > 0:
        t.counters["filtered.nested_preimages"] += 1


def _validate(t, args, kwargs, result):
    t.counters["algebra.validate_triples"] += args[0].dim() ** 3


def _leibniz(t, args, kwargs, result):
    t.counters["algebra.leibniz_pairs"] += args[0].alg.dim() ** 2


def _certify(t, args, kwargs, result):
    t.counters["lefschetz.cert_steps"] += len(result.steps)


_HOOKS = {
    "Matrix.rank": _matrix_elim,
    "Matrix.nullspace": _matrix_elim,
    "Matrix.solve_many": _solve_many,
    "Subspace.span": _span,
    "sparse_rank": _sparse_rank,
    "Matrix.apply": _apply,
    "preimage": _preimage,
    "BigradedAlgebra.validate": _validate,
    "Derivation.leibniz_violations": _leibniz,
    "degeneration_certify": _certify,
}
