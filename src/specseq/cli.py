"""Command-line entry point: JSON in, JSON out, deterministic.

Commands: compute, oracle, decalage, certify, model, ext-dims, d2, fuzz.
Exit codes: 0 success / certified; 2 certificate failed; 3 parse error
(with location); 4 invariant violation in the input (with witness);
5 internal oracle mismatch or engine bug. Identical inputs and seeds give
byte-identical output. SS_THREADS bounds fuzz parallelism.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .algebra import Derivation
from .errors import EngineError, InvariantError, ParseError, SpecSeqError
from .filtered import FilteredComplex
from .fuzz import random_filtered_complex, random_obstruction_datum
from .lefschetz import degeneration_certify, serre_sign_check
from .models import (
    ObstructionDatum,
    VarietyModel,
    build_model,
    d2_from_alpha,
    ext_dimensions,
    lagrangian_e2_table,
)
from .spectral import (
    SpectralSequence,
    decalage_renumbering_report,
    e_infinity_compare,
    oracle_report,
)


@dataclass
class RunConfig:
    """One CLI invocation: command, inputs, seed, bounds, output path."""

    command: str
    input: str | None = None
    algebra: str | None = None
    derivation: str | None = None
    model: str | None = None
    alpha: str | None = None
    factor_a: str | None = None
    factor_b: str | None = None
    out: str | None = None
    kind: str | None = None
    n: int | None = None
    scale: str | None = None
    seed: int = 0
    cases: int = 100
    pages: int = 6
    max_dim: int = 8
    max_width: int = 4
    with_maps: bool = False
    require_square_zero: bool = False
    threads: int = 1

    def __post_init__(self):
        if self.pages < 1:
            raise InvariantError("page bound must be positive", witness={"pages": self.pages})
        if self.cases < 1:
            raise InvariantError("case count must be positive", witness={"cases": self.cases})
        if self.max_dim < 1 or self.max_width < 1:
            raise InvariantError(
                "bounds must be positive",
                witness={"max_dim": self.max_dim, "max_width": self.max_width},
            )
        if self.threads < 1:
            raise InvariantError(
                "SS_THREADS must be positive", witness={"SS_THREADS": self.threads}
            )


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise ParseError(f"no such file: {path}", location=path) from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}", location=path) from exc


def _emit(obj: dict, out: str | None) -> None:
    blob = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    sys.stdout.write(blob)
    if out:
        with open(out, "w") as fh:
            fh.write(blob)


def _cell_key(p: int, q: int) -> str:
    return f"{p},{q}"


def cmd_compute(cfg: RunConfig) -> int:
    fk = FilteredComplex.from_json(_load_json(cfg.input))
    ss = SpectralSequence(fk)
    pages = {}
    maps = {}
    for r in range(1, cfg.pages + 1):
        pg = ss.page(r)
        pages[str(r)] = {_cell_key(p, q): d for (p, q), d in sorted(pg.dims().items())}
        if cfg.with_maps:
            maps[str(r)] = {
                _cell_key(p, q): pg.diff(p, q).to_json()
                for (p, q) in sorted(pg.support)
                if not pg.diff(p, q).is_zero()
            }
    report = e_infinity_compare(fk)
    out = {"pages": pages, "abutment": report}
    if cfg.with_maps:
        out["maps"] = maps
    _emit(out, cfg.out)
    return 0


def cmd_oracle(cfg: RunConfig) -> int:
    fk = FilteredComplex.from_json(_load_json(cfg.input))
    report = oracle_report(fk, max_page=cfg.pages)
    _emit(report, cfg.out)
    return 0 if report["ok"] else 5


def cmd_decalage(cfg: RunConfig) -> int:
    fk = FilteredComplex.from_json(_load_json(cfg.input))
    report = decalage_renumbering_report(fk, max_page=min(cfg.pages, 3))
    _emit(report, cfg.out)
    return 0 if report["ok"] else 5


def cmd_certify(cfg: RunConfig) -> int:
    blob = _load_json(cfg.algebra)
    model = VarietyModel.from_json(blob)
    data = _load_json(cfg.derivation) if cfg.derivation else blob.get("derivation")
    if data is None:
        raise ParseError("no derivation given", location="derivation")
    d = Derivation.from_json(model.pa.A, data)
    cert = degeneration_certify(model.pa, d, require_square_zero=cfg.require_square_zero)
    _emit(cert.to_json(), cfg.out)
    return 0 if cert.certified() else 2


def cmd_model(cfg: RunConfig) -> int:
    if cfg.kind == "product":
        if not cfg.factor_a or not cfg.factor_b:
            raise ParseError("product model needs --a and --b", location="model")
        a = VarietyModel.from_json(_load_json(cfg.factor_a))
        b = VarietyModel.from_json(_load_json(cfg.factor_b))
        model = build_model("product", a=a, b=b)
    else:
        if cfg.n is None:
            raise ParseError(f"model kind {cfg.kind!r} needs --n", location="model")
        model = build_model(cfg.kind, n=cfg.n)
    out = model.to_json()
    out["e2_table"] = {
        _cell_key(p, q): v for (p, q), v in lagrangian_e2_table(model).items()
    }
    _emit(out, cfg.out)
    return 0


def cmd_ext_dims(cfg: RunConfig) -> int:
    model = VarietyModel.from_json(_load_json(cfg.model))
    _emit({"model": model.name, "ext_dimensions": ext_dimensions(model)}, cfg.out)
    return 0


def cmd_d2(cfg: RunConfig) -> int:
    model = VarietyModel.from_json(_load_json(cfg.model))
    data = _load_json(cfg.alpha) if cfg.alpha else {"images": {}}
    od = ObstructionDatum.from_json(model, data)
    if cfg.scale is not None:
        od = ObstructionDatum(model, od.alpha, cfg.scale)
    d = d2_from_alpha(od)
    ok, witness = serre_sign_check(model.pa, d)
    out = {
        "model": model.name,
        "datum": od.to_json(),
        "derivation": d.to_json(),
        "serre_sign": {"ok": ok, "witness": witness},
        "is_zero": d.is_zero(),
    }
    _emit(out, cfg.out)
    return 0


def _fuzz_complex_case(seed: int, index: int) -> dict:
    # str seeds go through sha512, so workers agree across processes
    rng = random.Random(f"{seed}:complex:{index}")
    fk = random_filtered_complex(rng)
    result = {"case": index, "kind": "complex", "ok": True}
    try:
        rep = oracle_report(fk, max_page=6)
        if not rep["ok"]:
            raise EngineError(f"oracle mismatch: {rep['mismatches']}")
        ss = SpectralSequence(fk)
        for r in range(1, ss.stabilization_page() + 1):
            for (p, q) in ss.page(r).support:
                if ss.page(r + 1).cell(p, q).dim > ss.page(r).cell(p, q).dim:
                    raise EngineError(f"page dimensions grow at {(p, q)}, r={r}")
        e_infinity_compare(fk)
        dec = decalage_renumbering_report(fk)
        if not dec["ok"]:
            raise EngineError(f"decalage mismatch: {dec['mismatches']}")
    except SpecSeqError as exc:
        result["ok"] = False
        result["error"] = str(exc)
        result["instance"] = fk.to_json()
    return result


def _fuzz_derivation_case(seed: int, index: int) -> dict:
    rng = random.Random(f"{seed}:derivation:{index}")
    model = build_model("torus", rng.choice([2, 2, 3]))
    constrained = rng.random() < 0.5
    if rng.random() < 0.25:
        od = ObstructionDatum(model, {}, 1)
    else:
        od = random_obstruction_datum(rng, model, constrained)
    result = {"case": index, "kind": "derivation", "model": model.name, "ok": True}
    try:
        d = d2_from_alpha(od)
        ok, witness = serre_sign_check(model.pa, d)
        if not ok:
            raise EngineError(f"serre sign check failed at {witness}")
        cert = degeneration_certify(model.pa, d)
        result["verdict"] = cert.verdict
        if cert.certified():
            if not d.is_zero():
                raise EngineError("certified verdict with a nonzero derivation")
            dims = d.cohomology_dims()
            for (p, q), v in dims.items():
                if v != model.pa.A.cell_dim(p, q):
                    raise EngineError(f"certified but page turn shrinks cell {(p, q)}")
    except SpecSeqError as exc:
        result["ok"] = False
        result["error"] = str(exc)
        result["instance"] = {"model": model.name, "datum": od.to_json()}
    return result


def _fuzz_case(args: tuple[int, int, str]) -> dict:
    seed, index, kind = args
    if kind == "complexes" or (kind == "all" and index % 2 == 0):
        return _fuzz_complex_case(seed, index)
    return _fuzz_derivation_case(seed, index)


def cmd_fuzz(cfg: RunConfig) -> int:
    kind = cfg.kind or "all"
    if kind not in ("all", "complexes", "derivations"):
        raise ParseError(f"unknown fuzz kind {kind!r}", location="kind")
    jobs = [(cfg.seed, i, kind) for i in range(cfg.cases)]
    # the pool starts all its workers up front, so never ask for more than can run
    workers = min(cfg.threads, cfg.cases, os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_fuzz_case, jobs))
    else:
        results = [_fuzz_case(j) for j in jobs]
    results.sort(key=lambda r: r["case"])
    bad = [r for r in results if not r["ok"]]
    verdicts: dict[str, int] = {}
    for r in results:
        if "verdict" in r:
            verdicts[r["verdict"]] = verdicts.get(r["verdict"], 0) + 1
    out = {
        "seed": cfg.seed,
        "cases": cfg.cases,
        "kind": kind,
        "counterexamples": len(bad),
        "verdicts": verdicts,
        "failures": bad,
    }
    _emit(out, cfg.out)
    return 0 if not bad else 5


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ss",
        description="Spectral sequences of filtered complexes over Q, exactly.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="pages and abutment comparison")
    p.add_argument("--input", required=True)
    p.add_argument("--pages", type=int, default=6)
    p.add_argument("--with-maps", action="store_true")
    p.add_argument("--out")

    p = sub.add_parser("oracle", help="turned pages vs the direct formula")
    p.add_argument("--input", required=True)
    p.add_argument("--pages", type=int, default=6)
    p.add_argument("--out")

    p = sub.add_parser("decalage", help="decalage renumbering comparison")
    p.add_argument("--input", required=True)
    p.add_argument("--pages", type=int, default=3)
    p.add_argument("--out")

    p = sub.add_parser("certify", help="replay the degeneration argument")
    p.add_argument("--algebra", required=True)
    p.add_argument("--derivation")
    p.add_argument("--require-square-zero", action="store_true")
    p.add_argument("--out")

    p = sub.add_parser("model", help="build a model algebra")
    p.add_argument("kind", choices=["torus", "pn", "product"])
    p.add_argument("--n", type=int)
    p.add_argument("--a")
    p.add_argument("--b")
    p.add_argument("--out")

    p = sub.add_parser("ext-dims", help="total Ext dimensions of a model")
    p.add_argument("--model", required=True)
    p.add_argument("--out")

    p = sub.add_parser("d2", help="derivation induced by an obstruction datum")
    p.add_argument("--model", required=True)
    p.add_argument("--alpha")
    p.add_argument("--scale")
    p.add_argument("--out")

    p = sub.add_parser("fuzz", help="randomized invariant suites")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=int, default=100)
    p.add_argument("--kind", choices=["all", "complexes", "derivations"])
    p.add_argument("--out")
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of this process, built on the first call; parsing leaves it unchanged."""
    return build_parser()


def config_from_args(args: argparse.Namespace) -> RunConfig:
    raw = os.environ.get("SS_THREADS", "1") or "1"
    try:
        threads = int(raw)
    except ValueError as exc:
        raise ParseError(f"not an integer: {raw!r}", location="SS_THREADS") from exc
    return RunConfig(
        command=args.command,
        input=getattr(args, "input", None),
        algebra=getattr(args, "algebra", None),
        derivation=getattr(args, "derivation", None),
        model=getattr(args, "model", None),
        alpha=getattr(args, "alpha", None),
        factor_a=getattr(args, "a", None),
        factor_b=getattr(args, "b", None),
        out=getattr(args, "out", None),
        kind=getattr(args, "kind", None),
        n=getattr(args, "n", None),
        scale=getattr(args, "scale", None),
        seed=getattr(args, "seed", 0),
        cases=getattr(args, "cases", 100),
        pages=getattr(args, "pages", 6),
        with_maps=getattr(args, "with_maps", False),
        require_square_zero=getattr(args, "require_square_zero", False),
        threads=threads,
    )


_DISPATCH = {
    "compute": cmd_compute,
    "oracle": cmd_oracle,
    "decalage": cmd_decalage,
    "certify": cmd_certify,
    "model": cmd_model,
    "ext-dims": cmd_ext_dims,
    "d2": cmd_d2,
    "fuzz": cmd_fuzz,
}


def main(argv: list[str] | None = None) -> int:
    """Configure and dispatch one command; exit codes as documented."""
    args = _parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
        return _DISPATCH[cfg.command](cfg)
    except ParseError as exc:
        _emit({"error": "parse", "message": str(exc), "location": exc.location}, None)
        return 3
    except EngineError as exc:
        _emit({"error": "engine", "message": str(exc)}, None)
        return 5
    except InvariantError as exc:
        _emit({"error": "invariant", "message": str(exc), "witness": exc.witness}, None)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
