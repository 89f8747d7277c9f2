"""Command-line entry point: JSON in, JSON out, deterministic.

Commands: compute, oracle, decalage, certify, model, ext-dims, d2, fuzz.
Each cmd_* function reads the parsed argparse namespace, the one copy of
the flags. Before dispatch, main reads SS_THREADS (the bound on fuzz
parallelism) into it and rejects a non-positive --pages, --cases or
SS_THREADS, and a --pages or --cases past MAX_PAGES or MAX_CASES. Exit
codes: 0 success / certified; 2 certificate failed; 3 parse error (with
location; a usage error, which argparse would exit 2 on, is one at argv);
4 invariant violation in the input (with witness); 5 internal
oracle mismatch or engine bug.
Identical inputs and seeds give byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from json.encoder import encode_basestring_ascii as _quote

# everything else is imported by the command or fuzz case that runs it: a
# command loads the engine (spectral) or the model half (algebra,
# lefschetz, models), and only `fuzz --kind all` loads both, since import
# is most of a short command's time
from .errors import EngineError, InvariantError, ParseError, SpecSeqError
from .filtered import MAX_LEVEL_SPAN, FilteredComplex


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """One JSON object as a dict; a key given twice is an error, not a silent overwrite."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        keys = [k for k, _ in pairs]
        first = next(k for i, k in enumerate(keys) if k in keys[:i])
        raise ValueError(f"repeated key {first!r}")
    return obj


def _load_json(path: str) -> dict:
    """The JSON document in a file; any read or decode failure is a ParseError at path."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=_unique_keys)
    except FileNotFoundError as exc:
        raise ParseError("no such file", location=path) from exc
    except OSError as exc:
        raise ParseError(f"cannot read: {exc.strerror}", location=path) from exc
    except (ValueError, RecursionError) as exc:
        # bad JSON or UTF-8, an integer literal past int()'s digit limit, or too deep nesting
        raise ParseError(f"invalid JSON: {exc}", location=path) from exc


def _key(k: str | int) -> str:
    """A dict key as json writes it: a str quoted, an int's digits quoted."""
    if type(k) is str:
        return _quote(k)
    if type(k) is int:
        return f'"{k}"'
    raise TypeError(f"keys must be str or int, not {type(k).__name__}")


def _dumps(obj, pad: str = "\n") -> str:
    """json.dumps(obj, sort_keys=True, indent=2), byte for byte, for what the commands emit.

    That is dicts with str or int keys, sorted as json sorts them (so int
    keys numerically) and then written as strings; lists and tuples; str,
    int, bool and None. Any other type raises TypeError, as json.dumps does
    for a Fraction. json uses its C encoder only without an indent, so this
    writer replaces its pure-Python generators: each container is one
    join of its items, and a str or int item is written in place. pad is
    the newline and indent of the container's own line.
    """
    t = type(obj)
    if t is dict:
        if not obj:
            return "{}"
        inner = pad + "  "
        items = []
        for k in sorted(obj):
            v = obj[k]
            tv = type(v)
            items.append(_key(k) + ": " + (
                _quote(v) if tv is str else repr(v) if tv is int else _dumps(v, inner)
            ))
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if t is list or t is tuple:
        if not obj:
            return "[]"
        inner = pad + "  "
        return "[" + inner + ("," + inner).join([
            _quote(v) if type(v) is str else repr(v) if type(v) is int else _dumps(v, inner)
            for v in obj
        ]) + pad + "]"
    if t is str:
        return _quote(obj)
    if t is int:
        return repr(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


def _emit(obj: dict, out: str | None) -> None:
    """Write obj to the --out file, if any, and then to stdout.

    A failed write raises a ParseError at `out` before stdout is touched,
    so stdout then holds only the error object.
    """
    blob = _dumps(obj) + "\n"
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(blob)
        except OSError as exc:
            raise ParseError(f"cannot write {out}: {exc.strerror}", location="out") from exc
    sys.stdout.write(blob)


def _cell_key(p: int, q: int) -> str:
    return f"{p},{q}"


def _page_json(dims: dict[tuple[int, int], int]) -> dict[str, int]:
    return {_cell_key(p, q): d for (p, q), d in sorted(dims.items())}


def cmd_compute(args: argparse.Namespace) -> int:
    """Page dimensions and the abutment check; with --with-maps, the differentials too.

    Dimensions alone are read off the barcode and build no page; the maps
    need the turned pages. Either way the E_infinity totals are checked
    against the cohomology of K.
    """
    from .spectral import SpectralSequence, abutment_report, barcode, e_infinity_compare

    fk = FilteredComplex.from_json(_load_json(args.input))
    pages = {}
    if args.with_maps:
        ss = SpectralSequence(fk)
        maps = {}
        for r in range(1, args.pages + 1):
            pg = ss.page(r)
            pages[str(r)] = _page_json(pg.dims())
            maps[str(r)] = {_cell_key(p, q): m.to_json() for (p, q), m in pg.diffs.items()}
        out = {"pages": pages, "abutment": e_infinity_compare(fk), "maps": maps}
    else:
        bars = barcode(fk)
        for r in range(1, args.pages + 1):
            pages[str(r)] = _page_json(bars.dims(r))
        out = {"pages": pages, "abutment": abutment_report(fk, bars.e_infinity())}
    _emit(out, args.out)
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    from .spectral import oracle_report

    fk = FilteredComplex.from_json(_load_json(args.input))
    report = oracle_report(fk, max_page=args.pages)
    _emit(report, args.out)
    return 0 if report["ok"] else 5


def cmd_decalage(args: argparse.Namespace) -> int:
    from .spectral import decalage_renumbering_report

    fk = FilteredComplex.from_json(_load_json(args.input))
    report = decalage_renumbering_report(fk, max_page=min(args.pages, 3))
    _emit(report, args.out)
    return 0 if report["ok"] else 5


def cmd_certify(args: argparse.Namespace) -> int:
    """Certify a derivation given by --derivation or under the model's "derivation" key.

    A model object with neither, its "derivation" missing or null, is
    rejected before it is built.
    """
    from .algebra import Derivation
    from .lefschetz import degeneration_certify
    from .models import VarietyModel

    blob = _load_json(args.algebra)
    if not args.derivation and isinstance(blob, dict) and blob.get("derivation") is None:
        raise ParseError("no derivation given", location="derivation")
    model = VarietyModel.from_json(blob)
    data = _load_json(args.derivation) if args.derivation else blob.get("derivation")
    if data is None:
        raise ParseError("no derivation given", location="derivation")
    d = Derivation.from_json(model.pa.A, data)
    cert = degeneration_certify(model.pa, d, require_square_zero=args.require_square_zero)
    _emit(cert.to_json(), args.out)
    return 0 if cert.certified() else 2


def cmd_model(args: argparse.Namespace) -> int:
    from .models import VarietyModel, build_model, lagrangian_e2_table

    if args.kind == "product":
        if not args.a or not args.b:
            raise ParseError("product model needs --a and --b", location="model")
        a = VarietyModel.from_json(_load_json(args.a))
        b = VarietyModel.from_json(_load_json(args.b))
        model = build_model("product", a=a, b=b)
    else:
        if args.n is None:
            raise ParseError(f"model kind {args.kind!r} needs --n", location="model")
        model = build_model(args.kind, n=args.n)
    out = model.to_json()
    out["e2_table"] = {
        _cell_key(p, q): v for (p, q), v in lagrangian_e2_table(model).items()
    }
    _emit(out, args.out)
    return 0


def cmd_ext_dims(args: argparse.Namespace) -> int:
    from .models import VarietyModel, ext_dimensions

    model = VarietyModel.from_json(_load_json(args.model))
    _emit({"model": model.name, "ext_dimensions": ext_dimensions(model)}, args.out)
    return 0


def cmd_d2(args: argparse.Namespace) -> int:
    from .lefschetz import serre_sign_check
    from .models import ObstructionDatum, VarietyModel, d2_from_alpha

    model = VarietyModel.from_json(_load_json(args.model))
    data = _load_json(args.alpha) if args.alpha else {"images": {}}
    od = ObstructionDatum.from_json(model, data)
    if args.scale is not None:
        od = ObstructionDatum(model, od.alpha, args.scale)
    d = d2_from_alpha(od)
    ok, witness = serre_sign_check(model.pa, d)
    out = {
        "model": model.name,
        "datum": od.to_json(),
        "derivation": d.to_json(),
        "serre_sign": {"ok": ok, "witness": witness},
        "is_zero": d.is_zero(),
    }
    _emit(out, args.out)
    return 0


def _fuzz_complex_case(seed: int, index: int) -> dict:
    import random

    from .fuzz import planted_filtered_complex
    from .spectral import (
        SpectralSequence,
        barcode,
        compare_differentials,
        decalage_renumbering_report,
        e_infinity_compare,
        oracle_report,
    )

    # str seeds go through sha512, so workers agree across processes
    rng = random.Random(f"{seed}:complex:{index}")
    fk, planted = planted_filtered_complex(rng)
    result = {"case": index, "kind": "complex", "ok": True}
    try:
        rep = oracle_report(fk, max_page=6)
        if not rep["ok"]:
            raise EngineError(f"oracle mismatch: {rep['mismatches']}")
        # the turned maps, which no dimension count sees, against induced_map
        for r in range(1, 7):
            compare_differentials(fk, r)
        if barcode(fk) != planted:
            raise EngineError(f"barcode {barcode(fk)} != planted bars {planted}")
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
    import random

    from .fuzz import random_obstruction_datum
    from .lefschetz import degeneration_certify, serre_sign_check
    from .models import ObstructionDatum, build_model, d2_from_alpha

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


def cmd_fuzz(args: argparse.Namespace) -> int:
    jobs = [(args.seed, i, args.kind) for i in range(args.cases)]
    # the pool starts all its workers up front, so never ask for more than can run
    workers = min(args.threads, args.cases, os.cpu_count() or 1)
    if workers > 1:
        # imported here: no other command pays for it at startup
        from concurrent.futures import ProcessPoolExecutor

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
        "seed": args.seed,
        "cases": args.cases,
        "kind": args.kind,
        "counterexamples": len(bad),
        "verdicts": verdicts,
        "failures": bad,
    }
    _emit(out, args.out)
    return 0 if not bad else 5


def _usage_error(message: str):
    """The error hook of every parser here: a usage error is a ParseError at argv, not exit 2."""
    raise ParseError(message, location="argv")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of this process, built on the first call; parsing leaves it unchanged."""
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
    p.add_argument("--kind", choices=["all", "complexes", "derivations"], default="all")
    p.add_argument("--out")
    for parser in (ap, *sub.choices.values()):
        parser.error = _usage_error
    return ap


def _read_threads() -> int:
    """SS_THREADS, the bound on fuzz workers; every command reads it."""
    raw = os.environ.get("SS_THREADS", "1") or "1"
    try:
        return int(raw)
    except ValueError as exc:
        raise ParseError(f"not an integer: {raw!r}", location="SS_THREADS") from exc


# bounds that must be positive: namespace attribute, message, witness key
_POSITIVE = (
    ("pages", "page bound must be positive", "pages"),
    ("cases", "case count must be positive", "cases"),
    ("threads", "SS_THREADS must be positive", "SS_THREADS"),
)


# the largest stabilization page of an admissible complex: its filtration
# width is at most MAX_LEVEL_SPAN, so every distinct page is reachable
MAX_PAGES = MAX_LEVEL_SPAN + 1

# fuzz makes each case's job, and its future under SS_THREADS > 1, before any case runs
MAX_CASES = 100_000


def _check_positive(args: argparse.Namespace) -> None:
    for attr, message, key in _POSITIVE:
        value = getattr(args, attr, 1)
        if value < 1:
            raise InvariantError(message, witness={key: value})
    pages = getattr(args, "pages", 1)
    if pages > MAX_PAGES:
        raise InvariantError(f"page bound exceeds {MAX_PAGES}", witness={"pages": pages})
    cases = getattr(args, "cases", 1)
    if cases > MAX_CASES:
        raise InvariantError(f"case count exceeds {MAX_CASES}", witness={"cases": cases})


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
    """Parse, check the bounds and dispatch one command; exit codes as documented."""
    try:
        args = build_parser().parse_args(argv)
        args.threads = _read_threads()
        _check_positive(args)
        return _DISPATCH[args.command](args)
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
