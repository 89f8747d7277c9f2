"""Acceptance gate: eleven structural criteria, exact arithmetic, tolerance 0.

Each criterion prints one PASS/FAIL line (visible under pytest -v -s or in
captured output on failure). Every comparison is exact: dimensions are ints,
matrices live over Fraction, and there is no epsilon anywhere.
"""

import functools
import random
from fractions import Fraction

import pytest

from specseq import (
    Derivation,
    ObstructionDatum,
    SpectralSequence,
    build_model,
    canonical_power_datum,
    d2_from_alpha,
    degeneration_certify,
    deligne_vanishing,
    e_infinity_compare,
    ext_dimensions,
    serre_sign_check,
    tensor_model,
    verify_hard_lefschetz,
)
from specseq.fuzz import random_filtered_complex, random_obstruction_datum
from specseq.spectral import decalage_renumbering_report, oracle_report

from conftest import el

CORPUS_SIZE = 200
CERT_PAIRS = 120
SIGN_INSTANCES = 60

REPORT_LINES: list[str] = []


def criterion(num, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                REPORT_LINES.append(f"criterion {num:02d} FAIL {label}")
                print(REPORT_LINES[-1])
                raise
            REPORT_LINES.append(f"criterion {num:02d} PASS {label}")
            print(REPORT_LINES[-1])

        return wrapper

    return deco


@pytest.fixture(scope="module")
def corpus():
    return [
        random_filtered_complex(random.Random(f"acceptance:complex:{i}"))
        for i in range(CORPUS_SIZE)
    ]


@criterion(1, "turned pages equal the direct subquotient formula on 200 complexes")
def test_oracle_equivalence(corpus):
    for fk in corpus:
        report = oracle_report(fk, max_page=6)
        assert report["ok"], report["mismatches"]


@criterion(2, "E-infinity totals equal the cohomology of the underlying complex")
def test_abutment(corpus):
    for fk in corpus:
        report = e_infinity_compare(fk)
        assert report["ok"], report


@criterion(3, "decalage reproduces pages after the (2p+q, -p) renumbering, r <= 3")
def test_decalage_renumbering(corpus):
    for fk in corpus:
        report = decalage_renumbering_report(fk, max_page=3)
        assert report["ok"], report["mismatches"]


@criterion(4, "two-term acyclic complex: E2 = Q + Q, d2 iso, E3 = 0")
def test_acyclic_micro_example(acyclic_fk):
    ss = SpectralSequence(acyclic_fk)
    assert ss.page(2).dims() == {(0, 0): 1, (2, -1): 1}
    d2 = ss.page(2).diff(0, 0)
    assert (d2.rows, d2.cols) == (1, 1) and d2.rank() == 1
    assert ss.page(3).dims() == {}
    assert ss.stabilization_page() == 3


@criterion(5, "projective-space degeneration by bidegree; Ext tables frozen")
def test_ext_dimension_tables():
    for n in range(1, 5):
        pn = build_model("pn", n)
        # all cells sit on the diagonal, so every d_r with r >= 2 has zero target
        assert all(p == q for (p, q) in pn.pa.A.cells)
        expect = [1 if k % 2 == 0 else 0 for k in range(2 * n + 1)]
        assert ext_dimensions(pn) == expect
    torus2 = build_model("torus", 2)
    assert ext_dimensions(torus2) == [1, 4, 6, 4, 1]
    assert sum(ext_dimensions(torus2)) == 16


@criterion(6, "no nonzero degree-lowering operators commute with the Lefschetz class")
def test_deligne_vanishing():
    for n in (1, 2, 3):
        assert deligne_vanishing(build_model("torus", n).pa, k=-1) == 0
    for n in (1, 2, 3, 4):
        assert deligne_vanishing(build_model("pn", n).pa, k=-1) == 0


@criterion(7, "certified verdicts coincide with d = 0 and E3 = E2 on 120 seeded pairs")
def test_certifier_soundness():
    certified = failed = 0
    for i in range(CERT_PAIRS):
        rng = random.Random(f"acceptance:cert:{i}")
        model = build_model("torus", rng.choice([2, 2, 3]))
        if rng.random() < 0.25:
            od = ObstructionDatum(model, {}, Fraction(1))
        else:
            od = random_obstruction_datum(rng, model, rng.random() < 0.5)
        d = d2_from_alpha(od)
        cert = degeneration_certify(model.pa, d)
        if cert.certified():
            certified += 1
            assert d.is_zero(), "certified verdict with a nonzero derivation"
            alg = model.pa.A
            e3 = d.cohomology_dims()
            e2 = {c: len(ix) for c, ix in alg.cells.items()}
            assert e3 == e2, "certified verdict but the page turn shrinks a cell"
        else:
            failed += 1
            assert not d.is_zero(), "zero derivation left uncertified"
    assert certified > 0 and failed > 0


@criterion(8, "witness transcript for d(xi1) = eta1 eta2 pinpoints xi1 xi2")
def test_certifier_witness_quality():
    model = build_model("torus", 2)
    alg = model.pa.A
    img = el(alg, "eta1", "eta2")
    d = d2_from_alpha(ObstructionDatum(model, {alg.index("xi1"): img}))
    assert d.apply(model.pa.omega) == {}
    # d(xi1 xi2) = eta1 eta2 xi2 = xi2 eta1 eta2 after sorting, nonzero
    value = d.apply(el(alg, "xi1", "xi2"))
    assert value == {alg.index("xi2eta1eta2"): Fraction(1)}
    cert = degeneration_certify(model.pa, d)
    assert cert.verdict == "failed(primitive-component-only)"
    last = cert.steps[-1]
    assert last.step_id == "primitive-component-only"
    assert last.witness["alpha"] == {"xi1xi2": "1"}


@criterion(9, "obstruction scaling is exactly linear; zero datum certifies")
def test_scaling_linearity():
    model = build_model("torus", 2)
    alg = model.pa.A
    img = el(alg, "eta1", "eta2")
    alpha = {alg.index("xi1"): img, alg.index("xi2"): {k: Fraction(-2) * c for k, c in img.items()}}
    base = d2_from_alpha(ObstructionDatum(model, alpha, Fraction(1)))
    rng = random.Random("acceptance:scaling")
    for _ in range(5):
        s = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        scaled = d2_from_alpha(ObstructionDatum(model, alpha, s))
        assert scaled.values == base.scaled(s).values
    for s, t in ((1, 1), (3, 2), (-7, 5)):
        d = d2_from_alpha(canonical_power_datum(model, s, t))
        assert d.is_zero()
        assert degeneration_certify(model.pa, d).certified()


def sign_suite():
    """Criterion 10's seeded (model, induced derivation) pairs."""
    models = [
        build_model("torus", 2),
        build_model("torus", 3),
        build_model("pn", 2),
    ]
    for i in range(SIGN_INSTANCES):
        rng = random.Random(f"acceptance:sign:{i}")
        model = models[i % len(models)]
        if model.pa.A.cell_indices(0, 1):
            od = random_obstruction_datum(rng, model, rng.random() < 0.5)
        else:
            od = canonical_power_datum(model, rng.randint(1, 5), rng.randint(1, 3))
        yield model, d2_from_alpha(od)


@criterion(10, "Serre-sign compatibility holds for 60 seeded induced derivations")
def test_serre_sign_suite():
    for model, d in sign_suite():
        ok, witness = serre_sign_check(model.pa, d)
        assert ok, f"sign mismatch at {witness} on {model.name}"


@criterion(11, "hard Lefschetz and primitive dimension bookkeeping on all models")
def test_hard_lefschetz_and_primitives():
    toruses = [build_model("torus", n) for n in (1, 2, 3)]
    pns = [build_model("pn", n) for n in (1, 2, 3, 4)]
    products = [
        tensor_model(toruses[0], toruses[0]),
        tensor_model(toruses[0], pns[0]),
        tensor_model(pns[0], pns[1]),
    ]
    for model in toruses + pns + products:
        ok, bad = verify_hard_lefschetz(model.pa)
        assert ok, f"hard Lefschetz fails on {model.name} at power {bad}"
    for model in toruses + products:
        pa = model.pa
        for m in range(pa.n + 1):
            assert pa.primitive_degree_dim(m) == pa.betti(m) - pa.betti(m - 2)
