"""Each object is computed once: one spectral sequence per filtered complex,
one barcode per filtered complex, and no page for page dimensions alone,
one Leibniz check per derivation, one elimination per subspace operation,
one application of a map per basis vector of an induced map's source, one
preimage per clamped filtration level, no cycles computed where the
filtration already gives them, no recomputation of a page cell that d_r
leaves alone, one product omega * e_i per basis element of a polarized
algebra, and each algebra and polarization fact checked once: no unit or
mirror cases in algebra validation, no empty or mirror twisted pairings."""

import json
from fractions import Fraction

import pytest

import specseq.cli as cli
import specseq.spectral as sp
from specseq import Derivation, ObstructionDatum, SpectralSequence, build_model, d2_from_alpha
from specseq.cli import _fuzz_complex_case, main

from conftest import acyclic_two_term


def count_calls(monkeypatch, owner, name) -> list:
    """Replace owner.name by a wrapper that appends one entry per call."""
    calls = []
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_pages_are_kept_on_the_complex():
    fk = acyclic_two_term()
    page = SpectralSequence(fk).page(2)
    assert SpectralSequence(fk).page(2) is page
    assert SpectralSequence(acyclic_two_term()).page(2) is not page


@pytest.mark.parametrize("index", range(4))
def test_fuzz_complex_case_builds_two_first_pages(monkeypatch, index):
    firsts = count_calls(monkeypatch, sp, "first_page")
    result = _fuzz_complex_case(0, index)
    assert result["ok"], result
    # the original complex and its decalage
    assert len(firsts) == 2


def test_compute_builds_each_page_once(monkeypatch, capsys, tmp_path):
    path = tmp_path / "acyclic.json"
    path.write_text(json.dumps(acyclic_two_term().to_json()))
    firsts = count_calls(monkeypatch, sp, "first_page")
    turns = count_calls(monkeypatch, sp, "turn_page")
    bars = count_calls(monkeypatch, cli, "barcode")
    argv = ["compute", "--input", str(path), "--pages", "6"]
    assert main(argv + ["--with-maps"]) == 0
    assert len(firsts) == 1
    assert len(turns) == 5
    # dimensions alone are read off one barcode, and no page is built
    assert main(argv) == 0
    capsys.readouterr()
    assert len(firsts) == 1
    assert len(turns) == 5
    assert len(bars) == 1


def test_reports_share_the_pages(monkeypatch):
    fk = acyclic_two_term()
    firsts = count_calls(monkeypatch, sp, "first_page")
    sp.oracle_report(fk)
    sp.e_infinity_compare(fk)
    sp.compare_differentials(fk, 2)
    sp.decalage_renumbering_report(fk)
    assert firsts[0][0] is fk
    assert len(firsts) == 2


@pytest.mark.parametrize("datum", [{"images": {}}, {"images": {"xi1": {"eta1eta2": "1"}}}])
def test_certify_runs_one_leibniz_check(monkeypatch, capsys, tmp_path, torus2, datum):
    d = d2_from_alpha(ObstructionDatum.from_json(torus2, datum))
    apath = tmp_path / "torus2.json"
    apath.write_text(json.dumps(torus2.to_json()))
    dpath = tmp_path / "d.json"
    dpath.write_text(json.dumps(d.to_json()))
    checks = count_calls(monkeypatch, Derivation, "leibniz_violations")
    code = main(["certify", "--algebra", str(apath), "--derivation", str(dpath)])
    capsys.readouterr()
    assert code in (0, 2)
    assert len(checks) == 1


def test_unchecked_derivation_is_checked_by_the_certifier(monkeypatch, torus2):
    from specseq import degeneration_certify

    alg = torus2.pa.A
    d = Derivation(alg, (2, -1), [alg.zero()] * alg.dim(), check=False)
    assert not d.leibniz_checked
    assert isinstance(d.values, tuple)
    checks = count_calls(monkeypatch, Derivation, "leibniz_violations")
    assert degeneration_certify(torus2.pa, d).certified()
    assert len(checks) == 1


@pytest.mark.parametrize("datum", [{"images": {}}, {"images": {"xi1": {"eta1eta2": "1"}}}])
def test_certify_checks_the_commutator_once(monkeypatch, torus2, datum):
    import specseq.lefschetz as lz

    d = d2_from_alpha(ObstructionDatum.from_json(torus2, datum))
    checks = count_calls(monkeypatch, lz, "_commutator_violation")
    cert = lz.degeneration_certify(torus2.pa, d)
    # both certificates get past primitive-containment, which splits d
    assert [s.step_id for s in cert.steps][:3] == [
        "omega-killed", "lefschetz-commutes", "primitive-containment"
    ]
    assert len(checks) == 1
    # the public split still checks [d, L_omega] on its own
    lz.split_differential(torus2.pa, d)
    assert len(checks) == 2


def test_each_subspace_operation_reduces_once(monkeypatch):
    import specseq.linalg as la
    from specseq import Matrix, Subspace

    u = Subspace.span(3, [la.vec([1, 0, 0]), la.vec([0, 1, 1])])
    v = Subspace.span(3, [la.vec([1, 1, 1]), la.vec([0, 0, 1])])
    target = Subspace.span(2, [la.vec([1, 1])])
    f = Matrix.from_rows([[1, 0, 2], [0, 1, 0]])
    eqs = [{0: Fraction(1), 4: Fraction(-1)}, {}, {4: Fraction(2), 9: Fraction(1)}]
    calls = count_calls(monkeypatch, la, "_echelon")
    meet = u.intersect(v)
    assert len(calls) == 1 and meet.dim == 1
    pre = la.preimage(f, target)
    assert len(calls) == 2 and pre.dim == 2
    assert la.sparse_rank(eqs) == 2
    assert len(calls) == 3


def test_induced_map_applies_f_once_per_basis_vector(monkeypatch):
    import random

    from specseq import Matrix
    from specseq.fuzz import random_filtered_complex
    from specseq.linalg import induced_map

    fk = random_filtered_complex(random.Random(0))
    page = SpectralSequence(fk).page(1)
    # induced_map applies f through the integer entry point, once per Row
    calls = count_calls(monkeypatch, Matrix, "_apply_ints")
    seen = 0
    for (p, q), src in page.cells.items():
        tgt = page.cell(p + 1, q)
        before = len(calls)
        assert induced_map(fk.cx.diff(p + q), src, tgt) == page.diff(p, q)
        assert len(calls) - before == src.Z.dim + src.B.dim
        seen += src.dim
    # the complement vectors are applied only as rows of Z
    assert seen > 0


def test_loading_pages_and_barcode_cross_no_fraction_entry_point(monkeypatch):
    import random

    from specseq import FilteredComplex, Matrix, Subquotient, Subspace
    from specseq.fuzz import random_filtered_complex

    # d_1 and d_2 are nonzero here, so the turns solve and lift
    data = random_filtered_complex(random.Random(0)).to_json()
    entry_points = [
        (Subspace, "span"),
        (Subquotient, "lift"),
        (Subquotient, "coset_coords"),
        (Matrix, "apply"),
        (Matrix, "solve_many"),
    ]
    calls = {name: count_calls(monkeypatch, owner, name) for owner, name in entry_points}
    fk = FilteredComplex.from_json(data)
    ss = SpectralSequence(fk)
    ss.page(4)
    sp.barcode(fk)
    assert {name: len(c) for name, c in calls.items()} == dict.fromkeys(calls, 0)
    assert not ss.page(2).all_differentials_zero()


def test_a_turn_carries_the_cells_d_r_leaves_alone():
    import random

    from specseq.fuzz import random_filtered_complex

    ss = SpectralSequence(random_filtered_complex(random.Random(0)))
    carried = 0
    for r in range(1, 6):
        page, nxt = ss.page(r), ss.page(r + 1)
        for (p, q) in page.support:
            if page.diff(p, q).is_zero() and page.diff(p - r, q + r - 1).is_zero():
                assert nxt.cell(p, q) is page.cell(p, q)
                carried += 1
    assert carried > 0


def test_oracle_runs_one_preimage_per_clamped_level_and_degree(monkeypatch):
    import random
    from collections import Counter

    import specseq.filtered as filtered
    from specseq.fuzz import random_filtered_complex

    fk = random_filtered_complex(random.Random(0))
    # each preimage is charged to the (clamped level, degree) of the open d_preimage
    open_keys, keys = [], []
    real_d_preimage = filtered.FilteredComplex.d_preimage
    real_preimage = filtered.preimage

    def d_preimage(self, p, n):
        open_keys.append((min(max(p, self.p_lo), self.p_top), n))
        try:
            return real_d_preimage(self, p, n)
        finally:
            open_keys.pop()

    def preimage(f, target):
        keys.append(open_keys[-1])
        return real_preimage(f, target)

    monkeypatch.setattr(filtered.FilteredComplex, "d_preimage", d_preimage)
    monkeypatch.setattr(filtered, "preimage", preimage)
    assert sp.oracle_report(fk)["ok"]
    assert keys
    assert max(Counter(keys).values()) == 1


def test_filtration_outside_its_range_is_the_stored_level():
    import random

    from specseq.fuzz import random_filtered_complex

    fk = random_filtered_complex(random.Random(0))
    table = fk.filtration.table
    for n in fk.cx.degrees():
        assert fk.F(fk.p_lo - 2, n) is table[(fk.p_lo, n)]
        assert fk.F(fk.p_top + 2, n) is table[(fk.p_top, n)]


def test_one_zero_matrix_per_shape():
    import random

    from specseq import Matrix
    from specseq.fuzz import random_filtered_complex

    assert Matrix.zeros(2, 3) is Matrix.zeros(2, 3)
    fk = random_filtered_complex(random.Random(0))
    cx = fk.cx
    # outside [lo, hi) the complex stores no differential
    for n in (cx.lo - 1, cx.hi):
        assert cx.diff(n) is Matrix.zeros(cx.dim(n + 1), cx.dim(n))
    page = SpectralSequence(fk).page(1)
    # the sources of d_1 into stored cells that the page does not store
    missing = [(p - 1, q) for (p, q) in page.cells if (p - 1, q) not in page.diffs]
    assert missing
    for (p, q) in missing:
        assert page.diff(p, q) is Matrix.zeros(page.cell(p + 1, q).dim, page.cell(p, q).dim)


def test_lefschetz_operator_is_built_once(monkeypatch, torus3):
    from specseq import (
        Element,
        Matrix,
        PolarizedAlgebra,
        degeneration_certify,
        deligne_vanishing,
        primitive_subspaces,
    )

    alg, omega = torus3.pa.A, torus3.pa.omega
    d = Derivation(alg, (2, -1), [alg.zero()] * alg.dim())
    matmuls = count_calls(monkeypatch, Matrix, "__matmul__")
    products = count_calls(monkeypatch, Element, "__mul__")
    pa = PolarizedAlgebra(alg, omega, torus3.pa.integral)
    # hard Lefschetz applies L one sparse step at a time
    assert matmuls == []
    primitive_subspaces(pa)
    assert deligne_vanishing(pa) == 0
    assert degeneration_certify(pa, d).certified()
    assert 0 < len([args for args in products if args[0] is omega]) <= alg.dim()


def test_empty_graded_pieces_and_low_cycles_compute_no_cycles(monkeypatch):
    import random

    import specseq.filtered as filtered
    from specseq import FilteredComplex, Subspace

    from conftest import scaled_complex

    fk = FilteredComplex.from_json(scaled_complex(random.Random(0), 48, 5, 8))
    # the cells where the graded piece F^p/F^{p+1} is empty
    empty = [
        (p, n - p) for p in fk.levels() for n in fk.cx.degrees() if fk.F(p, n) == fk.F(p + 1, n)
    ]
    assert len(empty) == 19
    asked, computed = [], []
    real_cycles = filtered.FilteredComplex.cycles
    meets = count_calls(monkeypatch, Subspace, "intersect")

    def cycles(self, a, b, n):
        asked.append((a, b, n))
        before = len(meets)
        out = real_cycles(self, a, b, n)
        if len(meets) > before:
            computed.append((self.clamp(a), self.clamp(b), n))
        return out

    monkeypatch.setattr(filtered.FilteredComplex, "cycles", cycles)
    sp.first_page(fk)
    assert asked
    assert not {(p, p + 1, p + q) for p, q in empty} & set(asked)
    for r in range(1, fk.width() + 3):
        for p, q in empty:
            del asked[:]
            sp.page_direct(fk, r, p, q)
            # Z_r alone is read; B_r = Z_r is not computed
            assert asked in ([], [(p, p + r, p + q)])
    sp.oracle_report(fk)
    sp.decalage_renumbering_report(fk)
    assert computed
    assert all(b > a for a, b, _ in computed)


def candidate_triples(alg) -> set:
    """Every (i, j, k) where (e_i e_j) e_k or e_i (e_j e_k) has a product term."""
    prods, dim = alg.products, alg.dim()
    return {
        (i, j, k)
        for i in range(dim)
        for j in range(dim)
        for k in range(dim)
        if any((l, k) in prods for l in prods.get((i, j), {}))
        or any((i, m) in prods for m in prods.get((j, k), {}))
    }


@pytest.mark.parametrize(
    "model, candidates, kept",
    [
        (lambda: build_model("torus", 2), 256, 30),
        (lambda: build_model("pn", 8), 165, 34),
        (lambda: build_model("product", a=build_model("torus", 1), b=build_model("pn", 2)),
         160, 18),
    ],
    ids=["torus2", "pn8", "torus1xpn2"],
)
def test_validate_checks_each_associativity_fact_once(monkeypatch, model, candidates, kept):
    from specseq import BigradedAlgebra

    alg = model().pa.A
    unchecked = BigradedAlgebra(alg.n, alg.basis, alg.unit, alg.products, check=False)
    assert not unchecked.checked
    triples = count_calls(monkeypatch, BigradedAlgebra, "associates")
    unchecked.validate()
    assert unchecked.checked
    # each candidate once, none holding the unit, and of (i, j, k) and
    # (k, j, i) only i <= k
    full = candidate_triples(alg)
    assert len(full) == candidates
    visited = sorted(ijk for _, *ijk in triples)
    assert len(visited) == kept
    assert visited == sorted([i, j, k] for i, j, k in full if i <= k and alg.unit not in (i, j, k))


@pytest.mark.parametrize("kind, n, grams", [("torus", 2, 4), ("pn", 8, 5)])
def test_polarization_builds_one_twisted_gram_per_mirror_pair(monkeypatch, kind, n, grams):
    from specseq import BigradedAlgebra, PolarizedAlgebra

    pa = build_model(kind, n).pa
    twisted = count_calls(monkeypatch, PolarizedAlgebra, "twisted_primitive_gram")
    validations = count_calls(monkeypatch, BigradedAlgebra, "validate")
    PolarizedAlgebra(pa.A, pa.omega, pa.integral)
    # a <= b only, and no pair of two empty cells
    assert len(twisted) == grams
    assert all(a <= b for _, a, b in twisted)
    # the algebra was validated when it was built
    assert validations == []


def test_polarization_validates_an_unchecked_algebra_first(torus2):
    from specseq import BigradedAlgebra, InvariantError, PolarizedAlgebra

    alg = torus2.pa.A
    xi1, eta1, xi1eta1 = alg.index("xi1"), alg.index("eta1"), alg.index("xi1eta1")
    # xi1 eta1 = 2 xi1eta1 and eta1 xi1 = -2 xi1eta1 commute but break associativity
    prods = {**alg.products, (xi1, eta1): {xi1eta1: 2}, (eta1, xi1): {xi1eta1: -2}}
    bad = BigradedAlgebra(alg.n, alg.basis, alg.unit, prods, check=False)
    with pytest.raises(InvariantError) as own:
        bad.validate()
    assert str(own.value) == "associativity fails"
    bad = BigradedAlgebra(alg.n, alg.basis, alg.unit, prods, check=False)
    omega = bad.from_coeffs(dict(torus2.pa.omega.coeffs))
    with pytest.raises(InvariantError) as exc:
        PolarizedAlgebra(bad, omega, torus2.pa.integral)
    assert (str(exc.value), exc.value.witness) == (str(own.value), own.value.witness)
    assert not bad.checked
