"""Page engine: frozen micro-example, classical sanity cases, fuzz corpus."""

import random

import pytest

from specseq import (
    CochainComplex,
    EngineError,
    FilteredComplex,
    SpectralSequence,
    decalage,
    decalage_renumbering_report,
    e_infinity_compare,
    first_page,
    oracle_report,
    page_direct,
    turn_page,
)
from specseq.fuzz import planted_filtered_complex, random_filtered_complex
from specseq.linalg import Matrix, Subquotient, Subspace, image, preimage
from specseq.spectral import Barcode, barcode, compare_differentials

from conftest import acyclic_two_term, scaled_complex, scaled_complex_and_key, seeded
from oracles import naive_turn_cells


class TestAcyclicMicroExample:
    """Two-term acyclic complex, filtration of width 2.

    E_1 = E_2 with one-dimensional cells at (0,0) and (2,-1); d_2 between
    them is an isomorphism and E_3 vanishes.
    """

    def test_first_two_pages(self):
        ss = SpectralSequence(acyclic_two_term())
        assert ss.page(1).dims() == {(0, 0): 1, (2, -1): 1}
        assert ss.page(2).dims() == {(0, 0): 1, (2, -1): 1}

    def test_d2_is_an_isomorphism(self):
        ss = SpectralSequence(acyclic_two_term())
        d2 = ss.page(2).diff(0, 0)
        assert (d2.rows, d2.cols) == (1, 1)
        assert d2.rank() == 1
        assert d2 == Matrix.from_rows([[1]])

    def test_barcode_is_one_bar_of_length_two(self):
        bars = barcode(acyclic_two_term())
        assert bars == Barcode(pairs=((0, 0, 2),), essential=())
        assert bars.dims(1) == bars.dims(2) == {(0, 0): 1, (2, -1): 1}
        assert bars.dims(3) == {}
        assert bars.e_infinity() == {}

    def test_third_page_vanishes(self):
        ss = SpectralSequence(acyclic_two_term())
        assert ss.page(3).dims() == {}
        assert ss.page(4).dims() == {}
        assert ss.stabilization_page() == 3

    def test_direct_formula_agrees_all_pages(self):
        fk = acyclic_two_term()
        ss = SpectralSequence(fk)
        for r in range(1, 5):
            direct = {
                (p, q): page_direct(fk, r, p, q).dim
                for p in fk.levels()
                for q in (-p, 1 - p)
            }
            direct = {pq: d for pq, d in direct.items() if d}
            assert ss.page(r).dims() == direct

    def test_induced_differentials_agree_with_direct_route(self):
        fk = acyclic_two_term()
        for r in (1, 2, 3):
            compare_differentials(fk, r)

    def test_abutment_is_zero(self):
        report = e_infinity_compare(acyclic_two_term())
        assert report["ok"] is True
        assert all(t["e_infinity"] == 0 for t in report["totals"].values())


def zero_d_complex() -> CochainComplex:
    return CochainComplex(0, 2, {0: 2, 1: 3, 2: 1}, {})


def test_zero_differential_first_page_is_graded_and_degenerate():
    cx = zero_d_complex()
    fk = FilteredComplex.with_degree_filtration(cx)
    ss = SpectralSequence(fk)
    pg = ss.page(1)
    assert pg.dims() == {(0, 0): 2, (1, 0): 3, (2, 0): 1}
    assert pg.all_differentials_zero()
    assert ss.is_degenerate_at(1)
    assert ss.e_infinity().dims() == pg.dims()


def test_degree_filtration_first_page_is_the_complex_itself():
    # Gr^p is K^p in degree p, so E_1^{p,0} = K^p and d_1 = d
    d0 = Matrix.from_rows([[1, -1], [0, 0]])
    cx = CochainComplex(0, 1, {0: 2, 1: 2}, {0: d0})
    fk = FilteredComplex.with_degree_filtration(cx)
    pg = first_page(fk)
    assert pg.dims() == {(0, 0): 2, (1, 0): 2}
    assert pg.diff(0, 0).rank() == d0.rank()
    ss = SpectralSequence(fk)
    assert ss.page(2).dims() == {(0, 0): 1, (1, 0): 1}
    assert ss.is_degenerate_at(2)


def test_trivial_filtration_first_page_is_cohomology():
    cx = zero_d_complex()
    fk = FilteredComplex.with_trivial_filtration(cx)
    pg = first_page(fk)
    assert pg.dims() == {(0, q): cx.betti(q) for q in cx.degrees() if cx.betti(q)}


def test_turn_page_matches_sequence_pages(acyclic_fk):
    pg = first_page(acyclic_fk)
    ss = SpectralSequence(acyclic_fk)
    for r in (2, 3):
        pg = turn_page(pg)
        assert pg.dims() == ss.page(r).dims()


@pytest.mark.parametrize("seed", range(15))
def test_fuzzed_oracle_and_abutment(seed):
    fk = random_filtered_complex(seeded("spectral", seed))
    report = oracle_report(fk, max_page=fk.width() + 2)
    assert report["ok"], report["mismatches"]
    assert e_infinity_compare(fk)["ok"]


@pytest.mark.parametrize("seed", range(30))
def test_barcode_is_the_planted_one(seed):
    fk, planted = planted_filtered_complex(seeded("planted", seed))
    # the same draws give the same complex without its bars
    assert random_filtered_complex(seeded("planted", seed)).to_json() == fk.to_json()
    assert barcode(fk) == planted
    ss = SpectralSequence(fk)
    for r in range(1, fk.width() + 3):
        assert planted.dims(r) == ss.page(r).dims(), r


def test_oracle_lists_a_barcode_mismatch():
    fk = acyclic_two_term()
    # a wrong barcode: one essential class at (0, 0) in place of the bar
    fk.bars = Barcode(pairs=(), essential=((0, 0),))
    report = oracle_report(fk, max_page=3)
    assert not report["ok"]
    assert report["mismatches"] == [
        {"r": 1, "cell": [2, -1], "route": "barcode", "dims": [1, 0]},
        {"r": 2, "cell": [2, -1], "route": "barcode", "dims": [1, 0]},
        {"r": 3, "cell": [0, 0], "route": "barcode", "dims": [0, 1]},
    ]


@pytest.mark.parametrize("seed", range(15))
def test_fuzzed_page_dimensions_never_grow(seed):
    fk = random_filtered_complex(seeded("mono", seed))
    ss = SpectralSequence(fk)
    rstar = ss.stabilization_page()
    for r in range(1, rstar + 1):
        cur, nxt = ss.page(r), ss.page(r + 1)
        for (p, q) in cur.support:
            assert nxt.cell(p, q).dim <= cur.cell(p, q).dim


@pytest.mark.parametrize("seed", range(15))
def test_fuzzed_stabilization(seed):
    fk = random_filtered_complex(seeded("stab", seed))
    ss = SpectralSequence(fk)
    rstar = ss.stabilization_page()
    assert rstar <= max(1, fk.width() + 1)
    assert ss.page(rstar).dims() == ss.page(rstar + 2).dims()
    assert ss.e_infinity().dims() == ss.page(rstar).dims()


@pytest.mark.parametrize("seed", range(10))
def test_fuzzed_differentials_agree_with_direct_route(seed):
    fk = random_filtered_complex(seeded("diffs", seed))
    for r in (1, 2):
        compare_differentials(fk, r)


@pytest.mark.parametrize("seed", range(50))
def test_turned_cells_match_the_naive_rule(seed):
    # the naive rule recomputes every cell, the carried ones included
    ss = SpectralSequence(random_filtered_complex(seeded("turn", seed)))
    for r in range(1, 7):
        naive = naive_turn_cells(ss.page(r))
        nxt = ss.page(r + 1)
        for pq, (z, b, comp) in naive.items():
            cell = nxt.cell(*pq)
            assert [list(v) for v in cell.Z.basis_rows] == z, (r, pq)
            assert [list(v) for v in cell.B.basis_rows] == b, (r, pq)
            assert [list(v) for v in cell.complement] == comp, (r, pq)


@pytest.mark.parametrize("seed", range(10))
def test_fuzzed_decalage_renumbering(seed):
    fk = random_filtered_complex(seeded("dec", seed))
    report = decalage_renumbering_report(fk, max_page=3)
    assert report["ok"], report["mismatches"]


def test_decalage_of_micro_example_shifts_the_page():
    fk = acyclic_two_term()
    dec = decalage(fk)
    ss_dec = SpectralSequence(dec)
    ss = SpectralSequence(fk)
    # cells (p,q) of Dec at page 1 match cells (2p+q, -p) of page 2
    expect = {}
    for (P, Q), d in ss.page(2).dims().items():
        p = -Q
        q = P + 2 * Q
        expect[(p, q)] = d
    assert ss_dec.page(1).dims() == expect
    assert ss_dec.page(2).dims() == {}


def test_decalage_abutment_unchanged():
    fk = acyclic_two_term()
    dec = decalage(fk)
    for n in fk.cx.degrees():
        assert dec.cx.betti(n) == fk.cx.betti(n)


def test_page_cells_live_in_the_original_spaces(acyclic_fk):
    ss = SpectralSequence(acyclic_fk)
    for r in (1, 2, 3):
        pg = ss.page(r)
        for (p, q) in pg.support:
            assert pg.cell(p, q).ambient_dim == acyclic_fk.cx.dim(p + q)


def test_page_rejects_non_composing_differentials(acyclic_fk):
    from specseq import InvariantError, Page, Subquotient

    cx = acyclic_fk.cx
    cells = {
        (0, 0): Subquotient.whole(1),
        (1, 0): Subquotient.whole(1),
        (2, -1): Subquotient.whole(1),
    }
    one = Matrix.from_rows([[1]])
    diffs = {(0, 0): one, (1, 0): one}
    # d_1 out of (1, 0) also has no target cell, but the composite is named first
    with pytest.raises(InvariantError, match=r"d_r o d_r != 0 at cell \(0, 0\)"):
        Page(1, cx, tuple(cells), cells, diffs)


def test_page_checks_shapes_when_a_differential_is_zero(acyclic_fk):
    from specseq import InvariantError, Page, Subquotient

    cells = {(0, 0): Subquotient.whole(1), (1, 0): Subquotient.whole(1)}
    # d_1 into (1, 0) is zero, but the map out of it takes two columns
    diffs = {(0, 0): Matrix.zeros(1, 1), (1, 0): Matrix.zeros(0, 2)}
    with pytest.raises(InvariantError, match=r"shapes disagree at cell \(0, 0\)"):
        Page(1, acyclic_fk.cx, tuple(cells), cells, diffs)


def test_three_routes_give_the_answer_key_pages():
    # the planted construction's pages, which no engine code computed
    data, key = scaled_complex_and_key(random.Random(0), 48, 5, 8)
    fk = FilteredComplex.from_json(data)
    ss = SpectralSequence(fk)
    bars = barcode(fk)

    def keyed(dims):
        return {f"{p},{q}": d for (p, q), d in dims.items() if d}

    for r in range(1, 7):
        want = key["pages"][str(r)]
        assert keyed(ss.page(r).dims()) == want
        support = ss.page(r).support
        assert keyed({pq: page_direct(fk, r, *pq).dim for pq in support}) == want
        assert keyed(bars.dims(r)) == want


def test_abutment_mismatch_is_an_engine_error(acyclic_fk, monkeypatch):
    import specseq.spectral as sp

    assert SpectralSequence(acyclic_fk).e_infinity().dims() == {}
    # a fabricated stable page claiming survivors must trip the comparison
    monkeypatch.setattr(sp.SpectralSequence, "e_infinity", lambda self: self.page(1))
    with pytest.raises(EngineError):
        sp.e_infinity_compare(acyclic_fk)


def _formula_cycles(fk: FilteredComplex, a: int, b: int, n: int) -> Subspace:
    """F^a K^n cap d^{-1} F^b K^{n+1} by the full formula, past FilteredComplex.cycles."""
    return fk.F(a, n).intersect(preimage(fk.cx.diff(n), fk.F(b, n + 1)))


def shortcut_inputs() -> list[FilteredComplex]:
    """random_filtered_complex seeds 0-19 and a scaled complex of 8 levels, each
    followed by its decalage."""
    sources = [random_filtered_complex(random.Random(seed)) for seed in range(20)]
    sources.append(FilteredComplex.from_json(scaled_complex(random.Random(0), 48, 5, 8)))
    return [fk for src in sources for fk in (src, decalage(src))]


def test_cells_of_empty_graded_pieces_equal_the_full_formula():
    # every cell is held to the full formula, so that a shortcut taken at the
    # wrong level fails too; the shortcut cells are the ones where F^p = F^{p+1}
    shortcut_e1 = shortcut_direct = 0
    for fk in shortcut_inputs():
        page = SpectralSequence(fk).page(1)
        for r in range(1, fk.width() + 3):
            for (p, q) in page.support:
                n = p + q
                empty = fk.F(p, n) == fk.F(p + 1, n)
                zr = _formula_cycles(fk, p, p + r, n)
                below = _formula_cycles(fk, p - r + 1, p, n - 1)
                br = _formula_cycles(fk, p + 1, p + r, n).sum_with(
                    image(fk.cx.diff(n - 1), below)
                )
                want = Subquotient.of(zr, br)
                got = page_direct(fk, r, p, q)
                assert (got.Z, got.B, got.tails) == (want.Z, want.B, want.tails), (r, p, q)
                shortcut_direct += empty
                if r == 1:
                    cell = page.cell(p, q)
                    assert (cell.Z, cell.B, cell.tails) == (want.Z, want.B, want.tails), (p, q)
                    shortcut_e1 += empty
                    if empty:
                        assert cell.dim == 0 and (p, q) not in page.diffs
    assert shortcut_e1 > 0 and shortcut_direct > 0


def test_cycles_below_their_own_level_are_the_level():
    for fk in shortcut_inputs():
        for n in fk.cx.degrees():
            for a in range(fk.p_lo - 1, fk.p_top + 2):
                for b in range(fk.p_lo - 2, fk.p_top + 2):
                    got = fk.cycles(a, b, n)
                    assert got == _formula_cycles(fk, a, b, n), (a, b, n)
                    if fk.clamp(b) <= fk.clamp(a):
                        assert got is fk.F(a, n)
