"""Each object is computed once: one spectral sequence per filtered complex,
one barcode per filtered complex, and no page for page dimensions alone
(dims-only compute and the decalage check read barcodes),
one Leibniz check per derivation, one elimination per subspace operation,
one application of a map per basis vector of an induced map's source, one
cycles reduction and one direct cell per distinct set of filtration
subspaces read, whichever levels name them, no cycles computed
where the filtration already gives them, no recomputation of a page cell,
numerator or denominator that d_r leaves alone, no solve for a zero image,
no matrix built for a cell with none and no zero differential stored,
the Lefschetz operator of a polarized algebra summed once from its products
rows, with no matrix product, one factor index per algebra, and each
algebra and polarization fact checked once: no unit, mirror or
self-mirrored cases in algebra validation, no twisted pairing, which
hard Lefschetz and Poincare duality already make nondegenerate, no second
check of a product of checked factors, no model built by a certify
call that names no derivation, and none built for an n past its cap.
A read reduces each distinct filtration basis of strings once per degree,
and reads each distinct coefficient literal of a model document once, with
no Fraction for a model whose literals are integers. `ss d2`, `ss certify`
and a derivation fuzz case solve on integer columns: none of them reads a
matrix as Fraction vectors (`Matrix.solve_many`, `Matrix.column_vectors`)."""

import json
from collections import Counter
from fractions import Fraction

import pytest

import specseq.spectral as sp
from specseq import Derivation, ObstructionDatum, SpectralSequence, build_model, d2_from_alpha
from specseq.cli import _fuzz_complex_case, main

from conftest import acyclic_two_term, unchecked_copy
from oracles import map_product


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
def test_fuzz_complex_case_builds_one_first_page(monkeypatch, index):
    firsts = count_calls(monkeypatch, sp, "first_page")
    result = _fuzz_complex_case(0, index)
    assert result["ok"], result
    # the original complex's; the decalage check reads barcodes
    assert len(firsts) == 1


def test_compute_builds_each_page_once(monkeypatch, capsys, tmp_path):
    path = tmp_path / "acyclic.json"
    path.write_text(json.dumps(acyclic_two_term().to_json()))
    firsts = count_calls(monkeypatch, sp, "first_page")
    turns = count_calls(monkeypatch, sp, "turn_page")
    bars = count_calls(monkeypatch, sp, "barcode")
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
    assert len(firsts) == 1


def test_decalage_builds_no_page_and_two_barcodes(monkeypatch, capsys, tmp_path):
    import random

    from specseq.fuzz import random_filtered_complex

    fk = random_filtered_complex(random.Random(0))
    path = tmp_path / "complex.json"
    path.write_text(json.dumps(fk.to_json()))
    firsts = count_calls(monkeypatch, sp, "first_page")
    turns = count_calls(monkeypatch, sp, "turn_page")
    bars = count_calls(monkeypatch, sp, "barcode")
    assert main(["decalage", "--input", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["table"]["1"]
    assert firsts == [] and turns == []
    # one of the complex and one of its decalage
    assert len(bars) == 2
    assert bars[0][0] is not bars[1][0]


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
    d = Derivation(alg, (2, -1), [{}] * alg.dim(), check=False)
    assert not d.leibniz_checked
    assert isinstance(d.values, tuple)
    checks = count_calls(monkeypatch, Derivation, "leibniz_violations")
    assert degeneration_certify(torus2.pa, d).certified()
    assert len(checks) == 1


def test_one_factor_index_per_algebra(monkeypatch, torus2):
    from specseq import BigradedAlgebra

    alg = torus2.pa.A
    fresh = BigradedAlgebra(alg.n, alg.basis, alg.unit, alg.products, check=False)
    d = d2_from_alpha(ObstructionDatum.from_json(torus2, {"images": {"xi1": {"eta1eta2": "1"}}}))
    d = Derivation(fresh, d.bidegree, d.values, check=False)
    real, indexes = BigradedAlgebra._factor_index, []

    def kept(self):
        indexes.append(real(self))
        return indexes[-1]

    monkeypatch.setattr(BigradedAlgebra, "_factor_index", kept)
    fresh.validate()
    for _ in range(5):
        assert d.leibniz_violations() == []
    assert len(indexes) == 6
    assert all(index is indexes[0] for index in indexes)
    right, left = indexes[0]
    pairs = sorted(alg.products)
    assert sorted((a, b) for a, bs in right.items() for b in bs) == pairs
    assert sorted((a, b) for b, firsts in left.items() for a in firsts) == pairs


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
    pre = la.preimage(f, target, Subspace.full(3))
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


@pytest.mark.parametrize("seed", range(5))
def test_first_page_builds_d_1_as_the_turns_build_d_r(monkeypatch, seed):
    import random

    from specseq.fuzz import random_filtered_complex

    fk = random_filtered_complex(random.Random(seed))
    induced = count_calls(monkeypatch, sp, "induced_map")
    sp.first_page(fk)
    assert induced == []
    # induced_map stays the independent reference, and it agrees on d_1
    assert sp.compare_differentials(fk, 1)


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
    assert ss.page(2).diffs


def test_d2_certify_and_derivation_fuzz_cross_no_fraction_solve(
    monkeypatch, capsys, tmp_path, torus2
):
    from specseq import Matrix

    paths = {name: tmp_path / f"{name}.json" for name in ("model", "alpha", "d")}
    paths["model"].write_text(json.dumps(torus2.to_json()))
    paths["alpha"].write_text(json.dumps({"images": {"xi1": {"eta1eta2": "1/2"}}}))
    monkeypatch.setenv("SS_THREADS", "1")
    names = ("solve_many", "column_vectors")
    calls = {name: count_calls(monkeypatch, Matrix, name) for name in names}
    assert main(["d2", "--model", str(paths["model"]), "--alpha", str(paths["alpha"])]) == 0
    d2 = json.loads(capsys.readouterr().out)
    assert not d2["is_zero"]
    paths["d"].write_text(json.dumps(d2["derivation"]))
    # the datum kills omega, so the certificate gets past the split
    assert main(["certify", "--algebra", str(paths["model"]), "--derivation", str(paths["d"])]) == 2
    steps = json.loads(capsys.readouterr().out)["steps"]
    assert [s["passed"] for s in steps[:3]] == [True, True, True]
    assert steps[2]["id"] == "primitive-containment"
    assert main(["fuzz", "--kind", "derivations", "--cases", "4"]) == 0
    fuzz = json.loads(capsys.readouterr().out)
    assert fuzz["counterexamples"] == 0 and set(fuzz["verdicts"]) - {"certified"}
    assert {name: len(c) for name, c in calls.items()} == dict.fromkeys(calls, 0)


@pytest.mark.parametrize("seed", [None, 0, 1])
def test_loading_a_complex_builds_no_fraction(monkeypatch, seed):
    import random

    from specseq import FilteredComplex
    from specseq.fuzz import random_filtered_complex

    # the acyclic fixture, then random complexes whose literals include fractions
    fk = acyclic_two_term() if seed is None else random_filtered_complex(random.Random(seed))
    data = json.loads(json.dumps(fk.to_json()))
    built = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    loaded = FilteredComplex.from_json(data)
    monkeypatch.undo()
    assert built == []
    assert loaded.to_json() == data


def test_a_repeated_filtration_basis_of_strings_is_reduced_once(monkeypatch):
    import random

    from specseq import FilteredComplex
    from specseq.linalg import Subspace

    from conftest import scaled_complex

    # 19 of the 45 filtration bases repeat a basis given at another level of the same degree
    data = json.loads(json.dumps(scaled_complex(random.Random(0), 48, 5, 8)))
    bases = [
        (n, json.dumps(basis))
        for level in data["filtration"].values()
        for n, basis in level.items()
        if basis != []
    ]
    reads = count_calls(monkeypatch, Subspace, "_from_json")
    FilteredComplex.from_json(data)
    assert len(reads) == len(set(bases)) < len(bases)
    # with JSON integers for the integral literals, a basis holding one is read at each level
    for level in data["filtration"].values():
        for n, basis in level.items():
            level[n] = [[int(a) if a.lstrip("-").isdigit() else a for a in row] for row in basis]
    holds_int = [
        any(type(a) is int for row in basis for a in row)
        for level in data["filtration"].values()
        for basis in level.values()
        if basis != []
    ]
    strings_only = {b for b, ints in zip(bases, holds_int) if not ints}
    reads.clear()
    FilteredComplex.from_json(data)
    assert any(holds_int)
    assert len(reads) == sum(holds_int) + len(strings_only)


@pytest.mark.parametrize("kind, n", [("torus", 2), ("pn", 4), ("torus", 3)])
def test_a_model_read_parses_each_literal_once_and_builds_no_fraction(monkeypatch, kind, n):
    import specseq.algebra as algebra
    from specseq.models import VarietyModel

    data = json.loads(json.dumps(build_model(kind, n).to_json()))
    literals = [
        c for tab in [*data["products"].values(), data["omega"], data["integral"]]
        for c in tab.values()
    ]
    parsed = count_calls(monkeypatch, algebra, "coefficient")
    spelled = count_calls(monkeypatch, algebra, "key_int")
    built = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    model = VarietyModel.from_json(data)
    monkeypatch.undo()
    assert built == []
    assert sorted(c for c, in parsed if type(c) is str) == sorted(set(literals))
    assert spelled == []
    assert model.to_json() == data


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


def test_oracle_runs_one_cycles_reduction_per_clamped_levels_and_degree(monkeypatch):
    import random
    from collections import Counter

    import specseq.filtered as filtered
    import specseq.linalg as la
    from specseq.fuzz import random_filtered_complex

    fk = random_filtered_complex(random.Random(0))
    # each elimination is charged to the clamped (a, b, n) of the open cycles call
    open_keys, keys = [], []
    real_cycles = filtered.FilteredComplex.cycles
    real_echelon = la._echelon

    def cycles(self, a, b, n):
        open_keys.append((self.clamp(a), self.clamp(b), n))
        try:
            return real_cycles(self, a, b, n)
        finally:
            open_keys.pop()

    def echelon(rows):
        if open_keys:
            keys.append(open_keys[-1])
        return real_echelon(rows)

    real_preimage = filtered.preimage
    inside = []

    def preimage(f, target, source):
        inside.append(bool(open_keys))
        return real_preimage(f, target, source)

    monkeypatch.setattr(filtered.FilteredComplex, "cycles", cycles)
    monkeypatch.setattr(la, "_echelon", echelon)
    monkeypatch.setattr(filtered, "preimage", preimage)
    assert sp.oracle_report(fk)["ok"]
    sp.decalage(fk)
    assert keys
    assert max(Counter(keys).values()) == 1
    # every preimage is the reduction of an open cycles call
    assert inside and all(inside)


def seed0_pages_scaled() -> list:
    """The 10 complexes of the seed-0 pages-scaled corpus, on bench/corpus.py's schedule."""
    import random

    from specseq import FilteredComplex

    from conftest import scaled_complex

    rng = random.Random("pages-scaled:0")
    return [
        FilteredComplex.from_json(
            scaled_complex(rng, (14, 16, 18, 20, 22)[i % 5], 4 + i % 2, (3, 4, 5, 6)[i % 4])
        )
        for i in range(10)
    ]


def test_each_run_of_equal_levels_is_one_object_named_by_its_rung():
    from test_spectral import shortcut_inputs

    runs = 0
    for fk in seed0_pages_scaled() + shortcut_inputs():
        for n in fk.cx.degrees():
            for p in range(fk.p_lo - 2, fk.p_top + 3):
                low = fk.rung(p, n)
                # the lowest stored level holding F^p K^n, as one object
                assert fk.F(p, n) is fk.F(low, n), (p, n)
                assert low == fk.p_lo or fk.F(low - 1, n) != fk.F(low, n), (p, n)
                assert fk.p_lo <= low <= fk.p_top
                runs += low < fk.clamp(p)
        # outside the degrees every level is the one zero space
        assert fk.rung(fk.p_top, fk.cx.hi + 1) == fk.rung(fk.p_lo, fk.cx.lo - 1) == fk.p_lo
    assert runs > 0


def test_oracle_and_decalage_reduce_once_per_distinct_subspaces(monkeypatch):
    from collections import Counter

    import specseq.filtered as filtered
    import specseq.linalg as la

    from test_spectral import shortcut_inputs

    # each elimination is charged to the complex and the subspaces, by value,
    # that the innermost open cycles or page_direct call reads: F^a K^n and
    # F^b K^{n+1} for cycles, and the four of Z_r, F^{p+1} cap Z_r and the
    # B_r source for a direct cell
    open_keys, charged = [], Counter()
    real_cycles, real_direct, real_echelon = (
        filtered.FilteredComplex.cycles, sp.page_direct, la._echelon
    )

    def cycles(self, a, b, n):
        open_keys.append((id(self), "cycles", self.F(a, n), self.F(b, n + 1), n))
        try:
            return real_cycles(self, a, b, n)
        finally:
            open_keys.pop()

    def page_direct(fk, r, p, q):
        n = p + q
        read = (fk.F(p, n), fk.F(p + 1, n), fk.F(p + r, n + 1), fk.F(p - r + 1, n - 1))
        open_keys.append((id(fk), "direct", *read, n))
        try:
            return real_direct(fk, r, p, q)
        finally:
            open_keys.pop()

    def echelon(rows):
        if open_keys:
            charged[open_keys[-1]] += 1
        return real_echelon(rows)

    monkeypatch.setattr(filtered.FilteredComplex, "cycles", cycles)
    monkeypatch.setattr(sp, "page_direct", page_direct)
    monkeypatch.setattr(la, "_echelon", echelon)
    inputs = seed0_pages_scaled() + shortcut_inputs()
    for fk in inputs:
        assert sp.oracle_report(fk)["ok"]
        sp.decalage(fk)
    kinds = Counter(key[1] for key in charged)
    assert kinds["cycles"] > 0 and kinds["direct"] > 0
    repeated = [key[1:] for key, count in charged.items() if count > 1]
    assert repeated == []


def test_a_turn_keeps_the_numerator_or_denominator_d_r_leaves_alone():
    import random

    from specseq.fuzz import random_filtered_complex

    kept_z = kept_b = 0
    for seed in range(10):
        ss = SpectralSequence(random_filtered_complex(random.Random(seed)))
        for r in range(1, 6):
            page, nxt = ss.page(r), ss.page(r + 1)
            for (p, q) in page.support:
                cell, new = page.cell(p, q), nxt.cell(p, q)
                if cell.dim == 0:
                    continue
                if page.diff(p, q).is_zero():
                    assert new.Z is cell.Z
                    kept_z += 1
                if page.diff(p - r, q + r - 1).is_zero():
                    assert new.B is cell.B
                    kept_b += 1
    assert kept_z > 0 and kept_b > 0


def test_a_turn_solves_only_for_nonzero_images(monkeypatch):
    # and only for a cell with an image outside the target's numerator Z':
    # where every d w lies in Z', the column is its coset coordinates
    import random

    from specseq import Matrix
    from specseq.fuzz import random_filtered_complex

    solves = count_calls(monkeypatch, sp, "_solve_ints")
    built = count_calls(monkeypatch, Matrix, "_of_cols")
    zero_images = all_zero_cells = solved = read_off = 0
    for seed in range(5):
        fk = random_filtered_complex(random.Random(seed))
        ss = SpectralSequence(fk)
        for r in range(1, 6):
            page = ss.page(r)
            del solves[:], built[:]
            nxt = sp.turn_page(page)
            hit = outside = 0
            for (p, q), cell in nxt.cells.items():
                tgt = nxt.cell(p + r + 1, q - r)
                images = [fk.cx.diff(p + q)._apply_ints(w) for w in cell.tails]
                nonzero = [any(dw) for dw in images]
                hit += any(nonzero)
                zero_images += nonzero.count(False)
                all_zero_cells += cell.dim > 0 and not any(nonzero)
                outside += not all(tgt.Z._holds(dw) for dw in images)
            assert len(solves) == outside, (seed, r)
            # a matrix is built for each cell with a nonzero image
            assert len(built) == hit, (seed, r)
            # every right-hand side handed to a solve is nonzero
            assert all(all(targets) for _, _, targets in solves)
            solved += outside
            read_off += hit - outside
    assert zero_images > 0 and all_zero_cells > 0
    assert solved > 0 and read_off > 0


def test_first_page_solves_for_no_d_1(monkeypatch):
    from test_spectral import shortcut_inputs

    # d w lies in F^{p+1} and in ker d, so inside the target numerator Z_1
    inputs = shortcut_inputs()
    solves = count_calls(monkeypatch, sp, "_solve_ints")
    assert sum(len(sp.first_page(fk).diffs) for fk in inputs) > 0
    assert solves == []


def test_a_direct_boundary_is_the_cap_where_d_kills_its_source():
    from test_spectral import shortcut_inputs

    kept = 0
    for fk in shortcut_inputs():
        for r in range(1, 7):
            for p in fk.levels():
                for n in fk.cx.degrees():
                    if fk.F(p, n).dim == fk.F(p + 1, n).dim:
                        continue
                    d, src = fk.cx.diff(n - 1), fk.cycles(p - r + 1, p, n - 1)
                    if not any(any(d._apply_ints(v)) for v in src.tails):
                        assert sp.page_direct(fk, r, p, n - p).B is fk.cycles(p + 1, p + r, n)
                        kept += 1
    assert kept > 0


def test_a_turn_takes_the_old_boundary_as_cycles_where_d_r_out_is_injective():
    from test_spectral import shortcut_inputs

    kept = 0
    for fk in shortcut_inputs():
        ss = SpectralSequence(fk)
        for r in range(1, 7):
            page, nxt = ss.page(r), ss.page(r + 1)
            for (p, q), out in page.diffs.items():
                if out.rank() == out.cols:
                    # d_r d_r = 0 makes the d_r in zero, so B_{r+1} is that B too
                    assert (p - r, q + r - 1) not in page.diffs
                    assert nxt.cell(p, q).Z is page.cell(p, q).B
                    kept += 1
    assert kept > 0


def test_barcode_solves_for_no_cleared_source(monkeypatch):
    from specseq.fuzz import planted_filtered_complex

    from conftest import seeded

    solves = count_calls(monkeypatch, sp, "_solve_ints")
    cleared = 0
    for seed in range(20):
        fk, planted = planted_filtered_complex(seeded("planted", seed))
        del solves[:]
        assert sp.barcode(fk) == planted
        # each pair of degree n - 1 has its pivot in K^n, whose column d_n
        # would reduce to zero: one solve per d_n, for the other sources only
        cx, ends = fk.cx, Counter(n + 1 for n, _, _ in planted.pairs)
        sources = [cx.dim(n) - ends[n] for n in range(cx.lo, cx.hi)]
        assert [len(targets) for _, _, targets in solves] == sources, seed
        cleared += sum(ends[n] for n in range(cx.lo, cx.hi))
    assert cleared > 0


def test_oracle_and_decalage_stay_within_their_eliminations(monkeypatch):
    import specseq.linalg as la

    # the seed-0 pages-scaled complexes made 748 eliminations before the
    # page routes skipped the reductions a membership test settles
    inputs = seed0_pages_scaled()
    calls = count_calls(monkeypatch, la, "_echelon")
    for fk in inputs:
        assert sp.oracle_report(fk)["ok"]
        assert sp.decalage_renumbering_report(fk)["ok"]
    assert len(calls) <= 376


def test_a_page_keeps_no_zero_differential():
    import random

    from specseq import Matrix
    from specseq.fuzz import random_filtered_complex

    stored = 0
    for seed in range(20):
        src = random_filtered_complex(random.Random(seed))
        for fk in (src, sp.decalage(src)):
            ss = SpectralSequence(fk)
            for r in range(1, 7):
                page = ss.page(r)
                assert all(not m.is_zero() for m in page.diffs.values()), (seed, r)
                stored += len(page.diffs)
                for (p, q) in page.support:
                    if (p, q) not in page.diffs:
                        shape = (page.cell(p + r, q - r + 1).dim, page.cell(p, q).dim)
                        assert page.diff(p, q) is Matrix.zeros(*shape), (seed, r, p, q)
    assert stored > 0


def test_a_page_given_zero_differentials_stores_none(acyclic_fk):
    from specseq import Matrix

    page = SpectralSequence(acyclic_fk).page(2)
    assert page.diffs
    # every d_2 of the E_2 cells given, each a zero matrix of its shape
    zeros = {pq: page.diff(*pq) for pq in page.support if pq not in page.diffs}
    zeros[(0, 0)] = Matrix.from_rows([[0]])
    built = sp.Page(2, page.cx, page.support, page.cells, zeros)
    assert built.diffs == {}
    assert built.diff(0, 0) is Matrix.zeros(1, 1)


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
    import specseq.lefschetz as lefschetz
    from specseq import Matrix, PolarizedAlgebra, degeneration_certify, deligne_vanishing

    alg, omega = torus3.pa.A, torus3.pa.omega
    d = Derivation(alg, (2, -1), [{}] * alg.dim())
    matmuls = count_calls(monkeypatch, Matrix, "__matmul__")
    pa = PolarizedAlgebra(alg, omega, torus3.pa.integral)
    # L is summed from the products rows, and hard Lefschetz applies it one
    # sparse step at a time: no matrix product is built
    assert matmuls == []
    monkeypatch.undo()
    reference = [map_product(alg, omega, {i: 1}) for i in range(alg.dim())]
    assert list(pa._lefschetz) == reference
    assert any(reference) and not any(0 in image.values() for image in pa._lefschetz)
    # the rows products[(k, i)] for k in omega, which summing L reads
    rows = {id(tab) for (k, _), tab in alg.products.items() if k in omega}
    sums = count_calls(monkeypatch, lefschetz, "_accumulate")
    for p, q in pa.A.cells:
        if p + q <= pa.n:
            pa.primitive_cell(p, q)
    assert deligne_vanishing(pa) == 0
    assert degeneration_certify(pa, d).certified()
    assert sums and [args for args in sums if id(args[2]) in rows] == []


def test_empty_graded_pieces_and_low_cycles_compute_no_cycles(monkeypatch):
    import random

    import specseq.filtered as filtered
    from specseq import FilteredComplex

    from conftest import scaled_complex

    fk = FilteredComplex.from_json(scaled_complex(random.Random(0), 48, 5, 8))
    # the cells where the graded piece F^p/F^{p+1} is empty
    empty = [
        (p, n - p) for p in fk.levels() for n in fk.cx.degrees() if fk.F(p, n) == fk.F(p + 1, n)
    ]
    assert len(empty) == 19
    asked, computed = [], []
    real_cycles = filtered.FilteredComplex.cycles
    reductions = count_calls(monkeypatch, filtered, "preimage")

    def cycles(self, a, b, n):
        asked.append((a, b, n))
        before = len(reductions)
        out = real_cycles(self, a, b, n)
        if len(reductions) > before:
            computed.append((self.clamp(a), self.clamp(b), n))
        return out

    monkeypatch.setattr(filtered.FilteredComplex, "cycles", cycles)
    sp.first_page(fk)
    assert asked
    # E_1 asks cycles about every cell, but an empty cell's runs no reduction
    assert not {(fk.clamp(p), fk.clamp(p + 1), p + q) for p, q in empty} & set(computed)
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


@pytest.mark.parametrize("seed", range(20))
def test_first_page_cells_are_the_direct_cells_at_r_1(monkeypatch, seed):
    import random

    import specseq.linalg as la
    from specseq.fuzz import random_filtered_complex

    fk = random_filtered_complex(random.Random(seed))
    page = sp.first_page(fk)
    eliminations = count_calls(monkeypatch, la, "_echelon")
    for pq in page.support:
        assert page.cells[pq] is sp.page_direct(fk, 1, *pq)
    assert eliminations == []


@pytest.mark.parametrize("seed", range(20))
def test_cycles_between_levels_of_one_dimension_is_the_lower_level(seed):
    import random

    from specseq.fuzz import random_filtered_complex

    fk = random_filtered_complex(random.Random(seed))
    levels = range(fk.p_lo - 1, fk.p_top + 2)
    for n in fk.cx.degrees():
        for a in levels:
            for b in levels:
                if fk.F(a, n).dim == fk.F(b, n).dim:
                    assert fk.cycles(a, b, n) is fk.F(a, n)


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
        (lambda: build_model("pn", 8), 165, 22),
        (lambda: build_model("product", a=build_model("torus", 1), b=build_model("pn", 2)),
         160, 15),
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
    # (k, j, i) only i < k: a self-mirrored (i, j, i) fails only with a lesser triple
    full = candidate_triples(alg)
    assert len(full) == candidates
    visited = sorted(ijk for _, *ijk in triples)
    assert len(visited) == kept
    assert visited == sorted([i, j, k] for i, j, k in full if i < k and alg.unit not in (i, j, k))


@pytest.mark.parametrize("kind, n", [("torus", 2), ("pn", 8)])
def test_polarization_builds_no_twisted_gram(monkeypatch, kind, n):
    from specseq import BigradedAlgebra, PolarizedAlgebra

    pa = build_model(kind, n).pa
    cells = count_calls(monkeypatch, PolarizedAlgebra, "primitive_cell")
    grams = count_calls(monkeypatch, PolarizedAlgebra, "poincare_gram")
    pairs = count_calls(monkeypatch, PolarizedAlgebra, "_pair")
    validations = count_calls(monkeypatch, BigradedAlgebra, "validate")
    PolarizedAlgebra(pa.A, pa.omega, pa.integral)
    # a twisted Gram reads the primitive cells and integrates each entry:
    # every integral taken is an entry of a Poincare Gram
    dim, n = pa.A.cell_dim, pa.n
    assert cells == [] and grams
    assert len(pairs) == sum(dim(p, q) * dim(n - p, n - q) for _, p, q in grams)
    # the algebra was validated when it was built
    assert validations == []


@pytest.mark.parametrize(
    "argv, builds",
    [
        (["ext-dims", "--model", "{model}"], False),
        (["d2", "--model", "{model}"], False),
        (["model", "product", "--a", "{model}", "--b", "{model}"], False),
        (["certify", "--algebra", "{model}", "--derivation", "{zero}"], True),
    ],
    ids=["ext-dims", "d2", "product", "certify"],
)
def test_only_the_certifier_builds_primitive_cells(
    monkeypatch, capsys, tmp_path, torus1, argv, builds
):
    from specseq import PolarizedAlgebra

    paths = {"model": tmp_path / "model.json", "zero": tmp_path / "zero.json"}
    paths["model"].write_text(json.dumps(torus1.to_json()))
    paths["zero"].write_text(json.dumps({"bidegree": [2, -1], "values": {}}))
    cells = count_calls(monkeypatch, PolarizedAlgebra, "primitive_cell")
    assert main([a.format(**paths) for a in argv]) == 0
    capsys.readouterr()
    assert bool(cells) == builds


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
    with pytest.raises(InvariantError) as exc:
        PolarizedAlgebra(bad, torus2.pa.omega, torus2.pa.integral)
    assert (str(exc.value), exc.value.witness) == (str(own.value), own.value.witness)
    assert not bad.checked


def test_a_product_of_checked_factors_is_not_validated_again(monkeypatch, torus1, pn2):
    from specseq import BigradedAlgebra, PolarizedAlgebra

    algebras = count_calls(monkeypatch, BigradedAlgebra, "validate")
    polarizations = count_calls(monkeypatch, PolarizedAlgebra, "validate")
    prod = build_model("product", a=torus1, b=pn2)
    square = build_model("product", a=prod, b=pn2)
    # the Koszul sign rule and the sl2 argument check them (see tensor_model)
    assert algebras == [] and polarizations == []
    assert prod.pa.checked and square.pa.checked


def test_a_product_with_an_unchecked_factor_runs_the_full_check(torus1, pn2):
    from specseq import InvariantError, PolarizedAlgebra, VarietyModel, tensor_model

    # pn2 with a zero integral, built unchecked: its Poincare pairing degenerates
    broken = VarietyModel("pn2", PolarizedAlgebra(pn2.pa.A, pn2.pa.omega, {}, check=False))
    assert not broken.pa.checked
    for (a, b), good in (((torus1, broken), (torus1, pn2)), ((broken, torus1), (pn2, torus1))):
        # the full check of the same product, on unchecked copies with a zero integral
        with pytest.raises(InvariantError) as own:
            unchecked_copy(tensor_model(*good).pa, {}).validate()
        with pytest.raises(InvariantError) as exc:
            build_model("product", a=a, b=b)
        assert (str(exc.value), exc.value.witness) == (str(own.value), own.value.witness)


def test_certify_without_a_derivation_builds_no_model(monkeypatch, capsys, tmp_path, torus2):
    from specseq import BigradedAlgebra, VarietyModel

    path = tmp_path / "torus2.json"
    path.write_text(json.dumps(torus2.to_json()))
    validations = count_calls(monkeypatch, BigradedAlgebra, "validate")
    assert main(["certify", "--algebra", str(path)]) == 3
    assert json.loads(capsys.readouterr().out)["location"] == "derivation"
    assert validations == []
    # a null derivation is no derivation either
    loads = count_calls(monkeypatch, VarietyModel, "from_json")
    path.write_text(json.dumps({**torus2.to_json(), "derivation": None}))
    assert main(["certify", "--algebra", str(path)]) == 3
    assert json.loads(capsys.readouterr().out)["location"] == "derivation"
    assert validations == [] and loads == []
    # a document that is not an object still fails where the model is read
    path.write_text(json.dumps([torus2.to_json()]))
    assert main(["certify", "--algebra", str(path)]) == 3
    assert json.loads(capsys.readouterr().out)["location"] == "n"


@pytest.mark.parametrize("kind", ["torus", "pn"])
def test_a_model_past_its_cap_is_refused_before_anything_is_built(monkeypatch, capsys, kind):
    from specseq import BigradedAlgebra
    from specseq.models import MAX_PN_N, MAX_TORUS_N

    # one above the cap only: were the cap missing, a larger n would ask for gigabytes
    n = {"torus": MAX_TORUS_N, "pn": MAX_PN_N}[kind] + 1
    built = count_calls(monkeypatch, BigradedAlgebra, "__init__")
    assert main(["model", kind, "--n", str(n)]) == 4
    out = json.loads(capsys.readouterr().out)
    assert out["error"] == "invariant" and out["witness"] == {"n": n}
    assert built == []
