"""Complexes, cohomology, filtration validation, JSON."""

import pytest

from oracles import naive_rank
from specseq import CochainComplex, FilteredComplex, Filtration, InvariantError
from specseq.fuzz import random_filtered_complex
from specseq.linalg import Matrix, Subquotient, Subspace, image, kernel, vec

from conftest import seeded, with_degree_filtration, with_trivial_filtration


def koszul_like() -> CochainComplex:
    # 0 -> Q -> Q^2 -> Q -> 0 with H^0 = H^2 = 0, H^1 = 0 (exact)
    d0 = Matrix.from_rows([[1], [1]])
    d1 = Matrix.from_rows([[1, -1]])
    return CochainComplex(0, 2, {0: 1, 1: 2, 2: 1}, {0: d0, 1: d1})


def circle_like() -> CochainComplex:
    # 0 -> Q^2 -> Q^2 -> 0 with rank-1 differential: H^0 = H^1 = Q
    d0 = Matrix.from_rows([[1, -1], [0, 0]])
    return CochainComplex(0, 1, {0: 2, 1: 2}, {0: d0})


def test_cohomology_frozen_examples():
    k = koszul_like()
    assert [k.betti(n) for n in range(3)] == [0, 0, 0]
    c = circle_like()
    assert [c.betti(n) for n in range(2)] == [1, 1]


def test_square_zero_is_enforced():
    bad = Matrix.from_rows([[1]])
    with pytest.raises(InvariantError):
        CochainComplex(0, 2, {0: 1, 1: 1, 2: 1}, {0: bad, 1: bad})


@pytest.mark.parametrize("seed", range(12))
def test_betti_matches_rank_nullity_oracle(seed):
    fk = random_filtered_complex(seeded("betti", seed))
    cx = fk.cx
    for n in cx.degrees():
        rk_out = naive_rank([list(r) for r in cx.diff(n).entries]) if cx.dim(n) else 0
        dprev = cx.diff(n - 1)
        rk_in = naive_rank([list(r) for r in dprev.entries]) if dprev.cols else 0
        assert cx.betti(n) == cx.dim(n) - rk_out - rk_in
        # the subquotient route to H^n agrees with the ranks
        assert Subquotient.of(kernel(cx.diff(n)), image(cx.diff(n - 1))).dim == cx.betti(n)
    assert cx.betti(cx.lo - 1) == cx.betti(cx.hi + 1) == 0


def test_trivial_and_degree_filtrations():
    cx = circle_like()
    triv = with_trivial_filtration(cx)
    assert triv.width() == 0
    # the one graded piece F^0/F^1 is the whole complex
    assert [triv.F(0, n).dim - triv.F(1, n).dim for n in cx.degrees()] == [2, 2]
    bete = with_degree_filtration(cx)
    for p in bete.levels():
        for n in cx.degrees():
            graded = bete.F(p, n).dim - bete.F(p + 1, n).dim
            assert graded == (cx.dim(n) if n == p else 0)


def test_filtration_must_be_decreasing():
    cx = circle_like()
    table = {
        (0, 0): Subspace.full(2),
        (0, 1): Subspace.full(2),
        (1, 0): Subspace.span(2, [vec([1, 0])]),
        (1, 1): Subspace.full(2),
        (2, 0): Subspace.full(2),
        (2, 1): Subspace.zero(2),
        (3, 0): Subspace.zero(2),
        (3, 1): Subspace.zero(2),
    }
    with pytest.raises(InvariantError):
        FilteredComplex(cx, Filtration(0, 3, table))


def test_differential_must_preserve_filtration():
    cx = circle_like()
    # F^1 K^0 = span(e1) maps onto span((1,0)) which is not inside F^1 K^1 = 0
    levels = {
        0: {0: Subspace.full(2), 1: Subspace.full(2)},
        1: {0: Subspace.span(2, [vec([1, 0])]), 1: Subspace.zero(2)},
        2: {0: Subspace.zero(2)},
    }
    with pytest.raises(InvariantError):
        FilteredComplex(cx, Filtration.from_sparse(cx, levels))


def test_unstable_filtration_names_its_first_failing_level():
    # d = id on Q^2; e1 sits at level 2 in degree 0 but only at level 0 in
    # degree 1, so F^1 and F^2 both fail. F^1 adds nothing to F^2 in degree
    # 0, yet the witness is level 1 and its first basis vector
    cx = CochainComplex(0, 1, {0: 2, 1: 2}, {0: Matrix.from_rows([[1, 0], [0, 1]])})
    e1, e2 = vec([1, 0]), vec([0, 1])
    levels = {
        0: {0: Subspace.full(2), 1: Subspace.full(2)},
        1: {0: Subspace.span(2, [e1]), 1: Subspace.span(2, [e2])},
        2: {0: Subspace.span(2, [e1]), 1: Subspace.zero(2)},
        3: {0: Subspace.zero(2)},
    }
    with pytest.raises(InvariantError, match="differential leaves level 1 ") as exc:
        FilteredComplex(cx, Filtration.from_sparse(cx, levels))
    assert exc.value.witness == ["1", "0"]


def test_filtration_accessors_clamp(acyclic_fk):
    fk = acyclic_fk
    assert fk.F(fk.p_lo - 5, 0).is_full()
    assert fk.F(fk.p_top + 5, 0).is_zero()
    assert fk.F(0, 99).ambient_dim == 0


@pytest.mark.parametrize("seed", range(10))
def test_filtered_json_round_trip(seed):
    fk = random_filtered_complex(seeded("json", seed))
    blob = fk.to_json()
    fk2 = FilteredComplex.from_json(blob)
    assert fk2.to_json() == blob
    assert fk2.cx == fk.cx
    assert (fk2.p_lo, fk2.p_top) == (fk.p_lo, fk.p_top)
    for p in fk.levels():
        for n in fk.cx.degrees():
            assert fk2.F(p, n).basis_rows == fk.F(p, n).basis_rows


def test_complex_json_rejects_malformed():
    from specseq import ParseError

    with pytest.raises(ParseError):
        CochainComplex.from_json({"degrees": "nope"})
    with pytest.raises(ParseError):
        CochainComplex.from_json({"degrees": [0, 1], "dims": {"0": 1, "1": 1}, "d": {"0": "x"}})
