"""Exact linear algebra against the naive oracle plus hypothesis invariants."""

import sys
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    intersection_dim,
    naive_matmul,
    naive_matvec,
    naive_nullspace,
    naive_rank,
    naive_rref,
    naive_solve,
    preimage_basis,
    spans_equal,
)
from specseq import InvariantError, Matrix, ParseError, Subquotient, Subspace, pairing_rank
from specseq.linalg import (
    _literal,
    coefficient,
    image,
    induced_map,
    kernel,
    preimage,
    scalar,
    sparse_rank,
    vec,
)

entries = st.integers(min_value=-6, max_value=6).map(Fraction)


def matrices(max_rows=5, max_cols=5, elems=entries):
    return st.integers(1, max_rows).flatmap(
        lambda r: st.integers(1, max_cols).flatmap(
            lambda c: st.lists(
                st.lists(elems, min_size=c, max_size=c), min_size=r, max_size=r
            )
        )
    )


def test_rank_matches_oracle_on_fixed_cases():
    cases = [
        [[1, 2], [2, 4]],
        [[1, 0, 1], [0, 1, 1], [1, 1, 2]],
        [[0, 0], [0, 0]],
        [[1, 2, 3], [4, 5, 6], [7, 8, 10]],
    ]
    for rows in cases:
        m = Matrix.from_rows(rows)
        assert m.rank() == naive_rank(rows)


@given(rows=matrices())
@settings(max_examples=150, deadline=None)
def test_rank_matches_oracle(rows):
    assert Matrix.from_rows(rows).rank() == naive_rank(rows)


@given(rows=matrices())
@settings(max_examples=150, deadline=None)
def test_rank_nullity(rows):
    m = Matrix.from_rows(rows)
    assert m.rank() + len(m.nullspace()) == m.cols


@given(rows=matrices())
@settings(max_examples=100, deadline=None)
def test_nullspace_matches_oracle_span(rows):
    m = Matrix.from_rows(rows)
    ours = [list(v) for v in m.nullspace()]
    theirs = naive_nullspace(rows, m.cols)
    assert spans_equal(ours, theirs, m.cols)


@given(rows=matrices(), target=st.lists(entries, min_size=5, max_size=5))
@settings(max_examples=100, deadline=None)
def test_solve_matches_oracle(rows, target):
    m = Matrix.from_rows(rows)
    b = tuple(target[: m.rows])
    ours = m.solve_many([b])[0]
    theirs = naive_solve(rows, list(b))
    if theirs is None:
        assert ours is None
    else:
        assert ours is not None
        assert m.apply(ours) == b


def test_span_canonical_basis_examples():
    s = Subspace.span(2, [vec([2, 4]), vec([1, 2])])
    assert s.dim == 1
    assert s.basis_rows == (vec([1, 2]),)
    full = Subspace.span(2, [vec([1, 1]), vec([1, -1])])
    assert full.is_full()
    assert full.basis_rows == (vec([1, 0]), vec([0, 1]))


@given(
    vectors=st.lists(st.lists(entries, min_size=4, max_size=4), min_size=1, max_size=5),
    scale=st.sampled_from([Fraction(2), Fraction(-1), Fraction(1, 3), Fraction(5, 2)]),
)
@settings(max_examples=100, deadline=None)
def test_span_invariant_under_permutation_and_scaling(vectors, scale):
    s1 = Subspace.span(4, [vec(v) for v in vectors])
    s2 = Subspace.span(4, [vec(v) for v in reversed(vectors)])
    s3 = Subspace.span(4, [tuple(scale * x for x in vec(v)) for v in vectors])
    assert s1.basis_rows == s2.basis_rows == s3.basis_rows
    assert spans_equal([list(r) for r in s1.basis_rows], vectors, 4)
    assert [list(r) for r in s1.basis_rows] == naive_rref(vectors or [[0, 0, 0, 0]])


@given(
    u=st.lists(st.lists(entries, min_size=4, max_size=4), min_size=0, max_size=4),
    v=st.lists(st.lists(entries, min_size=4, max_size=4), min_size=0, max_size=4),
)
@settings(max_examples=100, deadline=None)
def test_sum_and_intersection_dimension_formula(u, v):
    su = Subspace.span(4, [vec(x) for x in u])
    sv = Subspace.span(4, [vec(x) for x in v])
    # a sum is one span of both bases
    both = Subspace.span(4, su.basis_rows + sv.basis_rows)
    meet = su.intersect(sv)
    assert both.dim + meet.dim == su.dim + sv.dim
    if u or v:
        assert meet.dim == intersection_dim(u or [[0] * 4], v or [[0] * 4])
    assert meet.contains(su) or meet.dim <= su.dim
    assert su.contains(meet) and sv.contains(meet)
    assert both.contains(su) and both.contains(sv)


def test_subquotient_complement_and_coords():
    z = Subspace.span(3, [vec([1, 0, 0]), vec([0, 1, 0])])
    b = Subspace.span(3, [vec([0, 1, 0])])
    sq = Subquotient.of(z, b)
    assert sq.dim == 1
    assert sq.complement == (vec([1, 0, 0]),)
    assert sq.coset_coords(vec([1, 5, 0])) == vec([1])
    with pytest.raises(InvariantError):
        sq.coset_coords(vec([0, 0, 1]))


def test_kernel_image_preimage_consistency():
    d = Matrix.from_rows([[1, 1, 0], [0, 0, 0]])
    k = kernel(d)
    im = image(d)
    assert k.dim == 2 and im.dim == 1
    w = Subspace.span(2, [vec([1, 0])])
    pre = preimage(d, w, Subspace.full(3))
    assert pre.is_full()
    assert preimage(d, Subspace.zero(2), Subspace.full(3)).basis_rows == k.basis_rows


def test_induced_map_identity_and_frozen_value():
    z = Subspace.span(2, [vec([1, 0])])
    sq = Subquotient.of(z, Subspace.zero(2))
    m = Matrix.identity(2)
    ind = induced_map(m, sq, sq)
    assert ind.entries == ((Fraction(1),),)


@given(rows=matrices(max_rows=4, max_cols=4))
@settings(max_examples=60, deadline=None)
def test_induced_map_on_whole_spaces_is_the_matrix(rows):
    m = Matrix.from_rows(rows)
    src = Subquotient.of(Subspace.full(m.cols), Subspace.zero(m.cols))
    tgt = Subquotient.of(Subspace.full(m.rows), Subspace.zero(m.rows))
    assert induced_map(m, src, tgt).entries == m.entries


def test_pairing_rank_symplectic_and_degenerate():
    g = Matrix.from_rows([[0, 1], [-1, 0]])
    assert pairing_rank(g) == (2, True)
    assert pairing_rank(Matrix.zeros(2, 2)) == (0, False)
    with pytest.raises(InvariantError):
        pairing_rank(Matrix.zeros(2, 3))


def test_matrix_json_round_trip():
    m = Matrix.from_rows([[Fraction(1, 2), 3], [0, Fraction(-7, 5)]])
    assert Matrix.from_json(m.to_json()) == m


def meet_spanning_set(u, v, ncols: int) -> list[list[Fraction]]:
    """Spanning set of span(u) & span(v): sum c_i u_i over the kernel of [u^T | -v^T]."""
    block = [[Fraction(x[i]) for x in u] + [-Fraction(y[i]) for y in v] for i in range(ncols)]
    return [
        [sum((c * Fraction(x[i]) for c, x in zip(kv, u)), Fraction(0)) for i in range(ncols)]
        for kv in naive_nullspace(block, len(u) + len(v))
    ]


@given(
    u=st.lists(st.lists(entries, min_size=4, max_size=4), min_size=1, max_size=4),
    v=st.lists(st.lists(entries, min_size=4, max_size=4), min_size=1, max_size=4),
)
@settings(max_examples=150, deadline=None)
def test_intersection_basis_matches_oracle(u, v):
    meet = Subspace.span(4, [vec(x) for x in u]).intersect(Subspace.span(4, [vec(x) for x in v]))
    assert [list(r) for r in meet.basis_rows] == naive_rref(meet_spanning_set(u, v, 4))


@given(
    rows=matrices(max_rows=4, max_cols=5),
    source=st.one_of(
        st.just("full"), st.lists(st.lists(entries, min_size=5, max_size=5), max_size=3)
    ),
    target=st.lists(st.lists(entries, min_size=4, max_size=4), min_size=0, max_size=3),
)
# the first source row maps into the target and the second does not
@example(rows=[[1, 0], [0, 1]], source="full", target=[[1, 0, 0, 0]])
@settings(max_examples=150, deadline=None)
def test_preimage_basis_matches_oracle(rows, source, target):
    f = Matrix.from_rows(rows)
    src, target = spec_vectors(source, f.cols), [t[: f.rows] for t in target]
    s = Subspace.span(f.cols, src)
    pre = preimage(f, Subspace.span(f.rows, [vec(t) for t in target]), s)
    want = preimage_basis(rows, target, f.cols)
    if source != "full":
        want = meet_spanning_set(src, want, f.cols)
    assert [list(r) for r in pre.basis_rows] == naive_rref(want)
    # where f(source) <= target the preimage is source itself, with nothing reduced
    images = [naive_matvec(rows, v) for v in src]
    assert (pre is s) == (naive_rank(target + images) == naive_rank(target))


def spec_vectors(spec, n: int) -> list[list[Fraction]]:
    """The vectors a drawn spec names in Q^n: "full", "zero" or a list cut to length n."""
    if spec == "full":
        return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    if spec == "zero":
        return []
    return [v[:n] for v in spec]


subspace_specs = st.one_of(
    st.just("full"),
    st.just("zero"),
    st.lists(st.lists(entries, min_size=4, max_size=4), min_size=1, max_size=3),
)


@given(rows=matrices(max_rows=4, max_cols=4), source=subspace_specs, target=subspace_specs)
@settings(max_examples=150, deadline=None)
def test_preimage_in_a_source_is_the_source_meet_the_oracle(rows, source, target):
    f = Matrix.from_rows(rows)
    src, tgt = spec_vectors(source, f.cols), spec_vectors(target, f.rows)
    pre = preimage(f, Subspace.span(f.rows, tgt), Subspace.span(f.cols, src))
    oracle = preimage_basis(rows, tgt, f.cols)
    assert [list(r) for r in pre.basis_rows] == naive_rref(meet_spanning_set(src, oracle, f.cols))


@given(
    rows=st.lists(
        st.dictionaries(st.sampled_from([0, 2, 3, 7, 11, 40]), entries, max_size=4),
        max_size=6,
    )
)
@settings(max_examples=200, deadline=None)
def test_sparse_rank_matches_oracle(rows):
    cols = [0, 2, 3, 7, 11, 40]
    dense = [[r.get(c, Fraction(0)) for c in cols] for r in rows]
    assert sparse_rank(rows) == naive_rank(dense)


# The sparse routes against dense oracles. About half the drawn entries are
# zero, so zero rows, zero columns and all-zero vectors are common; shapes
# include 0 x n and n x 0, and nonzero entries come as int or Fraction.
mixed = st.one_of(
    st.just(0),
    st.just(0),
    st.integers(-3, 3),
    st.fractions(-3, 3, max_denominator=4),
)
shapes = st.tuples(st.integers(0, 4), st.integers(0, 4))


def blocks(rows, cols):
    return st.lists(st.lists(mixed, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


def exact(v) -> bool:
    return all(type(a) is Fraction for a in v)


def combination(coeffs, vectors, n) -> list[Fraction]:
    return [sum((Fraction(c) * Fraction(u[i]) for c, u in zip(coeffs, vectors)), Fraction(0))
            for i in range(n)]


def test_sparse_routes_on_empty_shapes():
    wide = Matrix.from_rows([], cols=3)
    tall = Matrix.from_rows([[], []])
    assert (wide.rows, wide.cols, tall.rows, tall.cols) == (0, 3, 2, 0)
    assert wide.apply(vec([1, 2, 3])) == ()
    assert tall.apply(()) == vec([0, 0])
    assert (tall @ wide).entries == (vec([0, 0, 0]), vec([0, 0, 0]))
    assert (wide @ Matrix.from_rows([[1], [2], [3]])).entries == ()
    assert Matrix.from_rows([[0, 2], [0, 0]]).apply(vec([0, 0])) == vec([0, 0])


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_sparse_apply_matches_dense_oracle(data):
    r, c = data.draw(shapes)
    rows = data.draw(blocks(r, c))
    v = data.draw(st.lists(mixed, min_size=c, max_size=c))
    m = Matrix.from_rows(rows, cols=c)
    out = m.apply(tuple(v))
    assert list(out) == naive_matvec(rows, v)
    assert exact(out)
    assert m.is_zero() == (not any(x for row in rows for x in row))


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_sparse_matmul_matches_dense_oracle(data):
    (r, k), c = data.draw(shapes), data.draw(st.integers(0, 4))
    a, b = data.draw(blocks(r, k)), data.draw(blocks(k, c))
    prod = Matrix.from_rows(a, cols=k) @ Matrix.from_rows(b, cols=c)
    assert (prod.rows, prod.cols) == (r, c)
    assert [list(row) for row in prod.entries] == naive_matmul(a, b, c)
    assert all(exact(row) for row in prod.entries)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_sparse_coset_coords_and_lift_match_dense_oracle(data):
    n = data.draw(st.integers(0, 5))
    bvecs = data.draw(blocks(data.draw(st.integers(0, 3)), n))
    zvecs = bvecs + data.draw(blocks(data.draw(st.integers(0, 3)), n))
    sq = Subquotient.of(Subspace.span(n, zvecs), Subspace.span(n, bvecs))
    coeffs = data.draw(st.lists(mixed, min_size=sq.dim, max_size=sq.dim))
    w = sq.lift(coeffs)
    assert list(w) == combination(coeffs, sq.complement, n)
    assert exact(w)
    # every vector of the coset [w] has the drawn coordinates
    shift = combination(data.draw(st.lists(mixed, min_size=len(bvecs), max_size=len(bvecs))),
                        bvecs, n)
    coords = sq.coset_coords([a + b for a, b in zip(w, shift)])
    assert coords == tuple(Fraction(c) for c in coeffs)
    assert exact(coords)
    x = data.draw(blocks(1, n))[0]
    if naive_rank(zvecs + [x]) == naive_rank(zvecs):
        back = sq.lift(sq.coset_coords(x))
        assert naive_rank(bvecs + [[Fraction(a) - b for a, b in zip(x, back)]]) == naive_rank(bvecs)
    else:
        with pytest.raises(InvariantError):
            sq.coset_coords(x)


# The elimination at wide rationals. Inside linalg the rows are primitive
# integer vectors, so numerators and denominators up to 2^70, beside small
# ints and zeros, run every lcm, content and lead division past machine
# words; the results must equal the dense Fraction oracle's exactly.
BIG = 2**70
wide = st.one_of(
    st.just(0),
    st.just(0),
    st.integers(-3, 3),
    st.integers(-BIG, BIG),
    st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG)),
)


def wide_matrix(max_rows=4, max_cols=5):
    return st.integers(1, max_rows).flatmap(
        lambda r: st.integers(1, max_cols).flatmap(
            lambda c: st.lists(st.lists(wide, min_size=c, max_size=c), min_size=r, max_size=r)
        )
    )


def canonical_rows(s: Subspace) -> bool:
    """Each stored Row is primitive with a positive lead, and stands for its basis row."""
    for (p, lead, tail), row in zip(s.tails, s.basis_rows):
        expect = [Fraction(0)] * s.ambient_dim
        expect[p] = Fraction(1)
        for j, a in tail:
            expect[j] = Fraction(a, lead)
        if lead <= 0 or gcd(lead, *(a for _, a in tail)) != 1 or tuple(expect) != row:
            return False
    return True


@st.composite
def permutation_like(draw):
    """Up to n / 2 very sparse rows of n = 60-120 columns, like a partial permutation matrix.

    Each row is nonzero at its own column and at most one more. A seeded
    Random draws them, since they are too large to draw entry by entry.
    """
    rng = draw(st.randoms(use_true_random=False))
    n = draw(st.integers(60, 120))
    pool = [1, -1, 2, -3, Fraction(1, 2), BIG + 1]
    rows = []
    for p in rng.sample(range(n), rng.randint(1, n // 2)):
        row = [0] * n
        row[p] = rng.choice(pool)
        if rng.random() < 0.5:
            row[rng.randrange(n)] = rng.choice(pool)
        rows.append(row)
    return rows


# the permutation-like rows are where each new pivot scans the most kept rows
@given(rows=st.one_of(wide_matrix(max_rows=5, max_cols=5), permutation_like()))
@settings(max_examples=150, deadline=None)
def test_wide_span_matches_oracle(rows):
    s = Subspace.span(len(rows[0]), rows)
    assert [list(r) for r in s.basis_rows] == naive_rref(rows)
    assert all(exact(r) for r in s.basis_rows)
    assert canonical_rows(s)


@given(rows=wide_matrix())
@settings(max_examples=150, deadline=None)
def test_wide_kernel_matches_oracle(rows):
    m = Matrix.from_rows(rows)
    null = m.nullspace()
    assert [list(v) for v in null] == naive_nullspace(rows, m.cols)
    assert all(exact(v) for v in null)
    k = kernel(m)
    assert [list(r) for r in k.basis_rows] == naive_rref(null or [[0] * m.cols])
    assert all(exact(r) for r in k.basis_rows)
    assert canonical_rows(k)
    assert m.rank() == naive_rank(rows)


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_wide_solve_many_matches_oracle(data):
    rows = data.draw(wide_matrix())
    m = Matrix.from_rows(rows)
    targets = data.draw(st.lists(st.lists(wide, min_size=m.rows, max_size=m.rows), max_size=3))
    # one consistent target, the image of a wide vector
    x = data.draw(st.lists(wide, min_size=m.cols, max_size=m.cols))
    targets.append(naive_matvec(rows, x))
    sols = m.solve_many(targets)
    for b, ours in zip(targets, sols):
        theirs = naive_solve(rows, b)
        assert (None if ours is None else list(ours)) == theirs
        assert ours is None or exact(ours)
    assert sols[-1] is not None


@given(
    rows=st.lists(st.dictionaries(st.sampled_from([0, 2, 3, 7, 11, 40]), wide, max_size=4),
                  max_size=6)
)
@settings(max_examples=150, deadline=None)
def test_wide_sparse_rank_matches_oracle(rows):
    cols = [0, 2, 3, 7, 11, 40]
    dense = [[r.get(c, 0) for c in cols] for r in rows]
    assert sparse_rank(rows) == naive_rank(dense)


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_wide_lift_ints_is_a_positive_multiple_of_lift(data):
    # fewer rows than columns, so that Z's rows have tails and unequal leads,
    # and two rows or more past B's, so that a lift can combine them
    n = data.draw(st.integers(3, 5))
    nb = data.draw(st.integers(0, min(1, n - 3)))
    r = data.draw(st.integers(nb + 2, n - 1))
    rows = data.draw(st.lists(st.lists(wide, min_size=n, max_size=n), min_size=r, max_size=r))
    sq = Subquotient.of(Subspace.span(n, rows), Subspace.span(n, rows[:nb]))
    coords = data.draw(st.lists(wide.filter(bool), min_size=sq.dim, max_size=sq.dim))
    den = lcm(*[Fraction(c).denominator for c in coords])
    ints = [int(Fraction(c) * den) for c in coords]
    out, m = sq._lift_ints((k, c) for k, c in enumerate(ints) if c)
    lifted = sq.lift(coords)
    assert list(lifted) == combination(coords, sq.complement, n)
    assert m > 0 and all(out.values())
    assert [Fraction(out.get(i, 0)) for i in range(n)] == [den * m * a for a in lifted]
    assert exact(lifted)
    # the Fraction views, built lazily from the Rows
    assert all(exact(r) for r in sq.complement + sq.Z.basis_rows + sq.B.basis_rows)
    kept = [p not in sq.B.pivots for p in sq.Z.pivots]
    assert sq.complement == tuple(r for r, k in zip(sq.Z.basis_rows, kept) if k)
    assert [list(r) for r in sq.Z.basis_rows] == naive_rref(rows)


def test_equal_spans_hold_equal_rows():
    # reducing e0 + e1 + e3 by e1 + e2 appends column 2 after column 3
    s = Subspace.span(4, [[1, 1, 0, 1], [0, 1, 1, 0]])
    t = Subspace.span(4, s.basis_rows)
    assert s.tails == t.tails == ((0, 1, ((2, -1), (3, 1))), (1, 1, ((2, 1),)))
    assert s == t and hash(s) == hash(t)


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_wide_subspace_equality_and_hash_follow_basis_rows(data):
    # two free columns or more, so that reducing can append entries to a tail
    n = data.draw(st.integers(1, 6))
    r = data.draw(st.integers(1, max(1, n - 2)))
    rows = data.draw(st.lists(st.lists(wide, min_size=n, max_size=n), min_size=r, max_size=r))
    s = Subspace.span(n, rows)
    # the same span from other vectors, reduced in another order
    scales = data.draw(st.lists(wide.filter(bool), min_size=len(rows), max_size=len(rows)))
    scaled = [[Fraction(c) * Fraction(a) for a in r] for c, r in zip(scales, rows)]
    total = [sum((Fraction(a) for a in col), Fraction(0)) for col in zip(*rows)]
    same = [
        Subspace.span(n, [total] + scaled[::-1]),
        Subspace.span(n, [*s.basis_rows, *scaled[:1]]),
        # already reduced rows, which no cancellation reorders
        Subspace.span(n, s.basis_rows),
    ]
    for t in same:
        assert t == s and hash(t) == hash(s) and t.basis_rows == s.basis_rows
    others = data.draw(st.lists(st.lists(wide, min_size=n, max_size=n), max_size=3))
    for t in same + [Subspace.span(n, others), s.intersect(Subspace.span(n, others))]:
        assert (t == s) == (t.basis_rows == s.basis_rows)
        assert t != s or hash(t) == hash(s)
        assert all(exact(r) for r in t.basis_rows) and canonical_rows(t)


def den_of(rows) -> int:
    """The lcm of the denominators of the entries of some rows."""
    return lcm(*[Fraction(a).denominator for row in rows for a in row])


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_matrix_holds_one_integer_form(data):
    elems = st.one_of(mixed, wide)
    (r, k), c = data.draw(shapes), data.draw(st.integers(0, 4))
    a = data.draw(st.lists(st.lists(elems, min_size=k, max_size=k), min_size=r, max_size=r))
    b = data.draw(st.lists(st.lists(elems, min_size=c, max_size=c), min_size=k, max_size=k))
    m = Matrix.from_rows(a, cols=k)
    dense = tuple(tuple(Fraction(x) for x in row) for row in a)
    same = [
        Matrix._of_cols([[row[j] for row in a] for j in range(k)], r),
        Matrix.from_json(m.to_json(), r, k),
        Matrix.identity(r) @ m,
        m @ Matrix.identity(k),
    ]
    for t in same:
        assert t == m and hash(t) == hash(m) and t.entries == dense
    assert m.den == den_of(a)
    prod = m @ Matrix.from_rows(b, cols=c)
    want = naive_matmul(a, b, c)
    assert [list(row) for row in prod.entries] == want
    assert all(exact(row) for row in prod.entries)
    assert prod.den == den_of(want)


# digits, the other characters Fraction's grammar knows, and an Arabic-Indic three
literal_text = st.text(alphabet="0123456789-+/._e \u0663", max_size=7)


@given(text=literal_text)
@settings(max_examples=400, deadline=None)
def test_literal_parse_matches_fraction(text):
    try:
        expected = Fraction(text)
    except (ValueError, ZeroDivisionError):
        for parse in (scalar, coefficient):
            with pytest.raises(ParseError, match="bad rational literal"):
                parse(text)
        return
    # seven characters reach 1e99999, whose digits str() does not write
    if max(abs(expected.numerator), expected.denominator) >= 10 ** sys.get_int_max_str_digits():
        for parse in (scalar, coefficient):
            with pytest.raises(ParseError, match="digits"):
                parse(text)
        return
    value = scalar(text)
    assert type(value) is Fraction and value == expected
    c = coefficient(text)
    assert c == expected
    assert type(c) is (int if expected.denominator == 1 else Fraction)


@pytest.mark.parametrize("text", ["1e5000", "1e-5000", "-2.5e4300", "7e-4301"])
def test_a_literal_past_the_digit_limit_is_a_parse_error(text):
    with pytest.raises(ParseError) as exc:
        _literal(text)
    assert str(exc.value) == f"literal {text!r} has more than {sys.get_int_max_str_digits()} digits"


@pytest.mark.parametrize(
    "text, value",
    [("1e3", (1000, 1)), ("2.5e-1", (1, 4)), ("-0e5000", (0, 1)), ("5e-4300", (1, 2 * 10**4299))],
)
def test_an_exponent_literal_within_the_digit_limit_is_read(text, value):
    assert _literal(text) == value == (Fraction(text).numerator, Fraction(text).denominator)


@pytest.mark.parametrize("text", ["1/0", "-3/0", "0/0"])
def test_zero_denominator_is_a_parse_error(text):
    for parse in (scalar, coefficient):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert str(exc.value) == f"bad rational literal {text!r}"


# JSON matrix entries: integers past 64 bits, fractions not in lowest terms,
# spellings of zero, JSON integers, and strings that only Fraction's grammar reads
grid_entry = st.one_of(
    st.integers(-(2**80), 2**80).map(str),
    st.builds(
        lambda a, b, k: f"{a * k}/{b * k}",
        st.integers(-(2**70), 2**70), st.integers(1, 2**70), st.integers(1, 6),
    ),
    st.sampled_from(["0", "-0", "0/9", "-0/4", "2/4", "-7/21", "+3", " 3", "1.5", "1e2", "\u0663"]),
    st.integers(-(2**70), 2**70),
)
bad_entry = st.sampled_from(["3/0", "-6/-3", "x", True, 1.5])


def literal_grids():
    return st.integers(1, 4).flatmap(
        lambda r: st.integers(1, 4).flatmap(
            lambda c: st.lists(
                st.lists(grid_entry, min_size=c, max_size=c), min_size=r, max_size=r
            )
        )
    )


@given(grid=literal_grids())
@settings(max_examples=200, deadline=None)
def test_json_grids_read_as_the_fractions_they_spell(grid):
    q = [[Fraction(a) for a in row] for row in grid]
    memo: dict = {}
    assert Matrix.from_json(grid, memo=memo) == Matrix.from_rows(q)
    # the columns span the subspace, read with the memo the matrix filled
    assert Subspace._from_json(grid, len(grid), memo) == Subspace.span(len(grid), zip(*q))


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_the_first_bad_entry_of_a_json_grid_raises_at_its_location(data):
    from specseq import FilteredComplex

    grid = data.draw(literal_grids())
    r, c = len(grid), len(grid[0])
    spots = data.draw(st.lists(
        st.tuples(st.integers(0, r - 1), st.integers(0, c - 1)), min_size=1, max_size=3, unique=True
    ))
    bads = [data.draw(bad_entry) for _ in spots]
    for (i, j), bad in zip(spots, bads):
        grid[i][j] = bad
    first = bads[spots.index(min(spots))]
    if type(first) is str:
        message = f"bad rational literal {first!r}"
    else:
        message = f"cannot interpret {first!r} as a rational"
    for read in (lambda: Matrix.from_json(grid), lambda: Subspace._from_json(grid, r, {})):
        with pytest.raises(ParseError) as exc:
            read()
        assert str(exc.value) == message
    # the grid as d^0 : K^0 -> K^1, and as a basis of F^0 K^1
    dims = {"0": c, "1": r}
    for where, blob in [
        ("d.0", {"d": {"0": grid}, "filtration": {"0": {}}}),
        ("filtration.0.1", {"filtration": {"0": {"1": grid}}}),
    ]:
        with pytest.raises(ParseError) as exc:
            FilteredComplex.from_json({"degrees": [0, 1], "dims": dims, **blob})
        assert exc.value.location == where
        assert str(exc.value) == f"{where}: {message}"
