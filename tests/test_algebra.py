"""Bigraded algebras, derivations, pairings vs the monomial oracle."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import el_add, el_mul, el_scale, monomial_derivative, sort_monomial
from specseq import algebra as algebra_module
from specseq import (
    BigradedAlgebra,
    ComplexPairing,
    Derivation,
    CochainComplex,
    FilteredComplex,
    InvariantError,
    ObstructionDatum,
    SSPairing,
    build_model,
    d2_from_alpha,
    derivation_extend,
    induced_pairing,
    verify_leibniz,
)
from specseq.linalg import Matrix, Q1


def torus_words(n):
    """Oracle-side view of torus(n): generator order xi1..xin, eta1..etan."""
    names = [f"xi{i}" for i in range(1, n + 1)] + [f"eta{i}" for i in range(1, n + 1)]

    def degree_of(_):
        return 1

    def word_name(word):
        return "".join(names[i] for i in word) if word else "1"

    return names, degree_of, word_name


def basis_word(alg, i, names):
    """Recover the sorted generator word of a torus basis element by its name."""
    nm = alg.basis[i][0]
    if nm == "1":
        return ()
    out = []
    while nm:
        for g, gn in enumerate(names):
            if nm.startswith(gn) and (
                not nm[len(gn):] or not nm[len(gn):][0].isdigit()
            ):
                out.append(g)
                nm = nm[len(gn):]
                break
        else:
            raise AssertionError(f"cannot parse {alg.basis[i][0]}")
    return tuple(sorted(out))


def test_torus_structure_constants_match_exterior_oracle(torus2):
    alg = torus2.pa.A
    names, degree_of, word_name = torus_words(2)
    words = {i: basis_word(alg, i, names) for i in range(alg.dim())}
    name_of = {w: alg.basis[i][0] for i, w in words.items()}
    for i in range(alg.dim()):
        for j in range(alg.dim()):
            ours = {
                alg.basis[k][0]: c for k, c in alg.product_indices(i, j).items()
            }
            theirs = el_mul({words[i]: Q1}, {words[j]: Q1}, degree_of)
            theirs = {name_of[w]: c for w, c in theirs.items()}
            assert ours == theirs, (alg.basis[i][0], alg.basis[j][0])


def test_projective_space_products_match_truncated_powers(pn2):
    alg = pn2.pa.A
    cap = {0: 2}
    words = {0: (), 1: (0,), 2: (0, 0)}
    for i in range(3):
        for j in range(3):
            ours = dict(alg.product_indices(i, j))
            theirs = el_mul({words[i]: Q1}, {words[j]: Q1}, lambda g: 2, power_cap=cap)
            expect = {len(w): c for w, c in theirs.items()}
            assert ours == expect


def test_sign_flip_in_structure_constants_is_rejected(torus2):
    alg = torus2.pa.A
    i, j = alg.index("xi1"), alg.index("xi2")
    products = {ij: dict(tab) for ij, tab in alg.products.items()}
    products[(i, j)] = {k: -c for k, c in products[(i, j)].items()}
    with pytest.raises(InvariantError):
        BigradedAlgebra(alg.n, alg.basis, alg.unit, products)


def test_algebra_json_round_trip(torus2):
    alg = torus2.pa.A
    blob = alg.to_json()
    alg2 = BigradedAlgebra.from_json(blob)
    assert alg2.to_json() == blob
    assert alg2.basis == alg.basis


small_coeff = st.sampled_from(
    [Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-3)]
)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_element_products_are_bilinear_and_graded_commutative(torus2, data):
    alg = torus2.pa.A
    names, degree_of, _ = torus_words(2)
    # random homogeneous elements from two cells
    cells = sorted(alg.cells)
    c1 = data.draw(st.sampled_from(cells))
    c2 = data.draw(st.sampled_from(cells))
    idx1, idx2 = alg.cell_indices(*c1), alg.cell_indices(*c2)
    x = alg.from_coeffs({i: data.draw(small_coeff) for i in idx1})
    y = alg.from_coeffs({j: data.draw(small_coeff) for j in idx2})
    z = alg.from_coeffs({j: data.draw(small_coeff) for j in idx2})
    assert x * (y + z) == x * y + x * z
    sign = -1 if (sum(c1) * sum(c2)) % 2 else 1
    assert x * y == (y * x).scaled(sign)


class TestDerivationExtend:
    def images(self, alg, c1, c2):
        eta = alg.el("eta1") * alg.el("eta2")
        return {
            alg.index("xi1"): eta.scaled(c1),
            alg.index("xi2"): eta.scaled(c2),
            alg.index("eta1"): alg.zero(),
            alg.index("eta2"): alg.zero(),
        }

    @pytest.mark.parametrize(
        "c1,c2",
        [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)),
         (Fraction(2, 3), Fraction(-1, 2))],
    )
    def test_extension_matches_leibniz_oracle(self, torus2, c1, c2):
        alg = torus2.pa.A
        d = derivation_extend(alg, (2, -1), self.images(alg, c1, c2))
        names, degree_of, _ = torus_words(2)
        words = {i: basis_word(alg, i, names) for i in range(alg.dim())}
        name_of = {w: alg.basis[i][0] for i, w in words.items()}
        eta_word = tuple(sorted((names.index("eta1"), names.index("eta2"))))
        oracle_images = {
            names.index("xi1"): {eta_word: c1} if c1 else {},
            names.index("xi2"): {eta_word: c2} if c2 else {},
        }
        for i in range(alg.dim()):
            ours = {alg.basis[k][0]: c for k, c in d.apply(alg.basis_element(i)).coeffs.items()}
            theirs = monomial_derivative(words[i], oracle_images, degree_of, 1)
            theirs = {name_of[w]: c for w, c in theirs.items() if c}
            assert ours == theirs, alg.basis[i][0]

    def test_frozen_product_image(self, torus2):
        # d(xi1) = eta1 eta2, d(xi2) = 0 forces d(xi1 xi2) = xi2 eta1 eta2
        alg = torus2.pa.A
        d = derivation_extend(alg, (2, -1), self.images(alg, Q1, Fraction(0)))
        img = d.apply(alg.el("xi1") * alg.el("xi2"))
        assert img == alg.el("xi2") * alg.el("eta1") * alg.el("eta2")
        ok, witness = verify_leibniz(alg, d)
        assert ok and witness is None

    def test_missing_generator_image_is_rejected(self, torus2):
        alg = torus2.pa.A
        with pytest.raises(InvariantError):
            derivation_extend(alg, (2, -1), {alg.index("xi1"): alg.zero()})

    def test_wrong_bidegree_image_is_rejected(self, torus2):
        alg = torus2.pa.A
        images = self.images(alg, Q1, Q1)
        images[alg.index("xi1")] = alg.el("eta1")
        with pytest.raises(InvariantError):
            derivation_extend(alg, (2, -1), images)

    def test_ungenerated_algebra_is_rejected(self, pn2):
        with pytest.raises(InvariantError, match="not generated"):
            derivation_extend(pn2.pa.A, (2, -1), {})

    def test_relation_inconsistency_has_witness(self):
        # x1 y = x2 y = w collapses a product; sending x1, x2 apart breaks it
        basis = [("1", 0, 0), ("x1", 0, 1), ("x2", 0, 1), ("y", 1, 0),
                 ("u", 0, 2), ("w", 1, 1)]
        products = {
            (1, 2): {4: Q1}, (2, 1): {4: -Q1},
            (1, 3): {5: Q1}, (3, 1): {5: -Q1},
            (2, 3): {5: Q1}, (3, 2): {5: -Q1},
        }
        for i in range(6):
            products[(0, i)] = {i: Q1}
            if i:
                products[(i, 0)] = {i: Q1}
        alg = BigradedAlgebra(1, basis, 0, products)
        images = {1: alg.el("x1"), 2: alg.zero(), 3: alg.zero()}
        with pytest.raises(InvariantError, match="relation") as err:
            derivation_extend(alg, (0, 0), images)
        assert err.value.witness


class TestDerivation:
    def alpha_derivation(self, model, scale=Q1):
        alg = model.pa.A
        od = ObstructionDatum(
            model, {alg.index("xi1"): alg.el("eta1") * alg.el("eta2")}, scale
        )
        return d2_from_alpha(od)

    def test_squares_to_zero_with_witness(self, torus2):
        d = self.alpha_derivation(torus2)
        ok, witness = d.squares_to_zero()
        assert ok and witness is None
        # contraction-like derivation of bidegree (1, -1) does not square to zero
        alg = torus2.pa.A
        images = {
            alg.index("xi1"): alg.el("eta1"),
            alg.index("xi2"): alg.el("eta2"),
            alg.index("eta1"): alg.zero(),
            alg.index("eta2"): alg.zero(),
        }
        k = derivation_extend(alg, (1, -1), images)
        ok2, witness2 = k.squares_to_zero()
        assert not ok2
        assert witness2 == "xi1xi2"

    def test_corrupted_value_breaks_leibniz_with_witness(self, torus2):
        alg = torus2.pa.A
        d = self.alpha_derivation(torus2)
        values = list(d.values)
        i = alg.index("xi1xi2")
        assert not values[i].is_zero()
        values[i] = values[i].scaled(Fraction(-1))
        with pytest.raises(InvariantError):
            Derivation(alg, (2, -1), values, check=True)
        bad = Derivation(alg, (2, -1), values, check=False)
        ok, witness = verify_leibniz(alg, bad)
        assert not ok
        assert witness is not None and len(witness) == 2

    def test_cohomology_dims_of_zero_derivation(self, torus2):
        alg = torus2.pa.A
        zero = Derivation(alg, (2, -1), [alg.zero()] * alg.dim())
        dims = zero.cohomology_dims()
        assert dims == {c: len(ix) for c, ix in alg.cells.items()}

    def test_cohomology_dims_of_alpha_derivation_frozen(self, torus2):
        # hand computation: Lambda = A + xi1 A with A = Lambda(xi2, eta1, eta2);
        # d(a + xi1 b) = eta1 eta2 b, so E3 = A/(eta1 eta2 A) + xi1 ker
        d = self.alpha_derivation(torus2)
        dims = d.cohomology_dims()
        assert dims == {
            (0, 0): 1, (0, 1): 1, (0, 2): 0, (1, 0): 2, (1, 1): 4,
            (1, 2): 2, (2, 0): 0, (2, 1): 1, (2, 2): 1,
        }
        assert sum(dims.values()) == 12

    def test_cohomology_dims_requires_square_zero(self, torus2):
        alg = torus2.pa.A
        images = {
            alg.index("xi1"): alg.el("eta1"),
            alg.index("xi2"): alg.el("eta2"),
            alg.index("eta1"): alg.zero(),
            alg.index("eta2"): alg.zero(),
        }
        k = derivation_extend(alg, (1, -1), images)
        with pytest.raises(InvariantError):
            k.cohomology_dims()

    def test_scaling_and_composition(self, torus2):
        d1 = self.alpha_derivation(torus2)
        d3 = self.alpha_derivation(torus2, Fraction(3))
        assert d1.scaled(Fraction(3)).values == d3.values
        assert d1.compose(d1).is_zero()

    def test_derivation_json_round_trip(self, torus2):
        d = self.alpha_derivation(torus2, Fraction(5, 7))
        blob = d.to_json()
        d2 = Derivation.from_json(torus2.pa.A, blob)
        assert d2.values == d.values
        assert d2.bidegree == d.bidegree


def de_rham_pairing(model):
    """Self-pairing of the zero-differential complex built from the algebra."""
    alg = model.pa.A
    degs = sorted({p + q for (p, q) in alg.cells})
    dims = {m: len(alg.degree_indices(m)) for m in range(degs[0], degs[-1] + 1)}
    cx = CochainComplex(degs[0], degs[-1], dims, {})
    fk = FilteredComplex.with_trivial_filtration(cx)
    pos = {
        m: {k: t for t, k in enumerate(alg.degree_indices(m))}
        for m in dims
    }
    tensors = {}
    for m in dims:
        for n in dims:
            if m + n not in dims or not dims[m] or not dims[n]:
                continue
            mats = []
            for i in alg.degree_indices(m):
                cols = []
                for j in alg.degree_indices(n):
                    out = [Fraction(0)] * dims[m + n]
                    for k, c in alg.product_indices(i, j).items():
                        out[pos[m + n][k]] = c
                    cols.append(tuple(out))
                mats.append(Matrix.from_cols(cols, rows=dims[m + n]))
            tensors[(m, n)] = tuple(mats)
    return fk, ComplexPairing(fk, fk, fk, tensors)


def test_de_rham_cup_products_match_wedge(torus2):
    fk, cp = de_rham_pairing(torus2)
    ssp = SSPairing(cp)
    ok, witness = ssp.verify_page_leibniz(1)
    assert ok, witness
    alg = torus2.pa.A
    # trivial filtration puts H^m in cell (0, m); cup there is the wedge table
    for (m, n) in [(1, 1), (1, 2), (2, 2)]:
        mats = ssp.pairing_at(1, (0, m), (0, n))
        rows_idx = alg.degree_indices(m)
        for t, i in enumerate(rows_idx):
            expect_cols = []
            for j in alg.degree_indices(n):
                out = [Fraction(0)] * len(alg.degree_indices(m + n))
                pos = {k: s for s, k in enumerate(alg.degree_indices(m + n))}
                for k, c in alg.product_indices(i, j).items():
                    out[pos[k]] = c
                expect_cols.append(tuple(out))
            assert mats[t] == Matrix.from_cols(
                expect_cols, rows=len(alg.degree_indices(m + n))
            )


def test_induced_pairing_carries_to_later_pages(torus2):
    fk, cp = de_rham_pairing(torus2)
    ssp = SSPairing(cp)
    nxt = induced_pairing(ssp, 1)
    # zero differentials: page 2 pairing has the same structure constants
    for key, mats in nxt.items():
        c1, c2 = key
        assert mats == ssp.pairing_at(1, c1, c2)


def test_pairing_rejects_leibniz_violation(acyclic_fk):
    fk = acyclic_fk
    one = Matrix.from_rows([[1]])
    tensors = {(0, 0): (one,)}
    with pytest.raises(InvariantError):
        ComplexPairing(fk, fk, fk, tensors)


def test_pairing_zero_tensors_always_valid(acyclic_fk):
    fk = acyclic_fk
    cp = ComplexPairing(fk, fk, fk, {})
    ssp = SSPairing(cp)
    for r in (1, 2):
        ok, witness = ssp.verify_page_leibniz(r)
        assert ok, witness
    for (c1, c2) in ssp.support_pairs(2):
        for mat in ssp.pairing_at(2, c1, c2):
            assert mat.is_zero()


def unit_products(dim):
    """Structure constants of the unit law for a basis whose element 0 is the unit."""
    out = {(0, i): {i: 1} for i in range(dim)}
    out.update({(i, 0): {i: 1} for i in range(dim)})
    return out


class TestValidateRejects:
    def test_unit_outside_cell_00(self):
        basis = [("a", 0, 0), ("u", 1, 0)]
        with pytest.raises(InvariantError, match=r"unit 'u' must sit in cell \(0, 0\)") as exc:
            BigradedAlgebra(1, basis, 1, {})
        assert exc.value.witness == "u"

    def test_non_homogeneous_product(self):
        basis = [("1", 0, 0), ("x", 0, 1), ("y", 1, 0)]
        products = {**unit_products(3), (1, 1): {2: 1}}
        with pytest.raises(InvariantError, match="not bidegree-homogeneous") as exc:
            BigradedAlgebra(1, basis, 0, products)
        assert exc.value.witness == ["x", "x", "y"]

    def test_unit_law(self):
        basis = [("1", 0, 0), ("x", 0, 1)]
        with pytest.raises(InvariantError, match="unit law fails") as exc:
            BigradedAlgebra(1, basis, 0, {(0, 0): {0: 1}})
        assert exc.value.witness == "x"

    def test_graded_commutativity(self):
        # x and y are odd, so x*y = y*x breaks the Koszul sign
        basis = [("1", 0, 0), ("x", 0, 1), ("y", 1, 0), ("xy", 1, 1)]
        products = {**unit_products(4), (1, 2): {3: 1}, (2, 1): {3: 1}}
        with pytest.raises(InvariantError, match="graded commutativity fails") as exc:
            BigradedAlgebra(1, basis, 0, products)
        assert exc.value.witness == ["x", "y"]

    def test_associativity(self):
        # (a a) e = b e = c but a (a e) = 0
        basis = [("1", 0, 0), ("a", 1, 1), ("e", 1, 1), ("b", 2, 2), ("c", 3, 3)]
        products = {**unit_products(5), (1, 1): {3: 1}, (3, 2): {4: 1}, (2, 3): {4: 1}}
        with pytest.raises(InvariantError, match="associativity fails") as exc:
            BigradedAlgebra(3, basis, 0, products)
        assert exc.value.witness == ["a", "a", "e"]

    def test_graded_commutativity_names_the_least_failing_pair(self):
        # x*y = y*x and z*y = y*z both break the Koszul sign; so do their transposes
        basis = [("1", 0, 0), ("x", 0, 1), ("y", 1, 0), ("xy", 1, 1), ("z", 0, 1), ("yz", 1, 1)]
        products = {
            **unit_products(6),
            (1, 2): {3: 1}, (2, 1): {3: 1}, (4, 2): {5: 1}, (2, 4): {5: 1},
        }
        with pytest.raises(InvariantError, match="graded commutativity fails") as exc:
            BigradedAlgebra(1, basis, 0, products)
        assert exc.value.witness == ["x", "y"]

    def test_associativity_names_the_least_failing_triple(self):
        # a a = 0 while a e = a f = b and a b = c: the triples (a, a, e),
        # (a, a, f), (e, a, a) and (f, a, a) all fail
        basis = [("1", 0, 0), ("a", 1, 1), ("e", 1, 1), ("f", 1, 1), ("b", 2, 2), ("c", 3, 3)]
        products = {
            **unit_products(6),
            (1, 2): {4: 1}, (2, 1): {4: 1}, (1, 3): {4: 1}, (3, 1): {4: 1},
            (1, 4): {5: 1}, (4, 1): {5: 1},
        }
        alg = BigradedAlgebra(3, basis, 0, products, check=False)
        assert outcome(lambda: dense_validate(alg)) == ("associativity fails", ["a", "a", "e"])
        with pytest.raises(InvariantError, match="associativity fails") as exc:
            alg.validate()
        assert exc.value.witness == ["a", "a", "e"]

    @pytest.mark.parametrize(
        "n, basis, products, expected",
        [
            # a and b are odd and (a b) a = d != 0 while a a = 0, so the self-mirrored
            # (a, b, a) fails, and with it (a, a, b) and (b, a, a): under graded
            # commutativity a failing (i, j, i) always comes with a lesser failing
            # triple, so (a, a, b), not (a, b, a), is the witness
            (
                2,
                [("1", 0, 0), ("a", 0, 1), ("b", 1, 0), ("c", 1, 1), ("d", 1, 2)],
                {(1, 2): {3: 1}, (2, 1): {3: -1}, (3, 1): {4: 1}, (1, 3): {4: 1}},
                ("associativity fails", ["a", "a", "b"]),
            ),
            # (a e) e = b e = c but a (e e) = 0; its mirror (e, e, a) fails too
            (
                3,
                [("1", 0, 0), ("a", 1, 1), ("e", 1, 1), ("b", 2, 2), ("c", 3, 3)],
                {(1, 2): {3: 1}, (2, 1): {3: 1}, (3, 2): {4: 1}, (2, 3): {4: 1}},
                ("associativity fails", ["a", "e", "e"]),
            ),
            # the unit squares to twice itself: only the unit's own unit law fails
            (1, [("1", 0, 0), ("x", 1, 1)], {(0, 0): {0: 2}}, ("unit law fails", "1")),
            # 1 x = 0 and x y = y x: the unit law, checked first, names x
            (
                1,
                [("1", 0, 0), ("x", 0, 1), ("y", 1, 0), ("xy", 1, 1)],
                {(0, 1): {}, (1, 2): {3: 1}, (2, 1): {3: 1}},
                ("unit law fails", "x"),
            ),
        ],
        ids=["self-mirrored", "mirror-pair", "unit-square", "unit-law-first"],
    )
    def test_mirror_and_unit_cases_keep_the_full_witness(self, n, basis, products, expected):
        prods = {**unit_products(len(basis)), **products}
        alg = BigradedAlgebra(n, basis, 0, prods, check=False)
        assert outcome(lambda: dense_validate(alg)) == expected
        assert outcome(alg.validate) == expected
        assert not alg.checked


def test_derivation_images_are_private_and_read_only(torus2):
    from specseq import degeneration_certify

    alg = torus2.pa.A
    xi1, eta12 = alg.index("xi1"), alg.index("eta1eta2")
    values = [alg.zero()] * alg.dim()  # one Element aliased at every index
    d = Derivation(alg, (2, -1), values)
    assert d.leibniz_checked
    with pytest.raises(TypeError):
        d.values[xi1].coeffs[eta12] = Q1
    assert len({id(v) for v in d.values}) == alg.dim()
    # changing the caller's elements afterwards leaves the checked images alone
    values[xi1].coeffs[eta12] = Q1
    assert d.is_zero()
    assert degeneration_certify(torus2.pa, d).certified()


def dense_validate(alg):
    """The algebra check over every basis pair and triple, with Element products.

    The route BigradedAlgebra.validate took before it visited only the cases
    whose products can be nonzero; kept here as its oracle.
    """
    un, up, uq = alg.basis[alg.unit]
    if (up, uq) != (0, 0):
        raise InvariantError(f"unit {un!r} must sit in cell (0, 0)", witness=un)
    for (i, j), tab in alg.products.items():
        for k in tab:
            if alg.bidegree_of(k) != tuple(map(sum, zip(alg.bidegree_of(i), alg.bidegree_of(j)))):
                raise InvariantError(
                    "product is not bidegree-homogeneous",
                    witness=[alg.basis[i][0], alg.basis[j][0], alg.basis[k][0]],
                )
    dim, e = alg.dim(), alg.basis_element
    for i in range(dim):
        if alg.one() * e(i) != e(i) or e(i) * alg.one() != e(i):
            raise InvariantError("unit law fails", witness=alg.basis[i][0])
    for i in range(dim):
        for j in range(dim):
            sign = -1 if (alg.total_degree_of(i) * alg.total_degree_of(j)) % 2 else 1
            if e(i) * e(j) != (e(j) * e(i)).scaled(sign):
                raise InvariantError(
                    "graded commutativity fails", witness=[alg.basis[i][0], alg.basis[j][0]]
                )
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                if (e(i) * e(j)) * e(k) != e(i) * (e(j) * e(k)):
                    raise InvariantError(
                        "associativity fails",
                        witness=[alg.basis[i][0], alg.basis[j][0], alg.basis[k][0]],
                    )


def dense_leibniz_violations(d):
    """Every basis pair where D(e_i e_j) != D(e_i) e_j + sign e_i D(e_j), by Element products."""
    alg, e = d.alg, d.alg.basis_element
    bad = []
    for i in range(alg.dim()):
        s = -1 if (d.total_degree() * alg.total_degree_of(i)) % 2 else 1
        for j in range(alg.dim()):
            if d.apply(e(i) * e(j)) != d.values[i] * e(j) + (e(i) * d.values[j]).scaled(s):
                bad.append((i, j))
    return bad


def outcome(check):
    """None if check() passes, else the message and witness of its InvariantError."""
    try:
        check()
    except InvariantError as exc:
        return str(exc), exc.witness
    return None


@pytest.fixture(scope="module")
def small_models(torus1, torus2, pn2):
    return {
        "torus1": torus1,
        "torus2": torus2,
        "pn2": pn2,
        "torus1xpn2": build_model("product", a=torus1, b=pn2),
    }


nonzero_coeff = st.sampled_from([Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-3)])


def koszul(alg, i, j):
    return -1 if (alg.total_degree_of(i) * alg.total_degree_of(j)) % 2 else 1


MUTATIONS = ("none", "coefficient", "drop", "drop-pair", "add-right", "add-wrong", "transpose")
# the mutations that keep graded commutativity
COMMUTATIVE_MUTATIONS = ("none", "coefficient", "drop-pair", "add-right")


def mutated_products(alg, data, kinds=MUTATIONS):
    """alg's structure constants with at most one random change, of one of kinds.

    A changed coefficient or an entry added in the right cell is made on a
    pair and its transpose alike, as is a "drop-pair", so that graded
    commutativity can hold and associativity is reached.
    """
    prods = {ij: dict(tab) for ij, tab in alg.products.items()}
    kind = data.draw(st.sampled_from(kinds))
    c = data.draw(nonzero_coeff)
    dim = alg.dim()
    if kind == "coefficient":
        i, j = data.draw(st.sampled_from(sorted(prods)))
        k = data.draw(st.sampled_from(sorted(prods[(i, j)])))
        prods[(i, j)][k] *= c
        prods[(j, i)][k] = koszul(alg, i, j) * prods[(i, j)][k]
    elif kind in ("drop", "drop-pair"):
        i, j = data.draw(st.sampled_from(sorted(prods)))
        del prods[(i, j)]
        if kind == "drop-pair":
            prods.pop((j, i), None)
    elif kind == "add-right":
        def target(i, j):
            (p1, q1), (p2, q2) = alg.bidegree_of(i), alg.bidegree_of(j)
            return alg.cell_indices(p1 + p2, q1 + q2)

        pairs = [(i, j) for i in range(dim) for j in range(dim) if target(i, j)]
        i, j = data.draw(st.sampled_from(pairs))
        k = data.draw(st.sampled_from(target(i, j)))
        for (a, b), s in (((i, j), 1), ((j, i), koszul(alg, i, j))):
            tab = prods.setdefault((a, b), {})
            tab[k] = tab.get(k, 0) + s * c
    elif kind == "add-wrong":
        i, j, k = (data.draw(st.integers(0, dim - 1)) for _ in range(3))
        (p1, q1), (p2, q2) = alg.bidegree_of(i), alg.bidegree_of(j)
        if alg.bidegree_of(k) != (p1 + p2, q1 + q2):
            prods.setdefault((i, j), {})[k] = c
    elif kind == "transpose":
        i, j = data.draw(st.sampled_from([ij for ij in sorted(prods) if ij[0] != ij[1]]))
        prods[(j, i)] = {k: -v for k, v in prods[(j, i)].items()}
    return prods


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_sparse_validate_matches_dense_oracle(small_models, data):
    alg = small_models[data.draw(st.sampled_from(sorted(small_models)))].pa.A
    mutated = BigradedAlgebra(
        alg.n, alg.basis, alg.unit, mutated_products(alg, data), check=False
    )
    assert outcome(mutated.validate) == outcome(lambda: dense_validate(mutated))


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_sparse_leibniz_matches_dense_oracle(small_models, data):
    alg = small_models[data.draw(st.sampled_from(sorted(small_models)))].pa.A
    a, b = data.draw(st.sampled_from([(2, -1), (1, -1), (1, 0), (0, 1)]))
    coeff = st.sampled_from([Fraction(0), Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2)])
    images = [
        alg.from_coeffs({k: data.draw(coeff) for k in alg.cell_indices(p + a, q + b)})
        for (_, p, q) in alg.basis
    ]
    if data.draw(st.booleans()):
        # a Leibniz map where the extension exists, so passing cases are drawn too
        gens = {i: images[i] for i in range(alg.dim()) if alg.total_degree_of(i) == 1}
        try:
            images = list(derivation_extend(alg, (a, b), gens).values)
        except InvariantError:
            pass
    d = Derivation(alg, (a, b), images, check=False)
    dense = dense_leibniz_violations(d)
    assert d.leibniz_violations() == dense
    assert d.leibniz_violations(stop_at_first=True) == dense[:1]
    ok, witness = verify_leibniz(alg, d)
    assert (ok, witness) == (
        (True, None) if not dense else (False, [alg.basis[i][0] for i in dense[0]])
    )


def exterior_algebra_unchecked(n):
    """torus(n)'s algebra from the monomial oracle, built with check=False.

    Generators xi1..xin sit in (0, 1) and eta1..etan in (1, 0); the basis is
    the sorted words, ordered by (length, word).
    """
    names, degree_of, word_name = torus_words(n)
    g = len(names)
    words = sorted(
        (tuple(t for t in range(g) if mask >> t & 1) for mask in range(1 << g)),
        key=lambda w: (len(w), w),
    )
    index = {w: t for t, w in enumerate(words)}
    basis = [(word_name(w), sum(t >= n for t in w), sum(t < n for t in w)) for w in words]
    products = {}
    for u in words:
        for v in words:
            if set(u).isdisjoint(v):
                prod = el_mul({u: Q1}, {v: Q1}, degree_of)
                products[(index[u], index[v])] = {index[w]: c for w, c in prod.items()}
    return BigradedAlgebra(n, basis, index[()], products, check=False)


def test_torus4_validates_on_the_candidate_triples_only(monkeypatch):
    alg = exterior_algebra_unchecked(4)
    assert alg.dim() == 256
    calls = [0]
    accumulate = algebra_module._accumulate

    def counting(*args):
        calls[0] += 1
        accumulate(*args)

    monkeypatch.setattr(algebra_module, "_accumulate", counting)
    alg.validate()
    # 4^8 pairwise disjoint triples with one product term per side, not 256^3
    assert calls[0] <= 2 * 4 ** 8
