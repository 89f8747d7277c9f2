"""Bigraded algebras and derivations vs the monomial oracle."""

import functools
import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import add, el, mul, scaled
from oracles import el_add, el_mul, el_scale, map_product, monomial_derivative, sort_monomial
from specseq import algebra as algebra_module
from specseq import (
    BigradedAlgebra,
    Derivation,
    InvariantError,
    ObstructionDatum,
    VarietyModel,
    build_model,
    d2_from_alpha,
    derivation_extend,
    verify_leibniz,
)
from specseq.fuzz import random_obstruction_datum
from specseq.linalg import Q1, Matrix


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


def test_a_table_with_no_zero_entry_is_stored_as_given(torus2):
    alg = torus2.pa.A
    products = {ij: dict(tab) for ij, tab in alg.products.items()}
    assert BigradedAlgebra(alg.n, alg.basis, alg.unit, products).products is products
    # a zero coefficient or an empty entry is dropped from a copy, the argument left alone
    zeros = {**products, (1, 1): {}, (1, 2): {**products[(1, 2)], 0: 0}}
    stored = BigradedAlgebra(alg.n, alg.basis, alg.unit, zeros).products
    assert stored == products and stored is not zeros
    assert zeros[(1, 1)] == {} and zeros[(1, 2)][0] == 0


def model_bytes(model) -> bytes:
    return json.dumps(model.to_json(), sort_keys=True, indent=2).encode()


def test_a_model_document_with_zero_entries_loads_as_without_them(torus2):
    blob = torus2.to_json()
    padded = json.loads(json.dumps(blob))
    first = next(iter(padded["products"]))
    padded["products"][first]["5"] = "0"
    padded["products"]["1,1"] = {}
    # omega gets a zero at xi1eta2, in its (1, 1) cell, and at xi1, outside it:
    # a zero entry is dropped before the bidegree check
    padded["omega"].update({"7": "0", "1": "0"})
    assert "1,1" not in blob["products"]
    clean, loaded = VarietyModel.from_json(blob), VarietyModel.from_json(padded)
    assert loaded.pa.A.products == clean.pa.A.products == torus2.pa.A.products
    assert loaded.pa.omega == clean.pa.omega == torus2.pa.omega
    assert loaded.to_json()["omega"] == {"6": "1", "9": "1"}
    assert model_bytes(loaded) == model_bytes(clean) == model_bytes(torus2)


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
    x = add({i: data.draw(small_coeff) for i in idx1})
    y = add({j: data.draw(small_coeff) for j in idx2})
    z = add({j: data.draw(small_coeff) for j in idx2})
    assert mul(alg, x, add(y, z)) == add(mul(alg, x, y), mul(alg, x, z))
    sign = -1 if (sum(c1) * sum(c2)) % 2 else 1
    assert mul(alg, x, y) == scaled(mul(alg, y, x), sign)


class TestDerivationExtend:
    def images(self, alg, c1, c2):
        eta = el(alg, "eta1", "eta2")
        return {
            alg.index("xi1"): scaled(eta, c1),
            alg.index("xi2"): scaled(eta, c2),
            alg.index("eta1"): {},
            alg.index("eta2"): {},
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
            ours = {alg.basis[k][0]: c for k, c in d.apply({i: 1}).items()}
            theirs = monomial_derivative(words[i], oracle_images, degree_of, 1)
            theirs = {name_of[w]: c for w, c in theirs.items() if c}
            assert ours == theirs, alg.basis[i][0]

    def test_frozen_product_image(self, torus2):
        # d(xi1) = eta1 eta2, d(xi2) = 0 forces d(xi1 xi2) = xi2 eta1 eta2
        alg = torus2.pa.A
        d = derivation_extend(alg, (2, -1), self.images(alg, Q1, Fraction(0)))
        img = d.apply(el(alg, "xi1", "xi2"))
        assert img == el(alg, "xi2", "eta1", "eta2")
        ok, witness = verify_leibniz(alg, d)
        assert ok and witness is None

    def test_missing_generator_image_is_rejected(self, torus2):
        alg = torus2.pa.A
        with pytest.raises(InvariantError):
            derivation_extend(alg, (2, -1), {alg.index("xi1"): {}})

    def test_wrong_bidegree_image_is_rejected(self, torus2):
        alg = torus2.pa.A
        images = self.images(alg, Q1, Q1)
        images[alg.index("xi1")] = el(alg, "eta1")
        with pytest.raises(InvariantError):
            derivation_extend(alg, (2, -1), images)

    def test_wrong_bidegree_image_fails_the_homogeneity_check(self, torus2):
        alg = torus2.pa.A
        images = self.images(alg, Q1, Q1)
        images[alg.index("xi1")] = el(alg, "eta1")
        with pytest.raises(InvariantError, match="image of xi1 is not homogeneous") as err:
            derivation_extend(alg, (2, -1), images)
        assert err.value.witness == "eta1"

    def test_a_sum_that_cancels_leaves_no_zero_entry(self, torus2):
        # D(xi1) = xi1 and D(xi2) = -xi2 scale each basis element by its xi1 count
        # less its xi2 count: D(xi1 xi2) = xi1 xi2 - xi1 xi2 sums to an entry 0
        alg = torus2.pa.A
        images = {alg.index(g): {} for g in ("eta1", "eta2")}
        images[alg.index("xi1")] = el(alg, "xi1")
        images[alg.index("xi2")] = scaled(el(alg, "xi2"), -1)
        d = derivation_extend(alg, (0, 0), images)
        assert d.values[alg.index("xi1xi2")] == {}
        assert not any(0 in v.values() for v in d.values)
        assert not d.is_zero()
        assert d.to_json() == {
            "bidegree": [0, 0],
            "values": {
                "1": {"1": "1"}, "2": {"2": "-1"}, "6": {"6": "1"}, "7": {"7": "1"},
                "8": {"8": "-1"}, "9": {"9": "-1"}, "13": {"13": "1"}, "14": {"14": "-1"},
            },
        }

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
        images = {1: el(alg, "x1"), 2: {}, 3: {}}
        # the relation -x1 y + x2 y = 0 maps to -w, so Leibniz fails on a pair of it
        with pytest.raises(InvariantError, match="Leibniz rule fails") as err:
            derivation_extend(alg, (0, 0), images)
        assert set(err.value.witness) in ({"x1", "y"}, {"x2", "y"})


class TestDerivation:
    def alpha_derivation(self, model, scale=Q1):
        alg = model.pa.A
        od = ObstructionDatum(
            model, {alg.index("xi1"): el(alg, "eta1", "eta2")}, scale
        )
        return d2_from_alpha(od)

    def test_squares_to_zero_with_witness(self, torus2):
        d = self.alpha_derivation(torus2)
        ok, witness = d.squares_to_zero()
        assert ok and witness is None
        # contraction-like derivation of bidegree (1, -1) does not square to zero
        alg = torus2.pa.A
        images = {
            alg.index("xi1"): el(alg, "eta1"),
            alg.index("xi2"): el(alg, "eta2"),
            alg.index("eta1"): {},
            alg.index("eta2"): {},
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
        assert values[i]
        values[i] = scaled(values[i], Fraction(-1))
        with pytest.raises(InvariantError):
            Derivation(alg, (2, -1), values, check=True)
        bad = Derivation(alg, (2, -1), values, check=False)
        ok, witness = verify_leibniz(alg, bad)
        assert not ok
        assert witness is not None and len(witness) == 2

    def test_cohomology_dims_of_zero_derivation(self, torus2):
        alg = torus2.pa.A
        zero = Derivation(alg, (2, -1), [{}] * alg.dim())
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
            alg.index("xi1"): el(alg, "eta1"),
            alg.index("xi2"): el(alg, "eta2"),
            alg.index("eta1"): {},
            alg.index("eta2"): {},
        }
        k = derivation_extend(alg, (1, -1), images)
        with pytest.raises(InvariantError):
            k.cohomology_dims()

    def test_cohomology_dims_build_each_cell_map_once(self, torus3, monkeypatch):
        # 16 cells; ranking both maps of each cell asks for 32, of 26 distinct cells
        d = self.alpha_derivation(torus3)
        calls = []
        cell_matrix = Derivation.cell_matrix

        def counting(self, p, q):
            calls.append((p, q))
            return cell_matrix(self, p, q)

        monkeypatch.setattr(Derivation, "cell_matrix", counting)
        d.cohomology_dims()
        assert sorted(calls) == sorted(torus3.pa.A.cells)

    def test_scaling_and_composition(self, torus2):
        d1 = self.alpha_derivation(torus2)
        d3 = self.alpha_derivation(torus2, Fraction(3))
        assert d1.scaled(Fraction(3)).values == d3.values
        assert d1.squares_to_zero() == (True, None)

    # "3" names eta1, outside the image cell of xi1: a zero entry is dropped
    # before the bidegree check
    @pytest.mark.parametrize("values", [{"1": {"10": "0"}}, {"1": {"10": "0", "3": "0"}}])
    def test_zero_coefficients_of_a_derivation_document_are_dropped(self, torus2, values):
        d = Derivation.from_json(torus2.pa.A, {"bidegree": [2, -1], "values": values})
        assert d.values[1] == {}
        assert d.is_zero()
        assert d.to_json() == {"bidegree": [2, -1], "values": {}}

    def test_derivation_json_round_trip(self, torus2):
        d = self.alpha_derivation(torus2, Fraction(5, 7))
        blob = d.to_json()
        d2 = Derivation.from_json(torus2.pa.A, blob)
        assert d2.values == d.values
        assert d2.bidegree == d.bidegree


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

    @pytest.mark.parametrize(
        "order, expected", [("ab", ["a", "a", "b"]), ("ba", ["b", "a", "a"])],
        ids=["odd-first", "odd-last"],
    )
    def test_a_failing_self_mirrored_triple_keeps_the_full_witness(self, order, expected):
        # a is odd, a a = 0 and (a b) a = d = -a (b a): the self-mirrored (a, b, a),
        # which validate does not check, fails, and so do (a, a, b) and (b, a, a),
        # the lesser of which is the witness
        cell = {"a": (0, 1), "b": (1, 0)}
        basis = [("1", 0, 0), *((nm, *cell[nm]) for nm in order), ("c", 1, 1), ("d", 1, 2)]
        a, b = order.index("a") + 1, order.index("b") + 1
        products = {
            **unit_products(5), (a, b): {3: 1}, (b, a): {3: -1}, (3, a): {4: 1}, (a, 3): {4: 1},
        }
        alg = BigradedAlgebra(2, basis, 0, products, check=False)
        assert not alg.associates(a, b, a)
        assert outcome(lambda: dense_validate(alg)) == ("associativity fails", expected)
        assert outcome(alg.validate) == ("associativity fails", expected)


def test_derivation_images_are_private_and_read_only(torus2):
    from specseq import degeneration_certify

    alg = torus2.pa.A
    xi1, eta12 = alg.index("xi1"), alg.index("eta1eta2")
    values = [{}] * alg.dim()  # one map aliased at every index
    d = Derivation(alg, (2, -1), values)
    assert d.leibniz_checked
    with pytest.raises(TypeError):
        d.values[xi1][eta12] = Q1
    assert len({id(v) for v in d.values}) == alg.dim()
    # changing the caller's maps afterwards leaves the checked images alone
    values[xi1][eta12] = Q1
    assert d.is_zero()
    assert degeneration_certify(torus2.pa, d).certified()


def dense_validate(alg):
    """The algebra check over every basis pair and triple, with map products.

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
    dim = alg.dim()

    def e(i):
        return {i: 1}

    def m(x, y):
        return map_product(alg, x, y)

    one = e(alg.unit)
    for i in range(dim):
        if m(one, e(i)) != e(i) or m(e(i), one) != e(i):
            raise InvariantError("unit law fails", witness=alg.basis[i][0])
    for i in range(dim):
        for j in range(dim):
            sign = -1 if (alg.total_degree_of(i) * alg.total_degree_of(j)) % 2 else 1
            if m(e(i), e(j)) != scaled(m(e(j), e(i)), sign):
                raise InvariantError(
                    "graded commutativity fails", witness=[alg.basis[i][0], alg.basis[j][0]]
                )
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                if m(m(e(i), e(j)), e(k)) != m(e(i), m(e(j), e(k))):
                    raise InvariantError(
                        "associativity fails",
                        witness=[alg.basis[i][0], alg.basis[j][0], alg.basis[k][0]],
                    )


def dense_leibniz_violations(d):
    """Every basis pair where D(e_i e_j) != D(e_i) e_j + sign e_i D(e_j), by map products."""
    alg = d.alg
    bad = []
    for i in range(alg.dim()):
        s = -1 if (d.total_degree() * alg.total_degree_of(i)) % 2 else 1
        for j in range(alg.dim()):
            lhs = d.apply(map_product(alg, {i: 1}, {j: 1}))
            right = scaled(map_product(alg, {i: 1}, d.values[j]), s)
            if lhs != add(map_product(alg, d.values[i], {j: 1}), right):
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


def mutated_products(alg, data, kinds=MUTATIONS, unit=True):
    """alg's structure constants with at most one random change, of one of kinds.

    A changed coefficient or an entry added in the right cell is made on a
    pair and its transpose alike, as is a "drop-pair", so that graded
    commutativity can hold and associativity is reached. With unit=False the
    pairs that hold the unit are never changed, so the unit law holds.
    """
    prods = {ij: dict(tab) for ij, tab in alg.products.items()}
    kind = data.draw(st.sampled_from(kinds))
    c = data.draw(nonzero_coeff)
    dim = alg.dim()
    keys = sorted(ij for ij in prods if unit or alg.unit not in ij)
    if kind == "coefficient":
        i, j = data.draw(st.sampled_from(keys))
        k = data.draw(st.sampled_from(sorted(prods[(i, j)])))
        prods[(i, j)][k] *= c
        prods[(j, i)][k] = koszul(alg, i, j) * prods[(i, j)][k]
    elif kind in ("drop", "drop-pair"):
        i, j = data.draw(st.sampled_from(keys))
        del prods[(i, j)]
        if kind == "drop-pair":
            prods.pop((j, i), None)
    elif kind == "add-right":
        def target(i, j):
            (p1, q1), (p2, q2) = alg.bidegree_of(i), alg.bidegree_of(j)
            return alg.cell_indices(p1 + p2, q1 + q2)

        pairs = [
            (i, j) for i in range(dim) for j in range(dim)
            if target(i, j) and (unit or alg.unit not in (i, j))
        ]
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
        {k: data.draw(coeff) for k in alg.cell_indices(p + a, q + b)}
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


def test_leibniz_sees_a_derivation_that_moves_only_a_product(torus2):
    # zero on the generators: (xi1, xi2) and (xi2, xi1) fail only through
    # D(e_i e_j), so a check that skipped the product pairs would miss them
    alg = torus2.pa.A
    values = [{}] * alg.dim()
    values[alg.index("xi1xi2")] = {alg.index("xi1eta1eta2"): Fraction(1, 2)}
    d = Derivation(alg, (2, -1), values, check=False)
    dense = dense_leibniz_violations(d)
    assert [(alg.basis[i][0], alg.basis[j][0]) for i, j in dense] == [
        ("xi1", "xi2"),
        ("xi2", "xi1"),
        ("xi2", "xi1xi2"),
        ("xi1xi2", "xi2"),
    ]
    assert d.leibniz_violations() == dense
    assert d.leibniz_violations(stop_at_first=True) == dense[:1]
    assert verify_leibniz(alg, d) == (False, ["xi1", "xi2"])


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


BRIDGE_MODELS = {
    "torus2": lambda: build_model("torus", 2),
    "pn4": lambda: build_model("pn", 4),
    "torus1xpn2": lambda: build_model(
        "product", a=build_model("torus", 1), b=build_model("pn", 2)
    ),
}


@functools.cache
def bridge_algebra(name):
    return BRIDGE_MODELS[name]().pa.A


@pytest.mark.parametrize("name", [*BRIDGE_MODELS, "torus1", "torus3", "pn2"])
@pytest.mark.parametrize("seed", range(3))
def test_cohomology_dims_rank_both_maps_of_each_cell(name, seed):
    n = {"torus1": 1, "torus3": 3, "pn2": 2}.get(name)
    model = build_model(name[:-1], n) if n else BRIDGE_MODELS[name]()
    d = d2_from_alpha(random_obstruction_datum(random.Random(seed), model, seed % 2 == 0))
    a, b = d.bidegree
    # each cell's outgoing and incoming map ranked on its own, as two matrices
    expect = {
        (p, q): len(idx) - d.cell_matrix(p, q).rank() - d.cell_matrix(p - a, q - b).rank()
        for (p, q), idx in model.pa.A.cells.items()
    }
    assert d.cohomology_dims() == expect


# nonzero int and Fraction coefficients, as the algebra layer keeps them
bridge_coeffs = st.one_of(
    st.integers(-9, 9), st.fractions(-3, 3, max_denominator=7).filter(lambda c: c.denominator > 1)
).filter(bool)


@pytest.mark.parametrize("name", sorted(BRIDGE_MODELS))
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_matrix_columns_are_the_dense_coordinates_of_the_maps(name, data):
    alg = bridge_algebra(name)
    idx = alg.cell_indices(*data.draw(st.sampled_from(sorted(alg.cells))))
    tabs = data.draw(st.lists(st.dictionaries(st.sampled_from(idx), bridge_coeffs), max_size=5))
    dense = [[tab.get(k, 0) for k in idx] for tab in tabs]
    assert alg.matrix(tabs, idx) == Matrix.from_cols(dense, rows=len(idx))


@pytest.mark.parametrize("name", sorted(BRIDGE_MODELS))
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_matrix_names_the_basis_element_outside_the_cell(name, data):
    alg = bridge_algebra(name)
    idx = alg.cell_indices(*data.draw(st.sampled_from(sorted(alg.cells))))
    outside = data.draw(st.sampled_from([k for k in range(alg.dim()) if k not in idx]))
    tab = data.draw(st.dictionaries(st.sampled_from(idx), bridge_coeffs))
    tab[outside] = data.draw(bridge_coeffs)
    tabs = data.draw(st.lists(st.dictionaries(st.sampled_from(idx), bridge_coeffs), max_size=2))
    message = f"support outside the expected basis: {re.escape(alg.basis[outside][0])}$"
    with pytest.raises(InvariantError, match=message):
        alg.matrix(tabs + [tab], idx)
