"""Model builders, Hodge tables, obstruction data."""

import json
import random
from fractions import Fraction

import pytest

from specseq import (
    HodgeDiamond,
    InvariantError,
    ObstructionDatum,
    ParseError,
    VarietyModel,
    build_model,
    canonical_power_datum,
    d2_from_alpha,
    degeneration_certify,
    ext_dimensions,
    lagrangian_e2_table,
    tensor_model,
)
from specseq.fuzz import random_obstruction_datum

from conftest import el, mul, scaled, unchecked_copy
from oracles import binomial, twisted_primitive_gram


class TestHodgeDiamond:
    def test_torus2_diamond_is_binomial(self, torus2):
        dia = torus2.diamond()
        for p in range(3):
            for q in range(3):
                assert dia.at(p, q) == binomial(2, p) * binomial(2, q)
        assert ext_dimensions(torus2) == [1, 4, 6, 4, 1]

    def test_projective_space_diamond_is_diagonal(self, pn2):
        dia = pn2.diamond()
        assert all(dia.at(p, q) == (1 if p == q else 0) for p in range(3) for q in range(3))

    def test_corner_must_be_one(self):
        with pytest.raises(InvariantError, match="corner"):
            HodgeDiamond(1, {(0, 0): 2, (1, 1): 1})

    def test_hodge_symmetry_enforced(self):
        with pytest.raises(InvariantError, match="Hodge symmetry"):
            HodgeDiamond(1, {(0, 0): 1, (1, 1): 1, (0, 1): 2, (1, 0): 1})

    def test_serre_symmetry_enforced(self):
        with pytest.raises(InvariantError, match="Serre symmetry"):
            HodgeDiamond(2, {(0, 0): 1, (2, 2): 1, (1, 1): 1, (0, 1): 1, (1, 0): 1})

    # each diamond breaks a symmetry at two cells, stored after the rest with
    # the later cell of the scan first: the witness is still the first (p, q)
    @pytest.mark.parametrize(
        "n, h, message, witness",
        [
            (2, {(2, 0): 2, (0, 2): 1}, "Hodge symmetry fails at (0, 2)", [0, 2]),
            (3, {(2, 2): 2, (1, 1): 1}, "Serre symmetry fails at (1, 1)", [1, 1]),
        ],
    )
    def test_the_witness_is_the_first_failing_cell_of_the_scan(self, n, h, message, witness):
        table = {(0, 0): 1, (n, n): 1, **h}
        failing = [
            (p, q)
            for p in range(n + 1)
            for q in range(n + 1)
            if table.get((p, q), 0) != table.get((q, p), 0)
            or table.get((p, q), 0) != table.get((n - p, n - q), 0)
        ]
        assert failing == sorted(h)
        with pytest.raises(InvariantError) as err:
            HodgeDiamond(n, table)
        assert str(err.value) == message
        assert err.value.witness == witness

    def test_indices_stay_in_the_square(self):
        with pytest.raises(InvariantError, match="outside"):
            HodgeDiamond(1, {(0, 0): 1, (1, 1): 1, (2, 0): 1})


class TestBuilders:
    def test_kuenneth_square_of_torus1_matches_torus2(self, torus1, torus2):
        prod = tensor_model(torus1, torus1)
        assert lagrangian_e2_table(prod) == lagrangian_e2_table(torus2)
        assert prod.n == 2
        assert prod.name == "torus1xtorus1"

    def test_product_respects_hard_lefschetz(self, torus1, pn2):
        prod = build_model("product", a=torus1, b=pn2)
        assert prod.pa.validate() is None

    def test_product_follows_the_koszul_sign_rule(self, torus1):
        # (a | b)(c | d) = (-1)^{|b||c|} ac | bd, so the sign falls only when
        # an odd right-hand class passes an odd left-hand one
        alg = tensor_model(torus1, torus1).pa.A
        xi_1, one_xi = el(alg, "xi1|1"), el(alg, "1|xi1")
        assert mul(alg, xi_1, one_xi) == el(alg, "xi1|xi1")
        assert mul(alg, one_xi, xi_1) == scaled(el(alg, "xi1|xi1"), -1)
        # eta1 | xi1 is even: xi1 passes xi1 (-1) and eta1 xi1 = -xi1eta1
        eta_xi = el(alg, "eta1|xi1")
        assert mul(alg, eta_xi, xi_1) == mul(alg, xi_1, eta_xi) == el(alg, "xi1eta1|xi1")

    def test_torus_roles_list_the_one_forms(self, torus2):
        assert torus2.roles["h0_omega1"] == ["xi1", "xi2"]
        assert torus2.roles["h1_O"] == ["eta1", "eta2"]

    def test_build_model_validates_inputs(self, torus1):
        with pytest.raises(InvariantError, match="unknown model kind"):
            build_model("grassmannian")
        with pytest.raises(InvariantError, match="needs n"):
            build_model("torus")
        with pytest.raises(InvariantError, match="both factors"):
            build_model("product", a=torus1)

    def test_model_json_round_trip(self, torus2):
        blob = torus2.to_json()
        back = VarietyModel.from_json(blob)
        assert back.to_json() == blob
        assert lagrangian_e2_table(back) == lagrangian_e2_table(torus2)

    def test_model_json_requires_name_and_omega(self, torus1):
        blob = torus1.to_json()
        missing = {k: v for k, v in blob.items() if k != "name"}
        with pytest.raises(ParseError, match="name"):
            VarietyModel.from_json(missing)
        missing = {k: v for k, v in blob.items() if k != "omega"}
        with pytest.raises(ParseError, match="omega"):
            VarietyModel.from_json(missing)


class TestExtDimensions:
    def test_frozen_tables(self, torus2):
        assert ext_dimensions(torus2) == [1, 4, 6, 4, 1]
        assert ext_dimensions(build_model("pn", 3)) == [1, 0, 1, 0, 1, 0, 1]
        prod = build_model("product", a=build_model("torus", 1), b=build_model("pn", 1))
        assert ext_dimensions(prod) == [1, 2, 2, 2, 1]

    def test_total_dimension_is_preserved(self, torus3):
        assert sum(ext_dimensions(torus3)) == torus3.pa.A.dim()


class TestObstructionDatum:
    def test_images_must_sit_in_cell_2_0(self, torus2):
        alg = torus2.pa.A
        with pytest.raises(InvariantError, match="cell \\(2, 0\\)"):
            ObstructionDatum(torus2, {alg.index("xi1"): el(alg, "eta1")})

    def test_keys_must_be_one_forms(self, torus2):
        alg = torus2.pa.A
        img = el(alg, "eta1", "eta2")
        with pytest.raises(InvariantError, match="not a \\(0,1\\) generator"):
            ObstructionDatum(torus2, {alg.index("eta1"): img})

    def test_json_round_trip(self, torus2):
        alg = torus2.pa.A
        od = ObstructionDatum(
            torus2,
            {alg.index("xi1"): scaled(el(alg, "eta1", "eta2"), Fraction(3, 7))},
            Fraction(-2, 5),
        )
        blob = od.to_json()
        assert blob["scale"] == "-2/5"
        back = ObstructionDatum.from_json(torus2, blob)
        assert back.to_json() == blob

    def test_images_are_stored_as_exact_maps_without_zero_entries(self, torus2):
        alg = torus2.pa.A
        xi1, xi2, eta1, eta12 = (alg.index(x) for x in ("xi1", "xi2", "eta1", "eta1eta2"))
        # a zero at eta1, outside the cell (2, 0), is dropped before the cell check
        od = ObstructionDatum(torus2, {xi1: {eta12: Fraction(4, 2), eta1: 0}, xi2: {eta12: 0}})
        assert od.alpha == {xi1: {eta12: 2}, xi2: {}}
        assert type(od.alpha[xi1][eta12]) is int
        blob = {"images": {"xi1": {"eta1eta2": "0"}, "xi2": {"eta1eta2": "1/2"}}}
        od = ObstructionDatum.from_json(torus2, blob)
        assert od.alpha == {xi1: {}, xi2: {eta12: Fraction(1, 2)}}
        assert not od.is_zero()
        assert od.to_json() == {"scale": "1", "images": {"xi1": {}, "xi2": {"eta1eta2": "1/2"}}}
        assert d2_from_alpha(od).to_json() == {
            "bidegree": [2, -1], "values": {"2": {"10": "1/2"}, "5": {"13": "-1/2"}},
        }
        od = ObstructionDatum.from_json(torus2, {"images": {"xi1": {"eta1eta2": "0"}}})
        assert od.is_zero()
        assert d2_from_alpha(od).to_json() == {"bidegree": [2, -1], "values": {}}

    def test_from_json_rejects_bad_scale(self, torus2):
        with pytest.raises(ParseError, match="scale"):
            ObstructionDatum.from_json(torus2, {"scale": "one", "images": {}})

    def test_zero_detection(self, torus2):
        alg = torus2.pa.A
        img = el(alg, "eta1", "eta2")
        assert ObstructionDatum(torus2, {}).is_zero()
        assert ObstructionDatum(torus2, {alg.index("xi1"): img}, Fraction(0)).is_zero()
        assert not ObstructionDatum(torus2, {alg.index("xi1"): img}).is_zero()


def test_constraint_cache_is_keyed_by_the_algebra_not_the_name(torus2):
    # a torus3 algebra under torus2's name must not read torus2's system
    torus3 = build_model("torus", 3)
    impostor = VarietyModel("torus2", torus3.pa)
    random_obstruction_datum(random.Random(0), torus2, constrained=True)
    for seed in range(20):
        got = random_obstruction_datum(random.Random(seed), impostor, constrained=True)
        want = random_obstruction_datum(random.Random(seed), torus3, constrained=True)
        assert got.to_json() == want.to_json(), seed
        assert not got.is_zero(), seed


class TestD2FromAlpha:
    def test_scaling_is_linear(self, torus2):
        alg = torus2.pa.A
        img = el(alg, "eta1", "eta2")
        base = d2_from_alpha(ObstructionDatum(torus2, {alg.index("xi1"): img}))
        for s in (Fraction(2), Fraction(-1, 3), Fraction(7, 2)):
            scaled = d2_from_alpha(ObstructionDatum(torus2, {alg.index("xi1"): img}, s))
            assert scaled.values == base.scaled(s).values

    def test_zero_datum_builds_the_zero_derivation_on_any_model(self, pn2, torus1):
        for model in (pn2, torus1):
            d = d2_from_alpha(ObstructionDatum(model, {}))
            assert d.is_zero()
            assert d.bidegree == (2, -1)

    def test_canonical_power_datum_is_certified(self, torus2):
        for s, t in ((1, 1), (3, 2), (-5, 4)):
            od = canonical_power_datum(torus2, s, t)
            assert od.is_zero()
            cert = degeneration_certify(torus2.pa, d2_from_alpha(od))
            assert cert.certified()

    def test_canonical_power_needs_a_denominator(self, torus2):
        with pytest.raises(InvariantError, match="denominator"):
            canonical_power_datum(torus2, 1, 0)


EXACT_MODELS = {
    **{f"torus{n}": ("torus", n) for n in (1, 2, 3)},
    **{f"pn{n}": ("pn", n) for n in (2, 4, 8)},
}


def exact_model(name):
    if name == "torus1xpn2":
        return tensor_model(build_model("torus", 1), build_model("pn", 2))
    return build_model(*EXACT_MODELS[name])


def assert_exact(values):
    for c in values:
        assert type(c) in (int, Fraction), c


def assert_emitted_as_strings(table):
    """Every leaf of a nested JSON coefficient table is a string."""
    for v in table.values():
        if isinstance(v, dict):
            assert_emitted_as_strings(v)
        else:
            assert isinstance(v, str), v


class TestExactness:
    """Scalars in the algebra layer are ints or Fractions, never floats, and
    every scalar in the emitted JSON is a string."""

    @pytest.mark.parametrize("name", [*EXACT_MODELS, "torus1xpn2"])
    def test_model_scalars(self, name):
        model = exact_model(name)
        blob = model.to_json()
        loaded = VarietyModel.from_json(json.loads(json.dumps(blob)))
        for pa in (model.pa, loaded.pa):
            for tab in pa.A.products.values():
                assert_exact(tab.values())
            assert_exact(pa.omega.values())
            assert_exact(pa.integral.values())
            for (p, q) in pa.A.cells:
                assert_exact(c for row in pa.poincare_gram(p, q).entries for c in row)
            for a in range(pa.n + 1):
                for b in range(pa.n + 1 - a):
                    rows, _ = twisted_primitive_gram(pa, a, b)
                    assert_exact(c for row in rows for c in row)
        for key in ("products", "omega", "integral"):
            assert_emitted_as_strings(blob[key])

    @pytest.mark.parametrize("name", ["torus2", "torus3"])
    @pytest.mark.parametrize("seed", range(4))
    def test_datum_and_derivation_scalars(self, name, seed):
        model = exact_model(name)
        rng = random.Random(f"exact:{name}:{seed}")
        od = random_obstruction_datum(rng, model, constrained=seed % 2 == 0)
        assert not od.is_zero()
        d = d2_from_alpha(od)
        assert_exact([od.scale])
        for img in od.alpha.values():
            assert_exact(img.values())
        for v in d.values:
            assert_exact(v.values())
        blob = od.to_json()
        assert isinstance(blob["scale"], str)
        assert_emitted_as_strings(blob["images"])
        assert_emitted_as_strings(d.to_json()["values"])


def _product(*kinds):
    """The left-nested tensor product of the models build_model(kind, n) for (kind, n)."""
    model = build_model(*kinds[0])
    for kind in kinds[1:]:
        model = tensor_model(model, build_model(*kind))
    return model


BUILT = {
    **{f"torus{n}": (("torus", n),) for n in range(1, 5)},
    **{f"pn{n}": (("pn", n),) for n in range(1, 9)},
    "torus1xpn2": (("torus", 1), ("pn", 2)),
    "torus2xtorus1": (("torus", 2), ("torus", 1)),
    "pn2xpn3": (("pn", 2), ("pn", 3)),
    "torus1xpn2xpn2": (("torus", 1), ("pn", 2), ("pn", 2)),
}


@pytest.mark.parametrize("kinds", BUILT.values(), ids=BUILT.keys())
def test_built_models_pass_the_full_check(kinds):
    """Exterior algebras and products of checked factors are built unchecked;
    the full check on an unchecked copy is the oracle for their proofs."""
    pa = _product(*kinds).pa
    assert pa.checked and pa.A.checked
    copy = unchecked_copy(pa)
    assert not copy.checked and not copy.A.checked
    copy.validate()
    assert copy.checked and copy.A.checked
