"""Lefschetz structures, primitive decomposition, certifier transcripts."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specseq import (
    BigradedAlgebra,
    Derivation,
    EngineError,
    InvariantError,
    ObstructionDatum,
    PolarizedAlgebra,
    build_model,
    d2_from_alpha,
    degeneration_certify,
    deligne_vanishing,
    hom_space_dimension,
    primitive_subspaces,
    serre_sign_check,
    split_differential,
    verify_hard_lefschetz,
)
from specseq.linalg import Q1, pairing_rank
from test_algebra import (
    COMMUTATIVE_MUTATIONS,
    dense_validate,
    mutated_products,
    nonzero_coeff,
    outcome,
)


def alpha_derivation(model, images, scale=Q1):
    alg = model.pa.A
    alpha = {alg.index(g): img for g, img in images.items()}
    return d2_from_alpha(ObstructionDatum(model, alpha, scale))


def xi1_to_eta12(model, scale=Q1):
    alg = model.pa.A
    return alpha_derivation(
        model, {"xi1": alg.el("eta1") * alg.el("eta2")}, scale
    )


class TestHardLefschetz:
    def test_holds_on_builtin_models(self, torus1, torus2, torus3, pn2):
        for model in (torus1, torus2, torus3, pn2):
            ok, bad = verify_hard_lefschetz(model.pa)
            assert ok and bad is None, model.name

    def test_degenerate_polarization_fails_at_the_right_power(self, torus2):
        alg = torus2.pa.A
        bad_omega = alg.el("xi1") * alg.el("eta1")
        pa = PolarizedAlgebra(alg, bad_omega, torus2.pa.integral, check=False)
        ok, bad = verify_hard_lefschetz(pa)
        assert not ok
        assert bad == 1  # multiplication by xi1 eta1 has rank 2 on H^1

    def test_validation_rejects_degenerate_polarization(self, torus2):
        alg = torus2.pa.A
        bad_omega = alg.el("xi1") * alg.el("eta1")
        with pytest.raises(InvariantError):
            PolarizedAlgebra(alg, bad_omega, torus2.pa.integral)

    def test_omega_must_live_in_cell_1_1(self, torus2):
        alg = torus2.pa.A
        with pytest.raises(InvariantError):
            PolarizedAlgebra(alg, alg.el("eta1"), torus2.pa.integral, check=False)

    def test_integral_must_be_supported_on_top_cell(self, torus2):
        alg = torus2.pa.A
        with pytest.raises(InvariantError):
            PolarizedAlgebra(
                alg, torus2.pa.omega, {alg.index("xi1"): Q1}, check=False
            )

    def test_unequal_betti_numbers_fail_at_the_first_power(self):
        # n = 1 with only the unit: b_0 = 1 but b_2 = 0, so L : H^0 -> H^2 is not bijective
        alg = BigradedAlgebra(1, [("1", 0, 0)], 0, {(0, 0): {0: Q1}})
        pa = PolarizedAlgebra(alg, alg.zero(), {}, check=False)
        assert verify_hard_lefschetz(pa) == (False, 1)
        with pytest.raises(InvariantError) as info:
            PolarizedAlgebra(alg, alg.zero(), {})
        assert info.value.witness == 1


class TestPrimitive:
    def test_torus2_primitive_cells_frozen(self, torus2):
        prim = primitive_subspaces(torus2.pa)
        dims = {c: s.dim for c, s in prim.items() if s.dim}
        assert dims == {
            (0, 0): 1, (0, 1): 2, (1, 0): 2, (0, 2): 1, (1, 1): 3, (2, 0): 1,
        }

    def test_primitive_degree_dims_match_betti_differences(self, torus2, torus3, pn2):
        for model in (torus2, torus3, pn2):
            pa = model.pa
            for m in range(0, pa.n + 1):
                assert pa.primitive_degree_dim(m) == pa.betti(m) - pa.betti(m - 2)

    def test_primitive_bookkeeping_runs_on_models(self, torus1, torus3, pn2):
        for model in (torus1, torus3, pn2):
            prim = primitive_subspaces(model.pa)
            assert prim[(0, 0)].dim == 1

    def test_projective_space_has_only_the_unit_primitive(self, pn2):
        prim = primitive_subspaces(pn2.pa)
        assert {c: s.dim for c, s in prim.items() if s.dim} == {(0, 0): 1}


class TestSplitDifferential:
    def test_frozen_split_on_torus2(self, torus2):
        d = xi1_to_eta12(torus2)
        split = split_differential(torus2.pa, d)
        alg = torus2.pa.A
        d0s, d1s = split[(0, 2)]
        assert len(d0s) == 1
        assert d0s[0].is_zero()
        assert d1s[0] == alg.el("eta1").scaled(Fraction(-1))

    def test_primitive_one_forms_map_to_primitives(self, torus2):
        d = xi1_to_eta12(torus2)
        split = split_differential(torus2.pa, d)
        # on (0,1) the image eta1 eta2 is itself primitive: no omega part
        d0s, d1s = split[(0, 1)]
        assert all(v.is_zero() for v in d1s)
        assert any(not v.is_zero() for v in d0s)

    def test_zero_derivation_splits_to_zero(self, torus2):
        alg = torus2.pa.A
        zero = Derivation(alg, (2, -1), [alg.zero()] * alg.dim())
        split = split_differential(torus2.pa, zero)
        for d0s, d1s in split.values():
            assert all(v.is_zero() for v in d0s + d1s)

    def test_noncommuting_derivation_is_rejected(self, torus3):
        alg = torus3.pa.A
        d = alpha_derivation(torus3, {"xi1": alg.el("eta2") * alg.el("eta3")})
        assert not d.apply(torus3.pa.omega).is_zero()
        with pytest.raises(InvariantError, match="commute"):
            split_differential(torus3.pa, d)


class TestDeligne:
    def test_lowering_commutant_vanishes(self, torus1, torus2, pn2):
        for model in (torus1, torus2, pn2):
            assert deligne_vanishing(model.pa, k=-1) == 0, model.name

    def test_degree_zero_commutant_of_torus1_is_five_dimensional(self, torus1):
        # strings: one H^0->H^2 pair (1 scalar) + End of the 2-dim primitive H^1
        assert deligne_vanishing(torus1.pa, k=0) == 5

    def test_hom_space_dimension_frozen(self, torus2):
        assert hom_space_dimension(torus2.pa, k=-1) == 56
        b = [torus2.pa.betti(m) for m in range(5)]
        assert b == [1, 4, 6, 4, 1]
        assert hom_space_dimension(torus2.pa, k=-1) == sum(
            b[m] * b[m - 1] for m in range(1, 5)
        )


class TestSerreSign:
    def test_passes_for_obstruction_derivations(self, torus2):
        for scale in (Q1, Fraction(-2), Fraction(5, 3)):
            d = xi1_to_eta12(torus2, scale)
            ok, witness = serre_sign_check(torus2.pa, d)
            assert ok and witness is None

    def test_corrupted_map_fails_with_witness(self, torus2):
        alg = torus2.pa.A
        d = xi1_to_eta12(torus2)
        values = list(d.values)
        i = alg.index("xi1xi2")
        values[i] = values[i].scaled(Fraction(-1))
        bad = Derivation(alg, (2, -1), values, check=False)
        ok, witness = serre_sign_check(torus2.pa, bad)
        assert not ok
        assert witness is not None


class TestCertifier:
    def test_zero_derivation_is_certified_with_full_transcript(self, torus2):
        alg = torus2.pa.A
        zero = Derivation(alg, (2, -1), [alg.zero()] * alg.dim())
        cert = degeneration_certify(torus2.pa, zero)
        assert cert.verdict == "certified"
        assert cert.failed_step is None
        assert [s.step_id for s in cert.steps] == [
            "omega-killed",
            "lefschetz-commutes",
            "primitive-containment",
            "primitive-component-only",
            "middle-degree-vanishing",
            "twisted-pairing-induction",
            "zero-map",
        ]
        assert all(s.passed for s in cert.steps)

    def test_require_square_zero_prepends_a_step(self, torus2):
        alg = torus2.pa.A
        zero = Derivation(alg, (2, -1), [alg.zero()] * alg.dim())
        cert = degeneration_certify(torus2.pa, zero, require_square_zero=True)
        assert cert.steps[0].step_id == "square-zero"
        assert cert.verdict == "certified"

    def test_nonzero_instance_fails_with_xi1xi2_witness(self, torus2):
        d = xi1_to_eta12(torus2)
        cert = degeneration_certify(torus2.pa, d)
        assert cert.verdict == "failed(primitive-component-only)"
        assert cert.failed_step == "primitive-component-only"
        last = cert.steps[-1]
        assert last.step_id == "primitive-component-only"
        assert not last.passed
        assert last.witness["alpha"] == {"xi1xi2": "1"}
        assert "eta1" in last.witness["d_prime"]

    def test_scaled_instance_keeps_the_witness_step(self, torus2):
        d = xi1_to_eta12(torus2, Fraction(2, 3))
        cert = degeneration_certify(torus2.pa, d)
        assert cert.verdict == "failed(primitive-component-only)"
        assert cert.steps[-1].witness["d_prime"] == {"eta1": "-2/3"}

    def test_omega_violation_fails_first(self, torus3):
        alg = torus3.pa.A
        d = alpha_derivation(torus3, {"xi1": alg.el("eta2") * alg.el("eta3")})
        cert = degeneration_certify(torus3.pa, d)
        assert cert.verdict == "failed(omega-killed)"
        assert cert.steps[-1].step_id == "omega-killed"

    def test_non_leibniz_map_is_an_input_error(self, torus2):
        alg = torus2.pa.A
        d = xi1_to_eta12(torus2)
        values = list(d.values)
        i = alg.index("xi1xi2")
        values[i] = values[i].scaled(Fraction(-1))
        bad = Derivation(alg, (2, -1), values, check=False)
        with pytest.raises(InvariantError):
            degeneration_certify(torus2.pa, bad)

    def test_wrong_bidegree_is_an_input_error(self, torus2):
        alg = torus2.pa.A
        zero = Derivation(alg, (1, 0), [alg.zero()] * alg.dim(), check=False)
        with pytest.raises(InvariantError):
            degeneration_certify(torus2.pa, zero)

    def test_certificate_json_shape(self, torus2):
        d = xi1_to_eta12(torus2)
        blob = degeneration_certify(torus2.pa, d).to_json()
        assert blob["verdict"] == "failed(primitive-component-only)"
        assert blob["failed_step"] == "primitive-component-only"
        assert [s["passed"] for s in blob["steps"]][:-1] == [True] * (len(blob["steps"]) - 1)
        assert all(set(s) >= {"id", "statement", "passed"} for s in blob["steps"])

    def test_certified_verdict_matches_direct_page_computation(self, torus2):
        alg = torus2.pa.A
        zero = Derivation(alg, (2, -1), [alg.zero()] * alg.dim())
        cert = degeneration_certify(torus2.pa, zero)
        assert cert.certified()
        dims = zero.cohomology_dims()
        assert dims == {c: len(ix) for c, ix in alg.cells.items()}


def full_polarized_validate(pa):
    """The polarization check over every cell and every twisted pair, after the
    dense algebra check.

    The route PolarizedAlgebra.validate took before it skipped mirror and
    empty pairings; kept here as its oracle.
    """
    dense_validate(pa.A)
    bad = pa.hard_lefschetz_failure()
    if bad is not None:
        raise InvariantError(f"hard Lefschetz fails at power {bad}", witness=bad)
    n = pa.n
    for (p, q), idx in pa.A.cells.items():
        if len(pa.A.cell_indices(n - p, n - q)) != len(idx):
            raise InvariantError(
                f"complementary cells {(p, q)} and {(n - p, n - q)} have different dimensions",
                witness=[p, q],
            )
        _, nondeg = pairing_rank(pa.poincare_gram(p, q))
        if not nondeg:
            raise InvariantError(f"Poincare pairing degenerates on cell {(p, q)}", witness=[p, q])
    for a in range(0, n + 1):
        for b in range(0, n + 1 - a):
            gram = pa.twisted_primitive_gram(a, b)
            if gram.rows != gram.cols:
                raise InvariantError(
                    f"twisted primitive pairing on {(a, b)} is not square", witness=[a, b]
                )
            _, nondeg = pairing_rank(gram)
            if not nondeg:
                raise InvariantError(
                    f"twisted primitive pairing degenerates on {(a, b)}", witness=[a, b]
                )


@pytest.fixture(scope="module")
def polarized_models(torus1, torus2, pn2):
    pn3 = build_model("pn", 3)
    return {
        "torus1": torus1,
        "torus2": torus2,
        "pn2": pn2,
        "pn3": pn3,
        "torus1xpn2": build_model("product", a=torus1, b=pn2),
        "pn3xtorus1": build_model("product", a=pn3, b=torus1),
    }


def mutated_entry(tab, data):
    """tab with at most one entry scaled by a nonzero rational or set to zero."""
    tab = dict(tab)
    kind = data.draw(st.sampled_from(["none", "scale", "zero"]))
    if kind != "none" and tab:
        k = data.draw(st.sampled_from(sorted(tab)))
        tab[k] = tab[k] * data.draw(nonzero_coeff) if kind == "scale" else 0
    return tab


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_polarized_validate_matches_the_full_check(polarized_models, data):
    pa = polarized_models[data.draw(st.sampled_from(sorted(polarized_models)))].pa
    alg = pa.A
    mutated = BigradedAlgebra(
        alg.n, alg.basis, alg.unit,
        mutated_products(alg, data, COMMUTATIVE_MUTATIONS), check=False,
    )
    omega = mutated.from_coeffs(mutated_entry(pa.omega.coeffs, data))
    integral = mutated_entry(pa.integral, data)
    full = PolarizedAlgebra(mutated, omega, integral, check=False)
    expected = outcome(lambda: full_polarized_validate(full))
    assert outcome(PolarizedAlgebra(mutated, omega, integral, check=False).validate) == expected


def test_poincare_failure_past_the_first_cell_keeps_the_full_witness(torus1):
    # without xi1 eta1 the algebra is still associative and L: H^0 -> H^2 still
    # bijective, but xi1 pairs to zero with the cell (1, 0): the Poincare check,
    # not the twisted one, names the cell (0, 1), whose mirror (1, 0) is skipped
    alg = torus1.pa.A
    xi1, eta1 = alg.index("xi1"), alg.index("eta1")
    prods = {ij: tab for ij, tab in alg.products.items() if ij not in ((xi1, eta1), (eta1, xi1))}
    dropped = BigradedAlgebra(alg.n, alg.basis, alg.unit, prods)
    omega = dropped.from_coeffs(dict(torus1.pa.omega.coeffs))
    pa = PolarizedAlgebra(dropped, omega, torus1.pa.integral, check=False)
    expected = ("Poincare pairing degenerates on cell (0, 1)", [0, 1])
    assert outcome(lambda: full_polarized_validate(pa)) == expected
    assert outcome(pa.validate) == expected
