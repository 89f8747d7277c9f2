"""Lefschetz structures, primitive decomposition, certifier transcripts."""

from fractions import Fraction

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from specseq import (
    BigradedAlgebra,
    Derivation,
    InvariantError,
    ObstructionDatum,
    PolarizedAlgebra,
    build_model,
    d2_from_alpha,
    degeneration_certify,
    deligne_vanishing,
    serre_sign_check,
    split_differential,
    verify_hard_lefschetz,
)
from specseq.algebra import _accumulate
from specseq.lefschetz import CertStep, Certificate, _commutator_violation
from specseq.linalg import Q1, pairing_rank
from conftest import add, el, omega_power, scaled
from oracles import (
    commutator_violations,
    integrate,
    map_product,
    naive_rank,
    serre_sign_violations,
    twisted_primitive_gram,
)
from test_acceptance import sign_suite
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
        model, {"xi1": el(alg, "eta1", "eta2")}, scale
    )


class TestHardLefschetz:
    def test_holds_on_builtin_models(self, torus1, torus2, torus3, pn2):
        for model in (torus1, torus2, torus3, pn2):
            ok, bad = verify_hard_lefschetz(model.pa)
            assert ok and bad is None, model.name

    def test_degenerate_polarization_fails_at_the_right_power(self, torus2):
        alg = torus2.pa.A
        bad_omega = el(alg, "xi1", "eta1")
        pa = PolarizedAlgebra(alg, bad_omega, torus2.pa.integral, check=False)
        ok, bad = verify_hard_lefschetz(pa)
        assert not ok
        assert bad == 1  # multiplication by xi1 eta1 has rank 2 on H^1

    def test_validation_rejects_degenerate_polarization(self, torus2):
        alg = torus2.pa.A
        bad_omega = el(alg, "xi1", "eta1")
        with pytest.raises(InvariantError):
            PolarizedAlgebra(alg, bad_omega, torus2.pa.integral)

    def test_omega_must_live_in_cell_1_1(self, torus2):
        alg = torus2.pa.A
        with pytest.raises(InvariantError):
            PolarizedAlgebra(alg, el(alg, "eta1"), torus2.pa.integral, check=False)

    def test_integral_must_be_supported_on_top_cell(self, torus2):
        alg = torus2.pa.A
        with pytest.raises(InvariantError):
            PolarizedAlgebra(
                alg, torus2.pa.omega, {alg.index("xi1"): Q1}, check=False
            )

    def test_unequal_betti_numbers_fail_at_the_first_power(self):
        # n = 1 with only the unit: b_0 = 1 but b_2 = 0, so L : H^0 -> H^2 is not bijective
        alg = BigradedAlgebra(1, [("1", 0, 0)], 0, {(0, 0): {0: Q1}})
        pa = PolarizedAlgebra(alg, {}, {}, check=False)
        assert verify_hard_lefschetz(pa) == (False, 1)
        with pytest.raises(InvariantError) as info:
            PolarizedAlgebra(alg, {}, {})
        assert info.value.witness == 1


def primitive_dims(pa: PolarizedAlgebra) -> dict[tuple[int, int], int]:
    """dim H0^{p,q} of each cell with p + q <= n and a nonzero primitive part."""
    dims = {(p, q): pa.primitive_cell(p, q).dim for (p, q) in pa.A.cells if p + q <= pa.n}
    return {c: d for c, d in dims.items() if d}


@pytest.mark.parametrize("scale", [1, Fraction(3, 2)])
@pytest.mark.parametrize("name", ["torus2", "pn2", "torus1xpn2"])
def test_poincare_gram_is_the_matrix_of_the_integrals(name, scale):
    from specseq import tensor_model
    from specseq.linalg import Matrix

    model = (
        tensor_model(build_model("torus", 1), build_model("pn", 2))
        if name == "torus1xpn2" else build_model(name[:-1], int(name[-1]))
    )
    # a rational integral gives the Gram Fraction entries
    A = model.pa.A
    pa = PolarizedAlgebra(A, model.pa.omega, {i: scale * c for i, c in model.pa.integral.items()})
    n = pa.n
    for (p, q), idx in A.cells.items():
        jdx = A.cell_indices(n - p, n - q)
        rows = [[integrate(pa, map_product(A, {i: 1}, {j: 1})) for j in jdx] for i in idx]
        assert pa.poincare_gram(p, q) == Matrix.from_rows(rows, cols=len(jdx))


def test_omega_and_primitive_elements_are_private_and_read_only(torus2):
    alg = torus2.pa.A
    omega = dict(torus2.pa.omega)
    pa = PolarizedAlgebra(alg, omega, torus2.pa.integral)
    lefschetz = [dict(image) for image in pa._lefschetz]
    # changing the caller's map afterwards leaves omega and L alone
    omega[alg.index("xi1eta2")] = 5
    del omega[alg.index("xi1eta1")]
    assert pa.omega == torus2.pa.omega
    assert [dict(image) for image in pa._lefschetz] == lefschetz
    assert pa._power({alg.unit: 1}, 1) == torus2.pa.omega
    with pytest.raises(TypeError):
        pa.omega[alg.index("xi1eta2")] = 5
    for (p, q) in alg.cells:
        for alpha in pa.primitive_elements(p, q):
            with pytest.raises(TypeError):
                alpha[next(iter(alpha))] = 5
    assert any(pa.primitive_elements(p, q) for (p, q) in alg.cells)


class TestPrimitive:
    def test_torus2_primitive_cells_frozen(self, torus2):
        assert primitive_dims(torus2.pa) == {
            (0, 0): 1, (0, 1): 2, (1, 0): 2, (0, 2): 1, (1, 1): 3, (2, 0): 1,
        }

    def test_primitive_degree_dims_match_betti_differences(self, torus1, torus2, torus3, pn2):
        from specseq import tensor_model

        models = (torus2, torus3, pn2, build_model("pn", 4), tensor_model(torus1, pn2))
        for pa in (model.pa for model in models):
            # P^m = 0 above the middle degree, where b_m <= b_{m-2}
            for m in range(0, 2 * pa.n + 1):
                assert pa.primitive_degree_dim(m) == max(0, pa.betti(m) - pa.betti(m - 2))
        # the zero subspace of the cell
        top = torus2.pa.primitive_cell(2, 2)
        assert (top.ambient_dim, top.dim) == (1, 0)

    def test_projective_space_has_only_the_unit_primitive(self, pn2):
        assert primitive_dims(pn2.pa) == {(0, 0): 1}


class TestSplitDifferential:
    def test_frozen_split_on_torus2(self, torus2):
        d = xi1_to_eta12(torus2)
        split = split_differential(torus2.pa, d)
        alg = torus2.pa.A
        d0s, d1s = split[(0, 2)]
        assert len(d0s) == 1
        assert d0s[0] == {}
        assert d1s[0] == scaled(el(alg, "eta1"), Fraction(-1))

    def test_primitive_one_forms_map_to_primitives(self, torus2):
        d = xi1_to_eta12(torus2)
        split = split_differential(torus2.pa, d)
        # on (0,1) the image eta1 eta2 is itself primitive: no omega part
        d0s, d1s = split[(0, 1)]
        assert not any(d1s)
        assert any(d0s)

    def test_zero_derivation_splits_to_zero(self, torus2):
        alg = torus2.pa.A
        zero = Derivation(alg, (2, -1), [{}] * alg.dim())
        split = split_differential(torus2.pa, zero)
        for d0s, d1s in split.values():
            assert not any(d0s + d1s)

    def test_total_degree_above_one_is_rejected(self, torus2):
        alg = torus2.pa.A
        zero = Derivation(alg, (1, 1), [{}] * alg.dim())
        with pytest.raises(InvariantError, match="total degree at most 1") as err:
            split_differential(torus2.pa, zero)
        assert err.value.witness == [1, 1]

    def test_noncommuting_derivation_is_rejected(self, torus3):
        alg = torus3.pa.A
        d = alpha_derivation(torus3, {"xi1": el(alg, "eta2", "eta3")})
        assert d.apply(torus3.pa.omega)
        with pytest.raises(InvariantError, match="commute"):
            split_differential(torus3.pa, d)


def is_primitive_in(pa, x, p, q) -> bool:
    """x lies in H0^{p,q}: in the cell (p, q), and killed by L^{n-p-q+1} (zero above n)."""
    if p + q > pa.n:
        return not x
    return set(x) <= set(pa.A.cell_indices(p, q)) and not omega_power(pa, x, pa.n - p - q + 1)


@pytest.mark.parametrize("name", ["torus2", "torus3"])
def test_split_recomposes_d_on_every_primitive(name, torus2, torus3):
    from specseq.fuzz import random_obstruction_datum

    from conftest import seeded

    model = {"torus2": torus2, "torus3": torus3}[name]
    pa = model.pa
    moved = 0
    for i in range(20):
        # constrained data kill omega, so d commutes with L
        d = d2_from_alpha(random_obstruction_datum(seeded(f"split:{name}", i), model, True))
        A, B = d.bidegree
        for (p, q), (d0s, d1s) in split_differential(pa, d).items():
            prim = pa.primitive_elements(p, q)
            assert len(d0s) == len(d1s) == len(prim)
            for alpha, d0, d1 in zip(prim, d0s, d1s):
                assert d.apply(alpha) == add(d0, omega_power(pa, d1))
                assert is_primitive_in(pa, d0, p + A, q + B)
                assert is_primitive_in(pa, d1, p + A - 1, q + B - 1)
                moved += bool(d.apply(alpha))
    assert moved


class TestDeligne:
    def test_lowering_commutant_vanishes(self, torus1, torus2, pn2):
        for model in (torus1, torus2, pn2):
            assert deligne_vanishing(model.pa, k=-1) == 0, model.name

    def test_degree_zero_commutant_of_torus1_is_five_dimensional(self, torus1):
        # strings: one H^0->H^2 pair (1 scalar) + End of the 2-dim primitive H^1
        assert deligne_vanishing(torus1.pa, k=0) == 5


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
        values[i] = scaled(values[i], Fraction(-1))
        bad = Derivation(alg, (2, -1), values, check=False)
        ok, witness = serre_sign_check(torus2.pa, bad)
        assert not ok
        assert witness is not None


def assert_matches_the_element_references(pa, d):
    """The checks on the images of L and _pair give the verdicts and witnesses of the
    map_product references."""
    bad = commutator_violations(pa, d)
    assert _commutator_violation(pa, d) == (bad[0] if bad else None)
    bad = serre_sign_violations(pa, d)
    assert serre_sign_check(pa, d) == ((False, bad[0]) if bad else (True, None))


def test_commutator_and_serre_checks_match_the_element_references_on_the_sign_suite():
    commuting = 0
    for model, d in sign_suite():
        assert_matches_the_element_references(model.pa, d)
        assert serre_sign_violations(model.pa, d) == []
        commuting += commutator_violations(model.pa, d) == []
    # both verdicts of the commutator check are reached
    assert 0 < commuting < 60


def planted(model, images):
    """The unchecked bidegree-(2, -1) map with the given images by basis name, 0 elsewhere."""
    alg = model.pa.A
    values = [{}] * alg.dim()
    for x, y in images.items():
        values[alg.index(x)] = el(alg, y)
    return Derivation(alg, (2, -1), values, check=False)


def test_a_map_off_commutation_at_one_basis_element_is_named(torus3):
    d = planted(torus3, {"xi1": "eta1eta2"})
    assert commutator_violations(torus3.pa, d) == ["xi1"]
    assert_matches_the_element_references(torus3.pa, d)


def test_a_map_off_the_serre_sign_on_one_pair_is_named(torus2):
    d = planted(torus2, {"xi1": "eta1eta2"})
    # the pair and its mirror state one equation
    assert serre_sign_violations(torus2.pa, d) == [["xi1", "xi1xi2"], ["xi1xi2", "xi1"]]
    assert commutator_violations(torus2.pa, d) == []
    assert_matches_the_element_references(torus2.pa, d)


def test_l_images_that_cancel_to_an_explicit_zero_commute(torus3):
    alg, pa = torus3.pa.A, torus3.pa
    d = alpha_derivation(
        torus3,
        {"xi1": el(alg, "eta2", "eta3"), "xi2": el(alg, "eta1", "eta3")},
    )
    # d(omega * 1) sums d(xi1 eta1) = -d(xi2 eta2) != 0 to an entry 0
    lhs = {}
    for l, c in pa._lefschetz[alg.unit].items():
        _accumulate(lhs, c, d.values[l])
    assert list(lhs.values()) == [0]
    assert d.apply(pa.omega) == {}
    assert commutator_violations(pa, d) == []
    assert_matches_the_element_references(pa, d)


def test_default_certificates_do_not_share_their_steps():
    first, second = Certificate(), Certificate()
    first.steps.append(CertStep("omega-killed", "d(omega) = 0", True))
    assert second.steps == [] and Certificate().steps == []
    assert (second.verdict, second.failed_step) == ("certified", None)


class TestCertifier:
    def test_zero_derivation_is_certified_with_full_transcript(self, torus2):
        alg = torus2.pa.A
        zero = Derivation(alg, (2, -1), [{}] * alg.dim())
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
        zero = Derivation(alg, (2, -1), [{}] * alg.dim())
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
        d = alpha_derivation(torus3, {"xi1": el(alg, "eta2", "eta3")})
        cert = degeneration_certify(torus3.pa, d)
        assert cert.verdict == "failed(omega-killed)"
        assert cert.steps[-1].step_id == "omega-killed"

    def test_non_leibniz_map_is_an_input_error(self, torus2):
        alg = torus2.pa.A
        d = xi1_to_eta12(torus2)
        values = list(d.values)
        i = alg.index("xi1xi2")
        values[i] = scaled(values[i], Fraction(-1))
        bad = Derivation(alg, (2, -1), values, check=False)
        with pytest.raises(InvariantError):
            degeneration_certify(torus2.pa, bad)

    def test_wrong_bidegree_is_an_input_error(self, torus2):
        alg = torus2.pa.A
        zero = Derivation(alg, (1, 0), [{}] * alg.dim(), check=False)
        with pytest.raises(InvariantError):
            degeneration_certify(torus2.pa, zero)

    def test_certificate_json_shape(self, torus2):
        d = xi1_to_eta12(torus2)
        blob = degeneration_certify(torus2.pa, d).to_json()
        assert blob["verdict"] == "failed(primitive-component-only)"
        assert blob["failed_step"] == "primitive-component-only"
        assert [s["passed"] for s in blob["steps"]][:-1] == [True] * (len(blob["steps"]) - 1)
        assert all(set(s) >= {"id", "statement", "passed"} for s in blob["steps"])

    def test_a_muted_split_is_caught_at_the_middle_degree(self, torus3, monkeypatch):
        # a split that reports d' = 0 lets a nonzero d past primitive-component-only;
        # the next step names the first degree-3 element that d moves
        import specseq.lefschetz as lefschetz_module
        from specseq.fuzz import random_obstruction_datum

        from conftest import seeded

        real = lefschetz_module._primitive_split

        def muted(pa, d):
            return {pq: (d0s, [{}] * len(d1s)) for pq, (d0s, d1s) in real(pa, d).items()}

        monkeypatch.setattr(lefschetz_module, "_primitive_split", muted)
        alg = torus3.pa.A
        for seed in range(3):
            d = d2_from_alpha(random_obstruction_datum(seeded("muted", seed), torus3, True))
            assert not d.is_zero()
            cert = degeneration_certify(torus3.pa, d)
            assert cert.verdict == "failed(middle-degree-vanishing)"
            assert all(step.passed for step in cert.steps[:-1])
            x = next(i for i in alg.degree_indices(3) if d.values[i])
            assert alg.basis[x][0] == "xi1xi2xi3"
            assert cert.steps[-1].witness == {
                "x": "xi1xi2xi3",
                "d(x)": {alg.basis[k][0]: str(c) for k, c in sorted(d.values[x].items())},
            }

    def test_certified_verdict_matches_direct_page_computation(self, torus2):
        alg = torus2.pa.A
        zero = Derivation(alg, (2, -1), [{}] * alg.dim())
        cert = degeneration_certify(torus2.pa, zero)
        assert cert.certified()
        dims = zero.cohomology_dims()
        assert dims == {c: len(ix) for c, ix in alg.cells.items()}


def full_polarized_validate(pa):
    """The polarization check over every cell and every twisted pair, after the
    dense algebra check.

    PolarizedAlgebra.validate skips the mirror cells and the twisted
    pairings, which its docstring proves nondegenerate; this is its oracle.
    """
    dense_validate(pa.A)
    polarization_checks(pa)


def polarization_checks(pa):
    """full_polarized_validate past the algebra check."""
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
            rows, cols = twisted_primitive_gram(pa, a, b)
            if len(rows) != cols:
                raise InvariantError(
                    f"twisted primitive pairing on {(a, b)} is not square", witness=[a, b]
                )
            if naive_rank(rows) != cols:
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


CHECKS = (
    "unit", "homogeneous", "commutativity", "associativity", "hard Lefschetz", "complementary",
    "Poincare", "twisted",
)


def failing_check(result) -> str:
    """The check an outcome() failed at, or "valid"."""
    if result is None:
        return "valid"
    return next((name for name in CHECKS if name in result[0]), result[0])


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_polarized_validate_matches_the_full_check(polarized_models, data):
    pa = polarized_models[data.draw(st.sampled_from(sorted(polarized_models)))].pa
    alg = pa.A
    # the unit's products stay, so that examples get past the unit law
    mutated = BigradedAlgebra(
        alg.n, alg.basis, alg.unit,
        mutated_products(alg, data, COMMUTATIVE_MUTATIONS, unit=False), check=False,
    )
    omega = mutated_entry(pa.omega, data)
    integral = mutated_entry(pa.integral, data)
    full = PolarizedAlgebra(mutated, omega, integral, check=False)
    expected = outcome(lambda: full_polarized_validate(full))
    event(failing_check(expected))
    assert outcome(PolarizedAlgebra(mutated, omega, integral, check=False).validate) == expected


def test_poincare_failure_past_the_first_cell_keeps_the_full_witness(torus1):
    # without xi1 eta1 the algebra is still associative and L: H^0 -> H^2 still
    # bijective, but xi1 pairs to zero with the cell (1, 0): the Poincare check,
    # not the twisted one, names the cell (0, 1), whose mirror (1, 0) is skipped
    alg = torus1.pa.A
    xi1, eta1 = alg.index("xi1"), alg.index("eta1")
    prods = {ij: tab for ij, tab in alg.products.items() if ij not in ((xi1, eta1), (eta1, xi1))}
    dropped = BigradedAlgebra(alg.n, alg.basis, alg.unit, prods)
    pa = PolarizedAlgebra(dropped, torus1.pa.omega, torus1.pa.integral, check=False)
    expected = ("Poincare pairing degenerates on cell (0, 1)", [0, 1])
    assert outcome(lambda: full_polarized_validate(pa)) == expected
    assert outcome(pa.validate) == expected


def product_of(a, b):
    return lambda: build_model("product", a=build_model(*a), b=build_model(*b))


@pytest.mark.parametrize(
    "model",
    [
        *(lambda n=n: build_model("torus", n) for n in range(1, 5)),
        *(lambda n=n: build_model("pn", n) for n in range(1, 9)),
        *(product_of(("torus", 1), ("pn", n)) for n in (2, 4, 8)),
        product_of(("pn", 3), ("torus", 1)),
    ],
    ids=[
        *(f"torus{n}" for n in range(1, 5)), *(f"pn{n}" for n in range(1, 9)),
        *(f"torus1xpn{n}" for n in (2, 4, 8)), "pn3xtorus1",
    ],
)
def test_every_twisted_gram_of_a_model_is_square_and_nondegenerate(model):
    # what PolarizedAlgebra.validate proves from hard Lefschetz and Poincare
    # duality, computed on each model
    pa = model().pa
    for a in range(pa.n + 1):
        for b in range(pa.n + 1 - a):
            rows, cols = twisted_primitive_gram(pa, a, b)
            assert len(rows) == cols
            assert naive_rank(rows) == cols


COEFFS = st.sampled_from([0, 1, -1, 2, Fraction(1, 2), -3])


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_twisted_pairings_never_fail_past_hard_lefschetz_and_poincare(polarized_models, data):
    # a new omega in the (1, 1) cell or a new integral on the top cell keeps
    # the model's valid algebra, so every example reaches hard Lefschetz and
    # Poincare, and the full check needs no algebra check
    pa = polarized_models[data.draw(st.sampled_from(sorted(polarized_models)))].pa
    alg, omega, integral = pa.A, pa.omega, pa.integral
    if data.draw(st.booleans()):
        omega = {i: data.draw(COEFFS) for i in alg.cell_indices(1, 1)}
    else:
        integral = {i: data.draw(COEFFS) for i in alg.cell_indices(alg.n, alg.n)}
    expected = outcome(
        lambda: polarization_checks(PolarizedAlgebra(alg, omega, integral, check=False))
    )
    event(failing_check(expected))
    assert failing_check(expected) in ("valid", "hard Lefschetz", "Poincare")
    assert outcome(PolarizedAlgebra(alg, omega, integral, check=False).validate) == expected
