"""Shared fixtures: frozen micro-examples and cached model builders."""

import importlib.util
import random
import sys
from pathlib import Path

import pytest

from oracles import map_product
from specseq import CochainComplex, FilteredComplex, Filtration, build_model
from specseq.linalg import Matrix, Subspace


def pytest_terminal_summary(terminalreporter):
    # acceptance criteria report one line each, independent of capture mode
    mod = sys.modules.get("test_acceptance") or sys.modules.get("tests.test_acceptance")
    lines = getattr(mod, "REPORT_LINES", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


def acyclic_two_term() -> FilteredComplex:
    """K = [Q -> Q] with the identity differential and a width-2 filtration.

    F^0 = K, F^1 = F^2 = (0 -> Q), F^3 = 0. The only page cells are (0,0)
    and (2,-1); d_2 between them is an isomorphism and E_3 = 0.
    """
    cx = CochainComplex(0, 1, {0: 1, 1: 1}, {0: Matrix.from_rows([[1]])})
    levels = {
        0: {0: Subspace.full(1), 1: Subspace.full(1)},
        1: {0: Subspace.zero(1)},
        2: {},
        3: {1: Subspace.zero(1)},
    }
    return FilteredComplex(cx, Filtration.from_sparse(cx, levels))


def with_trivial_filtration(cx: CochainComplex) -> FilteredComplex:
    """cx with F^0 = K and F^1 = 0: one graded piece, the whole complex."""
    table = {}
    for n in cx.degrees():
        table[(0, n)] = Subspace.full(cx.dim(n))
        table[(1, n)] = Subspace.zero(cx.dim(n))
    return FilteredComplex(cx, Filtration(0, 1, table))


def with_degree_filtration(cx: CochainComplex) -> FilteredComplex:
    """Filtration by degree: F^p K^n is everything for n >= p, else zero."""
    table = {}
    for p in range(cx.lo, cx.hi + 2):
        for n in cx.degrees():
            table[(p, n)] = Subspace.full(cx.dim(n)) if n >= p else Subspace.zero(cx.dim(n))
    return FilteredComplex(cx, Filtration(cx.lo, cx.hi + 1, table))


COMPLEXES = Path(__file__).resolve().parents[1] / "bench" / "complexes.py"


def unchecked_copy(pa, integral=None):
    """pa's algebra and polarization rebuilt with check=False, with pa's integral unless given."""
    from specseq import BigradedAlgebra, PolarizedAlgebra

    alg = BigradedAlgebra(pa.A.n, pa.A.basis, pa.A.unit, pa.A.products, check=False)
    return PolarizedAlgebra(alg, pa.omega, pa.integral if integral is None else integral, check=False)


# algebra elements as the package keeps them: coefficient maps {basis index:
# coefficient} with no zero entry, so two equal elements are equal maps


def el(alg, *names) -> dict:
    """The product of the named basis elements, in order; the unit for no names."""
    return mul(alg, *({alg.index(name): 1} for name in names))


def mul(alg, *factors) -> dict:
    """The product of coefficient maps, in order."""
    out = {alg.unit: 1}
    for x in factors:
        out = map_product(alg, out, x)
    return out


def add(*terms) -> dict:
    """The sum of coefficient maps, less zero entries."""
    out: dict = {}
    for x in terms:
        for i, c in x.items():
            out[i] = out.get(i, 0) + c
    return {i: c for i, c in out.items() if c}


def scaled(x, c) -> dict:
    """c * x for a coefficient map x, less zero entries."""
    return {i: c * a for i, a in x.items() if c * a}


def omega_power(pa, x, k: int = 1) -> dict:
    """omega^k x, by k products with pa.omega, not through the images of L that pa keeps."""
    for _ in range(k):
        x = map_product(pa.A, pa.omega, x)
    return dict(x)


def scaled_complex_and_key(*args) -> tuple[dict, dict]:
    """bench/complexes.py scaled_complex, loaded by path: JSON input and answer key."""
    spec = importlib.util.spec_from_file_location("bench_complexes", COMPLEXES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.scaled_complex(*args)


def scaled_complex(*args) -> dict:
    """bench/complexes.py scaled_complex, loaded by path; its JSON input only."""
    return scaled_complex_and_key(*args)[0]


@pytest.fixture
def acyclic_fk() -> FilteredComplex:
    return acyclic_two_term()


@pytest.fixture(scope="session")
def torus1():
    return build_model("torus", 1)


@pytest.fixture(scope="session")
def torus2():
    return build_model("torus", 2)


@pytest.fixture(scope="session")
def torus3():
    return build_model("torus", 3)


@pytest.fixture(scope="session")
def pn2():
    return build_model("pn", 2)


def seeded(tag: str, i: int) -> random.Random:
    return random.Random(f"{tag}:{i}")
