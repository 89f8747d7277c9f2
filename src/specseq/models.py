"""Model second pages E2^{p,q} = H^p(L, Omega^q) with cup product.

Builders produce polarized bigraded algebras for torus models (exterior
algebras on xi_i in (0,1) and eta_i in (1,0) with omega = sum xi_i eta_i),
projective-space models (truncated polynomial on a (1,1) class), and Koszul
tensor products of models. Nothing here computes sheaf cohomology: the
builders only assemble the model tables.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .algebra import (
    BigradedAlgebra,
    Derivation,
    _accumulate,
    _coeffs_json,
    _Reader,
    derivation_extend,
)
from .errors import InvariantError, ParseError
from .lefschetz import PolarizedAlgebra
from .linalg import coefficient, scalar

# caps on the n of a built model, checked before anything is built: torus n
# has 4^n basis elements and 9^n products, pn n has about n^2 / 2 products
MAX_TORUS_N, MAX_PN_N = 6, 200
# cap on the n of a model read from JSON, checked before anything is built:
# the hard Lefschetz check and the Hodge diamond loop over n and n^2
MAX_MODEL_N = 1000


class HodgeDiamond:
    """Dimension table h^{p,q}, 0 <= p,q <= n, with the classical symmetries."""

    def __init__(self, n: int, h: dict[tuple[int, int], int]):
        self.n, self.h = n, h
        for (p, q), v in h.items():
            if not (0 <= p <= n and 0 <= q <= n):
                raise InvariantError(f"Hodge index {(p, q)} outside the {n}x{n} square")
            if v < 0:
                raise InvariantError(f"negative Hodge number at {(p, q)}")
        if self.at(0, 0) != 1 or self.at(n, n) != 1:
            raise InvariantError("corner Hodge numbers must be 1")
        # both symmetries are involutions, so a failing unstored (zero) cell
        # mirrors a stored one: the least failing stored or mirror cell is the
        # first failing cell of the whole square in row-major order
        at = self.at
        mirrored = {c for p, q in h for c in ((p, q), (q, p), (n - p, n - q))}
        for p, q in sorted(mirrored):
            if at(p, q) != at(q, p):
                raise InvariantError(
                    f"Hodge symmetry fails at {(p, q)}", witness=[p, q]
                )
            if at(p, q) != at(n - p, n - q):
                raise InvariantError(
                    f"Serre symmetry fails at {(p, q)}", witness=[p, q]
                )

    def at(self, p: int, q: int) -> int:
        return self.h.get((p, q), 0)


class VarietyModel:
    """A named polarized algebra plus generator roles.

    roles lists the basis names modelling H^0(Omega^1) (cell (0,1)) and
    H^1(O) (cell (1,0)); when none are given they are read off those cells.
    """

    def __init__(self, name: str, pa: PolarizedAlgebra, roles: dict[str, list[str]] | None = None):
        self.name, self.pa = name, pa
        if not roles:
            alg = pa.A
            roles = {
                "h0_omega1": [alg.basis[i][0] for i in alg.cell_indices(0, 1)],
                "h1_O": [alg.basis[i][0] for i in alg.cell_indices(1, 0)],
            }
        self.roles = roles
        self.diamond()

    @property
    def n(self) -> int:
        return self.pa.n

    def diamond(self) -> HodgeDiamond:
        alg = self.pa.A
        h = {}
        for (p, q), idx in alg.cells.items():
            if not (0 <= p <= self.n and 0 <= q <= self.n):
                raise InvariantError(f"model cell {(p, q)} outside the Hodge square")
            h[(p, q)] = len(idx)
        return HodgeDiamond(self.n, h)

    def to_json(self) -> dict:
        out = self.pa.A.to_json()
        out["name"] = self.name
        out["omega"] = _coeffs_json(self.pa.omega)
        out["integral"] = _coeffs_json(self.pa.integral)
        out["roles"] = {k: list(v) for k, v in sorted(self.roles.items())}
        return out

    @staticmethod
    def from_json(data: dict) -> "VarietyModel":
        """The model of a JSON object; one _Reader serves its algebra, omega and integral."""
        if not isinstance(data, dict):
            raise ParseError("model must be an object", location="model")
        n = data.get("n")
        if type(n) is int and n > MAX_MODEL_N:
            raise ParseError(f"top half-degree {n} exceeds {MAX_MODEL_N}", location="n")
        read = _Reader()
        alg = BigradedAlgebra.from_json(data, read)
        name = data.get("name")
        if not isinstance(name, str) or not name:
            raise ParseError("model needs a name", location="name")
        omega_raw = data.get("omega")
        if not isinstance(omega_raw, dict):
            raise ParseError("model needs an omega element", location="omega")
        omega = read.coeffs(omega_raw, "omega", "omega")
        integral_raw = data.get("integral")
        if not isinstance(integral_raw, dict):
            raise ParseError("model needs an integral", location="integral")
        integral = read.coeffs(integral_raw, "integral", "integral")
        pa = PolarizedAlgebra(alg, omega, integral)
        roles_raw = data.get("roles", {})
        if not isinstance(roles_raw, dict):
            raise ParseError("roles must be an object", location="roles")
        if not all(isinstance(v, list) for v in roles_raw.values()):
            raise ParseError("each role must be a list of basis names", location="roles")
        roles = {str(k): [str(x) for x in v] for k, v in roles_raw.items()}
        for names in roles.values():
            for x in names:
                _name_index(alg, x, "roles")
        return VarietyModel(name, pa, roles)


def _exterior_algebra(n: int, gens: list[tuple[str, int, int]]) -> BigradedAlgebra:
    """Exterior algebra on odd-degree generators, basis ordered by (size, subset).

    e_S e_T = (-1)^{inv(S, T)} e_{S u T} for disjoint subsets S and T, where
    inv(S, T) counts the pairs a in S, b in T with a > b, and e_S e_T = 0
    otherwise; only the 3^g disjoint pairs are visited. The result is
    checked by this sign rule, so it is built with check=False and marked
    checked:
      - associativity: inv(S u T, U) = inv(S, U) + inv(T, U), so both
        (e_S e_T) e_U and e_S (e_T e_U) carry the sign of inv(S, T) +
        inv(S, U) + inv(T, U), and both vanish unless S, T, U are disjoint;
      - graded commutativity: inv(S, T) + inv(T, S) = |S||T| for disjoint S
        and T, and e_S has total degree = |S| mod 2, each generator being odd;
      - the unit law: inv({}, T) = inv(T, {}) = 0;
      - homogeneity: the bidegree of e_{S u T} is the sum of those of S, T.
    """
    for (nm, p, q) in gens:
        if (p + q) % 2 == 0:
            raise InvariantError(f"exterior generator {nm} must have odd total degree")
    g = len(gens)
    masks = sorted(range(1 << g), key=lambda m: (m.bit_count(), _bits(m)))
    index = {m: t for t, m in enumerate(masks)}
    basis = []
    for mask in masks:
        sub = _bits(mask)
        if not sub:
            basis.append(("1", 0, 0))
            continue
        nm = "".join(gens[i][0] for i in sub)
        p = sum(gens[i][1] for i in sub)
        q = sum(gens[i][2] for i in sub)
        basis.append((nm, p, q))
    full = (1 << g) - 1
    # bit a of above[t] is the parity of the b in t with b < a, so the
    # parity of inv(S, T) is that of the bits of S in above[T]
    above = [0] * (1 << g)
    for t in range(1, 1 << g):
        low = t & -t
        above[t] = above[t ^ low] ^ (full & -(low << 1))
    products: dict[tuple[int, int], dict[int, int]] = {}
    for s in masks:
        si, rest = index[s], full ^ s
        t = rest
        while True:
            sign = -1 if (s & above[t]).bit_count() % 2 else 1
            products[(si, index[t])] = {index[s | t]: sign}
            if not t:
                break
            t = (t - 1) & rest
    alg = BigradedAlgebra(n, basis, index[0], products, check=False)
    alg.checked = True
    return alg


def _bits(mask: int) -> tuple[int, ...]:
    """The set bits of mask, ascending."""
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


@functools.lru_cache(maxsize=None)
def _torus_model(n: int) -> VarietyModel:
    if n < 1:
        raise InvariantError("torus model needs n >= 1", witness={"n": n})
    if n > MAX_TORUS_N:
        raise InvariantError(f"torus model needs n <= {MAX_TORUS_N}", witness={"n": n})
    gens = [(f"xi{i}", 0, 1) for i in range(1, n + 1)]
    gens += [(f"eta{i}", 1, 0) for i in range(1, n + 1)]
    alg = _exterior_algebra(n, gens)
    omega: dict[int, int] = {}
    for i in range(1, n + 1):
        _accumulate(omega, 1, alg.products.get((alg.index(f"xi{i}"), alg.index(f"eta{i}")), {}))
    top_name = "".join(f"xi{i}" for i in range(1, n + 1)) + "".join(
        f"eta{i}" for i in range(1, n + 1)
    )
    # the interleaved volume xi1 eta1 ... xin etan integrates to 1
    sign = 1 if (n * (n - 1) // 2) % 2 == 0 else -1
    integral = {alg.index(top_name): sign}
    pa = PolarizedAlgebra(alg, omega, integral)
    return VarietyModel(f"torus{n}", pa)


@functools.lru_cache(maxsize=None)
def _projective_space_model(n: int) -> VarietyModel:
    if n < 1:
        raise InvariantError("projective-space model needs n >= 1", witness={"n": n})
    if n > MAX_PN_N:
        raise InvariantError(f"projective-space model needs n <= {MAX_PN_N}", witness={"n": n})
    basis = [("1", 0, 0), ("w", 1, 1)]
    basis += [(f"w^{k}", k, k) for k in range(2, n + 1)]
    products: dict[tuple[int, int], dict[int, int]] = {}
    for a in range(n + 1):
        for b in range(n + 1):
            if a + b <= n:
                products[(a, b)] = {a + b: 1}
    alg = BigradedAlgebra(n, basis, 0, products)
    pa = PolarizedAlgebra(alg, {alg.index("w"): 1}, {n: 1})
    return VarietyModel(f"pn{n}", pa)


def tensor_model(m1: VarietyModel, m2: VarietyModel) -> VarietyModel:
    """Graded tensor product with Koszul signs and Kuenneth bigrading.

    The basis element e_i | e_j has index i * dim2 + j, and
    (e_i | e_j)(e_k | e_l) = (-1)^{|j||k|} e_i e_k | e_j e_l, so the table is
    built from the pairs of the factors' nonzero products. omega is
    omega1 | 1 + 1 | omega2 and the integral is integral1 | integral2.

    When both factors have passed validation, so does the product, which is
    therefore built with check=False and marked checked:
      - associativity, graded commutativity, the unit law and homogeneity
        hold on pure tensors by the Koszul sign rule, given them on each
        factor: both ways of bracketing a triple carry the sign of
        |j||k| + |j||m| + |l||m| for the pure tensors i|j, k|l, m|o, and
        swapping two pure tensors costs (-1)^{(|i|+|j|)(|k|+|l|)};
      - hard Lefschetz: omega is even, so L = L1 | 1 + 1 | L2, and with the
        weight operator acting by k - n_i on degree k of each factor, each
        factor is an sl2-module (that is hard Lefschetz for L_i). The tensor
        product of sl2-modules is one, with L as raising operator and
        weight k - n on degree k, so L^i : H^{n-i} -> H^{n+i} is bijective
        (Griffiths & Harris, Ch. 0 Sec. 7);
      - Poincare duality: the integral lives on the top cell, and the Gram of
        (p, q) x (n-p, n-q) is block diagonal over the Kuenneth splittings
        (p1 + p2, q1 + q2), each block +- the Kronecker product of the
        factors' Grams on (p1, q1) and (p2, q2), so it is nondegenerate;
        by Kuenneth and the factors' duality the complementary cells have
        equal dimensions.
    Otherwise the product runs the full check.
    """
    a1, a2 = m1.pa.A, m2.pa.A
    n = a1.n + a2.n
    dim2 = a2.dim()
    basis = [
        (f"{n1}|{n2}", p1 + p2, q1 + q2)
        for (n1, p1, q1) in a1.basis
        for (n2, p2, q2) in a2.basis
    ]
    odd1 = [a1.total_degree_of(i) % 2 for i in range(a1.dim())]
    odd2 = [a2.total_degree_of(j) % 2 for j in range(dim2)]
    products: dict[tuple[int, int], dict[int, int | Fraction]] = {}
    for (i1, j1), left in a1.products.items():
        for (i2, j2), right in a2.products.items():
            sign = -1 if odd2[i2] and odd1[j1] else 1
            products[(i1 * dim2 + i2, j1 * dim2 + j2)] = {
                k1 * dim2 + k2: sign * c1 * c2
                for k1, c1 in left.items()
                for k2, c2 in right.items()
            }
    checked = m1.pa.checked and m2.pa.checked
    alg = BigradedAlgebra(n, basis, a1.unit * dim2 + a2.unit, products, check=not checked)
    omega = {i * dim2 + a2.unit: c for i, c in m1.pa.omega.items()}
    omega.update((a1.unit * dim2 + j, c) for j, c in m2.pa.omega.items())
    integral = {}
    for i, c1 in m1.pa.integral.items():
        for j, c2 in m2.pa.integral.items():
            integral[i * dim2 + j] = c1 * c2
    pa = PolarizedAlgebra(alg, omega, integral, check=not checked)
    # passed by construction, or by the full check just run
    alg.checked = pa.checked = True
    return VarietyModel(f"{m1.name}x{m2.name}", pa)


def build_model(kind: str, n: int | None = None,
                a: VarietyModel | None = None, b: VarietyModel | None = None) -> VarietyModel:
    """torus(n), pn(n), or product(a, b)."""
    if kind == "torus":
        if n is None:
            raise InvariantError("torus model needs n")
        return _torus_model(n)
    if kind == "pn":
        if n is None:
            raise InvariantError("projective-space model needs n")
        return _projective_space_model(n)
    if kind == "product":
        if a is None or b is None:
            raise InvariantError("product model needs both factors")
        return tensor_model(a, b)
    raise InvariantError(f"unknown model kind {kind!r}")


def lagrangian_e2_table(model: VarietyModel) -> dict[tuple[int, int], int]:
    """Bigraded dimension table of the model's algebra."""
    return {
        (p, q): len(idx) for (p, q), idx in sorted(model.pa.A.cells.items())
    }


class ObstructionDatum:
    """Images of the (0,1)-generators plus a rational scale.

    alpha maps basis indices of cell (0,1) to coefficient maps of elements
    of cell (2,0), stored with their coefficients as exact rationals, ints
    where integral, and without zero entries; the induced bidegree-(2,-1)
    derivation is the Leibniz extension of scale * alpha on those
    generators and zero on the (1,0) generators.
    """

    def __init__(
        self,
        model: VarietyModel,
        alpha: dict[int, dict[int, int | Fraction]],
        scale: int | Fraction = 1,
    ):
        self.model = model
        self.scale = _scale(scale)
        alg = model.pa.A
        gen01 = set(alg.cell_indices(0, 1))
        self.alpha = {
            i: {k: coefficient(c) for k, c in img.items() if c} for i, img in alpha.items()
        }
        for i, img in self.alpha.items():
            if i not in gen01:
                raise InvariantError(
                    f"alpha keyed by {alg.basis[i][0]}, which is not a (0,1) generator"
                )
            for k in img:
                if alg.bidegree_of(k) != (2, 0):
                    raise InvariantError(
                        f"alpha image of {alg.basis[i][0]} must lie in cell (2, 0)",
                        witness=alg.basis[k][0],
                    )

    def is_zero(self) -> bool:
        return self.scale == 0 or not any(self.alpha.values())

    def to_json(self) -> dict:
        alg = self.model.pa.A
        return {
            "scale": str(self.scale),
            "images": {
                alg.basis[i][0]: {
                    alg.basis[k][0]: str(c) for k, c in sorted(v.items())
                }
                for i, v in sorted(self.alpha.items())
            },
        }

    @staticmethod
    def from_json(model: VarietyModel, data: dict) -> "ObstructionDatum":
        alg = model.pa.A
        if not isinstance(data, dict):
            raise ParseError("datum must be an object", location="datum")
        scale = _scale(data.get("scale", "1"))
        images_raw = data.get("images", {})
        if not isinstance(images_raw, dict):
            raise ParseError("images must be an object", location="images")
        alpha = {}
        for gname, tab in images_raw.items():
            if not isinstance(tab, dict):
                raise ParseError(f"image of {gname!r} must be an object", location="images")
            where = f"images.{gname}"
            i = _name_index(alg, gname, where)
            keys = {k: _name_index(alg, str(k), f"{where}.{k}") for k in tab}
            try:
                coeffs = {keys[k]: scalar(v) for k, v in tab.items()}
            except (TypeError, ValueError, ParseError) as exc:
                raise ParseError(f"bad coefficients for {gname!r}", location="images") from exc
            alpha[i] = coeffs
        return ObstructionDatum(model, alpha, scale)


def _scale(value) -> int | Fraction:
    """A datum's scale as an exact rational; a bad literal is reported at "scale"."""
    try:
        return coefficient(value)
    except ParseError as exc:
        raise ParseError("bad scale", location="scale") from exc


def _name_index(alg: BigradedAlgebra, name: str, location: str) -> int:
    """alg.index(name), with an unknown name reported at the given input key."""
    try:
        return alg.index(name)
    except InvariantError as exc:
        raise ParseError(str(exc), location=location) from exc


def d2_from_alpha(od: ObstructionDatum) -> Derivation:
    """The bidegree-(2,-1) derivation induced by an obstruction datum.

    Zero data yield the zero derivation on any model; nonzero data require
    the model algebra to be generated in total degree 1.
    """
    alg = od.model.pa.A
    if od.is_zero():
        return Derivation(alg, (2, -1), [{}] * alg.dim(), check=True)
    images: dict[int, dict[int, int | Fraction]] = {}
    for i in range(alg.dim()):
        if alg.total_degree_of(i) != 1:
            continue
        if alg.bidegree_of(i) == (0, 1):
            images[i] = {k: od.scale * c for k, c in od.alpha.get(i, {}).items()}
        else:
            images[i] = {}
    return derivation_extend(alg, (2, -1), images)


def canonical_power_datum(model: VarietyModel, s: int = 1, t: int = 1) -> ObstructionDatum:
    """Datum of a power K_L^{s/t} of the canonical class on a trivial-canonical model.

    The obstruction class vanishes, so alpha = 0 at any scale s/t.
    """
    if t == 0:
        raise InvariantError("denominator of the power must be nonzero")
    return ObstructionDatum(model, {}, Fraction(s, t))


def ext_dimensions(model: VarietyModel) -> list[int]:
    """dim Ext^k = sum over p+q = k of the E2 cell dimensions, k = 0..2n.

    The sum is the Ext dimension because the sequence degenerates at E2,
    which is the paper's theorem.
    """
    n = model.n
    out = [0] * (2 * n + 1)
    for (p, q), idx in model.pa.A.cells.items():
        out[p + q] += len(idx)
    return out
