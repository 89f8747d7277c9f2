"""Bigraded graded-commutative algebras, graded derivations, and pairings.

Algebras are finite dimensional over Q, given by structure constants on a
named basis of bigraded cells (p, q) with 0 <= p+q <= 2n. The Koszul sign
lives on the total degree p+q. Derivations carry a fixed bidegree and are
verified against the Leibniz rule; derivation_extend produces the unique
Leibniz extension of generator images (or reports the relation that breaks
it). SSPairing couples three spectral sequences through a cochain-level
product and pushes the pairing from page to page with explicit
well-definedness checks.
"""

from __future__ import annotations

from fractions import Fraction
from types import MappingProxyType

from .errors import ContainmentError, InvariantError, ParseError
from .filtered import FilteredComplex
from .linalg import (
    Matrix,
    Q0,
    coefficient,
    json_int,
    scalar_str,
    vec,
)
from .spectral import SpectralSequence


class Element:
    """Sparse algebra element: {basis index: coefficient}.

    Coefficients are exact rationals, kept as ints while they are integral.
    """

    __slots__ = ("alg", "coeffs")

    def __init__(self, alg: "BigradedAlgebra", coeffs: dict[int, int | Fraction]):
        self.alg = alg
        self.coeffs = {i: c for i, c in coeffs.items() if c != 0}

    def is_zero(self) -> bool:
        return not self.coeffs

    def bidegree(self) -> tuple[int, int] | None:
        """Common (p, q) of the support, None for 0 or inhomogeneous elements."""
        degs = {self.alg.bidegree_of(i) for i in self.coeffs}
        if len(degs) != 1:
            return None
        return degs.pop()

    def __add__(self, other: "Element") -> "Element":
        out = dict(self.coeffs)
        for i, c in other.coeffs.items():
            out[i] = out.get(i, 0) + c
        return Element(self.alg, out)

    def __sub__(self, other: "Element") -> "Element":
        out = dict(self.coeffs)
        for i, c in other.coeffs.items():
            out[i] = out.get(i, 0) - c
        return Element(self.alg, out)

    def __neg__(self) -> "Element":
        return Element(self.alg, {i: -c for i, c in self.coeffs.items()})

    def scaled(self, c) -> "Element":
        c = coefficient(c)
        return Element(self.alg, {i: c * a for i, a in self.coeffs.items()})

    def __rmul__(self, c) -> "Element":
        if isinstance(c, Element):
            return NotImplemented
        return self.scaled(c)

    def __mul__(self, other):
        if not isinstance(other, Element):
            return self.scaled(other)
        out: dict[int, int | Fraction] = {}
        for i, a in self.coeffs.items():
            for j, b in other.coeffs.items():
                _accumulate(out, a * b, self.alg.product_indices(i, j))
        return Element(self.alg, out)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Element)
            and self.alg is other.alg
            and self.coeffs == other.coeffs
        )

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i in sorted(self.coeffs):
            c = self.coeffs[i]
            name = self.alg.basis[i][0]
            parts.append(name if c == 1 else f"({scalar_str(c)})*{name}")
        return " + ".join(parts)

    def to_json(self) -> dict[str, str]:
        return {str(i): scalar_str(c) for i, c in sorted(self.coeffs.items())}


class BigradedAlgebra:
    """Finite bigraded graded-commutative unital algebra over Q.

    basis: list of (name, p, q); products: sparse structure constants
    (i, j) -> {k: coefficient}, absent pairs multiply to zero. Integral
    structure constants are stored as ints. checked records whether
    validate has passed, which check=True runs at construction.
    """

    def __init__(
        self,
        n: int,
        basis: list[tuple[str, int, int]],
        unit: int,
        products: dict[tuple[int, int], dict[int, Fraction]],
        check: bool = True,
    ):
        self.n = n
        self.basis = [(str(nm), int(p), int(q)) for (nm, p, q) in basis]
        self.unit = unit
        self.products = {
            ij: {k: coefficient(c) for k, c in tab.items() if c != 0}
            for ij, tab in products.items()
        }
        self.products = {ij: tab for ij, tab in self.products.items() if tab}
        self._by_name: dict[str, int] = {}
        for i, (nm, _, _) in enumerate(self.basis):
            if nm in self._by_name:
                raise InvariantError("basis names must be distinct", witness=nm)
            self._by_name[nm] = i
        self.cells: dict[tuple[int, int], list[int]] = {}
        for i, (nm, p, q) in enumerate(self.basis):
            if not (0 <= p + q <= 2 * n):
                raise InvariantError(
                    f"basis element {nm} has total degree outside [0, {2 * n}]", witness=nm
                )
            self.cells.setdefault((p, q), []).append(i)
        self.checked = False
        if check:
            self.validate()

    # -- structure access

    def dim(self) -> int:
        return len(self.basis)

    def bidegree_of(self, i: int) -> tuple[int, int]:
        _, p, q = self.basis[i]
        return (p, q)

    def total_degree_of(self, i: int) -> int:
        _, p, q = self.basis[i]
        return p + q

    def cell_indices(self, p: int, q: int) -> list[int]:
        return self.cells.get((p, q), [])

    def cell_dim(self, p: int, q: int) -> int:
        return len(self.cell_indices(p, q))

    def degree_indices(self, m: int) -> list[int]:
        """Basis indices of total degree m, in cell-sorted order."""
        out = []
        for (p, q) in sorted(self.cells):
            if p + q == m:
                out.extend(self.cells[(p, q)])
        return out

    def top_degree(self) -> int:
        return max((p + q for (p, q) in self.cells), default=0)

    def product_indices(self, i: int, j: int) -> dict[int, Fraction]:
        return self.products.get((i, j), {})

    def index(self, name: str) -> int:
        if name not in self._by_name:
            raise InvariantError(f"no basis element named {name!r}")
        return self._by_name[name]

    def el(self, name: str) -> Element:
        return Element(self, {self.index(name): 1})

    def basis_element(self, i: int) -> Element:
        return Element(self, {i: 1})

    def zero(self) -> Element:
        return Element(self, {})

    def one(self) -> Element:
        return Element(self, {self.unit: 1})

    def from_coeffs(self, coeffs: dict[int, int | Fraction]) -> Element:
        return Element(self, {i: coefficient(c) for i, c in coeffs.items()})

    def element_from_cell(self, p: int, q: int, coords) -> Element:
        """Element with the given coordinates in the cell (p, q) basis."""
        idx = self.cell_indices(p, q)
        coords = [coefficient(c) for c in coords]
        if len(coords) != len(idx):
            raise InvariantError(f"cell {(p, q)} has dimension {len(idx)}, got {len(coords)}")
        return Element(self, dict(zip(idx, coords)))

    def coordinates(self, x: Element, idx: list[int]) -> tuple[Fraction, ...]:
        """Coordinates of x in the basis elements idx; errors if x has support elsewhere."""
        pos = {k: t for t, k in enumerate(idx)}
        out = [Q0] * len(idx)
        for i, c in x.coeffs.items():
            if i not in pos:
                raise InvariantError(
                    f"element has support outside the expected basis: {self.basis[i][0]}"
                )
            out[pos[i]] = c
        return tuple(out)

    def cell_vector(self, x: Element, p: int, q: int) -> tuple[Fraction, ...]:
        """Coordinates of x in the cell (p, q) basis; errors if x lies elsewhere."""
        return self.coordinates(x, self.cell_indices(p, q))

    # -- validation

    def _factor_index(self) -> tuple[dict[int, list[int]], dict[int, list[int]]]:
        """(right, left): right[a] lists the b and left[b] the a with (a, b) in products."""
        right: dict[int, list[int]] = {}
        left: dict[int, list[int]] = {}
        for (a, b) in self.products:
            right.setdefault(a, []).append(b)
            left.setdefault(b, []).append(a)
        return right, left

    def validate(self):
        """Check homogeneity, the unit law, graded commutativity, associativity.

        Works on the structure constants alone and checks each distinct fact
        once. Only the cases whose products can be nonzero are visited:
        commutativity on the pairs in products, associativity on the triples
        (i, j, k) with some l in e_i e_j and (l, k) in products, or some m in
        e_j e_k and (i, m) in products; both sides vanish on every other pair
        and triple. Once the unit law holds, a pair or triple containing the
        unit holds too, and is skipped. The pair (j, i) states the equation
        of (i, j), and once graded commutativity holds the triple (k, j, i)
        states that of (i, j, k), so only i <= j and i <= k are checked.
        Failing cases come in such mirror pairs, the lesser one kept, so on
        a failure the lexicographically least failing kept case is the
        witness of the check over all pairs and triples in order. Sets
        checked on success.
        """
        un, up, uq = self.basis[self.unit]
        if (up, uq) != (0, 0):
            raise InvariantError(f"unit {un!r} must sit in cell (0, 0)", witness=un)
        for (i, j), tab in self.products.items():
            _, pi, qi = self.basis[i]
            _, pj, qj = self.basis[j]
            for k in tab:
                _, pk, qk = self.basis[k]
                if (pk, qk) != (pi + pj, qi + qj):
                    raise InvariantError(
                        "product is not bidegree-homogeneous",
                        witness=[self.basis[i][0], self.basis[j][0], self.basis[k][0]],
                    )
        prods, u = self.products, self.unit
        for i in range(self.dim()):
            if prods.get((u, i)) != {i: 1} or prods.get((i, u)) != {i: 1}:
                raise InvariantError("unit law fails", witness=self.basis[i][0])

        def anticommutes(ij: tuple[int, int]) -> bool:
            i, j = ij
            sign = -1 if (self.total_degree_of(i) * self.total_degree_of(j)) % 2 else 1
            return prods.get((i, j), {}) == {k: sign * c for k, c in prods.get((j, i), {}).items()}

        pairs = {(min(ij), max(ij)) for ij in prods if u not in ij}
        if not all(map(anticommutes, pairs)):
            i, j = min(ij for ij in pairs if not anticommutes(ij))
            raise InvariantError(
                "graded commutativity fails", witness=[self.basis[i][0], self.basis[j][0]]
            )
        right, left = self._factor_index()
        triples = set()
        for (a, b), tab in prods.items():
            if u in (a, b):
                continue
            for c in tab:
                triples.update((a, b, k) for k in right.get(c, ()) if a <= k and k != u)
                triples.update((i, a, b) for i in left.get(c, ()) if i <= b and i != u)
        if not all(self.associates(*ijk) for ijk in triples):
            i, j, k = min(ijk for ijk in triples if not self.associates(*ijk))
            raise InvariantError(
                "associativity fails",
                witness=[self.basis[i][0], self.basis[j][0], self.basis[k][0]],
            )
        self.checked = True

    def associates(self, i: int, j: int, k: int) -> bool:
        """True iff (e_i e_j) e_k = e_i (e_j e_k), from the structure constants."""
        prods = self.products
        diff: dict[int, Fraction] = {}
        for l, c in prods.get((i, j), {}).items():
            _accumulate(diff, c, prods.get((l, k), {}))
        for m, c in prods.get((j, k), {}).items():
            _accumulate(diff, -c, prods.get((i, m), {}))
        return not any(diff.values())

    # -- serialization

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "basis": [
                {"name": nm, "p": p, "q": q} for (nm, p, q) in self.basis
            ],
            "unit": self.unit,
            "products": {
                f"{i},{j}": {str(k): scalar_str(c) for k, c in sorted(tab.items())}
                for (i, j), tab in sorted(self.products.items())
            },
        }

    @staticmethod
    def from_json(data: dict, check: bool = True) -> "BigradedAlgebra":
        try:
            n = json_int(data["n"])
        except (KeyError, TypeError) as exc:
            raise ParseError("algebra needs an integer top half-degree n", location="n") from exc
        basis_raw = data.get("basis")
        if not isinstance(basis_raw, list) or not basis_raw:
            raise ParseError("basis must be a non-empty list", location="basis")
        basis = []
        for t, entry in enumerate(basis_raw):
            try:
                basis.append((str(entry["name"]), json_int(entry["p"]), json_int(entry["q"])))
            except (KeyError, TypeError) as exc:
                raise ParseError(f"bad basis entry at index {t}", location="basis") from exc
        unit = data.get("unit")
        if isinstance(unit, bool) or not isinstance(unit, int) or not (0 <= unit < len(basis)):
            raise ParseError("unit must be a basis index", location="unit")
        products: dict[tuple[int, int], dict[int, Fraction]] = {}
        prod_raw = data.get("products", {})
        if not isinstance(prod_raw, dict):
            raise ParseError("products must be an object", location="products")
        for key, tab in prod_raw.items():
            what = f"product {key!r}"
            parts = key.split(",")
            if len(parts) != 2:
                raise ParseError(f"bad product key {key!r}", location="products")
            if not isinstance(tab, dict):
                raise ParseError(f"{what} must be an object", location="products")
            i, j = (_basis_index(s, len(basis), what, "products") for s in parts)
            products[(i, j)] = coeffs_from_json(tab, len(basis), what, "products")
        return BigradedAlgebra(n, basis, unit, products, check=check)


class Derivation:
    """Linear map of fixed bidegree given on every basis element.

    values[i] is the image of basis element i; values is a tuple of private
    copies with read-only coefficients, fixed at construction, so a checked
    derivation stays checked. The Leibniz rule
    D(xy) = D(x)y + (-1)^{|D||x|} x D(y) (signs on total degrees) is verified
    on all basis pairs unless check=False; leibniz_checked records whether it was.
    """

    def __init__(
        self,
        alg: BigradedAlgebra,
        bidegree: tuple[int, int],
        values: list[Element],
        check: bool = True,
    ):
        if len(values) != alg.dim():
            raise InvariantError("derivation needs one image per basis element")
        self.alg = alg
        self.bidegree = (int(bidegree[0]), int(bidegree[1]))
        self.values = tuple(_frozen(v) for v in values)
        self.leibniz_checked = check
        a, b = self.bidegree
        for i, v in enumerate(values):
            for k in v.coeffs:
                _, pk, qk = alg.basis[k]
                _, pi, qi = alg.basis[i]
                if (pk, qk) != (pi + a, qi + b):
                    raise InvariantError(
                        f"image of {alg.basis[i][0]} is not homogeneous of bidegree shift {self.bidegree}",
                        witness=alg.basis[k][0],
                    )
        if check:
            ok, witness = verify_leibniz(alg, self)
            if not ok:
                raise InvariantError("Leibniz rule fails", witness=witness)

    def total_degree(self) -> int:
        return self.bidegree[0] + self.bidegree[1]

    def apply(self, x: Element) -> Element:
        out: dict[int, int | Fraction] = {}
        for i, c in x.coeffs.items():
            _accumulate(out, c, self.values[i].coeffs)
        return Element(self.alg, out)

    def __call__(self, x: Element) -> Element:
        return self.apply(x)

    def leibniz_violations(self, stop_at_first: bool = False) -> list[tuple[int, int]]:
        """Basis pairs (i, j) where D(e_i e_j) != D(e_i) e_j + sign e_i D(e_j), sorted.

        Visits only the pairs where a side can be nonzero: (i, j) in
        products, some l in D(e_i) with (l, j) in products, or some m in
        D(e_j) with (i, m) in products. On every other pair e_i e_j,
        D(e_i) e_j and e_i D(e_j) all vanish.
        """
        alg = self.alg
        prods = alg.products
        right, left = alg._factor_index()
        pairs = set(prods)
        for i, v in enumerate(self.values):
            for l in v.coeffs:
                pairs.update((i, j) for j in right.get(l, ()))
                pairs.update((h, i) for h in left.get(l, ()))
        sign_d = self.total_degree() % 2
        bad = []
        for (i, j) in sorted(pairs):
            s = -1 if (sign_d * alg.total_degree_of(i)) % 2 else 1
            diff: dict[int, Fraction] = {}
            for t, c in prods.get((i, j), {}).items():
                _accumulate(diff, c, self.values[t].coeffs)
            for l, c in self.values[i].coeffs.items():
                _accumulate(diff, -c, prods.get((l, j), {}))
            for m, c in self.values[j].coeffs.items():
                _accumulate(diff, -s * c, prods.get((i, m), {}))
            if any(diff.values()):
                bad.append((i, j))
                if stop_at_first:
                    return bad
        return bad

    def is_zero(self) -> bool:
        return all(v.is_zero() for v in self.values)

    def scaled(self, c) -> "Derivation":
        c = coefficient(c)
        return Derivation(
            self.alg, self.bidegree, [v.scaled(c) for v in self.values], check=False
        )

    def compose(self, other: "Derivation") -> "Derivation":
        """self after other, as a raw linear map (no Leibniz check)."""
        if self.alg is not other.alg:
            raise InvariantError("derivations live on different algebras")
        a = (self.bidegree[0] + other.bidegree[0], self.bidegree[1] + other.bidegree[1])
        vals = [self.apply(v) for v in other.values]
        return Derivation(self.alg, a, vals, check=False)

    def squares_to_zero(self) -> tuple[bool, str | None]:
        dd = self.compose(self)
        for i, v in enumerate(dd.values):
            if not v.is_zero():
                return False, self.alg.basis[i][0]
        return True, None

    def cell_matrix(self, p: int, q: int) -> Matrix:
        """Matrix of the restriction cell (p,q) -> cell (p+a, q+b)."""
        a, b = self.bidegree
        src = self.alg.cell_indices(p, q)
        cols = [
            self.alg.cell_vector(self.values[i], p + a, q + b) for i in src
        ]
        return Matrix.from_cols(cols, rows=self.alg.cell_dim(p + a, q + b))

    def cohomology_dims(self) -> dict[tuple[int, int], int]:
        """Cellwise dim ker/im of the derivation viewed as a page differential.

        Requires the composite with itself to vanish.
        """
        sq, witness = self.squares_to_zero()
        if not sq:
            raise InvariantError(
                "derivation does not square to zero", witness=witness
            )
        a, b = self.bidegree
        out = {}
        for (p, q), idx in self.alg.cells.items():
            dout = self.cell_matrix(p, q)
            din = self.cell_matrix(p - a, q - b)
            out[(p, q)] = (len(idx) - dout.rank()) - din.rank()
        return out

    def to_json(self) -> dict:
        return {
            "bidegree": list(self.bidegree),
            "values": {
                str(i): v.to_json() for i, v in enumerate(self.values) if not v.is_zero()
            },
        }

    @staticmethod
    def from_json(alg: BigradedAlgebra, data: dict, check: bool = True) -> "Derivation":
        bid_raw = data.get("bidegree")
        if not (
            isinstance(bid_raw, list)
            and len(bid_raw) == 2
            and all(isinstance(x, int) and not isinstance(x, bool) for x in bid_raw)
        ):
            raise ParseError("derivation needs a [a, b] bidegree", location="bidegree")
        values = [alg.zero() for _ in range(alg.dim())]
        vals_raw = data.get("values", {})
        if not isinstance(vals_raw, dict):
            raise ParseError("values must be an object", location="values")
        for key, tab in vals_raw.items():
            what = f"value of {key!r}"
            i = _basis_index(key, alg.dim(), "values", "values")
            if not isinstance(tab, dict):
                raise ParseError(f"{what} must be an object", location="values")
            values[i] = alg.from_coeffs(coeffs_from_json(tab, alg.dim(), what, "values"))
        return Derivation(alg, (int(bid_raw[0]), int(bid_raw[1])), values, check=check)


def _basis_index(key: str, dim: int, what: str, location: str) -> int:
    """A basis index read from a JSON key, checked to lie in [0, dim)."""
    try:
        i = int(key)
    except ValueError as exc:
        raise ParseError(f"bad basis index {key!r} in {what}", location=location) from exc
    if not 0 <= i < dim:
        raise ParseError(f"basis index {i} in {what} is outside [0, {dim})", location=location)
    return i


def coeffs_from_json(
    tab: dict, dim: int, what: str, location: str
) -> dict[int, int | Fraction]:
    """{basis index: rational} read from a JSON object, every index in [0, dim).

    Integral values come back as ints, as the algebra layer keeps them.
    """
    out = {}
    for key, value in tab.items():
        k = _basis_index(key, dim, what, location)
        try:
            out[k] = coefficient(value)
        except ParseError as exc:
            raise ParseError(f"bad coefficients in {what}", location=location) from exc
    return out


def _accumulate(acc: dict[int, int | Fraction], c: int | Fraction, tab) -> None:
    """acc += c * tab, for coefficient mappings {basis index: coefficient}."""
    for k, a in tab.items():
        acc[k] = acc[k] + c * a if k in acc else c * a


def _frozen(x: Element) -> Element:
    """A copy of x whose coefficient mapping is read-only."""
    out = Element(x.alg, x.coeffs)
    out.coeffs = MappingProxyType(out.coeffs)
    return out


def verify_leibniz(alg: BigradedAlgebra, d: Derivation) -> tuple[bool, list[str] | None]:
    """True iff Leibniz holds on all basis pairs, else a witness pair of names."""
    bad = d.leibniz_violations(stop_at_first=True)
    if not bad:
        return True, None
    i, j = bad[0]
    return False, [alg.basis[i][0], alg.basis[j][0]]


def derivation_extend(
    alg: BigradedAlgebra,
    bidegree: tuple[int, int],
    generator_images: dict[int, Element],
) -> Derivation:
    """Unique Leibniz extension of images of the total-degree-1 basis elements.

    Requires the algebra to be generated in total degree 1 (checked by the
    degreewise surjectivity of multiplication); errors with a witness relation
    when the images are inconsistent with the structure constants.
    """
    gens = [i for i in range(alg.dim()) if alg.total_degree_of(i) == 1]
    for g in gens:
        if g not in generator_images:
            raise InvariantError(
                f"missing image for degree-1 basis element {alg.basis[g][0]}"
            )
    a, b = int(bidegree[0]), int(bidegree[1])
    sign = -1 if (a + b) % 2 else 1
    values = [alg.zero() for _ in range(alg.dim())]
    # degree 0: the unit maps to 0; any other degree-0 element is ungenerated
    for i in alg.degree_indices(0):
        if i != alg.unit:
            raise InvariantError(
                f"degree-0 basis element {alg.basis[i][0]} is not generated in degree one"
            )
    for g in gens:
        img = generator_images[g]
        _, pg, qg = alg.basis[g]
        for k in img.coeffs:
            _, pk, qk = alg.basis[k]
            if (pk, qk) != (pg + a, qg + b):
                raise InvariantError(
                    f"image of {alg.basis[g][0]} has the wrong bidegree",
                    witness=alg.basis[k][0],
                )
        values[g] = img
    top = alg.top_degree()
    for m in range(2, top + 1):
        targets = alg.degree_indices(m)
        if not targets:
            continue
        lower = alg.degree_indices(m - 1)
        pos = {k: t for t, k in enumerate(targets)}
        pairs = [(g, y) for g in gens for y in lower]
        cols = []
        for (g, y) in pairs:
            col = [Q0] * len(targets)
            for k, c in alg.product_indices(g, y).items():
                col[pos[k]] = c
            cols.append(vec(col))
        mult = Matrix.from_cols(cols, rows=len(targets))
        sols = mult.solve_many(Matrix.identity(len(targets)).column_vectors())
        terms: dict[int, Element] = {}

        def image(combo) -> Element:
            """Leibniz image of the combination sum_t combo[t] * g_t y_t of pairs."""
            acc: dict[int, int | Fraction] = {}
            for t, c in enumerate(combo):
                if c == 0:
                    continue
                if t not in terms:
                    g, y = pairs[t]
                    terms[t] = values[g] * alg.basis_element(y) + (
                        alg.basis_element(g) * values[y]
                    ).scaled(sign)
                _accumulate(acc, coefficient(c), terms[t].coeffs)
            return Element(alg, acc)

        # relations: any kernel combination of products must map to zero
        for kv in mult.nullspace():
            if not image(kv).is_zero():
                rel = {
                    f"{alg.basis[g][0]}*{alg.basis[y][0]}": scalar_str(kv[t])
                    for t, (g, y) in enumerate(pairs)
                    if kv[t] != 0
                }
                raise InvariantError(
                    "generator images are inconsistent with a relation",
                    witness=rel,
                )
        for t, w in enumerate(targets):
            x = sols[t]
            if x is None:
                raise InvariantError(
                    f"basis element {alg.basis[w][0]} is not generated in degree one"
                )
            values[w] = image(x)
    return Derivation(alg, (a, b), values, check=True)


class ComplexPairing:
    """Cochain-level bilinear product mu: K' x K'' -> K of three filtered complexes.

    tensors[(m, n)] is a tuple of Matrices, one per basis vector of K'^m, each
    sending K''^n to K^{m+n}. Verifies the Leibniz rule against the three
    differentials and compatibility with the filtrations.
    """

    def __init__(
        self,
        fk1: FilteredComplex,
        fk2: FilteredComplex,
        fk3: FilteredComplex,
        tensors: dict[tuple[int, int], tuple[Matrix, ...]],
        check: bool = True,
    ):
        self.fk1 = fk1
        self.fk2 = fk2
        self.fk3 = fk3
        self.tensors = tensors
        if check:
            self.validate()

    def mu(self, m: int, x, n: int, y) -> tuple[Fraction, ...]:
        """Product of x in K'^m and y in K''^n, as a vector of K^{m+n}."""
        mats = self.tensors.get((m, n))
        out = [Q0] * self.fk3.cx.dim(m + n)
        if mats is None:
            return tuple(out)
        x = vec(x)
        y = vec(y)
        for i, c in enumerate(x):
            if c == 0:
                continue
            img = mats[i].apply(y)
            for k, v in enumerate(img):
                out[k] += c * v
        return tuple(out)

    def validate(self):
        cx1, cx2, cx3 = self.fk1.cx, self.fk2.cx, self.fk3.cx
        for (m, n), mats in self.tensors.items():
            if len(mats) != cx1.dim(m):
                raise InvariantError(f"tensor at {(m, n)} needs one matrix per K'^{m} basis vector")
            for mat in mats:
                if (mat.rows, mat.cols) != (cx3.dim(m + n), cx2.dim(n)):
                    raise InvariantError(f"tensor at {(m, n)} has the wrong shape")
        for m in cx1.degrees():
            xs = Matrix.identity(cx1.dim(m)).column_vectors()
            for n in cx2.degrees():
                d1, d2, d3 = cx1.diff(m), cx2.diff(n), cx3.diff(m + n)
                s = -1 if m % 2 else 1
                ys = Matrix.identity(cx2.dim(n)).column_vectors()
                for i, x in enumerate(xs):
                    for j, y in enumerate(ys):
                        lhs = d3.apply(self.mu(m, x, n, y))
                        t1 = self.mu(m + 1, d1.apply(x), n, y)
                        t2 = self.mu(m, x, n + 1, d2.apply(y))
                        rhs = tuple(u + s * v for u, v in zip(t1, t2))
                        if lhs != rhs:
                            raise InvariantError(
                                "pairing is not compatible with the differentials",
                                witness=[m, i, n, j],
                            )
        for m in cx1.degrees():
            for n in cx2.degrees():
                for p1 in range(self.fk1.p_lo, self.fk1.p_top):
                    for p2 in range(self.fk2.p_lo, self.fk2.p_top):
                        tgt = self.fk3.F(p1 + p2, m + n)
                        for x in self.fk1.F(p1, m).basis_rows:
                            for y in self.fk2.F(p2, n).basis_rows:
                                if not tgt.contains_vector(self.mu(m, x, n, y)):
                                    raise ContainmentError(
                                        "pairing is not compatible with the filtrations",
                                        witness=[p1, m, p2, n],
                                    )


class SSPairing:
    """Pairing of three spectral sequences induced by a cochain-level product.

    Page cells are subquotients of the original spaces, so the page-r pairing
    multiplies complement representatives through mu and re-expresses the
    result in the target cell. Containment checks make well-definedness
    explicit at every page.
    """

    def __init__(self, cp: ComplexPairing):
        self.cp = cp
        self.ss1 = SpectralSequence(cp.fk1)
        self.ss2 = SpectralSequence(cp.fk2)
        self.ss3 = SpectralSequence(cp.fk3)

    def pairing_at(
        self, r: int, c1: tuple[int, int], c2: tuple[int, int]
    ) -> list[Matrix]:
        """Structure tensors of cup_r on E'_r^{c1} x E''_r^{c2} -> E_r^{c1+c2}.

        Entry i is the matrix sending E''_r^{c2} coordinates to target cell
        coordinates after multiplying by the ith complement vector of E'_r^{c1}.
        Raises ContainmentError when the product is not well defined on cosets.
        """
        (p1, q1), (p2, q2) = c1, c2
        m, n = p1 + q1, p2 + q2
        src1 = self.ss1.page(r).cell(p1, q1)
        src2 = self.ss2.page(r).cell(p2, q2)
        tgt = self.ss3.page(r).cell(p1 + p2, q1 + q2)
        for z1 in src1.Z.basis_rows:
            for z2 in src2.Z.basis_rows:
                if not tgt.Z.contains_vector(self.cp.mu(m, z1, n, z2)):
                    raise ContainmentError(
                        f"cup of cycles escapes the target cycles at page {r}",
                        witness=[list(c1), list(c2)],
                    )
        for z1 in src1.Z.basis_rows:
            for b2 in src2.B.basis_rows:
                if not tgt.B.contains_vector(self.cp.mu(m, z1, n, b2)):
                    raise ContainmentError(
                        f"cup of a cycle and a boundary escapes the target boundaries at page {r}",
                        witness=[list(c1), list(c2)],
                    )
        for b1 in src1.B.basis_rows:
            for z2 in src2.Z.basis_rows:
                if not tgt.B.contains_vector(self.cp.mu(m, b1, n, z2)):
                    raise ContainmentError(
                        f"cup of a boundary and a cycle escapes the target boundaries at page {r}",
                        witness=[list(c1), list(c2)],
                    )
        out = []
        for w1 in src1.complement:
            cols = [
                tgt.coset_coords(self.cp.mu(m, w1, n, w2)) for w2 in src2.complement
            ]
            out.append(Matrix.from_cols(cols, rows=tgt.dim))
        return out

    def support_pairs(self, r: int):
        pg1 = self.ss1.page(r)
        pg2 = self.ss2.page(r)
        for c1 in pg1.support:
            if pg1.cell(*c1).dim == 0:
                continue
            for c2 in pg2.support:
                if pg2.cell(*c2).dim == 0:
                    continue
                yield c1, c2

    def verify_page_leibniz(self, r: int) -> tuple[bool, list | None]:
        """d_r(x cup y) = d_r(x) cup y + (-1)^{m} x cup d_r(y) in page coordinates."""
        pg1, pg2, pg3 = self.ss1.page(r), self.ss2.page(r), self.ss3.page(r)
        for c1, c2 in self.support_pairs(r):
            (p1, q1), (p2, q2) = c1, c2
            m = p1 + q1
            s = -1 if m % 2 else 1
            cell1 = pg1.cell(*c1)
            cell2 = pg2.cell(*c2)
            cup = self.pairing_at(r, c1, c2)
            cup_dx = self.pairing_at(r, (p1 + r, q1 - r + 1), c2)
            cup_xdy = self.pairing_at(r, c1, (p2 + r, q2 - r + 1))
            d1 = pg1.diff(*c1)
            d2 = pg2.diff(*c2)
            d3 = pg3.diff(p1 + p2, q1 + q2)
            tgt = pg3.cell(p1 + p2 + r, q1 + q2 - r + 1)
            ycols = Matrix.identity(cell2.dim).column_vectors()
            for i in range(cell1.dim):
                for j, ycol in enumerate(ycols):
                    lhs = d3.apply(cup[i].col(j))
                    t1 = [Q0] * tgt.dim
                    for k, c in enumerate(d1.col(i)):
                        if c != 0:
                            for t, v in enumerate(cup_dx[k].apply(ycol)):
                                t1[t] += c * v
                    t2 = cup_xdy[i].apply(d2.col(j))
                    rhs = tuple(u + s * v for u, v in zip(t1, t2))
                    if lhs != rhs:
                        return False, [r, list(c1), list(c2), i, j]
        return True, None


def induced_pairing(ssp: SSPairing, r: int) -> dict:
    """The page-(r+1) pairing induced by the page-r pairing.

    Verifies Leibniz compatibility at page r first, then assembles the
    well-defined tensors on page r+1. Returns {(c1, c2): [Matrix, ...]}.
    """
    ok, witness = ssp.verify_page_leibniz(r)
    if not ok:
        raise InvariantError(
            f"page-{r} pairing is not compatible with d_{r}", witness=witness
        )
    out = {}
    for c1, c2 in ssp.support_pairs(r + 1):
        out[(c1, c2)] = ssp.pairing_at(r + 1, c1, c2)
    return out
