"""Bigraded graded-commutative algebras and graded derivations.

Algebras are finite dimensional over Q, given by structure constants on a
named basis of bigraded cells (p, q) with 0 <= p+q <= 2n. The Koszul sign
lives on the total degree p+q. An element of an algebra is a coefficient
map {basis index: coefficient}, int or Fraction, with no zero coefficient.
Derivations carry a fixed bidegree and are verified against the Leibniz
rule; derivation_extend builds the unique Leibniz extension of generator
images, and the Derivation constructor's checks reject images that admit
none, with the failing pair as witness.
"""

from __future__ import annotations

from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import InvariantError, ParseError
from .linalg import Matrix, _solve_ints, coefficient, json_int, key_int


class BigradedAlgebra:
    """Finite bigraded graded-commutative unital algebra over Q.

    basis: list of (name, p, q); products: sparse structure constants
    (i, j) -> {k: coefficient}, absent pairs multiply to zero. Structure
    constants are ints or Fractions. The algebra owns its products table,
    which is fixed after construction: a table with no zero coefficient and
    no empty entry is stored as given, not copied, so the caller must not
    change it afterwards; any other is stored less its zero coefficients and
    empty entries. checked records whether validate has passed, which
    check=True runs at construction.
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
        if all(tab and all(tab.values()) for tab in products.values()):
            self.products = products
        else:
            self.products = {
                ij: nonzero
                for ij, tab in products.items()
                if (nonzero := {k: c for k, c in tab.items() if c})
            }
        self._factors: tuple[dict[int, list[int]], dict[int, list[int]]] | None = None
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

    def matrix(self, tabs: Iterable[Mapping[int, int | Fraction]], idx: list[int]) -> Matrix:
        """The matrix whose columns are the coefficient maps tabs in the basis elements idx.

        Errors if a map has support outside idx.
        """
        pos = {k: t for t, k in enumerate(idx)}
        cols = []
        for tab in tabs:
            col = [0] * len(idx)
            for i, c in tab.items():
                if i not in pos:
                    raise InvariantError(
                        f"element has support outside the expected basis: {self.basis[i][0]}"
                    )
                col[pos[i]] = c
            cols.append(col)
        return Matrix._of_cols(cols, len(idx))

    # -- validation

    def _factor_index(self) -> tuple[dict[int, list[int]], dict[int, list[int]]]:
        """(right, left): right[a] lists the b and left[b] the a with (a, b) in products.

        Built on the first call and kept, as the products table is fixed.
        """
        if self._factors is None:
            right: dict[int, list[int]] = {}
            left: dict[int, list[int]] = {}
            for (a, b) in self.products:
                right.setdefault(a, []).append(b)
                left.setdefault(b, []).append(a)
            self._factors = (right, left)
        return self._factors

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
        Failing cases come in such mirror pairs, the lesser one kept. By
        graded commutativity (a, b, a) fails only with (a, a, b) and
        (b, a, a), one of them lesser (a odd: e_a e_a = 0 and both defects
        are multiples of e_a(e_a e_b); a even: it holds), so only i < k is
        checked. On a failure the least failing kept case is the witness of
        the check over all pairs and triples in order. Sets checked on success.
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
                triples.update((a, b, k) for k in right.get(c, ()) if a < k and k != u)
                triples.update((i, a, b) for i in left.get(c, ()) if i < b and i != u)
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
                f"{i},{j}": _coeffs_json(tab)
                for (i, j), tab in sorted(self.products.items())
            },
        }

    @staticmethod
    def from_json(data: dict, read: "_Reader | None" = None) -> "BigradedAlgebra":
        """The algebra of a JSON object; malformed input raises a ParseError at its key.

        read, if given, is sized to the basis here and then serves the
        caller's further reads of the same document (see _Reader).
        """
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
                name, p, q = entry["name"], json_int(entry["p"]), json_int(entry["q"])
            except (KeyError, TypeError) as exc:
                raise ParseError(f"bad basis entry at index {t}", location="basis") from exc
            if not isinstance(name, str):
                raise ParseError(f"basis name at index {t} must be a string", location="basis")
            basis.append((name, p, q))
        unit = data.get("unit")
        if isinstance(unit, bool) or not isinstance(unit, int) or not (0 <= unit < len(basis)):
            raise ParseError("unit must be a basis index", location="unit")
        products: dict[tuple[int, int], dict[int, Fraction]] = {}
        prod_raw = data.get("products", {})
        if not isinstance(prod_raw, dict):
            raise ParseError("products must be an object", location="products")
        read = (_Reader() if read is None else read).sized(len(basis))
        keys = read.keys
        for key, tab in prod_raw.items():
            what = f"product {key!r}"
            parts = key.split(",")
            if len(parts) != 2:
                raise ParseError(f"bad product key {key!r}", location="products")
            if not isinstance(tab, dict):
                raise ParseError(f"{what} must be an object", location="products")
            i, j = keys.get(parts[0]), keys.get(parts[1])
            if i is None or j is None:
                i, j = (read.index(s, what, "products") for s in parts)
            products[(i, j)] = read.coeffs(tab, what, "products")
        return BigradedAlgebra(n, basis, unit, products)


class Derivation:
    """Linear map of fixed bidegree given on every basis element.

    values[i] is the coefficient map of the image of basis element i; values
    is a tuple of private read-only copies less their zero coefficients,
    fixed at construction, so a checked derivation stays checked. The
    Leibniz rule D(xy) = D(x)y + (-1)^{|D||x|} x D(y) (signs on total
    degrees) is verified on all basis pairs unless check=False;
    leibniz_checked records whether it was.
    """

    def __init__(
        self,
        alg: BigradedAlgebra,
        bidegree: tuple[int, int],
        values: list[Mapping[int, int | Fraction]],
        check: bool = True,
    ):
        if len(values) != alg.dim():
            raise InvariantError("derivation needs one image per basis element")
        self.alg = alg
        self.bidegree = (int(bidegree[0]), int(bidegree[1]))
        self.values = tuple(MappingProxyType({k: c for k, c in v.items() if c}) for v in values)
        self.leibniz_checked = check
        a, b = self.bidegree
        for i, v in enumerate(self.values):
            for k in v:
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

    def apply(self, x: Mapping[int, int | Fraction]) -> dict[int, int | Fraction]:
        """The coefficient map of D(x), less zero entries."""
        out: dict[int, int | Fraction] = {}
        for i, c in x.items():
            _accumulate(out, c, self.values[i])
        return {k: c for k, c in out.items() if c}

    def leibniz_violations(self, stop_at_first: bool = False) -> list[tuple[int, int]]:
        """Basis pairs (i, j) where D(e_i e_j) != D(e_i) e_j + sign e_i D(e_j), sorted.

        Visits only the pairs where a term can be nonzero: (i, j) in
        products with some basis element of e_i e_j that D moves, some l in
        D(e_i) with (l, j) in products, or some m in D(e_j) with (i, m) in
        products. On every other pair D(e_i e_j), D(e_i) e_j and e_i D(e_j)
        all vanish, so the violations and their order are those of a check
        over all basis pairs.
        """
        alg = self.alg
        prods = alg.products
        right, left = alg._factor_index()
        moved = {t for t, v in enumerate(self.values) if v}
        pairs = {ij for ij, tab in prods.items() if not moved.isdisjoint(tab)}
        for i, v in enumerate(self.values):
            for l in v:
                pairs.update((i, j) for j in right.get(l, ()))
                pairs.update((h, i) for h in left.get(l, ()))
        sign_d = self.total_degree() % 2
        bad = []
        for (i, j) in sorted(pairs):
            s = -1 if (sign_d * alg.total_degree_of(i)) % 2 else 1
            diff: dict[int, Fraction] = {}
            for t, c in prods.get((i, j), {}).items():
                _accumulate(diff, c, self.values[t])
            for l, c in self.values[i].items():
                _accumulate(diff, -c, prods.get((l, j), {}))
            for m, c in self.values[j].items():
                _accumulate(diff, -s * c, prods.get((i, m), {}))
            if any(diff.values()):
                bad.append((i, j))
                if stop_at_first:
                    return bad
        return bad

    def is_zero(self) -> bool:
        return not any(self.values)

    def scaled(self, c) -> "Derivation":
        c = coefficient(c)
        values = [{i: c * a for i, a in v.items()} for v in self.values]
        return Derivation(self.alg, self.bidegree, values, check=False)

    def squares_to_zero(self) -> tuple[bool, str | None]:
        """(True, None) iff D(D(e_i)) = 0 for every i, else the first such e_i's name."""
        for i, v in enumerate(self.values):
            if self.apply(v):
                return False, self.alg.basis[i][0]
        return True, None

    def cell_matrix(self, p: int, q: int) -> Matrix:
        """Matrix of the restriction cell (p,q) -> cell (p+a, q+b)."""
        a, b = self.bidegree
        alg = self.alg
        return alg.matrix(
            [self.values[i] for i in alg.cell_indices(p, q)], alg.cell_indices(p + a, q + b)
        )

    def cohomology_dims(self) -> dict[tuple[int, int], int]:
        """Cellwise dim ker/im of the derivation viewed as a page differential.

        Requires the composite with itself to vanish. Each cell's outgoing map is
        ranked once; a cell's incoming rank is its source cell's (0 off the table).
        """
        sq, witness = self.squares_to_zero()
        if not sq:
            raise InvariantError(
                "derivation does not square to zero", witness=witness
            )
        a, b = self.bidegree
        cells = self.alg.cells
        ranks = {pq: self.cell_matrix(*pq).rank() for pq in cells}
        return {
            (p, q): len(idx) - ranks[(p, q)] - ranks.get((p - a, q - b), 0)
            for (p, q), idx in cells.items()
        }

    def to_json(self) -> dict:
        return {
            "bidegree": list(self.bidegree),
            "values": {
                str(i): _coeffs_json(v) for i, v in enumerate(self.values) if v
            },
        }

    @staticmethod
    def from_json(alg: BigradedAlgebra, data: dict) -> "Derivation":
        if not isinstance(data, dict):
            raise ParseError("derivation must be an object", location="derivation")
        bid_raw = data.get("bidegree")
        if not (
            isinstance(bid_raw, list)
            and len(bid_raw) == 2
            and all(isinstance(x, int) and not isinstance(x, bool) for x in bid_raw)
        ):
            raise ParseError("derivation needs a [a, b] bidegree", location="bidegree")
        values = [{} for _ in range(alg.dim())]
        vals_raw = data.get("values", {})
        if not isinstance(vals_raw, dict):
            raise ParseError("values must be an object", location="values")
        read = _Reader().sized(alg.dim())
        for key, tab in vals_raw.items():
            what = f"value of {key!r}"
            i = read.index(key, "values", "values")
            if not isinstance(tab, dict):
                raise ParseError(f"{what} must be an object", location="values")
            values[i] = read.coeffs(tab, what, "values")
        return Derivation(alg, (int(bid_raw[0]), int(bid_raw[1])), values)


def _basis_index(key: str, dim: int, what: str, location: str) -> int:
    """A basis index read from a JSON key, checked to lie in [0, dim)."""
    try:
        i = key_int(key)
    except ValueError as exc:
        raise ParseError(f"bad basis index {key!r} in {what}", location=location) from exc
    if not 0 <= i < dim:
        raise ParseError(f"basis index {i} in {what} is outside [0, {dim})", location=location)
    return i


class _Reader:
    """The basis indices and coefficients of one model document, each spelling read once.

    keys maps str(i) to i for i in [0, dim): a JSON key is a canonical basis
    index in range exactly when it is in keys, so one lookup replaces
    key_int and the range check. memo keeps the value of each coefficient
    string read, so each distinct literal goes through coefficient once per
    document. Only strings are kept: JSON 1, 1.0 and true compare equal as
    dict keys, but only 1 is a rational. A bad literal raises before it is
    kept. A key missing from keys goes through _basis_index, and a value
    not kept in memo through coefficient: they are the one reading, and
    raise its ParseError.
    """

    __slots__ = ("dim", "keys", "memo")

    def __init__(self) -> None:
        self.memo: dict[str, int | Fraction] = {}

    def sized(self, dim: int) -> "_Reader":
        """This reader, for a basis of dim elements."""
        self.dim = dim
        self.keys = {str(i): i for i in range(dim)}
        return self

    def index(self, key: str, what: str, location: str) -> int:
        i = self.keys.get(key)
        return _basis_index(key, self.dim, what, location) if i is None else i

    def coeffs(self, tab: dict, what: str, location: str) -> dict[int, int | Fraction]:
        """{basis index: rational} read from a JSON object; integral values come back as ints."""
        keys, memo = self.keys, self.memo
        out = {}
        for key, value in tab.items():
            k = keys.get(key)
            if k is None:
                k = _basis_index(key, self.dim, what, location)
            c = memo.get(value) if type(value) is str else None
            if c is None:
                try:
                    c = coefficient(value)
                except ParseError as exc:
                    raise ParseError(f"bad coefficients in {what}", location=location) from exc
                if type(value) is str:
                    memo[value] = c
            out[k] = c
        return out


def _accumulate(acc: dict[int, int | Fraction], c: int | Fraction, tab) -> None:
    """acc += c * tab, for coefficient mappings {basis index: coefficient}."""
    for k, a in tab.items():
        acc[k] = acc[k] + c * a if k in acc else c * a


def _coeffs_json(tab: Mapping[int, int | Fraction]) -> dict[str, str]:
    """A coefficient map as JSON: {str(basis index): str(coefficient)}, sorted by index."""
    return {str(i): str(c) for i, c in sorted(tab.items())}


def _ratio(num: int, den: int) -> int | Fraction:
    """num / den for den > 0, an int when it is integral, as the algebra keeps coefficients."""
    return num // den if num % den == 0 else Fraction(num, den)


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
    generator_images: dict[int, Mapping[int, int | Fraction]],
) -> Derivation:
    """Unique Leibniz extension of the coefficient maps generator_images of the
    total-degree-1 basis elements.

    Requires the algebra to be generated in total degree 1, checked by the
    degreewise surjectivity of multiplication. Each w of degree m >= 2 is
    solved as sum_t x_t g_t y_t over pairs of a generator g_t and a y_t of
    degree m - 1, and D(w) = sum_t x_t (D(g_t) y_t + (-1)^|D| g_t D(y_t)).
    The solve is one _solve_ints of the integer columns of multiplication
    against den * e_w, den their denominator, and each D(w) is summed as a
    coefficient map from the structure constants: D(g_t) y_t is
    sum_l D(g_t)_l e_l y_t and g_t D(y_t) is sum_m D(y_t)_m g_t e_m.

    The result is built with check=True, whose checks decide the rest. The
    homogeneity check rejects a generator image of the wrong bidegree, stored
    as given. The Leibniz check rejects images that break a relation: if
    sum_t k_t g_t y_t = 0 but sum_t k_t (D(g_t) y_t + (-1)^|D| g_t D(y_t)) != 0,
    Leibniz fails on some pair (g_t, y_t), else the second sum would be
    D(sum_t k_t g_t y_t) = D(0) = 0. The witness is the first failing pair.
    """
    gens = [i for i in range(alg.dim()) if alg.total_degree_of(i) == 1]
    for g in gens:
        if g not in generator_images:
            raise InvariantError(
                f"missing image for degree-1 basis element {alg.basis[g][0]}"
            )
    a, b = int(bidegree[0]), int(bidegree[1])
    sign = -1 if (a + b) % 2 else 1
    prods = alg.products
    values = [{} for _ in range(alg.dim())]
    # degree 0: the unit maps to 0; any other degree-0 element is ungenerated
    for i in alg.degree_indices(0):
        if i != alg.unit:
            raise InvariantError(
                f"degree-0 basis element {alg.basis[i][0]} is not generated in degree one"
            )
    for g in gens:
        values[g] = generator_images[g]
    top = alg.top_degree()
    for m in range(2, top + 1):
        targets = alg.degree_indices(m)
        if not targets:
            continue
        lower = alg.degree_indices(m - 1)
        pairs = [(g, y) for g in gens for y in lower]
        mult = alg.matrix([alg.product_indices(g, y) for (g, y) in pairs], targets)
        units = [((t, mult.den),) for t in range(len(targets))]
        sols = _solve_ints(mult.columns, len(targets), units)
        for w, x in zip(targets, sols):
            if x is None:
                raise InvariantError(
                    f"basis element {alg.basis[w][0]} is not generated in degree one"
                )
            acc: dict[int, int | Fraction] = {}
            for c, num, lead in x:
                g, y = pairs[c]
                xc = _ratio(num, lead)
                for l, v in values[g].items():
                    _accumulate(acc, xc * v, prods.get((l, y), {}))
                for k, v in values[y].items():
                    _accumulate(acc, sign * xc * v, prods.get((g, k), {}))
            values[w] = acc
    return Derivation(alg, (a, b), values, check=True)
