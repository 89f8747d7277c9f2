"""Exact rational linear algebra: canonical bases, subquotients, induced maps.

Everything is over Q with fractions.Fraction entries, so ranks and dimensions
are exact. A Subspace stores the unique reduced echelon basis of its span,
which turns equality of spans into literal equality of stored bases. A
Subquotient Z/B carries a canonical complement basis (the echelon completion
of B inside Z), and induced maps are always written in those complement
coordinates, so nothing downstream depends on an arbitrary basis choice.

Vectors are dense tuples of Fraction. A Matrix with shape (rows, cols) acts
on column vectors of length cols. Alongside the dense entries, each object
keeps an index of its nonzero entries, built once at construction: a Matrix
the (row, entry) pairs of each column (`nonzeros`), a Subspace and a
Subquotient the pivot and the nonzero entries past it of each basis or
complement row (`tails`; the pivot entry is 1). Products,
reductions, coset coordinates and lifts read only these pairs, and the one
elimination routine, _echelon, works on sparse {column: entry} rows, so the
cost of every operation follows the nonzero entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import compress
from typing import Iterable, Sequence

from .errors import ContainmentError, InvariantError, ParseError

Vector = tuple[Fraction, ...]

Q0 = Fraction(0)
Q1 = Fraction(1)


def _ascii_digits(s: str) -> bool:
    return s.isascii() and s.isdigit()


def _literal(text: str) -> int | Fraction:
    """The rational a string spells, as Fraction(text) reads it.

    An ASCII "-?[0-9]+" literal is read by int() alone and comes back as an
    int, and an ASCII "-?[0-9]+/[0-9]+" one by int() on both sides; any
    other string goes through Fraction(text).
    """
    num, slash, den = text.partition("/")
    try:
        if _ascii_digits(num[1:] if num[:1] == "-" else num):
            if not slash:
                return int(num)
            if _ascii_digits(den):
                return Fraction(int(num), int(den))
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational literal {text!r}") from exc


def scalar(value) -> Fraction:
    """Coerce an int, an "a/b" string, or a Fraction to an exact rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        c = _literal(value)
        return Fraction(c) if type(c) is int else c
    raise ParseError(f"cannot interpret {value!r} as a rational")


def coefficient(value) -> int | Fraction:
    """scalar(value), as an int when it is integral.

    The algebra layer stores its coefficients this way: it only adds,
    subtracts and multiplies them, which is exact on ints, and an int
    equals, hashes and prints like the Fraction it stands for.
    """
    if type(value) is int:
        return value
    c = _literal(value) if isinstance(value, str) else scalar(value)
    return c if type(c) is int or c.denominator != 1 else c.numerator


def json_int(value) -> int:
    """A JSON integer read as itself: an int that is not a bool, else a TypeError."""
    if type(value) is not int:
        raise TypeError(f"not a JSON integer: {value!r}")
    return value


def scalar_str(value: Fraction) -> str:
    return str(value)


def vec(values: Iterable) -> Vector:
    return tuple(map(scalar, values))


def vzero(n: int) -> Vector:
    return (Q0,) * n


# A sparse row or column: (index, entry) pairs of its nonzero entries.
Pairs = tuple[tuple[int, Fraction], ...]
# A row in reduced echelon form: its pivot, whose entry is 1, and the
# (column, entry) pairs of its nonzero entries past the pivot.
Row = tuple[int, Pairs]


def _pairs(v: Sequence[Fraction]) -> Pairs:
    return tuple(compress(enumerate(v), v))


def _eliminate(w: list[Fraction], rows: Iterable[Row]) -> list[Fraction]:
    """Subtract from w, in place, w[p] times each row (p, tail); return those multiples.

    The rows are zero at each other's pivots, so the order does not matter.
    """
    multiples = []
    for p, tail in rows:
        c = w[p]
        if c:
            w[p] = Q0
            for i, a in tail:
                w[i] -= c * a
        multiples.append(c)
    return multiples


def _axpy(row: dict[int, Fraction], f: Fraction, tail: dict[int, Fraction]) -> None:
    """row += f * tail, in place, for sparse rows; entries that cancel are dropped."""
    for j, a in tail.items():
        b = row.get(j)
        if b is None:
            row[j] = f * a
        else:
            b += f * a
            if b:
                row[j] = b
            else:
                del row[j]


def _echelon(rows: Iterable[dict[int, Fraction]]) -> list[tuple[int, dict[int, Fraction]]]:
    """Reduced row echelon form of sparse rows: (pivot, tail) pairs, by pivot.

    The package's one elimination routine. A row maps columns to nonzero
    entries (a missing column is zero); the input dicts are consumed. The
    tail of a reduced row holds its entries past the pivot, whose entry is 1.
    Each row is reduced by the pivot rows kept so far, normalised at its
    leading column, and then cancelled from the kept rows that are nonzero
    in that column, which `touching` finds without scanning the other kept
    rows; no step does arithmetic on a zero entry. The reduced form is
    unique, so the order of the rows changes nothing.
    """
    kept: dict[int, dict[int, Fraction]] = {}  # pivot -> tail
    # column -> pivots of the kept rows nonzero there (or that were, before a cancellation)
    touching: dict[int, set[int]] = {}
    for row in rows:
        for p in [c for c in row if c in kept]:
            _axpy(row, -row.pop(p), kept[p])
        if not row:
            continue
        c = min(row)
        lead = row.pop(c)
        if lead != 1:
            for j in row:
                row[j] /= lead
        for k in touching.pop(c, ()):
            other = kept[k]
            if c in other:
                _axpy(other, -other.pop(c), row)
                for j in row:
                    touching.setdefault(j, set()).add(k)
        kept[c] = row
        for j in row:
            touching.setdefault(j, set()).add(c)
    return sorted(kept.items())


@dataclass(frozen=True)
class Matrix:
    """Immutable rational matrix acting on column vectors.

    `nonzeros` holds, per column, the (row, entry) pairs of its nonzero
    entries; it is built once, at construction, and every product reads it.
    """

    rows: int
    cols: int
    entries: tuple[tuple[Fraction, ...], ...]
    nonzeros: tuple[Pairs, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if len(self.entries) != self.rows or any(len(r) != self.cols for r in self.entries):
            raise InvariantError("matrix entries inconsistent with declared shape")
        columns = zip(*self.entries) if self.rows else [()] * self.cols
        object.__setattr__(self, "nonzeros", tuple(_pairs(c) for c in columns))

    @staticmethod
    def from_rows(rows_data: Sequence[Sequence], cols: int | None = None) -> "Matrix":
        data = tuple(vec(r) for r in rows_data)
        if data:
            width = len(data[0])
            if any(len(r) != width for r in data):
                raise InvariantError("ragged matrix rows")
            if cols is not None and width != cols:
                raise InvariantError(f"expected {cols} columns, found {width}")
        else:
            width = 0 if cols is None else cols
        return Matrix(len(data), width, data)

    @staticmethod
    def from_cols(cols_data: Sequence[Sequence], rows: int | None = None) -> "Matrix":
        data = [vec(c) for c in cols_data]
        if data:
            height = len(data[0])
            if any(len(c) != height for c in data):
                raise InvariantError("ragged matrix columns")
            if rows is not None and height != rows:
                raise InvariantError(f"expected {rows} rows, found {height}")
        else:
            height = 0 if rows is None else rows
        return Matrix(height, len(data), tuple(tuple(c[i] for c in data) for i in range(height)))

    @staticmethod
    @cache
    def zeros(rows: int, cols: int) -> "Matrix":
        """The zero matrix of a shape, one per shape: matrices are immutable."""
        return Matrix(rows, cols, tuple((Q0,) * cols for _ in range(rows)))

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix(n, n, tuple(tuple(Q1 if i == j else Q0 for j in range(n)) for i in range(n)))

    def col(self, j: int) -> Vector:
        return tuple(r[j] for r in self.entries)

    def column_vectors(self) -> list[Vector]:
        return [self.col(j) for j in range(self.cols)]

    def apply(self, v: Vector) -> Vector:
        if len(v) != self.cols:
            raise InvariantError(f"matrix of {self.cols} columns applied to length-{len(v)} vector")
        return self._apply(v)

    def _apply(self, v: Vector) -> Vector:
        """Matrix times v, summed over the products of two nonzero entries."""
        out = [Q0] * self.rows
        for col, b in zip(self.nonzeros, v):
            if b:
                for i, a in col:
                    s = out[i]
                    # the first term of a sum needs no addition
                    out[i] = a * b if s is Q0 else s + a * b
        return tuple(out)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise InvariantError("matrix product shape mismatch")
        cols = [self._apply(c) for c in other.column_vectors()]
        return Matrix(self.rows, other.cols, tuple(zip(*cols)) if cols else ((),) * self.rows)

    def is_zero(self) -> bool:
        return not any(self.nonzeros)

    def _sparse_rows(self) -> list[dict[int, Fraction]]:
        rows: list[dict[int, Fraction]] = [{} for _ in range(self.rows)]
        for j, col in enumerate(self.nonzeros):
            for i, a in col:
                rows[i][j] = a
        return rows

    def rank(self) -> int:
        return len(_echelon(self._sparse_rows()))

    def _null_rows(self) -> list[dict[int, Fraction]]:
        """Canonical kernel basis, one sparse vector per free column."""
        reduced = _echelon(self._sparse_rows())
        pivots = {c for c, _ in reduced}
        free = {j: {j: Q1} for j in range(self.cols) if j not in pivots}
        for c, tail in reduced:
            for j, a in tail.items():
                free[j][c] = -a
        return list(free.values())

    def nullspace(self) -> list[Vector]:
        """Canonical basis of the kernel, one vector per free column."""
        out = []
        for row in self._null_rows():
            v = [Q0] * self.cols
            for j, a in row.items():
                v[j] = a
            out.append(tuple(v))
        return out

    def solve_many(self, targets: Sequence[Vector]) -> list[Vector | None]:
        """Solve A x = b for each b, with free variables pinned to zero.

        Returns None for inconsistent targets. One elimination is shared by
        all targets; a pivot landing in an augmented column marks the rows
        whose A-part vanished, and a target is consistent exactly when those
        rows carry zero in its column.
        """
        targets = [vec(b) for b in targets]
        for b in targets:
            if len(b) != self.rows:
                raise InvariantError("solve target has wrong length")
        if self.rows == 0:
            return [vzero(self.cols) for _ in targets]
        rows = self._sparse_rows()
        for t, b in enumerate(targets):
            for i, a in _pairs(b):
                rows[i][self.cols + t] = a
        reduced = _echelon(rows)
        solved = [(c, tail) for c, tail in reduced if c < self.cols]
        vanished = [(c, tail) for c, tail in reduced if c >= self.cols]
        out: list[Vector | None] = []
        for col in range(self.cols, self.cols + len(targets)):
            if any(c == col or col in tail for c, tail in vanished):
                out.append(None)
                continue
            x = [Q0] * self.cols
            for c, tail in solved:
                x[c] = tail.get(col, Q0)
            out.append(tuple(x))
        return out

    def solve(self, b: Vector) -> Vector | None:
        return self.solve_many([b])[0]

    def to_json(self) -> list[list[str]]:
        return [[scalar_str(a) for a in row] for row in self.entries]

    @staticmethod
    def from_json(data, rows: int | None = None, cols: int | None = None) -> "Matrix":
        if not isinstance(data, list) or any(not isinstance(r, list) for r in data):
            raise ParseError("matrix must be a list of rows")
        if rows is not None and len(data) != rows:
            raise ParseError(f"expected {rows} rows, found {len(data)}")
        width = len(data[0]) if cols is None and data else cols
        for r in data:
            if len(r) != width:
                raise ParseError(f"expected {width} columns, found {len(r)}")
        return Matrix.from_rows(data, cols=cols)


@dataclass(frozen=True)
class Subspace:
    """A subspace of Q^ambient_dim in its canonical reduced echelon basis.

    `tails` holds each basis row as a sparse Row; reduction and containment
    read only these.
    """

    ambient_dim: int
    basis_rows: tuple[Vector, ...]
    pivots: tuple[int, ...]
    tails: tuple[Row, ...] = field(compare=False, repr=False)

    @staticmethod
    def _of(ambient_dim: int, reduced: list[tuple[int, dict]], shift: int = 0) -> "Subspace":
        """The subspace with these _echelon rows, their columns moved down by shift."""
        rows, pivots, tails = [], [], []
        for c, tail in reduced:
            dense = [Q0] * ambient_dim
            dense[c - shift] = Q1
            pairs = tuple((j - shift, a) for j, a in tail.items())
            for j, a in pairs:
                dense[j] = a
            rows.append(tuple(dense))
            pivots.append(c - shift)
            tails.append((c - shift, pairs))
        return Subspace(ambient_dim, tuple(rows), tuple(pivots), tuple(tails))

    def _rows(self) -> list[dict[int, Fraction]]:
        """The basis rows as fresh sparse rows for _echelon."""
        rows = []
        for p, tail in self.tails:
            row = dict(tail)
            row[p] = Q1
            rows.append(row)
        return rows

    @staticmethod
    def span(ambient_dim: int, vectors: Iterable[Sequence]) -> "Subspace":
        rows = []
        for v in vectors:
            w = vec(v)
            if len(w) != ambient_dim:
                raise InvariantError(
                    f"vector of length {len(w)} in ambient dimension {ambient_dim}"
                )
            rows.append(dict(_pairs(w)))
        return Subspace._of(ambient_dim, _echelon(rows))

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, (), (), ())

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        identity = Matrix.identity(ambient_dim).entries
        pivots = tuple(range(ambient_dim))
        return Subspace(ambient_dim, identity, pivots, tuple((p, ()) for p in pivots))

    @property
    def dim(self) -> int:
        return len(self.basis_rows)

    def basis(self) -> Matrix:
        """Basis matrix whose columns are the canonical basis vectors."""
        return Matrix.from_cols(list(self.basis_rows), rows=self.ambient_dim)

    def is_zero(self) -> bool:
        return not self.basis_rows

    def is_full(self) -> bool:
        return self.dim == self.ambient_dim

    def _reduce(self, w: list[Fraction]) -> list[Fraction]:
        """Subtract from w, in place, its projection onto the span."""
        _eliminate(w, self.tails)
        return w

    def reduce(self, v: Sequence) -> Vector:
        """Residual of v after subtracting its projection onto the span."""
        return tuple(self._reduce(list(vec(v))))

    def contains_vector(self, v: Sequence) -> bool:
        return not any(self._reduce(list(vec(v))))

    def contains(self, other: "Subspace") -> bool:
        return not any(any(self._reduce(list(r))) for r in other.basis_rows)

    def coords(self, v: Sequence) -> Vector:
        """Coefficients of v over the canonical basis; errors if v is outside."""
        w = vec(v)
        rest = list(w)
        cs = _eliminate(rest, self.tails)
        if any(rest):
            raise ContainmentError("vector outside subspace", witness=list(map(str, w)))
        return tuple(cs)

    def sum_with(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise InvariantError("subspace sum across different ambient spaces")
        return Subspace._of(self.ambient_dim, _echelon(self._rows() + other._rows()))

    def intersect(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise InvariantError("subspace intersection across different ambient spaces")
        if self.is_zero() or other.is_zero():
            return Subspace.zero(self.ambient_dim)
        if self.is_full():
            return other
        if other.is_full():
            return self
        n = self.ambient_dim
        rows = other._rows()
        for u in self._rows():
            rows.append({**u, **{n + j: a for j, a in u.items()}})
        return _zassenhaus(rows, n, n)

    def to_json(self) -> list[list[str]]:
        return self.basis().to_json()


def kernel(f: Matrix) -> Subspace:
    return Subspace._of(f.cols, _echelon(f._null_rows()))


def image(f: Matrix, source: Subspace | None = None) -> Subspace:
    if source is None:
        return Subspace._of(f.rows, _echelon(dict(c) for c in f.nonzeros))
    if source.ambient_dim != f.cols:
        raise InvariantError("image source lives in the wrong ambient space")
    return Subspace._of(f.rows, _echelon(dict(_pairs(f.apply(r))) for r in source.basis_rows))


def preimage(f: Matrix, target: Subspace) -> Subspace:
    """Subspace {x : f(x) in target}."""
    if target.ambient_dim != f.rows:
        raise InvariantError("preimage target lives in the wrong ambient space")
    if target.is_full():
        return Subspace.full(f.cols)
    rows = target._rows()
    rows += [dict(col + ((f.rows + j, Q1),)) for j, col in enumerate(f.nonzeros)]
    return _zassenhaus(rows, f.rows, f.cols)


def _zassenhaus(rows: list[dict[int, Fraction]], split: int, ambient_dim: int) -> Subspace:
    """{x : (0, x) in the row span}, for sparse rows over split + ambient_dim columns.

    This is the Zassenhaus construction: the reduced echelon rows whose
    pivots lie past split have a zero left block, and their right blocks are
    already the canonical basis of that subspace.
    """
    low = [(c, row) for c, row in _echelon(rows) if c >= split]
    return Subspace._of(ambient_dim, low, shift=split)


@dataclass(frozen=True)
class Subquotient:
    """A pair B <= Z <= Q^ambient with a canonical complement basis for Z/B.

    The complement is the subset of Z's echelon basis whose pivots are not
    pivots of B; together with B it spans Z, and its classes form the
    canonical basis of Z/B used for all induced maps. Each complement row
    is zero at every pivot of B and at the other pivots of Z.
    """

    Z: Subspace
    B: Subspace
    complement: tuple[Vector, ...]
    # the complement rows as sparse Rows
    tails: tuple[Row, ...] = field(compare=False, repr=False)

    @staticmethod
    def of(Z: Subspace, B: Subspace) -> "Subquotient":
        if Z.ambient_dim != B.ambient_dim:
            raise InvariantError("subquotient numerator and denominator ambient mismatch")
        if not Z.contains(B):
            raise ContainmentError("denominator is not contained in numerator")
        in_b = set(B.pivots)
        comp, tails = [], []
        for row, tail in zip(Z.basis_rows, Z.tails):
            if tail[0] not in in_b:
                comp.append(row)
                tails.append(tail)
        return Subquotient(Z, B, tuple(comp), tuple(tails))

    @staticmethod
    def zero(ambient_dim: int) -> "Subquotient":
        z = Subspace.zero(ambient_dim)
        return Subquotient(z, z, (), ())

    @staticmethod
    def whole(ambient_dim: int) -> "Subquotient":
        return Subquotient.of(Subspace.full(ambient_dim), Subspace.zero(ambient_dim))

    @property
    def ambient_dim(self) -> int:
        return self.Z.ambient_dim

    @property
    def dim(self) -> int:
        return len(self.complement)

    def _coords(self, w: list[Fraction]) -> Vector | None:
        """Coset coordinates of w, consumed in place; None if w is outside Z.

        w minus its B-part has, at each complement pivot, its coordinate on
        that complement row; the rest of w is then zero exactly when w lies in Z.
        """
        self.B._reduce(w)
        cs = _eliminate(w, self.tails)
        return None if any(w) else tuple(cs)

    def coset_coords(self, v: Sequence) -> Vector:
        """Coordinates of [v] over the canonical complement basis.

        Errors if v does not lie in Z.
        """
        w = vec(v)
        if len(w) != self.ambient_dim:
            raise InvariantError("coset vector has wrong length")
        cs = self._coords(list(w))
        if cs is None:
            raise ContainmentError(
                "vector outside the subquotient numerator",
                witness=[scalar_str(a) for a in w],
            )
        return cs

    def lift(self, coords: Sequence) -> Vector:
        cs = vec(coords)
        if len(cs) != self.dim:
            raise InvariantError("coset coordinates have wrong length")
        out = [Q0] * self.ambient_dim
        # no complement row is nonzero at the pivot of another
        for c, (p, tail) in zip(cs, self.tails):
            if c:
                out[p] = c
                for i, a in tail:
                    out[i] += c * a
        return tuple(out)


def induced_map(f: Matrix, source: Subquotient, target: Subquotient) -> Matrix:
    """Matrix of the map Z/B -> Z'/B' induced by f, in complement coordinates.

    Checks f(Z) <= Z' and f(B) <= B'; a violation raises ContainmentError
    naming the offending basis vector. f is applied once per basis vector of
    Z and of B: the complement rows are rows of Z, so the coset coordinates
    of their images come out of the numerator check.
    """
    if f.cols != source.ambient_dim or f.rows != target.ambient_dim:
        raise InvariantError("induced map shape mismatch")
    coords = {}
    for i, (z, p) in enumerate(zip(source.Z.basis_rows, source.Z.pivots)):
        coords[p] = target._coords(list(f.apply(z)))
        if coords[p] is None:
            raise ContainmentError(
                f"image of numerator basis vector {i} leaves the target numerator",
                witness=[scalar_str(a) for a in z],
            )
    for i, b in enumerate(source.B.basis_rows):
        if any(target.B._reduce(list(f.apply(b)))):
            raise ContainmentError(
                f"image of denominator basis vector {i} leaves the target denominator",
                witness=[scalar_str(a) for a in b],
            )
    return Matrix.from_cols([coords[p] for p, _ in source.tails], rows=target.dim)


def pairing_rank(gram: Matrix) -> tuple[int, bool]:
    """Rank of a Gram matrix and whether the pairing is non-degenerate."""
    if gram.rows != gram.cols:
        raise InvariantError(f"Gram matrix must be square, got {gram.rows}x{gram.cols}")
    r = gram.rank()
    return r, r == gram.rows


def sparse_rank(rows: list[dict[int, Fraction]]) -> int:
    """Rank of a sparse system given as {column: coefficient} rows.

    Coefficients are coerced to Fraction, since elimination divides.
    """
    return len(_echelon({c: scalar(a) for c, a in r.items() if a} for r in rows))
