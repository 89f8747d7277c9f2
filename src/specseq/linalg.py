"""Exact rational linear algebra: canonical bases, subquotients, induced maps.

Everything is over Q with fractions.Fraction entries, so ranks and dimensions
are exact. A Subspace stores the unique reduced echelon basis of its span,
which turns equality of spans into literal equality of stored bases. A
Subquotient Z/B carries a canonical complement basis (the echelon completion
of B inside Z), and induced maps are always written in those complement
coordinates, so nothing downstream depends on an arbitrary basis choice.

Vectors are tuples of Fraction. A Matrix with shape (rows, cols) acts on
column vectors of length cols.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import ContainmentError, InvariantError, ParseError

Vector = tuple[Fraction, ...]

Q0 = Fraction(0)
Q1 = Fraction(1)


def scalar(value) -> Fraction:
    """Coerce an int, an "a/b" string, or a Fraction to an exact rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational literal {value!r}") from exc
    raise ParseError(f"cannot interpret {value!r} as a rational")


def scalar_str(value: Fraction) -> str:
    return str(value)


def vec(values: Iterable) -> Vector:
    return tuple(scalar(v) for v in values)


def vzero(n: int) -> Vector:
    return (Q0,) * n


def vis_zero(u: Vector) -> bool:
    return all(a == 0 for a in u)


def _echelon(rows: list[list[Fraction]]) -> list[int]:
    """Reduce rows in place to reduced row echelon form; return pivot columns.

    The package's one pivoting loop. Each pivot row is normalised and
    subtracted through its nonzero entries only, which leaves the (unique)
    reduced form as it was and skips the zeros of sparse rows.
    """
    pivots: list[int] = []
    m = len(rows)
    n = len(rows[0]) if m else 0
    r = 0
    for c in range(n):
        if r == m:
            break
        piv = None
        for i in range(r, m):
            if rows[i][c]:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pr = rows[r]
        lead = pr[c]
        nz = [j for j in range(c, n) if pr[j]]
        if lead != 1:
            for j in nz:
                pr[j] /= lead
        for i in range(m):
            row = rows[i]
            f = row[c]
            if f and i != r:
                for j in nz:
                    row[j] -= f * pr[j]
        pivots.append(c)
        r += 1
    return pivots


@dataclass(frozen=True)
class Matrix:
    """Immutable rational matrix acting on column vectors."""

    rows: int
    cols: int
    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if len(self.entries) != self.rows or any(len(r) != self.cols for r in self.entries):
            raise InvariantError("matrix entries inconsistent with declared shape")

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
    def zeros(rows: int, cols: int) -> "Matrix":
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
        return tuple(sum((a * b for a, b in zip(row, v)), Q0) for row in self.entries)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise InvariantError("matrix product shape mismatch")
        ot = tuple(other.col(j) for j in range(other.cols))
        return Matrix(
            self.rows,
            other.cols,
            tuple(
                tuple(sum((a * b for a, b in zip(row, col)), Q0) for col in ot)
                for row in self.entries
            ),
        )

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise InvariantError("matrix sum shape mismatch")
        return Matrix(
            self.rows,
            self.cols,
            tuple(tuple(a + b for a, b in zip(r1, r2)) for r1, r2 in zip(self.entries, other.entries)),
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + other.scaled(Fraction(-1))

    def scaled(self, c) -> "Matrix":
        c = scalar(c)
        return Matrix(self.rows, self.cols, tuple(tuple(c * a for a in r) for r in self.entries))

    def is_zero(self) -> bool:
        return all(a == 0 for r in self.entries for a in r)

    def rank(self) -> int:
        work = [list(r) for r in self.entries]
        return len(_echelon(work))

    def nullspace(self) -> list[Vector]:
        """Canonical basis of the kernel, one vector per free column."""
        work = [list(r) for r in self.entries]
        pivots = _echelon(work)
        pivot_set = set(pivots)
        out = []
        for j in range(self.cols):
            if j in pivot_set:
                continue
            v = [Q0] * self.cols
            v[j] = Q1
            for k, c in enumerate(pivots):
                v[c] = -work[k][j]
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
        work = [list(r) + [b[i] for b in targets] for i, r in enumerate(self.entries)]
        pivots = _echelon(work)
        out: list[Vector | None] = []
        for t in range(len(targets)):
            col = self.cols + t
            if any(c >= self.cols and work[k][col] != 0 for k, c in enumerate(pivots)):
                out.append(None)
                continue
            x = [Q0] * self.cols
            for k, c in enumerate(pivots):
                if c < self.cols:
                    x[c] = work[k][col]
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
    """A subspace of Q^ambient_dim in its canonical reduced echelon basis."""

    ambient_dim: int
    basis_rows: tuple[Vector, ...]
    pivots: tuple[int, ...]

    @staticmethod
    def span(ambient_dim: int, vectors: Iterable[Sequence]) -> "Subspace":
        rows = []
        for v in vectors:
            w = vec(v)
            if len(w) != ambient_dim:
                raise InvariantError(
                    f"vector of length {len(w)} in ambient dimension {ambient_dim}"
                )
            if not vis_zero(w):
                rows.append(list(w))
        if not rows:
            return Subspace(ambient_dim, (), ())
        pivots = _echelon(rows)
        keep = tuple(tuple(rows[i]) for i in range(len(pivots)))
        return Subspace(ambient_dim, keep, tuple(pivots))

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, (), ())

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        identity = Matrix.identity(ambient_dim).entries
        return Subspace(ambient_dim, identity, tuple(range(ambient_dim)))

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

    def reduce(self, v: Sequence) -> Vector:
        """Residual of v after subtracting its projection onto the span."""
        w = list(vec(v))
        for row, p in zip(self.basis_rows, self.pivots):
            c = w[p]
            if c != 0:
                for i, a in enumerate(row):
                    if a != 0:
                        w[i] -= c * a
        return tuple(w)

    def contains_vector(self, v: Sequence) -> bool:
        return vis_zero(self.reduce(v))

    def contains(self, other: "Subspace") -> bool:
        return all(self.contains_vector(r) for r in other.basis_rows)

    def coords(self, v: Sequence) -> Vector:
        """Coefficients of v over the canonical basis; errors if v is outside."""
        w = vec(v)
        cs = tuple(w[p] for p in self.pivots)
        if not vis_zero(self.reduce(w)):
            raise ContainmentError("vector outside subspace", witness=list(map(str, w)))
        return cs

    def sum_with(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise InvariantError("subspace sum across different ambient spaces")
        return Subspace.span(self.ambient_dim, list(self.basis_rows) + list(other.basis_rows))

    def intersect(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise InvariantError("subspace intersection across different ambient spaces")
        if self.is_zero() or other.is_zero():
            return Subspace.zero(self.ambient_dim)
        if self.is_full():
            return other
        if other.is_full():
            return self
        pad = [Q0] * self.ambient_dim
        rows = [list(u) + list(u) for u in self.basis_rows]
        rows += [list(v) + pad for v in other.basis_rows]
        return _zassenhaus(rows, self.ambient_dim, self.ambient_dim)

    def to_json(self) -> list[list[str]]:
        return self.basis().to_json()


def kernel(f: Matrix) -> Subspace:
    return Subspace.span(f.cols, f.nullspace())


def image(f: Matrix, source: Subspace | None = None) -> Subspace:
    if source is None:
        return Subspace.span(f.rows, f.column_vectors())
    if source.ambient_dim != f.cols:
        raise InvariantError("image source lives in the wrong ambient space")
    return Subspace.span(f.rows, [f.apply(r) for r in source.basis_rows])


def preimage(f: Matrix, target: Subspace) -> Subspace:
    """Subspace {x : f(x) in target}."""
    if target.ambient_dim != f.rows:
        raise InvariantError("preimage target lives in the wrong ambient space")
    if target.is_full():
        return Subspace.full(f.cols)
    unit = Matrix.identity(f.cols).entries
    rows = [list(col) + list(e) for col, e in zip(f.column_vectors(), unit)]
    rows += [list(t) + [Q0] * f.cols for t in target.basis_rows]
    return _zassenhaus(rows, f.rows, f.cols)


def _zassenhaus(rows: list[list[Fraction]], split: int, ambient_dim: int) -> Subspace:
    """{x : (0, x) in the row span}, for rows of length split + ambient_dim.

    This is the Zassenhaus construction: the reduced echelon rows whose
    pivots lie past split have a zero left block, and their right blocks are
    already the canonical basis of that subspace.
    """
    pivots = _echelon(rows)
    low = [k for k, c in enumerate(pivots) if c >= split]
    return Subspace(
        ambient_dim,
        tuple(tuple(rows[k][split:]) for k in low),
        tuple(pivots[k] - split for k in low),
    )


@dataclass(frozen=True)
class Subquotient:
    """A pair B <= Z <= Q^ambient with a canonical complement basis for Z/B.

    The complement is the subset of Z's echelon basis whose pivots are not
    pivots of B; together with B it spans Z, and its classes form the
    canonical basis of Z/B used for all induced maps.
    """

    Z: Subspace
    B: Subspace
    complement: tuple[Vector, ...]
    # leading column -> (complement index, or -1 for a row of B; the row)
    by_pivot: dict[int, tuple[int, Vector]] = field(compare=False, repr=False)

    @staticmethod
    def of(Z: Subspace, B: Subspace) -> "Subquotient":
        if Z.ambient_dim != B.ambient_dim:
            raise InvariantError("subquotient numerator and denominator ambient mismatch")
        if not Z.contains(B):
            raise ContainmentError("denominator is not contained in numerator")
        by_pivot = {p: (-1, row) for row, p in zip(B.basis_rows, B.pivots)}
        comp = []
        for row, p in zip(Z.basis_rows, Z.pivots):
            if p not in by_pivot:
                by_pivot[p] = (len(comp), row)
                comp.append(row)
        return Subquotient(Z, B, tuple(comp), by_pivot)

    @staticmethod
    def zero(ambient_dim: int) -> "Subquotient":
        z = Subspace.zero(ambient_dim)
        return Subquotient(z, z, (), {})

    @staticmethod
    def whole(ambient_dim: int) -> "Subquotient":
        return Subquotient.of(Subspace.full(ambient_dim), Subspace.zero(ambient_dim))

    @property
    def ambient_dim(self) -> int:
        return self.Z.ambient_dim

    @property
    def dim(self) -> int:
        return len(self.complement)

    def coset_coords(self, v: Sequence) -> Vector:
        """Coordinates of [v] over the canonical complement basis.

        Errors if v does not lie in Z.
        """
        w = list(vec(v))
        if len(w) != self.ambient_dim:
            raise InvariantError("coset vector has wrong length")
        coords = [Q0] * len(self.complement)
        pos = 0
        while True:
            lead = None
            for i in range(pos, len(w)):
                if w[i] != 0:
                    lead = i
                    break
            if lead is None:
                break
            hit = self.by_pivot.get(lead)
            if hit is None:
                raise ContainmentError(
                    "vector outside the subquotient numerator",
                    witness=[scalar_str(a) for a in vec(v)],
                )
            idx, row = hit
            c = w[lead]
            if idx >= 0:
                coords[idx] += c
            for i, a in enumerate(row):
                if a != 0:
                    w[i] -= c * a
            pos = lead
        return tuple(coords)

    def lift(self, coords: Sequence) -> Vector:
        cs = vec(coords)
        if len(cs) != self.dim:
            raise InvariantError("coset coordinates have wrong length")
        out = [Q0] * self.ambient_dim
        for c, row in zip(cs, self.complement):
            if c:
                for i, a in enumerate(row):
                    if a:
                        out[i] += c * a
        return tuple(out)


def induced_map(f: Matrix, source: Subquotient, target: Subquotient) -> Matrix:
    """Matrix of the map Z/B -> Z'/B' induced by f, in complement coordinates.

    Checks f(Z) <= Z' and f(B) <= B'; a violation raises ContainmentError
    naming the offending basis vector.
    """
    if f.cols != source.ambient_dim or f.rows != target.ambient_dim:
        raise InvariantError("induced map shape mismatch")
    for i, z in enumerate(source.Z.basis_rows):
        if not target.Z.contains_vector(f.apply(z)):
            raise ContainmentError(
                f"image of numerator basis vector {i} leaves the target numerator",
                witness=[scalar_str(a) for a in z],
            )
    for i, b in enumerate(source.B.basis_rows):
        if not target.B.contains_vector(f.apply(b)):
            raise ContainmentError(
                f"image of denominator basis vector {i} leaves the target denominator",
                witness=[scalar_str(a) for a in b],
            )
    cols = [target.coset_coords(f.apply(w)) for w in source.complement]
    return Matrix.from_cols(cols, rows=target.dim)


def pairing_rank(gram: Matrix) -> tuple[int, bool]:
    """Rank of a Gram matrix and whether the pairing is non-degenerate."""
    if gram.rows != gram.cols:
        raise InvariantError(f"Gram matrix must be square, got {gram.rows}x{gram.cols}")
    r = gram.rank()
    return r, r == gram.rows


def sparse_rank(rows: list[dict[int, Fraction]]) -> int:
    """Rank of a sparse system given as {column: coefficient} rows."""
    where = {c: j for j, c in enumerate(sorted({c for r in rows for c in r}))}
    dense = []
    for r in rows:
        row = [Q0] * len(where)
        for c, a in r.items():
            row[where[c]] = a
        dense.append(row)
    return len(_echelon(dense))
