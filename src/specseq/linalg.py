"""Exact rational linear algebra: canonical bases, subquotients, induced maps.

Everything is exact over Q, and every entry a public accessor returns is a
fractions.Fraction, so ranks and dimensions are exact. A Subspace stores
the unique reduced echelon basis of its span, which turns equality of
spans into equality of stored rows. A Subquotient Z/B carries a canonical
complement basis (the echelon completion of B inside Z), and induced maps
are always written in those complement coordinates, so nothing downstream
depends on an arbitrary basis choice.

Inside linalg a vector is a list or sparse map of integers over one
denominator, and a reduced basis row is a Row: its pivot, its positive
entry there (lead) and the nonzero entries past it, a primitive integer
vector. A Matrix with shape (rows, cols) acts on column vectors of length
cols; it holds one integer form, the lcm `den` of its denominators and
den times each column as the (row, entry) pairs of its nonzero entries
(`columns`). A Subspace and a Subquotient hold only Rows (`tails`). Each
Fraction form (`Matrix.entries`, `basis_rows`, `complement`) is a view
built when first read. A JSON read is integer from the text: _literal reads
each literal to its reduced (num, den), which go straight into integer rows.
The one elimination routine, _echelon, works on sparse {column: integer}
rows, and products, reductions, solves, coset coordinates and lifts have
integer entry points (`Matrix._apply_ints`, `_solve_ints`,
`Subspace._span_ints`, `Subquotient._lift_ints`) that the other layers
call, so a page is built with no Fraction in between. The public methods
taking or returning Fraction vectors are thin wrappers over them: a
rational vector is scaled to integers once, by the lcm of its
denominators, and a Fraction is made only for an entry that is returned.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from itertools import chain, compress
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import ContainmentError, InvariantError, ParseError

Vector = tuple[Fraction, ...]

Q0 = Fraction(0)
Q1 = Fraction(1)


def _ascii_digits(s: str) -> bool:
    return s.isascii() and s.isdigit()


# Fraction's decimal form with an exponent, as fractions spells it
_EXPONENT_FORM = re.compile(
    r"\s*[-+]?(?=\d|\.\d)(?P<whole>\d*|\d+(?:_\d+)*)(?:\.(?P<frac>\d*|\d+(?:_\d+)*))?"
    r"e(?P<exp>[-+]?\d+(?:_\d+)*)\s*\Z",
    re.IGNORECASE,
)


@cache
def _digits_bound(limit: int) -> int:
    """10 ** limit, the least integer that str() writes with more than limit digits."""
    return 10**limit


def _literal(text: str) -> tuple[int, int]:
    """The rational a string spells, as Fraction(text) reads it: its reduced (num, den), den > 0.

    An ASCII "-?[0-9]+" literal is read by one int(), and an ASCII
    "-?[0-9]+/[0-9]+" one by two int() calls and one gcd; any other string
    (and a zero denominator, to raise) goes through Fraction(text). A value
    whose num or den has more digits than str() writes
    (sys.get_int_max_str_digits(), 0 for no bound) is a ParseError. An
    exponent form is judged on its mantissa and exponent before Fraction
    runs, so no power of ten past that bound is built: "1e100000000"
    fails at once.
    """
    num, slash, den = text.partition("/")
    try:
        if _ascii_digits(num[1:] if num[:1] == "-" else num):
            if not slash:
                return int(num), 1
            if _ascii_digits(den) and (b := int(den)):
                a = int(num)
                g = gcd(a, b)
                return a // g, b // g
        limit = sys.get_int_max_str_digits()
        if limit and (m := _EXPONENT_FORM.match(text)):
            whole = m["whole"].replace("_", "")
            frac = (m["frac"] or "").replace("_", "")
            if not (int(whole or "0") or int(frac or "0")):
                return 0, 1
            # the value is M * 10 ** shift for an integer M >= 1 of at most
            # len(whole + frac) digits; past these shifts num >= 10 ** limit
            # or den > 10 ** limit, whatever M is
            shift = int(m["exp"]) - len(frac)
            if shift >= limit or -shift >= limit + len(whole) + len(frac):
                raise ParseError(f"literal {text!r} has more than {limit} digits")
        q = Fraction(text)
        if limit and max(abs(q.numerator), q.denominator) >= _digits_bound(limit):
            raise ParseError(f"literal {text!r} has more than {limit} digits")
        return q.numerator, q.denominator
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational literal {text!r}") from exc


def scalar(value) -> Fraction:
    """Coerce an int, an "a/b" string, or a Fraction to an exact rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(*_literal(value))
    raise ParseError(f"cannot interpret {value!r} as a rational")


def coefficient(value) -> int | Fraction:
    """scalar(value), as an int when it is integral.

    The algebra layer stores its coefficients this way: it only adds,
    subtracts and multiplies them, which is exact on ints, and an int
    equals, hashes and prints like the Fraction it stands for.
    """
    if type(value) is int:
        return value
    if isinstance(value, str):
        a, b = _literal(value)
        return a if b == 1 else Fraction(a, b)
    c = scalar(value)
    return c if c.denominator != 1 else c.numerator


def json_int(value) -> int:
    """A JSON integer read as itself: an int that is not a bool, else a TypeError."""
    if type(value) is not int:
        raise TypeError(f"not a JSON integer: {value!r}")
    return value


def key_int(key: str) -> int:
    """int(key) for a key spelled as str() spells it (not " 0", "+0", "0_0"), else ValueError."""
    if str(value := int(key)) != key:
        raise ValueError(f"not a canonical integer key: {key!r}")
    return value


def _scalars(data, memo: dict[str, tuple[int, int]]) -> list[list[tuple[int, int]]]:
    """The reduced (num, den) of each entry of JSON rows, read row by row, without a Fraction.

    A string is read by _literal, once per distinct string and load: memo
    keeps it for the other reads of the load. Only strings are kept: JSON
    1, 1.0 and true compare equal as dict keys, but only 1 is a rational. A
    bad literal is never kept, so the first bad entry in row-major order raises.
    """
    out = []
    for r in data:
        row = []
        for a in r:
            if type(a) is str:
                q = memo.get(a)
                if q is None:
                    q = memo[a] = _literal(a)
            elif type(a) is int:
                q = (a, 1)
            else:
                q = scalar(a)
                q = (q.numerator, q.denominator)
            row.append(q)
        out.append(row)
    return out


def vec(values: Iterable) -> Vector:
    return tuple(map(scalar, values))


def vzero(n: int) -> Vector:
    return (Q0,) * n


# A row in reduced echelon form, scaled to a primitive integer vector: its
# pivot, its entry there (lead > 0), and the (column, entry) pairs of its
# nonzero entries past the pivot, by column. The rational row it stands for
# is 1 at the pivot and a / lead past it; this form of it is unique.
Row = tuple[int, int, tuple[tuple[int, int], ...]]


def _pairs(v: Sequence) -> tuple:
    """The (index, entry) pairs of the nonzero entries of a dense vector."""
    return tuple(compress(enumerate(v), v))


def _cleared(v: Sequence) -> tuple[list[int], int]:
    """Integers w and den > 0 with v = w / den, den the lcm of the denominators of v."""
    den = lcm(*[a.denominator for a in v])
    if den == 1:
        return [a.numerator for a in v], 1
    return [a.numerator * (den // a.denominator) if a else 0 for a in v], den


def _int_row(pairs: Iterable[tuple[int, int | Fraction]]) -> dict[int, int]:
    """A sparse rational row scaled to integers, for _echelon; its span is unchanged."""
    row = dict(pairs)
    den = lcm(*[a.denominator for a in row.values()])
    for j, a in row.items():
        row[j] = a.numerator * (den // a.denominator)
    return row


def _row_ints(row: Row, n: int) -> list[int]:
    """The Row as a dense integer vector of length n: lead times its rational row."""
    p, lead, tail = row
    w = [0] * n
    w[p] = lead
    for j, a in tail:
        w[j] = a
    return w


def _dense(row: Row, n: int) -> Vector:
    """The rational row a Row stands for, as a dense Fraction vector of length n."""
    p, lead, tail = row
    v = [Q0] * n
    v[p] = Q1
    for j, a in tail:
        v[j] = _q(a, lead)
    return tuple(v)


def _q(a: int, den: int) -> Fraction:
    """The rational a / den, for den > 0; Fraction(a) is the fast path when den is 1."""
    return Fraction(a) if den == 1 else Fraction(a, den)


def _eliminate(w: list[int], den: int, rows: Iterable[Row]) -> tuple[list[tuple[int, int]], int]:
    """Subtract from w / den, in place, its multiple of each row; return them and the new den.

    A multiple comes back as a pair (numerator, denominator). w is rescaled
    when a row's lead does not divide its entry at the pivot, so that it
    stays integral, and the denominator returned holds that scale. The rows
    are zero at each other's pivots, so the order does not matter.
    """
    multiples = []
    for p, lead, tail in rows:
        c = w[p]
        multiples.append((c, den))
        if c:
            w[p] = 0
            if lead != 1:
                g = gcd(lead, c)
                if g != lead:
                    m = lead // g
                    w[:] = [a * m for a in w]
                    den *= m
                c //= g
            for i, a in tail:
                w[i] -= c * a
    return multiples, den


def _combine(row: dict[int, int], m: int, y: int, other: dict[int, int]) -> None:
    """row := m * row - y * other, in place, for sparse integer rows; cancelled entries dropped."""
    if m != 1:
        for j in row:
            row[j] *= m
    for j, a in other.items():
        b = row.get(j)
        if b is None:
            row[j] = -y * a
        else:
            b -= y * a
            if b:
                row[j] = b
            else:
                del row[j]


def _echelon(rows: Iterable[dict[int, int]]) -> list[tuple[int, int, dict[int, int]]]:
    """Reduced row echelon form of sparse integer rows: (pivot, lead, tail) triples, by pivot.

    The package's one elimination routine. A row maps columns to nonzero
    integers (a missing column is zero); the input dicts are consumed. Each
    reduced row is kept as a primitive integer vector whose entry at its
    pivot, lead, is positive: the tail holds its entries past the pivot, and
    the rational reduced row is 1 at the pivot and a / lead at column j.
    Each row is reduced by the pivot rows kept so far as
    row := (lead / g) * row - (x / g) * kept, x its entry at the kept pivot
    and g = gcd(lead, x), divided by its content and sign at its leading
    column, and then cancelled the same way from each kept row that holds
    that column, popped from every kept row: no index of kept pivots by
    column is kept, as its upkeep costs more than the scan on small systems.
    No step does arithmetic on a zero entry. The reduced form is unique, so
    the order of the rows changes nothing.
    """
    kept: dict[int, list] = {}  # pivot -> [lead, tail]
    for row in rows:
        for p in [c for c in row if c in kept]:
            lead, tail = kept[p]
            x = row.pop(p)
            if lead == 1:
                _combine(row, 1, x, tail)
            else:
                g = gcd(lead, x)
                _combine(row, lead // g, x // g, tail)
        if not row:
            continue
        c = min(row)
        lead = row.pop(c)
        if lead != 1:
            g = gcd(lead, *row.values())
            if lead < 0:
                g = -g
            if g != 1:
                lead //= g
                for j in row:
                    row[j] //= g
        for entry in kept.values():
            other = entry[1]
            y = other.pop(c, 0)
            if y:
                g = gcd(lead, y)
                m = lead // g
                _combine(other, m, y // g, row)
                klead = entry[0] * m
                g = gcd(klead, *other.values())
                if g != 1:
                    klead //= g
                    for j in other:
                        other[j] //= g
                entry[0] = klead
        kept[c] = [lead, row]
    return [(c, lead, tail) for c, (lead, tail) in sorted(kept.items())]


def _solve_ints(
    columns: Sequence[Iterable[tuple[int, int]]],
    height: int,
    targets: Sequence[Iterable[tuple[int, int]]],
) -> list[list[tuple[int, int, int]] | None]:
    """Solve A x = b for each target b, with free variables pinned to zero, in integers.

    A has these integer columns and b these integer right-hand sides, each
    given by the (row, entry) pairs of its nonzero entries. One elimination
    of [A | b_1 ... b_k] is shared by all targets; a pivot landing in a
    target's column marks a row whose A-part vanished, and a target is
    consistent exactly when those rows carry zero in its column. Returns, per
    target, None if it is inconsistent, else its solution's nonzero entries
    as (column, a, lead) triples, x_column = a / lead.
    """
    ncols = len(columns)
    rows: list[dict[int, int]] = [{} for _ in range(height)]
    for j, col in enumerate(chain(columns, targets)):
        for i, a in col:
            rows[i][j] = a
    reduced = _echelon(rows)
    solved = [(c, lead, tail) for c, lead, tail in reduced if c < ncols]
    vanished = [(c, tail) for c, _, tail in reduced if c >= ncols]
    out: list[list[tuple[int, int, int]] | None] = []
    for col in range(ncols, ncols + len(targets)):
        if any(c == col or col in tail for c, tail in vanished):
            out.append(None)
        else:
            out.append([(c, a, lead) for c, lead, tail in solved if (a := tail.get(col))])
    return out


def _json_shape(data, rows: int | None, cols: int | None) -> int:
    """Check that JSON matrix data is a list of `rows` lists of `cols` entries each; return cols.

    cols defaults to the length of the first row; a ParseError names the
    first mismatch.
    """
    if not isinstance(data, list) or any(not isinstance(r, list) for r in data):
        raise ParseError("matrix must be a list of rows")
    if rows is not None and len(data) != rows:
        raise ParseError(f"expected {rows} rows, found {len(data)}")
    width = (len(data[0]) if data else 0) if cols is None else cols
    for r in data:
        if len(r) != width:
            raise ParseError(f"expected {width} columns, found {len(r)}")
    return width


@dataclass(frozen=True)
class Matrix:
    """Immutable rational matrix acting on column vectors, held in one integer form.

    `den` is the lcm of the denominators of the entries (1 for a zero
    matrix) and `columns` holds den times the matrix, as the (row, integer)
    pairs of each column's nonzero entries, by row. This form is unique, so
    equal matrices hold equal fields. `entries`, the Fraction rows, is a
    view built when first read.
    """

    rows: int
    cols: int
    den: int
    columns: tuple[tuple[tuple[int, int], ...], ...]

    def __post_init__(self):
        if len(self.columns) != self.cols:
            raise InvariantError("matrix columns inconsistent with declared shape")

    @cached_property
    def entries(self) -> tuple[Vector, ...]:
        out = [[Q0] * self.cols for _ in range(self.rows)]
        for j, col in enumerate(self.columns):
            for i, a in col:
                out[i][j] = _q(a, self.den)
        return tuple(map(tuple, out))

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
        return Matrix._of_cols(zip(*data) if data else [()] * width, len(data))

    @staticmethod
    def _of_cols(cols: Iterable[Sequence[int | Fraction]], rows: int) -> "Matrix":
        """The matrix with these columns, each a sequence of `rows` Fractions or ints, as they are.

        For columns the engine built itself (coset coordinates, basis rows,
        algebra coefficient maps); from_rows is the checked constructor for
        any other columns.
        """
        nonzeros = [_pairs(c) for c in cols]
        den = lcm(*[a.denominator for col in nonzeros for _, a in col])
        return Matrix(rows, len(nonzeros), den, tuple([
            tuple([(i, a.numerator * (den // a.denominator)) for i, a in col])
            for col in nonzeros
        ]))

    @staticmethod
    @cache
    def zeros(rows: int, cols: int) -> "Matrix":
        """The zero matrix of a shape, one per shape: matrices are immutable."""
        return Matrix(rows, cols, 1, ((),) * cols)

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix(n, n, 1, tuple([((i, 1),) for i in range(n)]))

    def column_vectors(self) -> list[Vector]:
        return [tuple(r[j] for r in self.entries) for j in range(self.cols)]

    def apply(self, v: Vector) -> Vector:
        """Matrix times v, through _apply_ints on v scaled to integers."""
        if len(v) != self.cols:
            raise InvariantError(f"matrix of {self.cols} columns applied to length-{len(v)} vector")
        pairs = _pairs(v)
        if not pairs:
            return vzero(self.rows)
        den = lcm(*[b.denominator for _, b in pairs])
        (p, lead), *tail = [(j, b.numerator * (den // b.denominator)) for j, b in pairs]
        den *= self.den
        return tuple([_q(a, den) if a else Q0 for a in self._apply_ints((p, lead, tail))])

    def _apply_ints(self, row: Row) -> list[int]:
        """den times this matrix times the integer vector lead e_p + tail of row = (p, lead, tail).

        For a Row that is den * lead times the image of the rational row it
        stands for, as a dense integer vector.
        """
        p, lead, tail = row
        cols = self.columns
        out = [0] * self.rows
        for i, a in cols[p]:
            out[i] = a * lead
        for j, b in tail:
            for i, a in cols[j]:
                out[i] += a * b
        return out

    def __matmul__(self, other: "Matrix") -> "Matrix":
        """The product, summed in integers over both columns and put in lowest terms."""
        if self.cols != other.rows:
            raise InvariantError("matrix product shape mismatch")
        left = self.columns
        sums = []
        for col in other.columns:
            out = [0] * self.rows
            for j, b in col:
                for i, a in left[j]:
                    out[i] += a * b
            sums.append(_pairs(out))
        # the sums are den * den' times the product; g divides out their common factor
        den = self.den * other.den
        g = gcd(den, *[a for col in sums for _, a in col])
        return Matrix(self.rows, other.cols, den // g, tuple([
            tuple([(i, a // g) for i, a in col]) for col in sums
        ]))

    def is_zero(self) -> bool:
        return not any(self.columns)

    def _sparse_rows(self) -> list[dict[int, int]]:
        """The rows of den times this matrix, as sparse integer rows for _echelon."""
        rows: list[dict[int, int]] = [{} for _ in range(self.rows)]
        for j, col in enumerate(self.columns):
            for i, a in col:
                rows[i][j] = a
        return rows

    def rank(self) -> int:
        if self.is_zero():
            return 0
        if self.rows == 1 or self.cols == 1:
            return 1
        return len(_echelon(self._sparse_rows()))

    def _null_rows(self) -> tuple[list[dict[int, int]], int]:
        """Canonical kernel basis, one integer row per free column, and their denominator.

        The kernel vector of free column j is 1 at j and -a / lead at the
        pivot of each reduced row with entry a at j; its row here is that
        vector times den, the lcm of the leads.
        """
        reduced = _echelon(self._sparse_rows())
        den = lcm(*[lead for _, lead, _ in reduced])
        free = {j: {j: den} for j in range(self.cols)}
        for c, lead, tail in reduced:
            del free[c]
            m = den // lead
            for j, a in tail.items():
                free[j][c] = -a * m
        return list(free.values()), den

    def nullspace(self) -> list[Vector]:
        """Canonical basis of the kernel, one vector per free column."""
        rows, den = self._null_rows()
        out = []
        for row in rows:
            v = [Q0] * self.cols
            for j, a in row.items():
                v[j] = _q(a, den)
            out.append(tuple(v))
        return out

    def solve_many(self, targets: Sequence[Vector]) -> list[Vector | None]:
        """Solve A x = b for each b, with free variables pinned to zero; None if inconsistent.

        The integer solve of den A against den w, for each target b = w / m,
        gives m x.
        """
        targets = [vec(b) for b in targets]
        for b in targets:
            if len(b) != self.rows:
                raise InvariantError("solve target has wrong length")
        if self.rows == 0:
            return [vzero(self.cols) for _ in targets]
        den, cols = self.den, self.columns
        scales, rhs = [], []
        for b in targets:
            w, m = _cleared(b)
            scales.append(m)
            rhs.append([(i, a * den) for i, a in enumerate(w) if a])
        out: list[Vector | None] = []
        for x, m in zip(_solve_ints(cols, self.rows, rhs), scales):
            if x is None:
                out.append(None)
                continue
            v = [Q0] * self.cols
            for c, a, lead in x:
                v[c] = _q(a, lead * m)
            out.append(tuple(v))
        return out

    def to_json(self) -> list[list[str]]:
        return [[str(a) for a in row] for row in self.entries]

    @staticmethod
    def from_json(
        data, rows: int | None = None, cols: int | None = None, memo: dict | None = None
    ) -> "Matrix":
        """The matrix of JSON rows; memo is shared by the reads of one load (see _scalars)."""
        cols = _json_shape(data, rows, cols)
        read = _scalars(data, {} if memo is None else memo)
        den = lcm(*[b for row in read for _, b in row])
        columns: list[list[tuple[int, int]]] = [[] for _ in range(cols)]
        for i, row in enumerate(read):
            for col, (a, b) in zip(columns, row):
                if a:
                    col.append((i, a * (den // b)))
        return Matrix(len(read), cols, den, tuple(map(tuple, columns)))


@dataclass(frozen=True)
class Subspace:
    """A subspace of Q^ambient_dim in its canonical reduced echelon basis.

    It holds only the basis rows as Rows (`tails`), in pivot order, and
    equal subspaces hold equal Rows. `basis_rows` is a Fraction view of
    them, built when first read.
    """

    ambient_dim: int
    tails: tuple[Row, ...]

    @cached_property
    def pivots(self) -> tuple[int, ...]:
        return tuple([p for p, _, _ in self.tails])

    @cached_property
    def basis_rows(self) -> tuple[Vector, ...]:
        return tuple([_dense(row, self.ambient_dim) for row in self.tails])

    @staticmethod
    def _of(ambient_dim: int, reduced: list[tuple[int, int, dict]], shift: int = 0) -> "Subspace":
        """The subspace with these _echelon rows, their columns moved down by shift."""
        return Subspace(ambient_dim, tuple([
            (c - shift, lead, tuple(sorted([(j - shift, a) for j, a in tail.items()])))
            for c, lead, tail in reduced
        ]))

    @staticmethod
    def _span_ints(ambient_dim: int, rows: Iterable[dict[int, int]]) -> "Subspace":
        """The span of sparse integer rows ({column: nonzero int}; consumed)."""
        return Subspace._of(ambient_dim, _echelon(rows))

    def _rows(self) -> list[dict[int, int]]:
        """The basis rows as fresh sparse integer rows for _echelon."""
        rows = []
        for p, lead, tail in self.tails:
            row = dict(tail)
            row[p] = lead
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
            rows.append(_int_row(_pairs(w)))
        return Subspace._span_ints(ambient_dim, rows)

    @staticmethod
    def _from_json(data, ambient_dim: int, memo: dict[str, tuple[int, int]]) -> "Subspace":
        """The span of the columns of a JSON basis matrix with ambient_dim rows.

        It raises the ParseErrors of Matrix.from_json, at the same entries,
        and reads each column straight to integers; memo is as there.
        """
        _json_shape(data, ambient_dim, None)
        rows = []
        for col in zip(*_scalars(data, memo)):
            den = lcm(*[b for _, b in col])
            rows.append({i: a * (den // b) for i, (a, b) in enumerate(col) if a})
        return Subspace._span_ints(ambient_dim, rows)

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, ())

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, tuple([(p, 1, ()) for p in range(ambient_dim)]))

    @property
    def dim(self) -> int:
        return len(self.tails)

    def basis(self) -> Matrix:
        """Basis matrix whose columns are the canonical basis vectors."""
        return Matrix._of_cols(self.basis_rows, self.ambient_dim)

    def is_zero(self) -> bool:
        return not self.tails

    def is_full(self) -> bool:
        return self.dim == self.ambient_dim

    def _holds(self, w: list[int]) -> bool:
        """Whether the integer vector w lies in the span; w is consumed."""
        _eliminate(w, 1, self.tails)
        return not any(w)

    def contains_vector(self, v: Sequence) -> bool:
        return self._holds(_cleared(vec(v))[0])

    def contains(self, other: "Subspace") -> bool:
        return all(self._holds(_row_ints(row, self.ambient_dim)) for row in other.tails)

    def intersect(self, other: "Subspace") -> "Subspace":
        """self cap other: the preimage of other under the identity on self."""
        return preimage(Matrix.identity(self.ambient_dim), other, self)

    def to_json(self) -> list[list[str]]:
        return self.basis().to_json()


def kernel(f: Matrix) -> Subspace:
    if f.is_zero():
        return Subspace.full(f.cols)
    return Subspace._span_ints(f.cols, f._null_rows()[0])


def image(f: Matrix) -> Subspace:
    return Subspace._span_ints(f.rows, (dict(c) for c in f.columns))


def preimage(f: Matrix, target: Subspace, source: Subspace) -> Subspace:
    """Subspace {x in source : f(x) in target}, source itself where f(source) <= target.

    f of each Row s of source is reduced by target first; where every one
    lies in target, source is returned with nothing eliminated (a full
    target among them). Otherwise it is the Zassenhaus construction, one
    reduction over the rows (f s | s), for the Rows s of source, and
    (g | 0), for the Rows g of target: den * lead times each left block is
    the image f._apply_ints(s) already computed, so the right block is
    scaled to match. The reduced rows whose pivots lie past the left block
    have a zero left block, and their right blocks are already the canonical
    basis of the preimage.
    """
    if target.ambient_dim != f.rows or source.ambient_dim != f.cols:
        raise InvariantError("preimage target or source lives in the wrong ambient space")
    if target.is_full():
        return source
    images = [f._apply_ints(s) for s in source.tails]
    if all(target._holds(fs[:]) for fs in images):
        return source
    split, den = f.rows, f.den
    rows = target._rows()
    for s, fs in zip(source.tails, images):
        p, lead, tail = s
        row = dict(_pairs(fs))
        row[split + p] = den * lead
        for j, c in tail:
            row[split + j] = den * c
        rows.append(row)
    return Subspace._of(f.cols, [row for row in _echelon(rows) if row[0] >= split], shift=split)


@dataclass(frozen=True)
class Subquotient:
    """A pair B <= Z <= Q^ambient with a canonical complement basis for Z/B.

    The complement is the subset of Z's echelon basis whose pivots are not
    pivots of B; together with B it spans Z, and its classes form the
    canonical basis of Z/B used for all induced maps. Each complement row
    is zero at every pivot of B and at the other pivots of Z. It is held
    as Rows (`tails`); `complement` is their Fraction view, built when
    first read.
    """

    Z: Subspace
    B: Subspace
    tails: tuple[Row, ...] = field(compare=False, repr=False)

    @cached_property
    def complement(self) -> tuple[Vector, ...]:
        return tuple([_dense(row, self.ambient_dim) for row in self.tails])

    @staticmethod
    def of(Z: Subspace, B: Subspace) -> "Subquotient":
        if Z.ambient_dim != B.ambient_dim:
            raise InvariantError("subquotient numerator and denominator ambient mismatch")
        if not Z.contains(B):
            raise ContainmentError("denominator is not contained in numerator")
        in_b = set(B.pivots)
        return Subquotient(Z, B, tuple([row for row in Z.tails if row[0] not in in_b]))

    @staticmethod
    def zero(ambient_dim: int) -> "Subquotient":
        z = Subspace.zero(ambient_dim)
        return Subquotient(z, z, ())

    @property
    def ambient_dim(self) -> int:
        return self.Z.ambient_dim

    @property
    def dim(self) -> int:
        return len(self.tails)

    def _coords(self, w: list[int], den: int) -> Vector | None:
        """Coset coordinates of w / den, w consumed in place; None if it is outside Z.

        w minus its B-part has, at each complement pivot, its coordinate on
        that complement row; the rest of w is then zero exactly when w lies in Z.
        """
        den = _eliminate(w, den, self.B.tails)[1]
        cs = _eliminate(w, den, self.tails)[0]
        return None if any(w) else tuple(_q(c, d) if c else Q0 for c, d in cs)

    def coset_coords(self, v: Sequence) -> Vector:
        """Coordinates of [v] over the canonical complement basis.

        Errors if v does not lie in Z.
        """
        w = vec(v)
        if len(w) != self.ambient_dim:
            raise InvariantError("coset vector has wrong length")
        cs = self._coords(*_cleared(w))
        if cs is None:
            raise ContainmentError(
                "vector outside the subquotient numerator",
                witness=[str(a) for a in w],
            )
        return cs

    def _lift_ints(self, coords: Iterable[tuple[int, int]]) -> tuple[dict[int, int], int]:
        """m times the lift of integer coordinates, as a sparse integer row, and m.

        coords are the (index, entry) pairs of the nonzero coordinates; the
        lift is the sum of c * (lead e_p + tail) / lead over the complement
        rows, and m is the lcm of the leads of the rows in use. No complement
        row is nonzero at the pivot of another.
        """
        coords = list(coords)
        m = lcm(*[self.tails[k][1] for k, _ in coords])
        out: dict[int, int] = {}
        for k, c in coords:
            p, lead, tail = self.tails[k]
            out[p] = c * m
            c *= m // lead
            for i, a in tail:
                out[i] = out.get(i, 0) + c * a
        return {i: a for i, a in out.items() if a}, m

    def lift(self, coords: Sequence) -> Vector:
        cs = vec(coords)
        if len(cs) != self.dim:
            raise InvariantError("coset coordinates have wrong length")
        ws, den = _cleared(cs)
        out, m = self._lift_ints(_pairs(ws))
        v = [Q0] * self.ambient_dim
        for i, a in out.items():
            v[i] = _q(a, den * m)
        return tuple(v)


def induced_map(f: Matrix, source: Subquotient, target: Subquotient) -> Matrix:
    """Matrix of the map Z/B -> Z'/B' induced by f, in complement coordinates.

    Checks f(Z) <= Z' and f(B) <= B'; a violation raises ContainmentError
    naming the offending basis vector. f is applied once per basis vector of
    Z and of B, as _apply_ints on its Row: the complement rows are rows of
    Z, so the coset coordinates of their images come out of the numerator
    check.
    """
    if f.cols != source.ambient_dim or f.rows != target.ambient_dim:
        raise InvariantError("induced map shape mismatch")
    den = f.den
    coords = {}
    for i, z in enumerate(source.Z.tails):
        # f._apply_ints(z) is den * lead times f of the rational row z
        coords[z[0]] = target._coords(f._apply_ints(z), den * z[1])
        if coords[z[0]] is None:
            raise ContainmentError(
                f"image of numerator basis vector {i} leaves the target numerator",
                witness=[str(a) for a in source.Z.basis_rows[i]],
            )
    for i, b in enumerate(source.B.tails):
        if not target.B._holds(f._apply_ints(b)):
            raise ContainmentError(
                f"image of denominator basis vector {i} leaves the target denominator",
                witness=[str(a) for a in source.B.basis_rows[i]],
            )
    return Matrix._of_cols([coords[p] for p, _, _ in source.tails], target.dim)


def pairing_rank(gram: Matrix) -> tuple[int, bool]:
    """Rank of a Gram matrix and whether the pairing is non-degenerate."""
    if gram.rows != gram.cols:
        raise InvariantError(f"Gram matrix must be square, got {gram.rows}x{gram.cols}")
    r = gram.rank()
    return r, r == gram.rows


def sparse_rank(rows: list[dict[int, Fraction]]) -> int:
    """Rank of a sparse system given as {column: coefficient} rows.

    Coefficients are anything `scalar` reads; each row is scaled to
    integers for the elimination, and int coefficients are used as they are.
    """
    read = ({c: coefficient(a) for c, a in r.items()} for r in rows)
    return len(_echelon(_int_row((c, a) for c, a in r.items() if a) for r in read))
