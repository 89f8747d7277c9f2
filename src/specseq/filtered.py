"""Bounded cochain complexes over Q with decreasing filtrations.

A CochainComplex stores one space per degree in a bounded range and the
differentials between them; d compose to zero by construction. A
FilteredComplex adds a decreasing, exhaustive, bounded filtration compatible
with d. The cycle spaces F^a cap d^{-1}F^b are returned in explicit bases,
and dim H^n is read off the ranks of the differentials (betti).
"""

from __future__ import annotations

from itertools import chain

from .errors import InvariantError, ParseError
from .linalg import (
    Matrix,
    Subquotient,
    Subspace,
    json_int,
    key_int,
    preimage,
)

# caps on a complex read from JSON, checked before anything of that size is
# built: hi - lo, the span of the filtration level keys, and each dims value
MAX_DEGREE_SPAN, MAX_LEVEL_SPAN, MAX_DIM = 1_000, 1_000, 10_000


def _parsed_at(location: str, parse, *args):
    """parse(*args), with a parse error reported at the given input key."""
    try:
        return parse(*args)
    except ParseError as exc:
        raise ParseError(str(exc), location=location) from exc


def _basis_key(n: int, basis) -> tuple | None:
    """(n, the rows of basis as tuples of its raw entries) for a list of lists, else None.

    Only a basis of strings is kept under its key, so a later basis hits it
    only with the same literal strings: JSON 1, 1.0 and true compare equal,
    but none of them equals a string. A basis with no key, an unhashable
    entry included, is read afresh, and the read rejects it.
    """
    if type(basis) is not list or set(map(type, basis)) != {list}:
        return None
    key = (n, tuple(map(tuple, basis)))
    try:
        hash(key)
    except TypeError:
        return None
    return key


class CochainComplex:
    """Spaces K^n for lo <= n <= hi with differentials d^n : K^n -> K^{n+1}."""

    def __init__(self, lo: int, hi: int, dims: dict[int, int], d: dict[int, Matrix]):
        if lo > hi:
            raise InvariantError("empty degree range")
        self.lo = lo
        self.hi = hi
        self.dims = {n: int(dims.get(n, 0)) for n in range(lo, hi + 1)}
        if any(v < 0 for v in self.dims.values()):
            raise InvariantError("negative dimension")
        self.d = {}
        for n in range(lo, hi):
            mat = d.get(n)
            if mat is None:
                mat = Matrix.zeros(self.dims[n + 1], self.dims[n])
            if (mat.rows, mat.cols) != (self.dims[n + 1], self.dims[n]):
                raise InvariantError(f"differential at degree {n} has the wrong shape")
            self.d[n] = mat
        self.ranks: dict[int, int] = {}  # n -> rank d^n, filled by betti
        for n in range(lo, hi - 1):
            if not (self.d[n + 1] @ self.d[n]).is_zero():
                raise InvariantError(f"d o d != 0 between degrees {n} and {n + 2}", witness=n)

    def degrees(self) -> range:
        return range(self.lo, self.hi + 1)

    def dim(self, n: int) -> int:
        return self.dims.get(n, 0)

    def diff(self, n: int) -> Matrix:
        """d^n with zero fallback outside the stored range."""
        hit = self.d.get(n)
        if hit is not None:
            return hit
        return Matrix.zeros(self.dim(n + 1), self.dim(n))

    def betti(self, n: int) -> int:
        """dim H^n(K) by rank-nullity: dim K^n - rank d^n - rank d^{n-1}.

        Each differential is ranked once, on the first call that needs it.
        """
        if n < self.lo or n > self.hi:
            return 0
        return self.dim(n) - self._rank(n) - self._rank(n - 1)

    def _rank(self, n: int) -> int:
        hit = self.ranks.get(n)
        if hit is None:
            hit = self.ranks[n] = self.diff(n).rank()
        return hit

    def to_json(self) -> dict:
        return {
            "degrees": [self.lo, self.hi],
            "dims": {str(n): self.dims[n] for n in self.degrees()},
            "d": {str(n): self.d[n].to_json() for n in range(self.lo, self.hi)},
        }

    @staticmethod
    def from_json(data: dict, memo: dict | None = None) -> "CochainComplex":
        """The complex of a JSON object; memo is as in Matrix.from_json."""
        try:
            lo, hi = (json_int(x) for x in data["degrees"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError("degrees must be a [lo, hi] pair", location="degrees") from exc
        if lo > hi:
            raise ParseError(f"degrees [{lo}, {hi}] have lo > hi", location="degrees")
        if hi - lo > MAX_DEGREE_SPAN:
            raise ParseError(f"span of [{lo}, {hi}] exceeds {MAX_DEGREE_SPAN}", location="degrees")
        dims_raw = data.get("dims", {})
        if not isinstance(dims_raw, dict):
            raise ParseError("dims must be an object", location="dims")
        try:
            dims = {key_int(k): json_int(v) for k, v in dims_raw.items()}
        except (TypeError, ValueError) as exc:
            raise ParseError("dims keys and values must be integers", location="dims") from exc
        for k, v in dims_raw.items():
            if not lo <= int(k) <= hi:
                raise ParseError(f"degree outside [{lo}, {hi}]", location=f"dims.{k}")
            if v < 0:
                raise ParseError(
                    f"dimension must not be negative, found {v}", location=f"dims.{k}"
                )
            if v > MAX_DIM:
                raise ParseError(f"dimension {v} exceeds {MAX_DIM}", location=f"dims.{k}")
        d = {}
        d_raw = data.get("d", {})
        if not isinstance(d_raw, dict):
            raise ParseError("d must be an object", location="d")
        for k, matdata in d_raw.items():
            try:
                n = key_int(k)
            except ValueError as exc:
                raise ParseError(f"bad degree key {k!r}", location="d") from exc
            if not lo <= n < hi:
                raise ParseError(f"degree outside [{lo}, {hi})", location=f"d.{k}")
            d[n] = _parsed_at(
                f"d.{k}", Matrix.from_json, matdata, dims.get(n + 1, 0), dims.get(n, 0), memo
            )
        return CochainComplex(lo, hi, dims, d)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CochainComplex)
            and self.lo == other.lo
            and self.hi == other.hi
            and self.dims == other.dims
            and self.d == other.d
        )


class Filtration:
    """Decreasing filtration: one Subspace of K^n per level p in [p_lo, p_top].

    Storage is complete over the rectangle of levels and degrees. F^{p_lo} is
    the whole space and F^{p_top} is zero in every degree; FilteredComplex.F
    clamps outside the range. The FilteredComplex load, which checks that
    each level contains the next, stores one Subspace object for each run of
    equal levels in a degree.
    """

    def __init__(self, p_lo: int, p_top: int, table: dict[tuple[int, int], Subspace]):
        if p_lo >= p_top:
            raise InvariantError("filtration needs at least the full and the zero level")
        degrees = sorted({n for (_, n) in table})

        def all_full(p: int) -> bool:
            return all((p, n) in table and table[(p, n)].is_full() for n in degrees)

        def all_zero(p: int) -> bool:
            return all((p, n) in table and table[(p, n)].is_zero() for n in degrees)

        # canonical tight bounds: drop redundant outer levels
        while p_lo + 1 < p_top and all_full(p_lo + 1):
            p_lo += 1
        while p_top - 1 > p_lo and all_zero(p_top - 1):
            p_top -= 1
        self.p_lo = p_lo
        self.p_top = p_top
        self.table = {
            (p, n): sub for (p, n), sub in table.items() if p_lo <= p <= p_top
        }

    @staticmethod
    def from_sparse(
        cx: CochainComplex, levels: dict[int, dict[int, Subspace]]
    ) -> "Filtration":
        """Complete a sparsely given filtration.

        For each degree the subspace is the full space below the first
        specified level, constant between specified levels, and zero from the
        top sentinel level onwards.
        """
        if not levels:
            p_lo, p_top = 0, 1
        else:
            p_lo = min(levels)
            p_top = max(levels) + 1
        table: dict[tuple[int, int], Subspace] = {}
        for n in cx.degrees():
            current = Subspace.full(cx.dim(n))
            for p in range(p_lo, p_top + 1):
                if p == p_top:
                    current = Subspace.zero(cx.dim(n))
                else:
                    spec = levels.get(p, {})
                    if n in spec:
                        current = spec[n]
                table[(p, n)] = current
        return Filtration(p_lo, p_top, table)


class FilteredComplex:
    """A cochain complex together with a compatible decreasing filtration."""

    def __init__(self, cx: CochainComplex, filtration: Filtration):
        self.cx = cx
        self.filtration = filtration
        # cycles, keyed by the rungs of the subspaces they read
        self._cycles: dict[tuple[int, int, int], Subspace] = {}
        self._rungs: dict[tuple[int, int], int] = {}  # filled by _validate
        self.pages: list = []  # E_1, E_2, ... as built by any SpectralSequence(self)
        self.bars = None  # the spectral.Barcode, once barcode(self) has run
        # page_direct cells, keyed by the rungs of the subspaces they read
        self.direct_cells: dict[tuple[int, int, int, int, int], Subquotient] = {}
        self._validate()

    def _validate(self):
        f = self.filtration
        for n in self.cx.degrees():
            top = f.table.get((f.p_lo, n))
            at_lo = {"level": f.p_lo, "degree": n}
            if top is None:
                raise InvariantError(
                    f"filtration table missing level {f.p_lo} at degree {n}", witness=at_lo
                )
            if not top.is_full():
                raise InvariantError(
                    f"lowest filtration level is not the whole space at degree {n}",
                    witness=at_lo,
                )
            bottom = f.table.get((f.p_top, n))
            if bottom is None or not bottom.is_zero():
                raise InvariantError(
                    f"highest filtration level is not zero at degree {n}",
                    witness={"level": f.p_top, "degree": n},
                )
            for p in range(f.p_lo, f.p_top + 1):
                sub = f.table.get((p, n))
                at = {"level": p, "degree": n}
                if sub is None:
                    raise InvariantError(
                        f"filtration table missing level {p} at degree {n}", witness=at
                    )
                if sub.ambient_dim != self.cx.dim(n):
                    raise InvariantError(
                        f"filtration level {p} has wrong ambient at degree {n}", witness=at
                    )
                self._rungs[(p, n)] = p
                if p == f.p_lo:
                    continue
                above = f.table[(p - 1, n)]
                # F^p equal to F^{p-1} is contained in it, with nothing to
                # reduce, and becomes the same object, of the same rung: each
                # run of equal levels holds one, so that identity follows equality
                if sub == above:
                    f.table[(p, n)] = above
                    self._rungs[(p, n)] = self._rungs[(p - 1, n)]
                elif not above.contains(sub):
                    # the first basis vector of F^p outside F^{p-1}
                    v = next(v for v in sub.basis_rows if not above.contains_vector(v))
                    at["vector"] = [str(a) for a in v]
                    raise InvariantError(
                        f"filtration is not decreasing at level {p}, degree {n}", witness=at
                    )
        for n in range(self.cx.lo, self.cx.hi):
            d = self.cx.diff(n)
            # every F^p is d-stable iff d maps into F^p the basis rows of F^p
            # whose pivots F^{p+1} lacks, which span F^p modulo F^{p+1}; only
            # after a failure are the levels scanned for the first failing one
            added = (
                (p, row)
                for p in range(f.p_lo, f.p_top)
                for row in self.F(p, n).tails
                if row[0] not in self.F(p + 1, n).pivots
            )
            if all(self.F(p, n + 1)._holds(d._apply_ints(row)) for p, row in added):
                continue
            for p in range(f.p_lo, f.p_top + 1):
                tgt = self.F(p, n + 1)
                src = self.F(p, n)
                for row, v in zip(src.tails, src.basis_rows):
                    if not tgt._holds(d._apply_ints(row)):
                        raise InvariantError(
                            f"differential leaves level {p} between degrees {n} and {n + 1}",
                            witness=[str(a) for a in v],
                        )

    @property
    def p_lo(self) -> int:
        return self.filtration.p_lo

    @property
    def p_top(self) -> int:
        return self.filtration.p_top

    def levels(self) -> range:
        """Levels at which the filtration can be a proper nonzero subspace."""
        return range(self.p_lo, self.p_top)

    def width(self) -> int:
        return (self.p_top - 1) - self.p_lo

    def F(self, p: int, n: int) -> Subspace:
        """F^p K^n, stored at level clamp(p); the zero space of Q^0 outside the degrees."""
        # a stored level is read straight from the table, before any clamping
        table = self.filtration.table
        hit = table.get((p, n))
        if hit is not None:
            return hit
        if n < self.cx.lo or n > self.cx.hi:
            return Subspace.zero(0)
        return table[(self.clamp(p), n)]

    def clamp(self, p: int) -> int:
        """The stored level equal to F^p: p clamped to [p_lo, p_top]."""
        f = self.filtration
        return min(max(p, f.p_lo), f.p_top)

    def rung(self, p: int, n: int) -> int:
        """The lowest stored level whose F K^n is F^p K^n; p_lo outside the degrees.

        Equal levels of one degree form a run and share one Subspace object
        (see Filtration), so a key made of rungs names the subspaces read,
        whichever levels asked for them. _validate records the rungs.
        """
        hit = self._rungs.get((p, n))
        if hit is None:
            hit = self._rungs.get((self.clamp(p), n), self.p_lo)
        return hit

    def d_preimage(self, p: int, n: int) -> Subspace:
        """{x in K^n : d(x) in F^p K^{n+1}}: cycles from the full level F^{p_lo}."""
        return self.cycles(self.p_lo, p, n)

    def cycles(self, a: int, b: int, n: int) -> Subspace:
        """F^a K^n cap d^{-1}(F^b K^{n+1}), computed once per distinct pair of subspaces.

        It is preimage(d, F^b K^{n+1}, F^a K^n), one Zassenhaus reduction.
        It is the stored F^a K^n, with nothing reduced, where clamp(b) <=
        clamp(a) (F^a is d-stable, so d F^a <= F^a <= F^b), where F^a and
        F^b have one dimension in degree n (then F^b K^n = F^a K^n, as load
        checked F^b <= F^a, so d F^a = d F^b <= F^b), and where d maps each
        basis row of F^a K^n into F^b K^{n+1}, a whole F^b K^{n+1} among
        them (preimage tests that before it eliminates). The cap is kept
        under the rungs of F^a K^n and F^b K^{n+1}, so levels that name the
        same two subspaces share it.
        """
        a, b = self.clamp(a), self.clamp(b)
        fa = self.F(a, n)
        if b <= a or fa.dim == self.F(b, n).dim:
            return fa
        key = (self.rung(a, n), self.rung(b, n + 1), n)
        hit = self._cycles.get(key)
        if hit is None:
            hit = self._cycles[key] = preimage(self.cx.diff(n), self.F(b, n + 1), fa)
        return hit

    def to_json(self) -> dict:
        out = self.cx.to_json()
        filt: dict[str, dict[str, list]] = {}
        for p in range(self.p_lo, self.p_top + 1):
            filt[str(p)] = {
                str(n): self.F(p, n).to_json() for n in self.cx.degrees()
            }
        out["filtration"] = filt
        return out

    @staticmethod
    def from_json(data: dict) -> "FilteredComplex":
        # each distinct literal string is parsed once, for d and the bases alike
        memo: dict = {}
        cx = CochainComplex.from_json(data, memo)
        filt_raw = data.get("filtration")
        if not isinstance(filt_raw, dict) or not filt_raw:
            raise ParseError("filtration must be a non-empty object", location="filtration")
        levels: dict[int, dict[int, Subspace]] = {}
        # each distinct basis of literal strings is reduced once per degree
        read: dict[tuple, Subspace] = {}
        for pk, by_degree in filt_raw.items():
            try:
                p = key_int(pk)
            except ValueError as exc:
                raise ParseError(f"bad level key {pk!r}", location="filtration") from exc
            if not isinstance(by_degree, dict):
                raise ParseError(f"level {pk} must be an object", location="filtration")
            levels[p] = {}
            for nk, basis in by_degree.items():
                try:
                    n = key_int(nk)
                except ValueError as exc:
                    raise ParseError(f"bad degree key {nk!r}", location="filtration") from exc
                where = f"filtration.{pk}.{nk}"
                if not cx.lo <= n <= cx.hi:
                    raise ParseError(f"degree outside [{cx.lo}, {cx.hi}]", location=where)
                amb = cx.dim(n)
                if basis == []:
                    levels[p][n] = Subspace.zero(amb)
                    continue
                key = _basis_key(n, basis)
                sub = read.get(key)
                if sub is None:
                    sub = _parsed_at(where, Subspace._from_json, basis, amb, memo)
                    if key and set(map(type, chain.from_iterable(basis))) == {str}:
                        read[key] = sub
                levels[p][n] = sub
        lo, hi = min(levels), max(levels)
        if hi - lo > MAX_LEVEL_SPAN:
            raise ParseError(
                f"span of [{lo}, {hi}] exceeds {MAX_LEVEL_SPAN}", location="filtration"
            )
        filtration = Filtration.from_sparse(cx, levels)
        return FilteredComplex(cx, filtration)
