"""Spectral sequence pages of a filtered cochain complex.

Every page cell is stored as a subquotient of the original space K^{p+q},
never as a quotient of quotients. Three independent routes give the pages:

* first_page + turn_page: the first page comes from the filtration, and each
  later page is built from the previous one using only its cells, its
  differentials, and the underlying d (representative lifts are solved in
  the canonical complement bases).
* page_direct: the classical cycle/boundary formula evaluated from scratch
  on the filtration for any r.
* barcode: one persistence reduction of d in a filtration-adapted basis,
  from which every page's dimensions are read (dimensions only, no maps).

The three must agree cellwise in dimension; the fuzz suites and the oracle
command enforce exactly that.

Nothing is computed twice, and nothing the filtration already answers is
computed at all. A turn carries the cells d_r leaves alone: when the d_r
into and out of a cell are both zero, page r+1 holds the same Subquotient
object. The filtered complex computes each F^a cap d^{-1}F^b and each
page_direct cell once per clamped level, and returns F^a itself where
clamp(b) <= clamp(a). Where a graded piece is empty, F^p = F^{p+1} in
degree p+q, E_1^{p,q} is F^p/F^p and the direct cell is Z_r/Z_r, read off
the filtration with no elimination; load has checked that it is nested and
d-stable, and reduced bases are canonical, so these equal the cells the
formulas build. A page keeps one zero matrix per shape for the
differentials it does not store. page_direct still reads only the
filtration and never a turned page: it takes the empty-piece rule from the
filtration, as first_page does, and so stays a route independent of the
turns.
"""

from __future__ import annotations

from collections import Counter
from math import gcd, lcm
from typing import Mapping, NamedTuple

from .errors import EngineError, InvariantError
from .filtered import CochainComplex, FilteredComplex, Filtration
from .linalg import (
    Matrix,
    Subquotient,
    Subspace,
    _combine,
    _pairs,
    _solve_ints,
    image,
    induced_map,
)


class Page:
    """One page: cells E_r^{p,q} <= K^{p+q} and differentials of bidegree (r, 1-r)."""

    def __init__(
        self,
        r: int,
        cx: CochainComplex,
        support: tuple[tuple[int, int], ...],
        cells: dict[tuple[int, int], Subquotient],
        diffs: dict[tuple[int, int], Matrix],
    ):
        if r < 1:
            raise InvariantError("pages are indexed from r = 1")
        self.r = r
        self.cx = cx
        self.support = support
        self.cells = cells
        self.diffs = diffs
        # diff() gives every other cell the zero matrix of the right shape,
        # so only the stored differentials and their composites are checked;
        # nxt's own shape is checked later in the loop, so its columns are
        # compared here before the product
        for (p, q), out in diffs.items():
            tgt = (p + r, q - r + 1)
            nxt = diffs.get(tgt)
            if (out.rows, out.cols) != (self._dim(*tgt), self._dim(p, q)) or (
                nxt is not None and nxt.cols != out.rows
            ):
                raise InvariantError(f"differential shapes disagree at cell {(p, q)}")
            # a zero or missing factor makes the product zero
            if nxt is None or out.is_zero() or nxt.is_zero():
                continue
            if not (nxt @ out).is_zero():
                raise InvariantError(f"d_r o d_r != 0 at cell {(p, q)}", witness=(p, q))

    def _dim(self, p: int, q: int) -> int:
        # a missing cell has dimension 0; no zero cell is built to say so
        cell = self.cells.get((p, q))
        return 0 if cell is None else cell.dim

    def cell(self, p: int, q: int) -> Subquotient:
        hit = self.cells.get((p, q))
        if hit is not None:
            return hit
        return Subquotient.zero(self.cx.dim(p + q))

    def diff(self, p: int, q: int) -> Matrix:
        hit = self.diffs.get((p, q))
        if hit is not None:
            return hit
        return Matrix.zeros(self._dim(p + self.r, q - self.r + 1), self._dim(p, q))

    def dims(self) -> dict[tuple[int, int], int]:
        """Dimensions of the nonzero cells."""
        return {pq: c.dim for pq, c in self.cells.items() if c.dim > 0}

    def all_differentials_zero(self) -> bool:
        return all(m.is_zero() for m in self.diffs.values())


def _support(fk: FilteredComplex) -> tuple[tuple[int, int], ...]:
    return tuple(
        (p, n - p) for p in fk.levels() for n in fk.cx.degrees()
    )


def first_page(fk: FilteredComplex) -> Page:
    """E_1^{p,q} = (F^p cap d^{-1}F^{p+1}) / (F^{p+1} + d F^p), with d_1 induced by d.

    The cell is the classical presentation of H^{p+q}(Gr^p) inside K^{p+q}.
    Where the graded piece is empty, F^p = F^{p+1} (one dimension suffices,
    since load checked F^{p+1} <= F^p), the cell is F^p/F^p with nothing
    computed: d F^p <= F^p, so both formulas give F^p. No d_1 is stored out
    of a zero cell; the page's diff() reads its zero matrix.
    """
    cells: dict[tuple[int, int], Subquotient] = {}
    support = _support(fk)
    for (p, q) in support:
        n = p + q
        f = fk.F(p, n)
        if f.dim == fk.F(p + 1, n).dim:
            cells[(p, q)] = Subquotient(f, f, ())
            continue
        z = fk.cycles(p, p + 1, n)
        # F^{p+1} + d F^p, spanned by integer rows; scaling d(v) keeps its span
        rows = fk.F(p + 1, n)._rows()
        dprev = fk.cx.diff(n - 1)
        rows += [dict(_pairs(dprev._apply_ints(v))) for v in fk.F(p, n - 1).tails]
        cells[(p, q)] = Subquotient.of(z, Subspace._span_ints(fk.cx.dim(n), rows))
    diffs: dict[tuple[int, int], Matrix] = {}
    for (p, q) in support:
        if cells[(p, q)].dim == 0:
            continue
        n = p + q
        tgt = cells.get((p + 1, q))
        if tgt is None:
            tgt = Subquotient.zero(fk.cx.dim(n + 1))
        diffs[(p, q)] = induced_map(fk.cx.diff(n), cells[(p, q)], tgt)
    return Page(1, fk.cx, support, cells, diffs)


def turn_page(page: Page) -> Page:
    """Compute page r+1 from page r without consulting the filtration.

    New cells are ker d_r / im d_r, re-expressed as subquotients of the
    original spaces through the canonical complement bases. A cell with
    zero d_r in and out, a zero cell among them, is carried as the same
    object: ker d_r is all of it, im d_r is zero, and reduced bases are
    unique, so recomputing it would give an equal cell. The next differential is induced by d on
    representative lifts: for a class [w] the representative w - b, b in
    the new denominator, is chosen so that d(w - b) lands in the new
    numerator of the target cell.
    """
    r = page.r
    r2 = r + 1
    cx = page.cx
    cells: dict[tuple[int, int], Subquotient] = {}
    for (p, q) in page.support:
        cell = page.cell(p, q)
        if cell.dim == 0:
            cells[(p, q)] = cell
            continue
        amb = cell.ambient_dim
        dout = page.diff(p, q)
        din = page.diff(p - r, q + r - 1)
        if dout.is_zero() and din.is_zero():
            cells[(p, q)] = cell
            continue
        # ker d_r and im d_r, lifted to integer rows over the old complement
        zrows = cell.B._rows()
        zrows += [cell._lift_ints(k.items())[0] for k in dout._null_rows()[0]]
        brows = cell.B._rows()
        brows += [cell._lift_ints(col)[0] for col in din._ints()[1]]
        cells[(p, q)] = Subquotient.of(
            Subspace._span_ints(amb, zrows), Subspace._span_ints(amb, brows)
        )
    diffs: dict[tuple[int, int], Matrix] = {}
    for (p, q) in page.support:
        src = cells[(p, q)]
        if src.dim == 0:
            # the new page's diff() reads its one zero matrix of this shape
            continue
        n = p + q
        tgt = cells.get((p + r2, q - r2 + 1))
        if tgt is None:
            tgt = Subquotient.zero(cx.dim(n + 1))
        d = cx.diff(n)
        den = d._ints()[0]
        height = cx.dim(n + 1)
        # solve [d(B) | Z'] x = d w for each complement row w, in integers:
        # a Row's _apply_ints is den * lead times d of its rational row
        nb = src.B.dim
        system = [_pairs(d._apply_ints(b)) for b in src.B.tails]
        system += [((c, lead),) + tail for c, lead, tail in tgt.Z.tails]
        sols = _solve_ints(system, height, [_pairs(d._apply_ints(w)) for w in src.tails])
        cols = []
        for (_, lead_w, _), x in zip(src.tails, sols):
            if x is None:
                raise EngineError(
                    f"representative lift failed at cell {(p, q)} on page {page.r}"
                )
            # d(w - sum x_i b_i) is the Z' part of system x: m times it is
            # sum (a m / lead) z_k over its solved Z' columns z_k = lead_k z'_k
            zpart = [(c - nb, a, lead) for c, a, lead in x if c >= nb]
            m = lcm(*[lead for _, _, lead in zpart])
            v = [0] * height
            for k, a, lead in zpart:
                pk, lead_k, tail = tgt.Z.tails[k]
                s = a * (m // lead)
                v[pk] += s * lead_k
                for i, b in tail:
                    v[i] += s * b
            cols.append(tgt._coords(v, m * den * lead_w))
        diffs[(p, q)] = Matrix._of_cols(cols, tgt.dim)
    return Page(r2, cx, page.support, cells, diffs)


def page_direct(fk: FilteredComplex, r: int, p: int, q: int) -> Subquotient:
    """Classical cycle/boundary formula for E_r^{p,q}, straight from the filtration.

    Z_r = F^p K^{p+q} cap d^{-1}(F^{p+r} K^{p+q+1})
    B_r = (F^{p+1} cap Z_r) + d(F^{p-r+1} K^{p+q-1} cap d^{-1} F^p)

    Both read F only at clamped levels, so the cell is computed once per
    (clamped p+r, clamped p-r+1, p, n) and kept on fk. F^{p+1} cap Z_r is
    F^{p+1} cap d^{-1}(F^{p+r}), since F^{p+1} <= F^p. Where F^p = F^{p+1}
    that is Z_r itself, so the cell is Z_r/Z_r and B_r is not computed.
    """
    if r < 1:
        raise InvariantError("pages are indexed from r = 1")
    n = p + q
    if n < fk.cx.lo or n > fk.cx.hi:
        return Subquotient.zero(0)
    key = (fk.clamp(p + r), fk.clamp(p - r + 1), p, n)
    hit = fk.direct_cells.get(key)
    if hit is None:
        zr = fk.cycles(p, p + r, n)
        if fk.F(p, n).dim == fk.F(p + 1, n).dim:
            hit = Subquotient(zr, zr, ())
        else:
            src = fk.cycles(p - r + 1, p, n - 1)
            br = fk.cycles(p + 1, p + r, n).sum_with(image(fk.cx.diff(n - 1), src))
            hit = Subquotient.of(zr, br)
        fk.direct_cells[key] = hit
    return hit


class SpectralSequence:
    """Lazily extended chain of pages of a filtered complex.

    The pages live on fk, so every SpectralSequence of one complex shares
    them and each page is built once.
    """

    def __init__(self, fk: FilteredComplex):
        self.fk = fk
        self._pages: list[Page] = fk.pages

    def page(self, r: int) -> Page:
        if r < 1:
            raise InvariantError("pages are indexed from r = 1")
        if not self._pages:
            self._pages.append(first_page(self.fk))
        while len(self._pages) < r:
            self._pages.append(turn_page(self._pages[-1]))
        return self._pages[r - 1]

    def stabilization_page(self) -> int:
        """Smallest r* with d_s = 0 for all s >= r*, by filtration width."""
        return max(1, self.fk.width() + 1)

    def e_infinity(self) -> Page:
        return self.page(self.stabilization_page())

    def is_degenerate_at(self, r: int) -> bool:
        """True iff all differentials d_s with s >= r vanish."""
        r_star = self.stabilization_page()
        return all(self.page(s).all_differentials_zero() for s in range(r, r_star))


class Barcode(NamedTuple):
    """Persistence pairs (n, s, e) and essential classes (n, level), each sorted.

    A pair joins a class of K^n at level s to one of K^{n+1} at level
    e >= s; an essential class of K^n at its level is never paired.
    """

    pairs: tuple[tuple[int, int, int], ...]
    essential: tuple[tuple[int, int], ...]

    def dims(self, r: int) -> dict[tuple[int, int], int]:
        """Dimensions of the nonzero cells of page r.

        A pair counts at both of its ends on pages 1 <= r <= e - s, an
        essential class on every page (Basu & Parida, arXiv:1308.0801).
        """
        cells = Counter((level, n - level) for n, level in self.essential)
        for n, s, e in self.pairs:
            if e - s >= r:
                cells[(s, n - s)] += 1
                cells[(e, n + 1 - e)] += 1
        return dict(cells)

    def e_infinity(self) -> Counter:
        """Total E_infinity dimension per degree: the essential classes."""
        return Counter(n for n, _ in self.essential)


def barcode(fk: FilteredComplex) -> Barcode:
    """The barcode of the filtration, from one column reduction per degree.

    Each degree gets a filtration-adapted basis, deepest level first: the
    complement of F^{p+1} in F^p, for p from p_top - 1 down to p_lo. One
    integer solve per degree writes d in these bases, each column up to a
    positive scale, which changes no pivot. Then the standard column
    reduction (Zomorodian & Carlsson, DCG 2005), on integer columns: the
    pivot of a column is its shallowest-level target, the last by position,
    and a column is reduced only by the columns already processed, which
    are sources at a deeper or equal level. A column left nonzero pairs its
    source with its pivot. The barcode is computed once and kept on fk.
    """
    if fk.bars is not None:
        return fk.bars
    cx = fk.cx
    levels: dict[int, list[int]] = {}
    basis: dict[int, list] = {}
    for n in cx.degrees():
        levels[n], basis[n] = [], []
        for p in range(fk.p_top - 1, fk.p_lo - 1, -1):
            # F^{p+1} <= F^p was checked at load, so the complement is read
            # off the pivots: the Rows of F^p whose pivots F^{p+1} lacks
            deeper = set(fk.F(p + 1, n).pivots)
            comp = [row for row in fk.F(p, n).tails if row[0] not in deeper]
            levels[n] += [p] * len(comp)
            basis[n] += comp
    pairs = []
    paired: dict[int, set[int]] = {n: set() for n in cx.degrees()}  # positions
    for n in range(cx.lo, cx.hi):
        adapted = [((c, lead),) + tail for c, lead, tail in basis[n + 1]]
        d = cx.diff(n)
        images = [_pairs(d._apply_ints(v)) for v in basis[n]]
        reduced: dict[int, dict[int, int]] = {}  # pivot -> its column
        # the adapted basis is a basis, so every image is solved
        for j, x in enumerate(_solve_ints(adapted, cx.dim(n + 1), images)):
            m = lcm(*[lead for _, _, lead in x])
            col = {c: a * (m // lead) for c, a, lead in x}
            while col:
                low = max(col)
                other = reduced.get(low)
                if other is None:
                    reduced[low] = col
                    pairs.append((n, levels[n][j], levels[n + 1][low]))
                    paired[n].add(j)
                    paired[n + 1].add(low)
                    break
                g = gcd(col[low], other[low])
                _combine(col, other[low] // g, col[low] // g, other)
    essential = [
        (n, level)
        for n in cx.degrees()
        for i, level in enumerate(levels[n])
        if i not in paired[n]
    ]
    fk.bars = Barcode(tuple(sorted(pairs)), tuple(sorted(essential)))
    return fk.bars


def abutment_report(fk: FilteredComplex, totals: Mapping[int, int]) -> dict:
    """Compare E_infinity totals, by degree, against the cohomology of K.

    Raises EngineError on any mismatch (an engine bug, never bad input).
    """
    out: dict[int, dict[str, int]] = {}
    for n in fk.cx.degrees():
        total = totals.get(n, 0)
        h = fk.cx.betti(n)
        out[n] = {"e_infinity": total, "cohomology": h}
        if total != h:
            raise EngineError(
                f"E_infinity total {total} != dim H^{n} = {h} in degree {n}"
            )
    return {"r_star": SpectralSequence(fk).stabilization_page(), "totals": out, "ok": True}


def e_infinity_compare(fk: FilteredComplex) -> dict:
    """abutment_report on the totals of the turned page E_{r*}."""
    einf = SpectralSequence(fk).e_infinity()
    totals = {n: sum(einf.cell(p, n - p).dim for p in fk.levels()) for n in fk.cx.degrees()}
    return abutment_report(fk, totals)


def decalage(fk: FilteredComplex) -> FilteredComplex:
    """Shifted filtration (Dec F)^p K^n = F^{p+n} K^n cap d^{-1}(F^{p+n+1} K^{n+1}).

    Its page r agrees in dimension with page r+1 of the original after the
    renumbering (p, q) -> (2p + q, -p).
    """
    cx = fk.cx
    p_lo = fk.p_lo - cx.hi - 1
    p_top = fk.p_top - cx.lo
    table: dict[tuple[int, int], Subspace] = {}
    for n in cx.degrees():
        for p in range(p_lo, p_top + 1):
            table[(p, n)] = fk.cycles(p + n, p + n + 1, n)
    return FilteredComplex(cx, Filtration(p_lo, p_top, table))


def decalage_renumbering_report(fk: FilteredComplex, max_page: int = 3) -> dict:
    """Check dim E_r^{p,q}(Dec F K) = dim E_{r+1}^{2p+q,-p}(F K) for r <= max_page."""
    dec = decalage(fk)
    ss_dec = SpectralSequence(dec)
    ss_orig = SpectralSequence(fk)
    mismatches = []
    table: dict[int, dict[str, list[int]]] = {}
    for r in range(1, max_page + 1):
        pg_dec = ss_dec.page(r)
        pg_orig = ss_orig.page(r + 1)
        seen: dict[str, list[int]] = {}
        pairs = {(p, q): (2 * p + q, -p) for (p, q) in pg_dec.support}
        for (p, q), (pp, qq) in pairs.items():
            a = pg_dec.cell(p, q).dim
            b = pg_orig.cell(pp, qq).dim
            if a != 0 or b != 0:
                seen[f"{p},{q}"] = [a, b]
            if a != b:
                mismatches.append({"r": r, "cell": [p, q], "dims": [a, b]})
        # cells of the original page must all be hit by the renumbering
        for (pp, qq) in pg_orig.support:
            p, q = -qq, pp + 2 * qq
            if (p, q) not in pairs:
                b = pg_orig.cell(pp, qq).dim
                if b != 0:
                    mismatches.append({"r": r, "cell": [p, q], "dims": [0, b]})
        table[r] = seen
    return {"max_page": max_page, "table": table, "mismatches": mismatches, "ok": not mismatches}


def oracle_report(fk: FilteredComplex, max_page: int = 6) -> dict:
    """Cellwise dimension comparison of the turned pages against page_direct and the barcode.

    A mismatch reads {"r", "cell", "dims": [turned, direct]}, or, against
    the barcode, {"r", "cell", "route": "barcode", "dims": [turned, barcode]}.
    """
    ss = SpectralSequence(fk)
    bars = barcode(fk)
    mismatches = []
    for r in range(1, max_page + 1):
        pg = ss.page(r)
        read = bars.dims(r)
        for (p, q) in pg.support:
            a = pg.cell(p, q).dim
            b = page_direct(fk, r, p, q).dim
            if a != b:
                mismatches.append({"r": r, "cell": [p, q], "dims": [a, b]})
            c = read.get((p, q), 0)
            if a != c:
                mismatches.append({"r": r, "cell": [p, q], "route": "barcode", "dims": [a, c]})
    return {"max_page": max_page, "mismatches": mismatches, "ok": not mismatches}


def compare_differentials(fk: FilteredComplex, r: int) -> bool:
    """Check that the page-r differential agrees across the two presentations.

    The direct cells embed in the turned cells; the comparison conjugates the
    induced map on direct cells by that embedding. Raises EngineError on
    disagreement.
    """
    ss = SpectralSequence(fk)
    pg = ss.page(r)
    direct = {pq: page_direct(fk, r, *pq) for pq in pg.support}
    trans = {}
    for pq, cell in direct.items():
        turned = pg.cell(*pq)
        cols = [turned.coset_coords(w) for w in cell.complement]
        trans[pq] = Matrix._of_cols(cols, turned.dim)
    for (p, q) in pg.support:
        n = p + q
        tgt = (p + r, q - r + 1)
        if tgt not in direct:
            continue
        d_direct = induced_map(fk.cx.diff(n), direct[(p, q)], direct[tgt])
        lhs = trans[tgt] @ d_direct
        rhs = pg.diff(p, q) @ trans[(p, q)]
        if lhs != rhs:
            raise EngineError(f"page {r} differentials disagree at cell {(p, q)}")
    return True
