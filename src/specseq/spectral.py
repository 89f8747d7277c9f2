"""Spectral sequence pages of a filtered cochain complex.

Every page cell is stored as a subquotient of the original space K^{p+q},
never as a quotient of quotients. The pages are reached by three routes:

* page_direct: the classical cycle/boundary formula evaluated from scratch
  on the filtration for any r. E_1 is page_direct at r = 1.
* first_page + turn_page: the first page takes its cells from page_direct,
  and each later page is built from the previous one using only its
  cells, its differentials, and the underlying d. One routine builds
  every d_r, d_1 included, in the canonical complement bases, solving for
  representative lifts where an image leaves the target's numerator
  (never for d_1); induced_map is the independent reference
  that compare_differentials checks them against. The turned and direct
  routes part from r = 2.
* barcode: one persistence reduction of d in a filtration-adapted basis,
  from which every page's dimensions are read (dimensions only, no maps).
  It is the independent check at every r, r = 1 included.

The three must agree cellwise in dimension; the fuzz suites and the oracle
command enforce exactly that. The decalage check compares dimensions only,
so it reads both of its sides off barcodes, that of Dec F and that of F, and
builds no page.

Nothing is computed twice, and nothing already known is computed at all. A
page stores only its nonzero differentials, and diff() hands out the one
shared zero matrix of the right shape for every other cell; so a turn reads
from the stored ones which cells d_r leaves alone. When the d_r into and out
of a cell are both zero, page r+1 holds the same Subquotient object, and
when only one of them is zero it keeps the cell's Z (d_r out zero) or B (d_r
in zero) and recomputes only the other; a d_r out with zero kernel makes the
old B the new Z. The next differential reads its columns off the coset
coordinates of the images under d where they all lie in the target's
numerator, which every d_1 does, and solves only for the other cells, and
there only for the nonzero images; a cell with no nonzero image gets no
matrix at all. The filtered complex computes each F^a cap d^{-1}F^b in one
reduction and each page_direct cell, with B_r spanned in one reduction, once
per distinct filtration subspace read, not once per level that names it; it
returns F^a itself where b <= a, where F^a and F^b have one dimension, or
where d already maps F^a into F^b, and a direct cell's B_r is the cap
F^{p+1} cap Z_r itself where d kills its other source. Where a graded piece
is empty, F^p = F^{p+1} in degree p+q and the direct cell, E_1 included, is
Z_r/Z_r, read off the filtration with no elimination; load has checked that
it is nested and d-stable, and reduced bases are canonical, so these equal
the cells the formulas build. The barcode's column reduction skips every
column that clearing already knows reduces to zero. page_direct reads only
the filtration and never a turned page, and turn_page reads only the
previous page.
"""

from __future__ import annotations

from collections import Counter
from math import gcd, lcm
from typing import Mapping, NamedTuple

from .errors import EngineError, InvariantError
from .filtered import CochainComplex, FilteredComplex
from .linalg import (
    Q0,
    Matrix,
    Subquotient,
    Subspace,
    _combine,
    _pairs,
    _q,
    _solve_ints,
    induced_map,
)


class Page:
    """One page: cells E_r^{p,q} <= K^{p+q} and differentials of bidegree (r, 1-r).

    Every differential given is checked for its shape, but diffs keeps only
    the nonzero ones, and only they are composed for d_r o d_r = 0; diff()
    gives every other cell the shared Matrix.zeros of its shape.
    """

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
        # a zero factor makes the product zero; nxt's own shape is checked
        # later in the loop, so its columns are compared here before the product
        self.diffs: dict[tuple[int, int], Matrix] = {}
        for (p, q), out in diffs.items():
            tgt = (p + r, q - r + 1)
            nxt = diffs.get(tgt)
            if (out.rows, out.cols) != (self._dim(*tgt), self._dim(p, q)) or (
                nxt is not None and nxt.cols != out.rows
            ):
                raise InvariantError(f"differential shapes disagree at cell {(p, q)}")
            if out.is_zero():
                continue
            self.diffs[(p, q)] = out
            if nxt is not None and not nxt.is_zero() and not (nxt @ out).is_zero():
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


def _support(fk: FilteredComplex) -> tuple[tuple[int, int], ...]:
    return tuple(
        (p, n - p) for p in fk.levels() for n in fk.cx.degrees()
    )


def first_page(fk: FilteredComplex) -> Page:
    """E_1, each cell page_direct(fk, 1, p, q), with d_1 induced by d.

    At r = 1 the direct formula is E_1^{p,q} = (F^p cap d^{-1}F^{p+1}) /
    (F^{p+1} + d F^p), the classical presentation of H^{p+q}(Gr^p) inside
    K^{p+q}, and the cells are kept on fk, so page_direct at r = 1 later
    finds them built. d_1 is built by _differentials, as every later d_r is,
    and needs no solve: each d w lies in the target's numerator.
    """
    support = _support(fk)
    cells = {(p, q): page_direct(fk, 1, p, q) for (p, q) in support}
    return Page(1, fk.cx, support, cells, _differentials(fk.cx, 1, cells))


def turn_page(page: Page) -> Page:
    """Compute page r+1 from page r without consulting the filtration.

    New cells are ker d_r / im d_r, re-expressed as subquotients of the
    original spaces through the canonical complement bases. A cell with
    zero d_r in and out, a zero cell among them, is carried as the same
    object: ker d_r is all of it, im d_r is zero, and reduced bases are
    unique, so recomputing it would give an equal cell. By the same
    argument a cell whose d_r out is zero keeps its Z as Z_{r+1}, one whose
    d_r in is zero keeps its B as B_{r+1}, and one whose d_r out has zero
    kernel takes its old B as Z_{r+1}, with no span; Subquotient.of still
    checks the new pair. The next differential is built by _differentials.
    """
    r = page.r
    cells: dict[tuple[int, int], Subquotient] = {}
    for (p, q) in page.support:
        cell = page.cell(p, q)
        dout = page.diffs.get((p, q))
        din = page.diffs.get((p - r, q + r - 1))
        if dout is None and din is None:
            cells[(p, q)] = cell
            continue
        # ker d_r and im d_r, lifted to integer rows over the old complement;
        # ker of a zero d_r out is all of the cell, im of a zero d_r in is 0
        amb = cell.ambient_dim
        z, b = cell.Z, cell.B
        if dout is not None:
            # a d_r out with zero kernel leaves Z_{r+1} = B
            kernel = [cell._lift_ints(k.items())[0] for k in dout._null_rows()[0]]
            z = Subspace._span_ints(amb, b._rows() + kernel) if kernel else b
        if din is not None:
            brows = b._rows()
            brows += [cell._lift_ints(col)[0] for col in din.columns]
            b = Subspace._span_ints(amb, brows)
        cells[(p, q)] = Subquotient.of(z, b)
    return Page(r + 1, page.cx, page.support, cells, _differentials(page.cx, r + 1, cells))


def _differentials(
    cx: CochainComplex, r: int, cells: dict[tuple[int, int], Subquotient]
) -> dict[tuple[int, int], Matrix]:
    """The nonzero d_r out of the cells of page r, induced by d on representative lifts.

    For a class [w] of a cell Z/B the representative w - b, b in B, is
    chosen so that d(w - b) lands in the numerator Z' = B' + C' of the
    target cell, C' its complement: one integer solve of [d(B) | B' | C'] x
    = d w, shared by the cell's complement rows w. d(B) <= B', so the C'
    part of x is unique; it is the coset coordinates of [d w]. d w is
    computed first, and a cell with no nonzero image (a zero cell among
    them) gets no matrix: the page's diff() reads its zero matrix. Where
    every d w already lies in Z' (b = 0 will do), the columns are the coset
    coordinates Subquotient._coords reads off d w and no solve runs; at r =
    1 that always holds, since d w lies in F^{p+1} and in ker d, so inside
    Z'. Only a cell with an image outside Z' is solved, and only for its
    nonzero images: a zero right-hand side always has the solution 0 (free
    variables are pinned to 0, and it is never inconsistent), so its column
    is zero.
    """
    diffs: dict[tuple[int, int], Matrix] = {}
    for (p, q), src in cells.items():
        n = p + q
        d = cx.diff(n)
        # a Row's _apply_ints is den * lead times d of its rational row
        dense = [d._apply_ints(w) for w in src.tails]
        if not any(map(any, dense)):
            continue
        height = cx.dim(n + 1)
        tgt = cells.get((p + r, q - r + 1))
        if tgt is None:
            tgt = Subquotient.zero(height)
        den = d.den
        coords = [tgt._coords(dw[:], den * w[1]) for w, dw in zip(src.tails, dense)]
        if None not in coords:
            diffs[(p, q)] = Matrix._of_cols(coords, tgt.dim)
            continue
        images = [_pairs(dw) for dw in dense]
        nonzero = [dw for dw in images if dw]
        skip = src.B.dim + tgt.B.dim
        system = [_pairs(d._apply_ints(b)) for b in src.B.tails]
        system += [((c, lead),) + tail for c, lead, tail in tgt.B.tails + tgt.tails]
        solved = iter(_solve_ints(system, height, nonzero))
        cols = []
        for (_, lead_w, _), dw in zip(src.tails, images):
            x = next(solved) if dw else []
            if x is None:
                raise EngineError(f"representative lift failed at cell {(p, q)} for d_{r}")
            # x_c = a / lead on the column lead_k c'_k of C'; d w is den * lead_w
            # times d of the rational row w
            col = [Q0] * tgt.dim
            for c, a, lead in x:
                if c >= skip:
                    col[c - skip] = _q(a * tgt.tails[c - skip][1], lead * den * lead_w)
            cols.append(col)
        diffs[(p, q)] = Matrix._of_cols(cols, tgt.dim)
    return diffs


def page_direct(fk: FilteredComplex, r: int, p: int, q: int) -> Subquotient:
    """Classical cycle/boundary formula for E_r^{p,q}, straight from the filtration.

    Z_r = F^p K^{p+q} cap d^{-1}(F^{p+r} K^{p+q+1})
    B_r = (F^{p+1} cap Z_r) + d(F^{p-r+1} K^{p+q-1} cap d^{-1} F^p)

    F^{p+1} cap Z_r is F^{p+1} cap d^{-1}(F^{p+r}), since F^{p+1} <= F^p.
    So the cell reads four subspaces, F^p K^n, F^{p+1} K^n, F^{p+r} K^{n+1}
    and F^{p-r+1} K^{n-1}, and it is computed once per distinct four and
    kept on fk under those four subspaces and n, whichever p and r asked
    for it. Each cap is one reduction (FilteredComplex.cycles), and B_r
    is one span of the rows of that cap and the images under d of the rows
    of the other. Where no row of that other has a nonzero image, B_r is
    the cap itself, with no span; Subquotient.of still checks it lies in
    Z_r. Where F^p = F^{p+1} the cap is Z_r itself, so the cell is Z_r/Z_r
    and B_r is not computed.
    """
    if r < 1:
        raise InvariantError("pages are indexed from r = 1")
    n = p + q
    if n < fk.cx.lo or n > fk.cx.hi:
        return Subquotient.zero(0)
    fp, fp1 = fk.F(p, n), fk.F(p + 1, n)
    key = (fp, fp1, fk.F(p + r, n + 1), fk.F(p - r + 1, n - 1), n)
    hit = fk.direct_cells.get(key)
    if hit is None:
        zr = fk.cycles(p, p + r, n)
        if fp.dim == fp1.dim:
            hit = Subquotient(zr, zr, ())
        else:
            # B_r in one span, or the cap itself where d kills the source;
            # scaling d(v) keeps its span
            cap = fk.cycles(p + 1, p + r, n)
            dprev = fk.cx.diff(n - 1)
            src = fk.cycles(p - r + 1, p, n - 1)
            images = [row for v in src.tails if (row := dict(_pairs(dprev._apply_ints(v))))]
            br = Subspace._span_ints(fk.cx.dim(n), cap._rows() + images) if images else cap
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
        return all(not self.page(s).diffs for s in range(r, r_star))


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
    source with its pivot. A source that is already the pivot of a reduced
    column R of d_{n-1} is skipped, neither solved for nor reduced
    (clearing; Chen & Kerber, "Persistent homology computation with a
    twist", EuroCG 2011): d R = 0 and R is that source's basis vector plus
    earlier ones, so its column is a combination of earlier columns and
    reduces to zero. The barcode is computed once and kept on fk.
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
        # clearing: a pivot of d_{n-1} is never solved for or reduced
        todo = [j for j in range(len(basis[n])) if j not in paired[n]]
        images = [_pairs(d._apply_ints(basis[n][j])) for j in todo]
        reduced: dict[int, dict[int, int]] = {}  # pivot -> its column
        # the adapted basis is a basis, so every image is solved
        for j, x in zip(todo, _solve_ints(adapted, cx.dim(n + 1), images)):
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
    levels = {
        p: {n: fk.cycles(p + n, p + n + 1, n) for n in cx.degrees()}
        for p in range(fk.p_lo - cx.hi - 1, fk.p_top - cx.lo)
    }
    return FilteredComplex(cx, levels)


def decalage_renumbering_report(fk: FilteredComplex, max_page: int = 3) -> dict:
    """Check dim E_r^{p,q}(Dec F K) = dim E_{r+1}^{2p+q,-p}(F K) for r <= max_page.

    Both sides are read off barcodes, barcode(decalage(fk)).dims(r) against
    barcode(fk).dims(r + 1), and no page is built. The check stays
    independent: Dec F is built from fk.cycles, and its barcode runs its own
    reduction in its own adapted basis. The original cells are renumbered
    by the inverse map (p, q) -> (-q, p + 2q), and the two sides are
    compared on every cell either of them lists, in sorted order; a cell
    the barcode does not list has dimension 0, as on a page.
    """
    bars_dec = barcode(decalage(fk))
    bars_orig = barcode(fk)
    mismatches = []
    table: dict[int, dict[str, list[int]]] = {}
    for r in range(1, max_page + 1):
        read_dec = bars_dec.dims(r)
        read_orig = {(-qq, pp + 2 * qq): b for (pp, qq), b in bars_orig.dims(r + 1).items()}
        seen: dict[str, list[int]] = {}
        for (p, q) in sorted(read_dec.keys() | read_orig.keys()):
            a, b = read_dec.get((p, q), 0), read_orig.get((p, q), 0)
            seen[f"{p},{q}"] = [a, b]
            if a != b:
                mismatches.append({"r": r, "cell": [p, q], "dims": [a, b]})
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
