"""Scaled filtered complexes with their answer keys, for the benchmark.

These extend the split construction of specseq.fuzz past its 8-per-degree
cap: per degree some cohomology generators (d = 0, never hit) and some
acyclic pairs s -> e one degree up, each basis vector with a filtration
level, ell(e) >= ell(s) so that d preserves every level. A random invertible
rational change of basis per degree hides the split structure.

The answer key follows from the construction alone (the barcode reading of
pages, Basu & Parida, arXiv:1308.0801): a generator at level l in degree n
counts at (l, n - l) on every page, and a pair with k = ell(e) - ell(s)
counts at both of its ends on pages 1 <= r <= k. Nothing in this module
calls the engine.
"""

from __future__ import annotations

import random
from fractions import Fraction

MAX_PAGE = 6
DECALAGE_PAGES = 3

_SHEARS = [Fraction(c) for c in ("-2", "-1", "1", "2", "1/2", "-1/2", "2/3", "-3/2")]
_SCALES = [Fraction(c) for c in ("-1", "2", "1/2", "-2/3", "3")]


def _identity(n: int) -> list[list[Fraction]]:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def matmul(a: list[list[Fraction]], b: list[list[Fraction]], inner: int) -> list[list[Fraction]]:
    """Product of an r x inner and an inner x c matrix given as row lists."""
    cols = len(b[0]) if b else 0
    return [
        [sum((row[k] * b[k][j] for k in range(inner)), Fraction(0)) for j in range(cols)]
        for row in a
    ]


def inverse(m: list[list[Fraction]]) -> list[list[Fraction]]:
    """Gauss-Jordan inverse of an invertible square matrix."""
    n = len(m)
    work = [list(row) + ident for row, ident in zip(m, _identity(n))]
    for c in range(n):
        piv = next(i for i in range(c, n) if work[i][c] != 0)
        work[c], work[piv] = work[piv], work[c]
        lead = work[c][c]
        work[c] = [x / lead for x in work[c]]
        for i in range(n):
            if i != c and work[i][c] != 0:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[c])]
    return [row[n:] for row in work]


def rank(rows: list[list[Fraction]]) -> int:
    """Rank by plain Fraction row reduction."""
    work = [list(r) for r in rows if any(r)]
    r = 0
    ncols = len(work[0]) if work else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        for i in range(r + 1, len(work)):
            if work[i][c] != 0:
                f = work[i][c] / work[r][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        r += 1
    return r


def _basis_change(rng: random.Random, n: int) -> list[list[Fraction]]:
    """A permutation followed by rational shears and scalings of rows."""
    rows = _identity(n)
    rng.shuffle(rows)
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            c = rng.choice(_SCALES)
            rows[i] = [c * a for a in rows[i]]
        else:
            c = rng.choice(_SHEARS)
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return rows


def _fmt(rows: list[list[Fraction]]) -> list[list[str]]:
    return [[str(a) for a in row] for row in rows]


def scaled_complex(rng: random.Random, total_dim: int, degrees: int, width: int) -> tuple[dict, dict]:
    """One filtered complex as ss input JSON, and its answer key.

    total_dim is spread over `degrees` consecutive degrees (at most 20 per
    degree); filtration levels run over `width` consecutive values. The seed
    chooses the degree and level offsets, which pair gets which length, the
    start levels, the generators' levels and the change of basis.
    """
    lo = rng.randint(-2, 1)
    hi = lo + degrees - 1
    # the shape is fixed by the arguments, so that op cost varies little
    # between seeds: 1 or 2 generators per degree, pairs filling each degree
    # up to its share of total_dim
    share = min(20, max(2, total_dim // degrees))
    h = {n: 1 + (n - lo) % 2 for n in range(lo, hi + 1)}
    a: dict[int, int] = {}
    for n in range(lo, hi):
        a[n] = max(0, min(20 - h[n + 1], share - h[n] - a.get(n - 1, 0)))
    a[hi] = 0
    dims = {n: h[n] + a[n] + a.get(n - 1, 0) for n in range(lo, hi + 1)}

    off = rng.randint(-2, 1)
    top = off + width - 1
    # basis layout per degree: [generators | pair starts | pair ends from below]
    level: dict[int, list[int]] = {n: [0] * dims[n] for n in dims}
    pairs = []  # (n, start level, end level)
    for n in range(lo, hi + 1):
        for i in range(h[n]):
            level[n][i] = rng.randint(off, top)
    # pair lengths ell(e) - ell(s) cover 0 .. width - 1 evenly, in seeded order
    lengths = [t % width for t in range(sum(a.values()))]
    rng.shuffle(lengths)
    for n in range(lo, hi):
        for k in range(a[n]):
            gap = lengths.pop()
            ls = rng.randint(off, top - gap)
            level[n][h[n] + k] = ls
            level[n + 1][h[n + 1] + a[n + 1] + k] = ls + gap
            pairs.append((n, ls, ls + gap))

    change = {n: _basis_change(rng, dims[n]) for n in dims}
    d_json = {}
    for n in range(lo, hi):
        split = [[Fraction(0)] * dims[n] for _ in range(dims[n + 1])]
        for k in range(a[n]):
            split[h[n + 1] + a[n + 1] + k][h[n] + k] = Fraction(1)
        inner = matmul(split, inverse(change[n]), dims[n]) if dims[n] else split
        d_json[str(n)] = _fmt(matmul(change[n + 1], inner, dims[n + 1]))
    filt: dict[str, dict[str, list]] = {}
    for p in range(off, top + 2):
        filt[str(p)] = {}
        for n in dims:
            keep = [i for i in range(dims[n]) if level[n][i] >= p]
            filt[str(p)][str(n)] = (
                _fmt([[row[i] for i in keep] for row in change[n]]) if keep else []
            )
    complex_json = {
        "degrees": [lo, hi],
        "dims": {str(n): dims[n] for n in dims},
        "d": d_json,
        "filtration": filt,
    }
    return complex_json, _key(lo, hi, h, level, pairs)


def _key(lo: int, hi: int, h: dict, level: dict, pairs: list) -> dict:
    """Expected ss output fragments, in the shapes the commands print."""

    def cell(p: int, q: int) -> str:
        return f"{p},{q}"

    def page(r: int) -> dict[tuple[int, int], int]:
        cells: dict[tuple[int, int], int] = {}
        for n in range(lo, hi + 1):
            for ell in level[n][: h[n]]:
                cells[(ell, n - ell)] = cells.get((ell, n - ell), 0) + 1
        for (n, ls, le) in pairs:
            if le - ls >= r:
                for pq in ((ls, n - ls), (le, n + 1 - le)):
                    cells[pq] = cells.get(pq, 0) + 1
        return cells

    pages = {r: page(r) for r in range(1, MAX_PAGE + 1)}
    d_ranks: dict[str, dict[str, int]] = {}
    for r in range(1, MAX_PAGE + 1):
        ranks: dict[str, int] = {}
        for (n, ls, le) in pairs:
            if le - ls == r:
                ranks[cell(ls, n - ls)] = ranks.get(cell(ls, n - ls), 0) + 1
        d_ranks[str(r)] = ranks
    all_levels = [ell for n in level for ell in level[n]]
    width = max(all_levels) - min(all_levels) if all_levels else 0
    return {
        "pages": {
            str(r): {cell(p, q): v for (p, q), v in pages[r].items()}
            for r in range(1, MAX_PAGE + 1)
        },
        "d_ranks": d_ranks,
        "abutment": {
            "ok": True,
            "r_star": max(1, width + 1),
            "totals": {
                str(n): {"cohomology": h[n], "e_infinity": h[n]} for n in range(lo, hi + 1)
            },
        },
        # Dec page r matches page r + 1 after (P, Q) -> (-Q, P + 2Q)
        "decalage_table": {
            str(r): {cell(-q, p + 2 * q): [v, v] for (p, q), v in pages[r + 1].items()}
            for r in range(1, DECALAGE_PAGES + 1)
        },
    }
