"""Walk the pages of the two-term acyclic filtered complex.

The complex is 0 -> Q -> Q -> 0 with the identity differential, filtered so
that the source sits two levels deeper than the target. E1 has two lonely
one-dimensional cells that survive untouched to E2, where d2 finally cancels
them in a single isomorphism; E3 onward is empty. Run with no arguments.
"""

import argparse

from specseq import (
    CochainComplex,
    FilteredComplex,
    Matrix,
    SpectralSequence,
    Subspace,
    e_infinity_compare,
)


def two_term_acyclic() -> FilteredComplex:
    cx = CochainComplex(0, 1, {0: 1, 1: 1}, {0: Matrix.from_rows([[1]])})
    full = Subspace.full(1)
    zero = Subspace.zero(1)
    levels = {
        0: {0: full, 1: full},
        1: {0: zero},
        2: {},
        3: {1: zero},
    }
    return FilteredComplex(cx, levels)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--pages", type=int, default=4)
    args = ap.parse_args()

    fk = two_term_acyclic()
    ss = SpectralSequence(fk)
    for r in range(1, args.pages + 1):
        pg = ss.page(r)
        dims = {cell: d for cell, d in sorted(pg.dims().items())}
        print(f"E_{r}: {dims or 'zero page'}")
        for (p, q) in sorted(pg.support):
            d = pg.diff(p, q)
            if not d.is_zero():
                print(f"  d_{r} at ({p},{q}): rank {d.rank()} map to "
                      f"({p + r},{q - r + 1})")
    report = e_infinity_compare(fk)
    print(f"stabilizes at r = {report['r_star']}; abutment check: "
          f"{'ok' if report['ok'] else 'MISMATCH'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
