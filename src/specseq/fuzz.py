"""Random valid instances for property testing and the fuzz command.

Complexes are built from split elementary pieces: per degree some cohomology
generators (d = 0, never hit) and some adjacent acyclic pairs (a start vector
mapping to an end vector one degree up). d o d = 0 holds by construction and
the betti numbers are known in advance. A coordinate filtration assigns each
basis vector a top level, with the end of a pair kept at least as deep as its
start so d preserves every level. A random change of basis in each degree
then hides the split structure from the engine.
"""

from __future__ import annotations

import random

from .linalg import Matrix, Q0, Q1, Subspace, scalar


def _random_invertible(rng: random.Random, n: int, ops: int = 3) -> Matrix:
    """Product of a permutation and a few shear / scaling row operations."""
    rows = [[Q1 if i == j else Q0 for j in range(n)] for i in range(n)]
    rng.shuffle(rows)
    for _ in range(ops * n):
        i = rng.randrange(n) if n else 0
        j = rng.randrange(n) if n else 0
        if n == 0:
            break
        if i == j:
            c = scalar(rng.choice([1, -1, 2]))
            rows[i] = [c * a for a in rows[i]]
        else:
            c = scalar(rng.choice([-2, -1, 1, 2]))
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return Matrix.from_rows(rows)


def random_filtered_complex(rng: random.Random, **shape) -> FilteredComplex:
    """The complex of planted_filtered_complex(rng, **shape), from the same draws."""
    return planted_filtered_complex(rng, **shape)[0]


def planted_filtered_complex(
    rng: random.Random,
    max_dim: int = 8,
    deg_lo: int = -4,
    deg_hi: int = 4,
    max_span: int = 3,
    max_width: int = 4,
) -> tuple[FilteredComplex, Barcode]:
    """A bounded filtered complex with d-stable decreasing filtration, and its bars.

    Dimensions per degree stay at or below max_dim, degrees inside
    [deg_lo, deg_hi], at most max_width proper filtration levels. The bars
    come from the construction: each cohomology generator is an essential
    class at its level, each acyclic pair a pair (n, start level, end level).
    """
    # imported here, as models is below: a derivation case loads no engine
    from .filtered import CochainComplex, FilteredComplex, Filtration
    from .spectral import Barcode

    lo = rng.randint(deg_lo, deg_hi - 1)
    hi = min(deg_hi, lo + rng.randint(1, max_span))
    # counts[n] = (cohomology generators, acyclic pairs starting at n)
    h = {n: rng.randint(0, 2) for n in range(lo, hi + 1)}
    a = {n: rng.randint(0, 3) for n in range(lo, hi)}
    a[hi] = 0
    dims = {}
    for n in range(lo, hi + 1):
        dims[n] = h[n] + a[n] + (a.get(n - 1, 0))
        if dims[n] > max_dim:
            a[n] = max(0, a[n] - (dims[n] - max_dim))
            dims[n] = h[n] + a[n] + a.get(n - 1, 0)
    if all(v == 0 for v in dims.values()):
        h[lo] = 1
        dims[lo] = 1

    # basis layout per degree: [h gens | pair starts | pair ends from below]
    def starts_offset(n: int) -> int:
        return h[n]

    def ends_offset(n: int) -> int:
        return h[n] + a[n]

    d = {}
    for n in range(lo, hi):
        mat = [[Q0] * dims[n] for _ in range(dims[n + 1])]
        for k in range(a[n]):
            mat[ends_offset(n + 1) + k][starts_offset(n) + k] = Q1
        d[n] = Matrix.from_rows(mat) if dims[n + 1] else Matrix.zeros(0, dims[n])
    cx_split = CochainComplex(lo, hi, dims, d)

    width = rng.randint(1, max_width)
    offset = rng.randint(-2, 0)
    # top level of each basis vector; end of a pair at least as deep as start
    level: dict[tuple[int, int], int] = {}
    for n in range(lo, hi + 1):
        for i in range(dims[n]):
            level[(n, i)] = offset + rng.randint(0, width - 1)
    for n in range(lo, hi):
        for k in range(a[n]):
            s = level[(n, starts_offset(n) + k)]
            e = (n + 1, ends_offset(n + 1) + k)
            level[e] = max(level[e], s)

    base_change = {n: _random_invertible(rng, dims[n]) for n in range(lo, hi + 1)}
    inv = {}
    for n, m in base_change.items():
        cols = m.solve_many(Matrix.identity(m.rows).column_vectors())
        inv[n] = Matrix.from_rows(list(zip(*cols)), cols=m.rows)
    d_new = {n: base_change[n + 1] @ cx_split.d[n] @ inv[n] for n in range(lo, hi)}
    cx = CochainComplex(lo, hi, dims, d_new)

    p_lo = offset
    p_top = offset + width
    table = {}
    for n in range(lo, hi + 1):
        columns = base_change[n].column_vectors()
        for p in range(p_lo, p_top + 1):
            rows = [
                columns[i]
                for i in range(dims[n])
                if level[(n, i)] >= p
            ]
            table[(p, n)] = Subspace.span(dims[n], rows)
    fk = FilteredComplex(cx, Filtration(p_lo, p_top, table))
    essential = [(n, level[(n, i)]) for n in range(lo, hi + 1) for i in range(h[n])]
    pairs = [
        (n, level[(n, starts_offset(n) + k)], level[(n + 1, ends_offset(n + 1) + k)])
        for n in range(lo, hi)
        for k in range(a[n])
    ]
    return fk, Barcode(tuple(sorted(pairs)), tuple(sorted(essential)))


_CONSTRAINT_CACHE: dict[object, tuple] = {}


def _omega_constraint(model) -> tuple:
    """Linear system expressing d(omega) = 0 over the (0,1)-generator images.

    Unknowns are the coefficients of each generator image in the (2,0) cell;
    columns are d_alpha(omega) for the elementary data. Cached per model.pa,
    hashed by identity: two models of one name may hold different algebras.
    """
    from .models import ObstructionDatum, d2_from_alpha

    hit = _CONSTRAINT_CACHE.get(model.pa)
    if hit is not None:
        return hit
    alg = model.pa.A
    gens = alg.cell_indices(0, 1)
    cell20 = alg.cell_indices(2, 0)
    unknowns = [(g, k) for g in gens for k in cell20]
    omega = model.pa.omega
    images = [
        d2_from_alpha(ObstructionDatum(model, {g: {k: 1}})).apply(omega)
        for (g, k) in unknowns
    ]
    system = alg.matrix(images, alg.cell_indices(3, 0))
    out = (unknowns, system.nullspace())
    _CONSTRAINT_CACHE[model.pa] = out
    return out


def random_obstruction_datum(rng: random.Random, model, constrained: bool):
    """Random obstruction datum on a degree-one-generated model.

    constrained=True samples from the solution space of d(omega) = 0;
    otherwise the generator images are free.
    """
    from .models import ObstructionDatum

    alg = model.pa.A
    gens = alg.cell_indices(0, 1)
    cell20 = alg.cell_indices(2, 0)
    pool = [-2, -1, 0, 0, 1, 1, 2, scalar("1/2"), scalar("-3/2")]
    coeffs: dict[tuple[int, int], object] = {}
    if constrained:
        unknowns, null = _omega_constraint(model)
        total = {u: Q0 for u in unknowns}
        for kv in null:
            c = scalar(rng.choice(pool))
            if c == 0:
                continue
            for u, v in zip(unknowns, kv):
                total[u] += c * v
        coeffs = total
    else:
        coeffs = {
            (g, k): scalar(rng.choice(pool)) for g in gens for k in cell20
        }
    alpha = {}
    for g in gens:
        alpha[g] = {k: coeffs.get((g, k), Q0) for k in cell20}
    scale = scalar(rng.choice([1, 1, -1, 2, scalar("2/3")]))
    return ObstructionDatum(model, alpha, scale)
