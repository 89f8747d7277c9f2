"""Independent oracles used by the test suite.

Everything here is deliberately naive and self-contained: plain-list Gaussian
elimination over Fraction, and a brute-force graded-commutative monomial
calculus. Nothing imports the package under test, so agreement between the
two is evidence, not tautology.
"""

from __future__ import annotations

from fractions import Fraction

Row = list[Fraction]


def _as_rows(rows) -> list[Row]:
    return [[Fraction(x) for x in r] for r in rows]


def naive_rank(rows) -> int:
    """Row count after textbook forward elimination."""
    work = _as_rows(rows)
    rank = 0
    ncols = len(work[0]) if work else 0
    col = 0
    while rank < len(work) and col < ncols:
        pivot = None
        for i in range(rank, len(work)):
            if work[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            col += 1
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        for i in range(rank + 1, len(work)):
            if work[i][col] != 0:
                f = work[i][col] / work[rank][col]
                work[i] = [a - f * b for a, b in zip(work[i], work[rank])]
        rank += 1
        col += 1
    return rank


def naive_rref(rows) -> list[Row]:
    """Reduced row echelon form with unit pivots, zero rows dropped.

    Canonical for the row span, so two spans agree iff their rrefs agree.
    """
    work = _as_rows(rows)
    if not work:
        return []
    ncols = len(work[0])
    rank = 0
    for col in range(ncols):
        pivot = None
        for i in range(rank, len(work)):
            if work[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = work[rank][col]
        work[rank] = [a / inv for a in work[rank]]
        for i in range(len(work)):
            if i != rank and work[i][col] != 0:
                f = work[i][col]
                work[i] = [a - f * b for a, b in zip(work[i], work[rank])]
        rank += 1
        if rank == len(work):
            break
    return [r for r in work[:rank]]


def naive_nullspace(rows, ncols: int) -> list[Row]:
    """One kernel vector per free column of the rref."""
    red = naive_rref(rows)
    pivots = []
    for r in red:
        for j, a in enumerate(r):
            if a != 0:
                pivots.append(j)
                break
    pivot_set = set(pivots)
    out = []
    for j in range(ncols):
        if j in pivot_set:
            continue
        v = [Fraction(0)] * ncols
        v[j] = Fraction(1)
        for k, c in enumerate(pivots):
            v[c] = -red[k][j]
        out.append(v)
    return out


def naive_solve(rows, b) -> Row | None:
    """Particular solution of A x = b with free variables zero, else None."""
    work = _as_rows(rows)
    b = [Fraction(x) for x in b]
    if len(work) != len(b):
        raise ValueError("shape mismatch")
    ncols = len(work[0]) if work else 0
    aug = [r + [bv] for r, bv in zip(work, b)]
    red = naive_rref(aug)
    x = [Fraction(0)] * ncols
    for r in red:
        lead = next((j for j, a in enumerate(r) if a != 0), None)
        if lead is None:
            continue
        if lead == ncols:
            return None
        x[lead] = r[ncols]
    # leading entries above ncols were caught; verify the rest explicitly
    for r, bv in zip(work, b):
        if sum(a * xv for a, xv in zip(r, x)) != bv:
            return None
    return x


def naive_matvec(rows, v) -> Row:
    """A v by the textbook sum over every entry of each row, zeros included."""
    return [sum((Fraction(a) * Fraction(b) for a, b in zip(r, v)), Fraction(0)) for r in rows]


def naive_matmul(a_rows, b_rows, ncols: int) -> list[Row]:
    """A B as rows, one dense dot product per entry; ncols is the width of B."""
    return [
        [sum((Fraction(x) * Fraction(b_rows[k][j]) for k, x in enumerate(r)), Fraction(0))
         for j in range(ncols)]
        for r in a_rows
    ]


def spans_equal(u, v, ncols: int) -> bool:
    ur = naive_rref([list(r) + [Fraction(0)] * (ncols - len(r)) for r in u] or [[Fraction(0)] * ncols])
    vr = naive_rref([list(r) + [Fraction(0)] * (ncols - len(r)) for r in v] or [[Fraction(0)] * ncols])
    return ur == vr


def sum_dim(u, v) -> int:
    return naive_rank(list(u) + list(v))


def intersection_dim(u, v) -> int:
    """dim(U) + dim(V) - dim(U + V)."""
    return naive_rank(u) + naive_rank(v) - sum_dim(u, v)


def preimage_basis(d_rows, target, ncols: int) -> list[Row]:
    """Spanning set of {v : d v in span(target)} via the block kernel.

    d_rows is the matrix of d as rows (one per output coordinate); target is
    a list of vectors in the output space.
    """
    m = len(d_rows)
    t = len(target)
    block = []
    for i in range(m):
        row = [Fraction(d_rows[i][j]) for j in range(ncols)]
        row += [-Fraction(target[k][i]) for k in range(t)]
        block.append(row)
    kern = naive_nullspace(block, ncols + t)
    return [v[:ncols] for v in kern]


def _pivot(row) -> int:
    return next(j for j, a in enumerate(row) if a != 0)


def naive_turn_cells(page) -> dict:
    """Cells of the page after `page`, by the rule ker d_r / im d_r on every cell.

    `page` is read only through its support, cells (B basis rows, complement
    rows, ambient dimension) and differentials (dense entries), so the rule
    runs on plain lists: new Z = B + lifts of ker d_out, new B = B + lifts of
    the columns of d_in, a lift being the combination of the complement rows.
    Returns, per cell, the rrefs of Z and B and the rows of Z's rref whose
    pivots are not pivots of B.
    """
    r = page.r
    out = {}
    for (p, q) in page.support:
        cell = page.cell(p, q)
        amb = cell.ambient_dim
        comp = [list(c) for c in cell.complement]
        base = [list(b) for b in cell.B.basis_rows]

        def lift(coords):
            v = [Fraction(0)] * amb
            for c, row in zip(coords, comp):
                v = [a + c * b for a, b in zip(v, row)]
            return v

        dout = page.diff(p, q)
        din = page.diff(p - r, q + r - 1)
        kernel = naive_nullspace([list(row) for row in dout.entries], dout.cols)
        z = naive_rref(base + [lift(k) for k in kernel])
        b = naive_rref(base + [lift([row[j] for row in din.entries]) for j in range(din.cols)])
        in_b = {_pivot(row) for row in b}
        out[(p, q)] = (z, b, [row for row in z if _pivot(row) not in in_b])
    return out


def rank_page_dims(fk, max_page: int) -> dict:
    """Dimensions of the nonzero cells of pages 1..max_page from ranks of d alone.

    This is the rank invariant. With R_n(a, b) = dim(d F^a K^n + F^b
    K^{n+1}) - dim F^b K^{n+1}, the rank of F^a K^n -> K^{n+1} / F^b
    K^{n+1}, and g(p, n) = dim F^p K^n - dim F^{p+1} K^n,

        dim E_r^{p,n-p} = g(p, n) - [R_n(p, p+r) - R_n(p+1, p+r)]
                                  - [R_{n-1}(p-r+1, p+1) - R_{n-1}(p-r+1, p)]:

    the first bracket counts the bars of length < r that start at p in
    degree n, the second those of degree n - 1 that end at p. `fk` is read
    only through its levels, its degrees, the basis rows of F and the
    entries of d; each R is one naive_rank, computed once per call. Returns
    {r: {(p, q): dim}}.
    """
    ranks: dict = {}

    def basis(p: int, n: int) -> list:
        return [list(v) for v in fk.F(p, n).basis_rows]

    def big_r(n: int, a: int, b: int) -> int:
        key = (n, min(max(a, fk.p_lo), fk.p_top), min(max(b, fk.p_lo), fk.p_top))
        if key not in ranks:
            d = fk.cx.diff(n).entries
            top = basis(b, n + 1)
            ranks[key] = naive_rank([naive_matvec(d, v) for v in basis(a, n)] + top) - len(top)
        return ranks[key]

    pages = {}
    for r in range(1, max_page + 1):
        out = pages[r] = {}
        for p in fk.levels():
            for n in fk.cx.degrees():
                g = len(basis(p, n)) - len(basis(p + 1, n))
                dim = g - (big_r(n, p, p + r) - big_r(n, p + 1, p + r))
                dim -= big_r(n - 1, p - r + 1, p + 1) - big_r(n - 1, p - r + 1, p)
                if dim:
                    out[(p, n - p)] = dim
    return pages


def map_product(alg, x: dict, y: dict) -> dict:
    """The product of two coefficient maps {basis index: coefficient}, less zero entries.

    Summed term by term from the structure constants alg.products, the one
    thing read from alg.
    """
    out: dict = {}
    for i, a in x.items():
        for j, b in y.items():
            for k, c in alg.products.get((i, j), {}).items():
                out[k] = out.get(k, 0) + a * b * c
    return {k: c for k, c in out.items() if c}


def integrate(pa, x: dict):
    """integral(x) for a coefficient map x, from pa.integral."""
    return sum(c * pa.integral.get(i, 0) for i, c in x.items())


def twisted_primitive_gram(pa, a: int, b: int) -> tuple[list[list], int]:
    """The Gram of (gamma, beta) -> integral(omega^{n-a-b} gamma beta) on
    H0^{a,b} x H0^{b,a}: its rows, one per primitive basis element of
    (a, b), and its column count, dim H0^{b,a}.

    `pa` is read only through its primitive bases, omega, products and
    integral; the omega powers are map_products. PolarizedAlgebra.validate
    proves these pairings nondegenerate instead of building them; the tests
    build them here.
    """
    alg, betas = pa.A, pa.primitive_elements(b, a)
    rows = []
    for g in pa.primitive_elements(a, b):
        for _ in range(pa.n - a - b):
            g = map_product(alg, pa.omega, g)
        rows.append([integrate(pa, map_product(alg, g, beta)) for beta in betas])
    return rows, len(betas)


def commutator_violations(pa, d) -> list[str]:
    """The names of the basis elements x with d(omega x) != omega d(x), in basis order.

    Built from map_products with omega itself, not from the sparse images
    of L that PolarizedAlgebra keeps.
    """
    alg = pa.A
    return [
        alg.basis[i][0]
        for i in range(alg.dim())
        if d.apply(map_product(alg, pa.omega, {i: 1})) != map_product(alg, pa.omega, d.values[i])
    ]


def serre_sign_violations(pa, d) -> list[list]:
    """The failures of serre_sign_check's two tests, each as its witness, in its order.

    First [x, None] for each x of the top cell with d(x) != 0, then the
    pairs [x, y] of basis elements with x in (p, q), y in the complementary
    cell (n-p-a, n-q-b) for the bidegree (a, b) of d, and
    integral(d(x) y) != -(-1)^{|x|} integral(x d(y)), each side the integral
    of a map_product.
    """
    alg, n = pa.A, pa.n
    a, b = d.bidegree
    out = [[alg.basis[i][0], None] for i in alg.cell_indices(n, n) if d.values[i]]
    for i, (name, p, q) in enumerate(alg.basis):
        s = -1 if (p + q) % 2 == 0 else 1
        for j in alg.cell_indices(n - p - a, n - q - b):
            lhs = integrate(pa, map_product(alg, d.values[i], {j: 1}))
            if lhs != s * integrate(pa, map_product(alg, {i: 1}, d.values[j])):
                out.append([name, alg.basis[j][0]])
    return out


# brute-force graded-commutative monomial calculus


def sort_monomial(word, degree_of) -> tuple[tuple[int, ...], int]:
    """Sort generator indices, tracking the Koszul sign of each swap.

    Returns (sorted word, sign); sign 0 when an odd generator repeats.
    """
    word = list(word)
    sign = 1
    changed = True
    while changed:
        changed = False
        for i in range(len(word) - 1):
            a, b = word[i], word[i + 1]
            if a > b:
                if degree_of(a) % 2 == 1 and degree_of(b) % 2 == 1:
                    sign = -sign
                word[i], word[i + 1] = b, a
                changed = True
    for i in range(len(word) - 1):
        if word[i] == word[i + 1] and degree_of(word[i]) % 2 == 1:
            return tuple(word), 0
    return tuple(word), sign


def el_scale(el: dict, c: Fraction) -> dict:
    return {m: c * v for m, v in el.items() if c * v != 0}


def el_add(e1: dict, e2: dict) -> dict:
    out = dict(e1)
    for m, v in e2.items():
        w = out.get(m, Fraction(0)) + v
        if w == 0:
            out.pop(m, None)
        else:
            out[m] = w
    return out


def el_mul(e1: dict, e2: dict, degree_of, power_cap=None) -> dict:
    """Bilinear product of monomial dictionaries.

    power_cap maps a generator index to its maximal allowed multiplicity;
    monomials exceeding the cap are truncated to zero.
    """
    out: dict = {}
    for m1, c1 in e1.items():
        for m2, c2 in e2.items():
            word, sign = sort_monomial(list(m1) + list(m2), degree_of)
            if sign == 0:
                continue
            if power_cap:
                if any(word.count(g) > cap for g, cap in power_cap.items()):
                    continue
            c = c1 * c2 * sign
            w = out.get(word, Fraction(0)) + c
            if w == 0:
                out.pop(word, None)
            else:
                out[word] = w
    return out


def monomial_derivative(word, images: dict, degree_of, d_degree: int, power_cap=None) -> dict:
    """Leibniz expansion of a derivation on one sorted monomial.

    images maps a generator index to the derivation's value there (an element
    dict); the sign for the i-th term is (-1)^{d_degree * deg(prefix)}.
    """
    out: dict = {}
    for i, g in enumerate(word):
        img = images.get(g)
        if not img:
            continue
        prefix_deg = sum(degree_of(h) for h in word[:i])
        sign = -1 if (d_degree * prefix_deg) % 2 == 1 else 1
        term = {tuple(word[:i]): Fraction(sign)}
        term = el_mul(term, img, degree_of, power_cap)
        term = el_mul(term, {tuple(word[i + 1:]): Fraction(1)}, degree_of, power_cap)
        out = el_add(out, term)
    return out


def binomial(n: int, k: int) -> int:
    if k < 0 or k > n:
        return 0
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out
