"""Polarized algebras, hard Lefschetz, primitive decomposition, and the degeneration certifier.

A PolarizedAlgebra is a bigraded algebra with a distinguished (1,1) class
omega and an integral on the top cell. Construction verifies hard Lefschetz
and Poincare non-degeneracy in complementary bidegrees, which imply the
non-degeneracy of the omega-twisted pairing on primitive pieces (the proof is
in PolarizedAlgebra.validate). degeneration_certify replays, step by step and
with witnesses, the Lefschetz-induction argument showing that a
bidegree-(r, 1-r) derivation killing omega must vanish; each step is checked
per instance, never assumed.
"""

from __future__ import annotations

from fractions import Fraction
from types import MappingProxyType
from typing import Mapping

from .algebra import BigradedAlgebra, Derivation, _accumulate, _ratio, verify_leibniz
from .errors import EngineError, InvariantError
from .linalg import (
    Matrix,
    Subspace,
    _solve_ints,
    coefficient,
    kernel,
    pairing_rank,
    sparse_rank,
)

# per primitive cell (p, q), the coefficient maps (d0(alpha_t), d'(alpha_t)) of d = d0 + L d'
Split = dict[tuple[int, int], tuple[list[dict], list[dict]]]


class PolarizedAlgebra:
    """Bigraded algebra with omega in (1,1) and an integral on the top cell.

    omega is kept as a private read-only copy of the coefficient map given,
    less its zero coefficients. The Lefschetz operator L = omega * (-) is
    built once, at construction, as the coefficient maps of the images
    omega * e_i of the basis elements, summed from the products rows; every
    use of L and of powers of omega reads them. check=True validates hard
    Lefschetz for L and Poincare duality in complementary bidegrees, which
    make the twisted primitive pairings nondegenerate (see validate).
    checked records whether validate has passed, as BigradedAlgebra.checked
    does.
    """

    def __init__(
        self,
        A: BigradedAlgebra,
        omega: Mapping[int, int | Fraction],
        integral: dict[int, int | Fraction],
        check: bool = True,
    ):
        self.A = A
        self.omega = omega = MappingProxyType({i: c for i, c in omega.items() if c})
        self.n = A.n
        top = set(A.cell_indices(self.n, self.n))
        self.integral = {int(i): coefficient(c) for i, c in integral.items() if c != 0}
        for i in self.integral:
            if i not in top:
                raise InvariantError(
                    f"integral is supported outside the top cell: {A.basis[i][0]}",
                    witness=A.basis[i][0],
                )
        if any(A.bidegree_of(i) != (1, 1) for i in omega):
            raise InvariantError(
                "omega must be homogeneous of bidegree (1, 1)",
                witness=[A.basis[i][0] for i in sorted(omega)],
            )
        # _lefschetz[i] holds the coefficients of omega * e_i, the sum of the
        # rows products[(k, i)] times omega_k, less zero entries
        prods, lefschetz = A.products, []
        for i in range(A.dim()):
            image: dict[int, int | Fraction] = {}
            for k, c in omega.items():
                _accumulate(image, c, prods.get((k, i), {}))
            lefschetz.append({j: c for j, c in image.items() if c})
        self._lefschetz = tuple(lefschetz)
        self._prim_elements: dict[tuple[int, int], tuple[MappingProxyType, ...]] = {}
        self.checked = False
        if check:
            self.validate()

    # -- basic pairings and operators

    def _pair(self, i: int, j: int) -> int | Fraction:
        """integral(e_i e_j), from the products row (i, j) and the integral."""
        integral = self.integral
        return sum(c * integral.get(k, 0) for k, c in self.A.products.get((i, j), {}).items())

    def _power(self, coeffs, k: int) -> dict[int, int | Fraction]:
        """The coefficient map of omega^k times the coefficient map coeffs, less zero entries."""
        for _ in range(k):
            out: dict[int, int | Fraction] = {}
            for i, c in coeffs.items():
                _accumulate(out, c, self._lefschetz[i])
            coeffs = out
        return {i: c for i, c in coeffs.items() if c}

    def betti(self, m: int) -> int:
        return len(self.A.degree_indices(m))

    def hard_lefschetz_failure(self) -> int | None:
        """Smallest i >= 1 with L^i : H^{n-i} -> H^{n+i} not bijective, else None.

        L^i is applied to each basis element of H^{n-i} through the sparse
        images of L, and the coefficient maps of the images are ranked once.
        """
        for i in range(1, self.n + 1):
            src = self.A.degree_indices(self.n - i)
            if len(src) != self.betti(self.n + i):
                return i
            images = [self._power({k: 1}, i) for k in src]
            if sparse_rank(images) != len(src):
                return i
        return None

    # -- primitive pieces

    def primitive_cell(self, p: int, q: int) -> Subspace:
        """H0^{p,q} = ker L^{n-p-q+1} on the cell (p, q), in cell coordinates.

        Above the middle degree it is zero, since P^k = 0 for k > n.
        """
        if p + q > self.n or not self.A.cell_dim(p, q):
            return Subspace.zero(self.A.cell_dim(p, q))
        i = self.n - p - q + 1
        images = [self._power({k: 1}, i) for k in self.A.cell_indices(p, q)]
        return kernel(self.A.matrix(images, self.A.cell_indices(p + i, q + i)))

    def primitive_elements(self, p: int, q: int) -> tuple[MappingProxyType, ...]:
        """The canonical basis of H0^{p,q} as read-only coefficient maps, built once per cell.

        Each is read off a kernel Row of primitive_cell: 1 at the basis
        element of its pivot and a / lead at each (j, a) of its tail.
        """
        hit = self._prim_elements.get((p, q))
        if hit is None:
            idx = self.A.cell_indices(p, q)
            hit = self._prim_elements[(p, q)] = tuple(
                MappingProxyType({idx[piv]: 1, **{idx[j]: _ratio(a, lead) for j, a in tail}})
                for piv, lead, tail in self.primitive_cell(p, q).tails
            )
        return hit

    def primitive_degree_dim(self, m: int) -> int:
        return sum(
            self.primitive_cell(p, q).dim
            for (p, q) in self.A.cells
            if p + q == m
        )

    # -- validation

    def validate(self):
        """Check hard Lefschetz and Poincare duality in complementary bidegrees.

        Runs A.validate() first unless A has passed it, since the skips below
        rest on graded commutativity. The Poincare Gram of the cell
        (n-p, n-q) is then +- the transpose of that of (p, q), so its rank is
        checked on the first cell of each complementary pair in iteration
        order; the dimensions are checked on every cell. A skipped mirror
        comes after the case it mirrors in the full check's order, so the
        first failure and its witness are the full check's. Sets checked on
        success.

        The twisted primitive pairings integral(omega^{n-a-b} gamma beta) on
        H0^{a,b} x H0^{b,a}, which the degeneration argument needs
        nondegenerate, then need no check (Griffiths & Harris, Ch. 0 Sec. 7).
        For k <= n let Q_k(x, y) = integral(omega^{n-k} x y) on H^k:
          - Q_k is nondegenerate on H^k: L^{n-k} is injective on H^k, and the
            integral lives on the top cell, so Poincare duality is the sum of
            the cell pairings and pairs H^{2n-k} perfectly with H^k.
          - H^k = P^k + L H^{k-2}, direct, for P^k = ker L^{n-k+1}: L is
            injective on H^{k-2}, dim P^k >= b_k - b_{2n-k+2} = b_k - b_{k-2},
            and L z in P^k gives L^{n-k+2} z = 0, so z = 0. As omega is even,
            Q_k(x, L z) = integral((omega^{n-k+1} x) z) = 0 for x in P^k, so
            Q_k stays nondegenerate on P^k.
          - L has bidegree (1, 1), so P^k is the sum of the H0^{a,b} with
            a + b = k, and Q_k pairs H0^{a,b} only with H0^{b,a}: each such
            block is square and nondegenerate.
        """
        if not self.A.checked:
            self.A.validate()
        bad = self.hard_lefschetz_failure()
        if bad is not None:
            raise InvariantError(f"hard Lefschetz fails at power {bad}", witness=bad)
        n = self.n
        ranked = set()
        for (p, q), idx in self.A.cells.items():
            if len(self.A.cell_indices(n - p, n - q)) != len(idx):
                raise InvariantError(
                    f"complementary cells {(p, q)} and {(n - p, n - q)} have different dimensions",
                    witness=[p, q],
                )
            if (n - p, n - q) in ranked:
                continue
            ranked.add((p, q))
            _, nondeg = pairing_rank(self.poincare_gram(p, q))
            if not nondeg:
                raise InvariantError(
                    f"Poincare pairing degenerates on cell {(p, q)}", witness=[p, q]
                )
        self.checked = True

    def poincare_gram(self, p: int, q: int) -> Matrix:
        """Gram of (e_i, e_j) -> integral(e_i e_j) on the cells (p, q) x (n-p, n-q).

        Each entry is _pair(i, j), the int or Fraction the algebra keeps,
        and the columns go to Matrix._of_cols as they are.
        """
        idx = self.A.cell_indices(p, q)
        cols = [
            [self._pair(i, j) for i in idx]
            for j in self.A.cell_indices(self.n - p, self.n - q)
        ]
        return Matrix._of_cols(cols, len(idx))


def verify_hard_lefschetz(pa: PolarizedAlgebra) -> tuple[bool, int | None]:
    """True iff every L^i : H^{n-i} -> H^{n+i} is bijective; else first failing i."""
    bad = pa.hard_lefschetz_failure()
    return bad is None, bad


def _commutator_violation(pa: PolarizedAlgebra, d: Derivation) -> str | None:
    """First basis element x with d(omega*x) != omega*d(x), else None.

    For x = e_i, d(omega*x) is summed as sum_l L(e_i)_l d(e_l) and compared,
    less the entries that cancel to zero, with the coefficient map of
    omega*d(e_i).
    """
    values = d.values
    for i, image in enumerate(pa._lefschetz):
        lhs: dict[int, int | Fraction] = {}
        for l, c in image.items():
            _accumulate(lhs, c, values[l])
        if {k: c for k, c in lhs.items() if c} != pa._power(values[i], 1):
            return pa.A.basis[i][0]
    return None


def split_differential(pa: PolarizedAlgebra, d: Derivation) -> Split:
    """Decompose d on each primitive cell as d = d0 + L d'.

    For alpha primitive in (p, q) with shift (A, B) = d.bidegree, d(alpha)
    lies in H0^{p+A,q+B} + omega*H0^{p+A-1,q+B-1}; returns per cell the
    lists of coefficient maps (d0(alpha_t), d'(alpha_t)) over the primitive
    basis. Requires d to have total degree A + B <= 1 and to commute with
    L_omega, else raises.
    """
    if sum(d.bidegree) > 1:
        raise InvariantError("split needs total degree at most 1", witness=list(d.bidegree))
    bad = _commutator_violation(pa, d)
    if bad is not None:
        raise InvariantError(
            "d does not commute with the Lefschetz operator", witness=bad
        )
    return _primitive_split(pa, d)


def _primitive_split(pa: PolarizedAlgebra, d: Derivation) -> Split:
    """split_differential for a d of total degree s <= 1 known to commute with L_omega.

    Per cell, the columns of system are the primitive basis of the target
    cell, then L of that of the cell below it, and those of targets the
    d(alpha). One _solve_ints of system.columns * y = system.den *
    targets.columns gives y = targets.den * x for the rational solutions x,
    and d0 and d' are summed from x as coefficient maps, less zero entries.

    The containment holds on a validated polarization, so a failure raises
    EngineError. Let alpha be primitive of degree k and write d(alpha) =
    sum_j L^j beta_j, beta_j primitive of degree k+s-2j (Griffiths & Harris,
    Ch. 0 §7). The sum of the L^{n-k+1+j} beta_j, each in its own Lefschetz
    component, is d(L^{n-k+1} alpha) = 0, so each is 0. L^{n-k+1+j} is
    injective on primitives of degree k+s-2j iff j > s, so beta_j = 0 for
    j > s, hence for j >= 2, and d(alpha) = beta_0 + L beta_1.
    """
    A, B = d.bidegree
    n = pa.n
    out: Split = {}
    for (p, q) in sorted(pa.A.cells):
        if p + q > n:
            continue
        prim = pa.primitive_elements(p, q)
        if not prim:
            out[(p, q)] = ([], [])
            continue
        tp, tq = p + A, q + B
        prim_t = pa.primitive_elements(tp, tq)
        prim_s = pa.primitive_elements(tp - 1, tq - 1)
        idx = pa.A.cell_indices(tp, tq)
        gens = prim_t + prim_s
        cols = list(prim_t) + [pa._power(g, 1) for g in prim_s]
        system = pa.A.matrix(cols, idx)
        targets = pa.A.matrix([d.apply(alpha) for alpha in prim], idx)
        rhs = [[(i, a * system.den) for i, a in col] for col in targets.columns]
        d0s, d1s = [], []
        for y in _solve_ints(system.columns, len(idx), rhs):
            if y is None:
                raise EngineError(
                    f"d(alpha) escapes H0 + L*H0 at cell {(p, q)} despite validated hard Lefschetz"
                )
            parts = ({}, {})
            for c, num, lead in y:
                _accumulate(parts[c >= len(prim_t)], _ratio(num, lead * targets.den), gens[c])
            d0s.append({k: v for k, v in parts[0].items() if v})
            d1s.append({k: v for k, v in parts[1].items() if v})
        out[(p, q)] = (d0s, d1s)
    return out


def deligne_vanishing(pa: PolarizedAlgebra, k: int = -1) -> int:
    """Dimension of the space of degree-k linear maps commuting with L_omega.

    Solves [f, L] = 0 over all graded maps f : H^m -> H^{m+k}; hard Lefschetz
    forces 0 for k = -1. The entry (r, c) of the equation in degree m,
    (f_{m+2} L_m - L_{m+k} f_m)[r, c] = 0, is assembled from the sparse
    images of L: L_m's column c gives the first term and each column i of
    L_{m+k} adds to the rows r where it is nonzero.
    """
    top = 2 * pa.n
    degree = {m: pa.A.degree_indices(m) for m in range(-abs(k), top + abs(k) + 3)}
    pos = {i: t for idx in degree.values() for t, i in enumerate(idx)}
    unknown_id: dict[tuple[int, int, int], int] = {}
    for m in range(0, top + 1):
        for i in range(len(degree[m + k])):
            for j in range(len(degree[m])):
                unknown_id[(m, i, j)] = len(unknown_id)
    if not unknown_id:
        return 0
    eqs: dict[tuple[int, int, int], dict[int, int | Fraction]] = {}
    for m in range(0, top + 1):
        rows_out = len(degree[m + 2 + k])
        for c, x in enumerate(degree[m]):
            # (f_{m+2} L_m)[r, c]
            for y, coeff in pa._lefschetz[x].items():
                s = pos[y]
                for r in range(rows_out):
                    eqs.setdefault((m, r, c), {})[unknown_id[(m + 2, r, s)]] = coeff
            # -(L_{m+k} f_m)[r, c]
            for i, y in enumerate(degree[m + k]):
                key = unknown_id[(m, i, c)]
                for z, coeff in pa._lefschetz[y].items():
                    eqs.setdefault((m, pos[z], c), {})[key] = -coeff
    return len(unknown_id) - sparse_rank(list(eqs.values()))


def serre_sign_check(pa: PolarizedAlgebra, d: Derivation) -> tuple[bool, list | None]:
    """Verify integral(d(x) y) = -(-1)^{|x|} integral(x d(y)) on complementary pairs.

    Checks first that d kills the top cell (automatic for bidegree (r, 1-r)
    by the grading bound, but verified). Returns (flag, witness pair). On
    basis elements x = e_i, y = e_j both sides are sums over the coefficient
    maps d(e_i) and d(e_j) of integral(e_a e_b), pa._pair(a, b).
    """
    A, B = d.bidegree
    n = pa.n
    alg, values, pairing = pa.A, d.values, pa._pair
    for i in alg.cell_indices(n, n):
        if values[i]:
            return False, [alg.basis[i][0], None]
    for i, (name, p, q) in enumerate(alg.basis):
        s = -1 if (p + q) % 2 == 0 else 1  # -(-1)^{|x|}
        for j in alg.cell_indices(n - p - A, n - q - B):
            lhs = sum(c * pairing(l, j) for l, c in values[i].items())
            rhs = s * sum(c * pairing(i, m) for m, c in values[j].items())
            if lhs != rhs:
                return False, [name, alg.basis[j][0]]
    return True, None


class CertStep:
    def __init__(self, step_id: str, statement: str, passed: bool, witness: object = None):
        self.step_id, self.statement = step_id, statement
        self.passed, self.witness = passed, witness

    def to_json(self) -> dict:
        out = {"id": self.step_id, "statement": self.statement, "passed": self.passed}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


class Certificate:
    def __init__(
        self,
        steps: list[CertStep] | None = None,
        verdict: str = "certified",
        failed_step: str | None = None,
    ):
        self.steps = [] if steps is None else steps
        self.verdict, self.failed_step = verdict, failed_step

    def certified(self) -> bool:
        return self.verdict == "certified"

    def to_json(self) -> dict:
        out = {"steps": [s.to_json() for s in self.steps], "verdict": self.verdict}
        if self.failed_step is not None:
            out["failed_step"] = self.failed_step
        return out


# what a passing step adds to its statement
_CONCLUSIONS = {"twisted-pairing-induction": ", forcing d = 0 on primitives"}


def degeneration_certify(
    pa: PolarizedAlgebra, d: Derivation, require_square_zero: bool = False
) -> Certificate:
    """Replay the Lefschetz-induction degeneration argument, step by step.

    Runs the table of steps below in order; each check returns a witness on
    failure, and the certificate stops at the first failing step:
      square-zero (only with require_square_zero): d o d = 0;
      omega-killed: d kills omega;
      lefschetz-commutes: d commutes with L_omega = omega * (-);
      primitive-containment: d(H0^{p,q}) inside H0 + L*H0 of the target,
        which holds once lefschetz-commutes has passed (see _primitive_split);
      primitive-component-only: d = d0 + L d' with d' = 0 on every primitive cell;
      middle-degree-vanishing: d = 0 in total degree n;
      twisted-pairing-induction: downward from degree n-1, pairing d(alpha)
        against complementary primitives integrates to zero, forcing d(alpha) = 0;
      zero-map: d = 0 as a linear map.
    Verdict "certified" only when every step passed.
    """
    if not d.leibniz_checked:
        ok, wit = verify_leibniz(pa.A, d)
        if not ok:
            raise InvariantError("certifier requires a Leibniz derivation", witness=wit)
    A, B = d.bidegree
    if A + B != 1 or A < 2:
        raise InvariantError(
            f"certifier expects a bidegree of the form (r, 1-r) with r >= 2, got {d.bidegree}"
        )
    n = pa.n
    split: Split = {}

    def by_name(x: Mapping[int, int | Fraction]) -> dict:
        return {pa.A.basis[i][0]: str(c) for i, c in sorted(x.items())}

    def containment():
        # the lefschetz-commutes step has already checked the commutator, and
        # _primitive_split proves that the containment then holds
        split.update(_primitive_split(pa, d))
        return None

    def component_only():
        for (p, q) in sorted(split):
            for alpha, d1 in zip(pa.primitive_elements(p, q), split[(p, q)][1]):
                if d1:
                    return {"alpha": by_name(alpha), "d_prime": by_name(d1)}
        return None

    def nonzero_image(indices):
        for i in indices:
            if d.values[i]:
                return {"x": pa.A.basis[i][0], "d(x)": by_name(d.values[i])}
        return None

    def twisted_pairings():
        for k in range(n - 1, -1, -1):
            for (p, q) in sorted(pa.A.cells):
                if p + q != k:
                    continue
                prim = pa.primitive_elements(p, q)
                if not prim:
                    continue
                betas = pa.primitive_elements(q + B, p + A)
                for alpha in prim:
                    dalpha = d.apply(alpha)
                    wdalpha = pa._power(dalpha, n - k - 1)
                    for beta in betas:
                        val = sum(
                            a * b * pa._pair(i, j)
                            for i, a in wdalpha.items()
                            for j, b in beta.items()
                        )
                        if val != 0:
                            return {
                                "alpha": by_name(alpha),
                                "beta": by_name(beta),
                                "pairing": str(val),
                            }
                    if dalpha:
                        raise EngineError(
                            "twisted pairing vanished but d(alpha) != 0 despite validated non-degeneracy"
                        )
        return None

    steps = [
        ("square-zero", "d composed with itself vanishes", lambda: d.squares_to_zero()[1]),
        # the witness of a zero element is empty
        ("omega-killed", "d(omega) = 0", lambda: by_name(d.apply(pa.omega)) or None),
        ("lefschetz-commutes", "[d, L_omega] = 0", lambda: _commutator_violation(pa, d)),
        ("primitive-containment", "d maps primitives into primitive + L*primitive", containment),
        (
            "primitive-component-only",
            "the L-component d' vanishes on every primitive cell",
            component_only,
        ),
        (
            "middle-degree-vanishing",
            "d vanishes in total degree n",
            lambda: nonzero_image(pa.A.degree_indices(n)),
        ),
        (
            "twisted-pairing-induction",
            "twisted pairings of d(alpha) against primitives vanish",
            twisted_pairings,
        ),
        ("zero-map", "d is the zero map", lambda: nonzero_image(range(pa.A.dim()))),
    ]
    cert = Certificate()
    for step_id, statement, check in steps if require_square_zero else steps[1:]:
        witness = check()
        passed = witness is None
        if passed:
            statement += _CONCLUSIONS.get(step_id, "")
        cert.steps.append(CertStep(step_id, statement, passed, witness))
        if not passed:
            cert.verdict = f"failed({step_id})"
            cert.failed_step = step_id
            break
    return cert
