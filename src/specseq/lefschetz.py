"""Polarized algebras, hard Lefschetz, primitive decomposition, and the degeneration certifier.

A PolarizedAlgebra is a bigraded algebra with a distinguished (1,1) class
omega and an integral on the top cell. Construction verifies hard Lefschetz,
Poincare non-degeneracy in complementary bidegrees, and non-degeneracy of the
omega-twisted pairing on primitive pieces. degeneration_certify replays, step
by step and with witnesses, the Lefschetz-induction argument showing that a
bidegree-(r, 1-r) derivation killing omega must vanish; each step is checked
per instance, never assumed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import BigradedAlgebra, Derivation, Element, _accumulate, verify_leibniz
from .errors import ContainmentError, EngineError, InvariantError
from .linalg import (
    Matrix,
    Subspace,
    coefficient,
    kernel,
    pairing_rank,
    scalar_str,
    sparse_rank,
)

# per primitive cell (p, q), the lists (d0(alpha_t), d'(alpha_t)) of d = d0 + L d'
Split = dict[tuple[int, int], tuple[list[Element], list[Element]]]


class PolarizedAlgebra:
    """Bigraded algebra with omega in (1,1) and an integral on the top cell.

    The Lefschetz operator L = omega * (-) is built once, at construction,
    as the sparse images omega * e_i of the basis elements; every use of L
    and of powers of omega reads them. check=True validates hard Lefschetz
    for L, Poincare duality in complementary bidegrees, and the twisted
    primitive pairings (gamma, beta) -> integral(omega^{n-a-b} gamma beta)
    on H0^{a,b} x H0^{b,a} for all a+b <= n.
    """

    def __init__(
        self,
        A: BigradedAlgebra,
        omega: Element,
        integral: dict[int, int | Fraction],
        check: bool = True,
    ):
        self.A = A
        self.omega = omega
        self.n = A.n
        top = set(A.cell_indices(self.n, self.n))
        self.integral = {int(i): coefficient(c) for i, c in integral.items() if c != 0}
        for i in self.integral:
            if i not in top:
                raise InvariantError(
                    f"integral is supported outside the top cell: {A.basis[i][0]}",
                    witness=A.basis[i][0],
                )
        if omega.bidegree() not in ((1, 1), None) or (
            omega.bidegree() is None and not omega.is_zero()
        ):
            raise InvariantError(
                "omega must be homogeneous of bidegree (1, 1)",
                witness=[A.basis[i][0] for i in sorted(omega.coeffs)],
            )
        # _lefschetz[i] holds the coefficients of omega * e_i
        self._lefschetz = tuple((omega * A.basis_element(i)).coeffs for i in range(A.dim()))
        self._prim_cache: dict[tuple[int, int], Subspace] = {}
        self._prim_elements: dict[tuple[int, int], tuple[Element, ...]] = {}
        if check:
            self.validate()

    # -- basic pairings and operators

    def integral_of(self, x: Element) -> int | Fraction:
        """The functional on A^{n,n}, extended by zero off the top cell."""
        total = 0
        for i, c in x.coeffs.items():
            total += c * self.integral.get(i, 0)
        return total

    def L(self, x: Element, k: int = 1) -> Element:
        """omega^k * x, through the sparse images of the basis elements."""
        for _ in range(k):
            out: dict[int, int | Fraction] = {}
            for i, c in x.coeffs.items():
                _accumulate(out, c, self._lefschetz[i])
            x = Element(self.A, out)
        return x

    def omega_power(self, k: int) -> Element:
        return self.L(self.A.one(), k)

    def degree_indices(self, m: int) -> list[int]:
        return self.A.degree_indices(m)

    def betti(self, m: int) -> int:
        return len(self.degree_indices(m))

    def hard_lefschetz_failure(self) -> int | None:
        """Smallest i >= 1 with L^i : H^{n-i} -> H^{n+i} not bijective, else None.

        L^i is applied to each basis element of H^{n-i} through the sparse
        images of L, and the coefficient maps of the images are ranked once.
        """
        for i in range(1, self.n + 1):
            src = self.degree_indices(self.n - i)
            if len(src) != self.betti(self.n + i):
                return i
            images = [self.L(self.A.basis_element(k), i).coeffs for k in src]
            if sparse_rank(images) != len(src):
                return i
        return None

    # -- primitive pieces

    def primitive_cell(self, p: int, q: int) -> Subspace:
        """H0^{p,q} = ker L^{n-p-q+1} on the cell (p, q), in cell coordinates."""
        key = (p, q)
        hit = self._prim_cache.get(key)
        if hit is not None:
            return hit
        if not self.A.cell_dim(p, q):
            return Subspace.zero(0)
        k = p + q
        i = self.n - k + 1
        cols = [
            self.A.cell_vector(self.L(self.A.basis_element(idx), i), p + i, q + i)
            for idx in self.A.cell_indices(p, q)
        ]
        mat = Matrix.from_cols(cols, rows=self.A.cell_dim(p + i, q + i))
        out = kernel(mat)
        self._prim_cache[key] = out
        return out

    def primitive_elements(self, p: int, q: int) -> tuple[Element, ...]:
        """The basis of H0^{p,q} as elements, built once per cell."""
        hit = self._prim_elements.get((p, q))
        if hit is None:
            hit = self._prim_elements[(p, q)] = tuple(
                self.A.element_from_cell(p, q, v)
                for v in self.primitive_cell(p, q).basis_rows
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
        """Check hard Lefschetz, Poincare duality and the twisted primitive pairings.

        Runs A.validate() first unless A has passed it, since the skips below
        rest on graded commutativity. The Poincare Gram of the cell
        (n-p, n-q) is then +- the transpose of that of (p, q), so its rank is
        checked on the first cell of each complementary pair in iteration
        order; the dimensions are checked on every cell. The twisted Gram of
        (b, a) is +- the transpose of that of (a, b), so only a <= b is
        checked, and a pair whose cells (a, b) and (b, a) are both empty has a
        0x0 Gram, which passes, and is skipped. A skipped mirror comes after
        the case it mirrors in the full check's order, so the first failure
        and its witness are the full check's.
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
        for a in range(0, n + 1):
            for b in range(a, n + 1 - a):
                if not (self.A.cell_dim(a, b) or self.A.cell_dim(b, a)):
                    continue
                gram = self.twisted_primitive_gram(a, b)
                if gram.rows != gram.cols:
                    raise InvariantError(
                        f"twisted primitive pairing on {(a, b)} is not square",
                        witness=[a, b],
                    )
                _, nondeg = pairing_rank(gram)
                if not nondeg:
                    raise InvariantError(
                        f"twisted primitive pairing degenerates on {(a, b)}",
                        witness=[a, b],
                    )

    def poincare_gram(self, p: int, q: int) -> Matrix:
        """Gram of (e_i, e_j) -> integral(e_i e_j) on the cells (p, q) x (n-p, n-q).

        Each entry is read from the products row (i, j) and the integral.
        """
        jdx = self.A.cell_indices(self.n - p, self.n - q)
        rows = [
            [
                sum(c * self.integral.get(k, 0) for k, c in self.A.product_indices(i, j).items())
                for j in jdx
            ]
            for i in self.A.cell_indices(p, q)
        ]
        return Matrix.from_rows(rows, cols=len(jdx))

    def twisted_primitive_gram(self, a: int, b: int) -> Matrix:
        """Gram of (gamma, beta) -> integral(omega^{n-a-b} gamma beta) on H0^{a,b} x H0^{b,a}."""
        betas = self.primitive_elements(b, a)
        rows = []
        for g in self.primitive_elements(a, b):
            wg = self.L(g, self.n - a - b)
            rows.append([self.integral_of(wg * bb) for bb in betas])
        return Matrix.from_rows(rows, cols=len(betas))


def verify_hard_lefschetz(pa: PolarizedAlgebra) -> tuple[bool, int | None]:
    """True iff every L^i : H^{n-i} -> H^{n+i} is bijective; else first failing i."""
    bad = pa.hard_lefschetz_failure()
    return bad is None, bad


def primitive_subspaces(pa: PolarizedAlgebra) -> dict[tuple[int, int], Subspace]:
    """H0^{p,q} for p+q <= n, in cell coordinates, plus decomposition bookkeeping.

    Asserts dim H0^m = b_m - b_{m-2} and the Lefschetz decomposition
    sum_j dim L^j H0^{m-2j} = b_m for every m.
    """
    n = pa.n
    out = {(p, q): pa.primitive_cell(p, q) for (p, q) in sorted(pa.A.cells) if p + q <= n}
    for m in range(0, n + 1):
        got = sum(sub.dim for (p, q), sub in out.items() if p + q == m)
        want = pa.betti(m) - pa.betti(m - 2)
        if got != want:
            raise EngineError(
                f"primitive dimension bookkeeping fails in degree {m}: {got} != {want}"
            )
    for m in range(0, 2 * n + 1):
        # L^j H0^{m-2j} is nonzero only while m - 2j <= n and j <= n - (m - 2j)
        total = sum(
            pa.primitive_degree_dim(m - 2 * j)
            for j in range(m // 2 + 1)
            if m - 2 * j <= n and n - (m - 2 * j) >= j
        )
        if total != pa.betti(m):
            raise EngineError(
                f"Lefschetz decomposition fails in degree {m}: {total} != {pa.betti(m)}"
            )
    return out


def _commutator_violation(pa: PolarizedAlgebra, d: Derivation) -> str | None:
    """First basis element x with d(omega*x) != omega*d(x), else None."""
    for i in range(pa.A.dim()):
        if not (d.apply(pa.L(pa.A.basis_element(i))) - pa.L(d.values[i])).is_zero():
            return pa.A.basis[i][0]
    return None


def split_differential(pa: PolarizedAlgebra, d: Derivation) -> Split:
    """Decompose d on each primitive cell as d = d0 + L d'.

    For alpha primitive in (p, q) with shift (A, B) = d.bidegree, d(alpha)
    must lie in H0^{p+A,q+B} + omega*H0^{p+A-1,q+B-1}; returns per cell the
    lists (d0(alpha_t), d'(alpha_t)) over the primitive basis. Requires d to
    commute with L_omega; containment failure raises with a witness.
    """
    bad = _commutator_violation(pa, d)
    if bad is not None:
        raise InvariantError(
            "d does not commute with the Lefschetz operator", witness=bad
        )
    return _primitive_split(pa, d)


def _primitive_split(pa: PolarizedAlgebra, d: Derivation) -> Split:
    """split_differential for a d already known to commute with L_omega."""
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
        cols = [pa.A.cell_vector(g, tp, tq) for g in prim_t]
        cols += [pa.A.cell_vector(pa.L(g), tp, tq) for g in prim_s]
        system = Matrix.from_cols(cols, rows=pa.A.cell_dim(tp, tq))
        targets = [pa.A.cell_vector(d.apply(alpha), tp, tq) for alpha in prim]
        sols = system.solve_many(targets)
        d0s, d1s = [], []
        for alpha, x in zip(prim, sols):
            if x is None:
                raise ContainmentError(
                    "d(alpha) escapes the primitive-plus-L-primitive kernel",
                    witness=str(alpha),
                )
            d0s.append(sum((g.scaled(c) for c, g in zip(x, prim_t)), pa.A.zero()))
            d1s.append(sum((g.scaled(c) for c, g in zip(x[len(prim_t):], prim_s)), pa.A.zero()))
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
    degree = {m: pa.degree_indices(m) for m in range(-abs(k), top + abs(k) + 3)}
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


def hom_space_dimension(pa: PolarizedAlgebra, k: int = -1) -> int:
    """Dimension of ALL degree-k graded maps (no commutation imposed)."""
    return sum(
        pa.betti(m) * pa.betti(m + k) for m in range(0, 2 * pa.n + 1)
    )


def serre_sign_check(pa: PolarizedAlgebra, d: Derivation) -> tuple[bool, list | None]:
    """Verify integral(d(x) y) = -(-1)^{|x|} integral(x d(y)) on complementary pairs.

    Checks first that d kills the top cell (automatic for bidegree (r, 1-r)
    by the grading bound, but verified). Returns (flag, witness pair).
    """
    A, B = d.bidegree
    n = pa.n
    for i in pa.A.cell_indices(n, n):
        if not d.values[i].is_zero():
            return False, [pa.A.basis[i][0], None]
    for i in range(pa.A.dim()):
        _, p, q = pa.A.basis[i]
        jdx = pa.A.cell_indices(n - p - A, n - q - B)
        x = pa.A.basis_element(i)
        s = -1 if (p + q) % 2 == 0 else 1  # -(-1)^{|x|}
        for j in jdx:
            lhs = pa.integral_of(d.values[i] * pa.A.basis_element(j))
            rhs = s * pa.integral_of(x * d.values[j])
            if lhs != rhs:
                return False, [pa.A.basis[i][0], pa.A.basis[j][0]]
    return True, None


@dataclass
class CertStep:
    step_id: str
    statement: str
    passed: bool
    witness: object = None

    def to_json(self) -> dict:
        out = {"id": self.step_id, "statement": self.statement, "passed": self.passed}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


@dataclass
class Certificate:
    steps: list[CertStep] = field(default_factory=list)
    verdict: str = "certified"
    failed_step: str | None = None

    def certified(self) -> bool:
        return self.verdict == "certified"

    def to_json(self) -> dict:
        out = {"steps": [s.to_json() for s in self.steps], "verdict": self.verdict}
        if self.failed_step is not None:
            out["failed_step"] = self.failed_step
        return out


def _element_witness(x: Element) -> dict:
    return {x.alg.basis[i][0]: scalar_str(c) for i, c in sorted(x.coeffs.items())}


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
      primitive-containment: d(H0^{p,q}) inside H0 + L*H0 of the target;
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

    def containment():
        # the lefschetz-commutes step has already checked the commutator
        try:
            split.update(_primitive_split(pa, d))
        except ContainmentError as exc:
            return exc.witness
        return None

    def component_only():
        for (p, q) in sorted(split):
            for alpha, d1 in zip(pa.primitive_elements(p, q), split[(p, q)][1]):
                if not d1.is_zero():
                    return {"alpha": _element_witness(alpha), "d_prime": _element_witness(d1)}
        return None

    def nonzero_image(indices):
        for i in indices:
            if not d.values[i].is_zero():
                return {"x": pa.A.basis[i][0], "d(x)": _element_witness(d.values[i])}
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
                    wdalpha = pa.L(dalpha, n - k - 1)
                    for beta in betas:
                        val = pa.integral_of(wdalpha * beta)
                        if val != 0:
                            return {
                                "alpha": _element_witness(alpha),
                                "beta": _element_witness(beta),
                                "pairing": scalar_str(val),
                            }
                    if not dalpha.is_zero():
                        raise EngineError(
                            "twisted pairing vanished but d(alpha) != 0 despite validated non-degeneracy"
                        )
        return None

    steps = [
        ("square-zero", "d composed with itself vanishes", lambda: d.squares_to_zero()[1]),
        # the witness of a zero element is empty
        ("omega-killed", "d(omega) = 0", lambda: _element_witness(d.apply(pa.omega)) or None),
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
