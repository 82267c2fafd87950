"""Hankel matrices, four exact determinant algorithms, and the closed forms.

The paper gives one explicit determinant, that of the generalized
polynomials at z: z^{n(n+1)} Pi_{k=1}^{n} rising(r,k) k!, here
`closed_form_generalized`. Every family whose EGF is e^{cz}(1-xz)^{-r} has
it at (r, z = x), because the e^{cz} factor is a binomial transform of the
moments, which leaves every Hankel determinant as it is: the order-r
polynomials and numbers at (r, 1), the cyclic counts at (1, r), the classic
derangements at (1, 1). The r-derangement families carry a z^s prefactor,
s > 0, and have no closed form.

Bareiss is the authority (fraction-free, always defined). The J-fraction
route is the independent determinant at every size: the Chebyshev
algorithm (Gautschi 2004) turns the 2n+1 moments into the Jacobi
continued-fraction coefficients (b_k, lambda_k) in O(n^2) operations, and
the determinant is the product of the orthogonal polynomials' norms,
mu_0^{n+1} Pi lambda_k^{n+1-k} (Flajolet 1980). Dodgson condensation
(which mirrors the Sylvester contraction of the inductive determinant
proofs and raises DegenerateInterior when a divisor minor vanishes) and
Laplace cofactor expansion are small-size oracles, run on matrices up to
ORACLE_CAP x ORACLE_CAP.

Bareiss and condensation both run on integers: `_integer_rows` clears the
denominators of each row and then divides out the gcd of each column,
leaving an integer matrix and the rational factor its determinant is
scaled by. Every division either elimination makes is then exact.
Cofactor expansion clears one common denominator of its own and expands
on integers, computing each minor once, bottom-up over the column sets of
the trailing rows: it makes no division and no pivot, so it shares nothing
with the eliminations or the J-fraction route, which works in Fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .exact import DerangeDomainError, SizeTooLarge, factorial, rising_factorial
from .polys import eval_poly, generalized_D_poly
from .series import FamilySpec, egf_shape, egf_values

# Largest matrix size the cofactor and condensation oracles run on in
# verify_hankel; cofactor refuses anything larger.
ORACLE_CAP = 6


class InsufficientTerms(DerangeDomainError):
    pass


class DegenerateInterior(DerangeDomainError, ArithmeticError):
    """Condensation hit a zero interior minor; fall back to Bareiss."""


class PoleAtOne(DerangeDomainError, ZeroDivisionError):
    pass


class NoClosedForm(DerangeDomainError):
    pass


Matrix = List[List[Fraction]]


def hankel_matrix(seq: Sequence, n: int) -> Matrix:
    """(n+1) x (n+1) matrix with entry (i, j) = seq[i+j]."""
    if len(seq) < 2 * n + 1:
        raise InsufficientTerms(f"need {2 * n + 1} terms, got {len(seq)}")
    return [[Fraction(seq[i + j]) for j in range(n + 1)] for i in range(n + 1)]


def _integer_rows(m: Matrix) -> Tuple[List[List[int]], Fraction]:
    """An integer matrix a and a rational scale with det(m) = scale * det(a).

    Each row is multiplied by the lcm of its denominators, then each column
    is divided by the gcd of its entries (an all-zero column is left as
    it is). Scaling rows and columns by nonzero factors cannot turn any
    minor zero or nonzero.
    """
    rows = []
    denom = 1
    for row in m:
        row = [Fraction(v) for v in row]
        d = lcm(*(v.denominator for v in row)) if row else 1
        denom *= d
        rows.append([v.numerator * (d // v.denominator) for v in row])
    numer = 1
    for j in range(len(rows[0]) if rows else 0):
        g = gcd(*(row[j] for row in rows))
        if g > 1:
            numer *= g
            for row in rows:
                row[j] //= g
    return rows, Fraction(numer, denom)


def det_bareiss(m: Matrix) -> Fraction:
    """Exact determinant: one-step fraction-free Bareiss elimination on
    the integer matrix of `_integer_rows`, scaled back."""
    size = len(m)
    a, scale = _integer_rows(m)
    sign = 1
    prev = 1
    for k in range(size - 1):
        if a[k][k] == 0:
            for i in range(k + 1, size):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[size - 1][size - 1] * scale


def det_condensation(m: Matrix) -> Fraction:
    """Dodgson condensation on the integer matrix of `_integer_rows`;
    raises DegenerateInterior on a zero divisor minor.

    Every entry of every stage is a connected minor of that integer
    matrix, so by the Desnanot-Jacobi identity each division is exact."""
    size = len(m)
    cur, scale = _integer_rows(m)
    prev = [[1] * (size + 1) for _ in range(size + 1)]
    while len(cur) > 1:
        k = len(cur)
        nxt = []
        for i in range(k - 1):
            row = []
            for j in range(k - 1):
                div = prev[i + 1][j + 1]
                if div == 0:
                    raise DegenerateInterior(f"zero interior minor at ({i},{j})")
                minor = cur[i][j] * cur[i + 1][j + 1] - cur[i][j + 1] * cur[i + 1][j]
                row.append(minor // div)
            nxt.append(row)
        prev, cur = cur, nxt
    return cur[0][0] * scale


def det_cofactor(m: Matrix) -> Fraction:
    """Laplace expansion along the first row, on the integer matrix d * m
    for the lcm d of all denominators; capped at ORACLE_CAP.

    Each minor is computed once, bottom-up: the minor on the last k rows
    and a k-set S of columns is the signed sum, along its first row, of
    entry (size-k, j) times the minor on the last k-1 rows and S - {j}.
    That is 2^size minors, where a top-down recursion recomputes them in
    about e * size! calls. It neither divides nor pivots."""
    size = len(m)
    if size > ORACLE_CAP:
        raise SizeTooLarge(f"cofactor oracle capped at {ORACLE_CAP}, got {size}")
    rows = [[Fraction(v) for v in row] for row in m]
    d = lcm(*(v.denominator for row in rows for v in row))
    ints = [[v.numerator * (d // v.denominator) for v in row] for row in rows]
    # minors[S] for the bitmask S of a column set, over the last |S| rows;
    # S - {j} < S, so ascending order meets every smaller minor first
    minors = [0] * (1 << size)
    minors[0] = 1
    for mask in range(1, 1 << size):
        row = ints[size - mask.bit_count()]
        total, sign = 0, 1
        for j in range(size):
            if mask >> j & 1:
                if row[j]:
                    total += sign * row[j] * minors[mask ^ (1 << j)]
                sign = -sign
        minors[mask] = total
    return Fraction(minors[-1], d ** size)


class JFraction(NamedTuple):
    det: Optional[Fraction]    # None when a leading minor before the last is 0
    b: Tuple[Fraction, ...]    # b_0, b_1, ...
    lam: Tuple[Fraction, ...]  # lambda_1, lambda_2, ...


def det_jfraction(seq: Sequence, n: int) -> JFraction:
    """Determinant of the order-(n+1) Hankel matrix of seq[0..2n] by the
    Chebyshev algorithm, with the J-fraction coefficients it passes through.

    sigma[k][l] = L(pi_k x^l) for the monic orthogonal polynomials pi_k of
    the moment functional L(x^l) = seq[l] obeys
    sigma[k][l] = sigma[k-1][l+1] - b_{k-1} sigma[k-1][l]
                  - lambda_{k-1} sigma[k-2][l],
    with b_k = sigma[k][k+1]/sigma[k][k] - sigma[k-1][k]/sigma[k-1][k-1]
    and lambda_k = sigma[k][k]/sigma[k-1][k-1]. sigma[k][k] = H_{k+1}/H_k
    for the leading minors H, so the determinant is Pi_{k<=n} sigma[k][k].
    A zero sigma[k][k] with k < n stops the recursion: det is None and the
    coefficients end at that lambda_k = 0 (b_0..b_{k-1})."""
    if len(seq) < 2 * n + 1:
        raise InsufficientTerms(f"need {2 * n + 1} terms, got {len(seq)}")
    # row k holds sigma[k][k+j], j = 0..2(n-k); row -1 is the unit functional
    old = [Fraction(1)] + [Fraction(0)] * (2 * n + 2)
    cur = [Fraction(v) for v in seq[:2 * n + 1]]
    det, b, lam = cur[0], [], []
    for k in range(1, n + 1):
        norm = cur[0]
        if norm == 0:
            return JFraction(None, tuple(b), tuple(lam))
        alpha = cur[1] / norm - old[1] / old[0]
        beta = norm / old[0]
        new = [cur[j + 2] - alpha * cur[j + 1] - beta * old[j + 2]
               for j in range(2 * (n - k) + 1)]
        b.append(alpha)
        lam.append(new[0] / norm)
        det *= new[0]
        old, cur = cur, new
    return JFraction(det, tuple(b), tuple(lam))


def closed_form_generalized(n: int, r: int, z) -> Fraction:
    """The paper's Hankel determinant of order n+1 of the generalized
    polynomials at z: z^{n(n+1)} Pi_{k=1}^{n} rising(r,k) k!."""
    if n < 0:
        raise DerangeDomainError("n must be >= 0")
    out = 1
    for k in range(1, n + 1):
        out *= rising_factorial(r, k) * factorial(k)
    return Fraction(z) ** (n * (n + 1)) * out


def closed_form_order_d(n: int, r: int) -> int:
    """Hankel determinant of the order-r polynomials, at every z: the
    generalized one at z = 1."""
    return int(closed_form_generalized(n, r, 1))


def closed_form_cyclic(n: int, r: int) -> int:
    """Hankel determinant of the cyclic derangement counts: the generalized
    one at (1, r), r^{n(n+1)} (Pi k!)^2."""
    if n < 0 or r < 1:
        raise DerangeDomainError("need n >= 0, r >= 1")
    return int(closed_form_generalized(n, 1, r))


def closed_form_classic(n: int) -> int:
    """(Pi_{k=1}^n k!)^2, shared by det((i+j)!) and det(D_{i+j}): the
    generalized one at (1, 1)."""
    return int(closed_form_generalized(n, 1, 1))


def _hankel_shape(spec: FamilySpec) -> Tuple[Fraction, Fraction, int]:
    """(c, x, r) of the family's EGF e^{cz}(1-xz)^{-r}, or NoClosedForm
    when the EGF has a z^s prefactor, s > 0."""
    c, x, r, shift = egf_shape(spec)
    if shift > 0:
        raise NoClosedForm(f"no Hankel closed form for family {spec.family.value}")
    return c, x, r


def _closed_form(spec: FamilySpec, n: int) -> Fraction:
    _, x, r = _hankel_shape(spec)
    return closed_form_generalized(n, r, x)


def jfraction_closed_form(spec: FamilySpec, n: int) -> Tuple[tuple, tuple]:
    """b_0..b_{n-1} and lambda_1..lambda_n of a family with a Hankel closed
    form, read from its EGF shape e^{cz}(1-xz)^{-r}: b_k = c + x(2k + r),
    lambda_k = x^2 k (k + r - 1). The lambdas stop at the first zero, where
    the fraction ends, and the b's one index earlier."""
    c, x, r = _hankel_shape(spec)
    lam = []
    for k in range(1, n + 1):
        lam.append(x * x * k * (k + r - 1))
        if lam[-1] == 0:
            break
    b = tuple(c + x * (2 * k + r) for k in range(len(lam)))
    return b, tuple(lam)


@dataclass
class HankelReport:
    spec: FamilySpec
    n: int
    det_bareiss: Fraction
    det_jfraction: Optional[Fraction]     # None when a leading minor vanished
    # the oracles: None above ORACLE_CAP, and condensation also when it
    # degenerated
    det_condensation: Optional[Fraction]
    det_cofactor: Optional[Fraction]
    closed_form: Fraction
    verdict: str  # "pass" | "fail"

    def shown_dets(self) -> Dict[str, str]:
        """The determinants beside Bareiss as text: the value, "degenerate"
        when the algorithm ran and degenerated, "n/a" when it did not run."""
        oracles = self.n + 1 <= ORACLE_CAP
        dets = (("jfraction", self.det_jfraction, True),
                ("condensation", self.det_condensation, oracles),
                ("cofactor", self.det_cofactor, oracles))
        return {name: "n/a" if not ran else
                "degenerate" if det is None else str(det)
                for name, det, ran in dets}


def verify_hankel(spec: FamilySpec, n: int) -> HankelReport:
    """Build the order-(n+1) Hankel matrix of the family's values, evaluate
    the determinant by Bareiss, by the J-fraction route and, up to
    ORACLE_CAP, by condensation and cofactor expansion, and compare every
    value with the paper-supplied closed form."""
    if n < 0:
        raise DerangeDomainError("n must be >= 0")
    closed = _closed_form(spec, n)
    seq = egf_values(spec, 2 * n + 1)
    m = hankel_matrix(seq, n)
    db = det_bareiss(m)
    dj = det_jfraction(seq, n).det
    dc = dk = None
    if n + 1 <= ORACLE_CAP:
        dk = det_cofactor(m)
        try:
            dc = det_condensation(m)
        except DegenerateInterior:
            pass
    values = [v for v in (db, dj, dc, dk) if v is not None]
    verdict = "pass" if all(v == closed for v in values) else "fail"
    return HankelReport(spec, n, db, dj, dc, dk, closed, verdict)


def factorial_hankel_det(n: int) -> Fraction:
    """Bareiss determinant of the (i+j)! Hankel matrix of order n+1."""
    seq = [factorial(k) for k in range(2 * n + 1)]
    return det_bareiss(hankel_matrix(seq, n))


def reduced_derivative(n: int, r: int, z) -> Fraction:
    """g_n(z) = e^{-z} d^n/dz^n (e^z/(1-z)^r), computed without the
    transcendental factor as D_n^{(r)}(1/(1-z)) / (1-z)^r."""
    z = Fraction(z)
    if z == 1:
        raise PoleAtOne("z = 1 is a pole")
    t = 1 / (1 - z)
    return eval_poly(generalized_D_poly(n, r), t) * t ** r


@dataclass
class DerivativeHankelReport:
    n: int
    r: int
    z: Fraction
    det: Fraction
    closed_form: Fraction
    verdict: str


def verify_derivative_hankel(n: int, r: int, z) -> DerivativeHankelReport:
    """Check the e^z-cancelled derivative Hankel identity for matrix size n:
    det(g_{i+j-2}(z)) = Pi_{k=1}^{n-1} rising(r,k) k!
                        / ((z-1)^{(n-1)n} (1-z)^{rn}),
    the (1-z)^{-rn} being what remains of (e^z/(1-z)^r)^n after the e^{nz}
    cancels against the n stripped entry factors."""
    if n < 1:
        raise DerangeDomainError("n must be >= 1")
    z = Fraction(z)
    if z == 1:
        raise PoleAtOne("z = 1 is a pole")
    g = [reduced_derivative(m, r, z) for m in range(2 * n - 1)]
    det = det_bareiss(hankel_matrix(g, n - 1))
    closed = Fraction(closed_form_order_d(n - 1, r))
    closed /= (z - 1) ** ((n - 1) * n) * (1 - z) ** (r * n)
    verdict = "pass" if det == closed else "fail"
    return DerivativeHankelReport(n, r, z, det, closed, verdict)
