"""Hankel matrices, three exact determinant algorithms, and the closed forms.

Bareiss is the authority (fraction-free, always defined); Dodgson
condensation mirrors the Sylvester contraction used in the inductive
determinant proofs and bails out with DegenerateInterior when a divisor
minor vanishes; Laplace cofactor expansion is the small-size oracle.

Bareiss and condensation both run on integers: `_integer_rows` clears the
denominators of each row and then divides out the gcd of each column,
leaving an integer matrix and the rational factor its determinant is
scaled by. Every division either elimination makes is then exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import List, Optional, Sequence, Tuple

from .exact import DerangeDomainError, SizeTooLarge, factorial, rising_factorial
from .polys import eval_poly, generalized_D_poly
from .series import Family, FamilySpec, egf_values


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
    """Laplace expansion along the first row; capped at 6x6."""
    size = len(m)
    if size > 6:
        raise SizeTooLarge(f"cofactor oracle capped at 6, got {size}")

    def rec(rows):
        if len(rows) == 1:
            return rows[0][0]
        total = Fraction(0)
        for j, head in enumerate(rows[0]):
            if head == 0:
                continue
            sub = [r[:j] + r[j + 1:] for r in rows[1:]]
            total += (-1) ** j * head * rec(sub)
        return total

    return rec([[Fraction(v) for v in row] for row in m])


def _product_term(n: int, r: int) -> int:
    """Pi_{k=1}^{n} rising(r, k-1) * k!, the common tail of the closed forms."""
    out = 1
    for k in range(1, n + 1):
        out *= rising_factorial(r, k - 1) * factorial(k)
    return out


def closed_form_generalized(n: int, r: int, z) -> Fraction:
    """Hankel determinant of order n+1 of the generalized polynomials at z:
    z^{n(n+1)} rising(r,n) Pi rising(r,k-1) k!."""
    if n < 0:
        raise DerangeDomainError("n must be >= 0")
    z = Fraction(z)
    return z ** (n * (n + 1)) * rising_factorial(r, n) * _product_term(n, r)


def closed_form_order_d(n: int, r: int) -> int:
    """Hankel determinant of the order-r polynomials: z-independent."""
    if n < 0:
        raise DerangeDomainError("n must be >= 0")
    return rising_factorial(r, n) * _product_term(n, r)


def closed_form_cyclic(n: int, r: int) -> int:
    """Hankel determinant of the cyclic derangement counts: r^{n(n+1)} (Pi k!)^2."""
    if n < 0 or r < 1:
        raise DerangeDomainError("need n >= 0, r >= 1")
    return r ** (n * (n + 1)) * closed_form_classic(n)


def closed_form_classic(n: int) -> int:
    """(Pi_{k=1}^n k!)^2, shared by det((i+j)!) and det(D_{i+j})."""
    if n < 0:
        raise DerangeDomainError("n must be >= 0")
    p = 1
    for k in range(1, n + 1):
        p *= factorial(k)
    return p * p


@dataclass
class HankelReport:
    spec: FamilySpec
    n: int
    det_bareiss: Fraction
    det_condensation: Optional[Fraction]  # None when condensation degenerated
    det_cofactor: Optional[Fraction]      # None for matrices larger than 6x6
    closed_form: Fraction
    verdict: str  # "pass" | "fail"


def verify_hankel(spec: FamilySpec, n: int) -> HankelReport:
    """Build the order-(n+1) Hankel matrix of the family's values, evaluate
    the determinant by every applicable algorithm and compare with the
    paper-supplied closed form."""
    if n < 0:
        raise DerangeDomainError("n must be >= 0")
    f = spec.family
    if f is Family.GENERALIZED:
        closed = closed_form_generalized(n, spec.r, spec.x)
    elif f is Family.ORDER_R_POLY:
        closed = Fraction(closed_form_order_d(n, spec.r))
    elif f is Family.CYCLIC:
        closed = Fraction(closed_form_cyclic(n, spec.r))
    elif f is Family.CLASSIC:
        closed = Fraction(closed_form_classic(n))
    else:
        raise NoClosedForm(f"no Hankel closed form for family {f.value}")
    seq = egf_values(spec, 2 * n + 1)
    m = hankel_matrix(seq, n)
    db = det_bareiss(m)
    try:
        dc = det_condensation(m)
    except DegenerateInterior:
        dc = None
    dk = det_cofactor(m) if len(m) <= 6 else None
    values = [v for v in (db, dc, dk) if v is not None]
    verdict = "pass" if all(v == closed for v in values) else "fail"
    return HankelReport(spec, n, db, dc, dk, closed, verdict)


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
    det(g_{i+j-2}(z)) = rising(r, n-1) Pi_{k=1}^{n-1} rising(r,k-1) k!
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
    closed = Fraction(rising_factorial(r, n - 1) * _product_term(n - 1, r))
    closed /= (z - 1) ** ((n - 1) * n) * (1 - z) ** (r * n)
    verdict = "pass" if det == closed else "fail"
    return DerivativeHankelReport(n, r, z, det, closed, verdict)
