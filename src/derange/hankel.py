"""Hankel matrices, four exact determinant algorithms, and the closed forms.

The paper gives one explicit determinant, that of the generalized
polynomials at z: z^{n(n+1)} Pi_{k=1}^{n} rising(r,k) k!, here
`closed_form_generalized`. Every family whose EGF is e^{cz}(1-xz)^{-r} has
it at (r, z = x), because the e^{cz} factor is a binomial transform of the
moments, which leaves every Hankel determinant as it is: the order-r
polynomials and numbers at (r, 1), the cyclic counts at (1, r), the classic
derangements at (1, 1). The r-derangement families carry a z^s prefactor,
s > 0, and have no closed form.

Bareiss is the authority (fraction-free, always defined). It reads the
moments and builds the symmetric integer matrix s_i s_j a_{i+j} / g, with
s_i the lcm of the denominators of a_i..a_{i+n} and g the gcd of all
entries, so every division is exact. Each elimination stage of a symmetric
matrix is symmetric, so only the upper triangle is eliminated; a zero
pivot copies it into the lower triangle once, and elimination goes on with
row swaps as on a general matrix. The J-fraction route is the independent
determinant at every size: the Chebyshev algorithm (Gautschi 2004) turns
the 2n+1 moments into the Jacobi continued-fraction coefficients
(b_k, lambda_k) in O(n^2) operations, each row held as integers over one
denominator, and the determinant is the product of the orthogonal
polynomials' norms, mu_0^{n+1} Pi lambda_k^{n+1-k} (Flajolet 1980). Up to
ORACLE_CAP x ORACLE_CAP two oracles run beside them: Dodgson condensation,
the Desnanot-Jacobi recurrence of the paper's inductive proofs run on the
moments in O(n^2) integer steps, and Laplace cofactor expansion on
integers, with no division and no pivot. No two routes share a kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .exact import DerangeDomainError, SizeTooLarge, factorial, rising_factorial
from .polys import eval_poly, generalized_D_poly
from .series import FamilySpec, egf_shape, egf_values

# Largest matrix size the cofactor and condensation oracles run on in
# verify_hankel; cofactor refuses anything larger.
ORACLE_CAP = 6


class DegenerateInterior(DerangeDomainError, ArithmeticError):
    """Condensation hit a zero interior minor; verify_hankel shows the
    condensation value as "degenerate"."""


Matrix = List[List[Fraction]]


def _moments(seq: Sequence, n: int) -> List[Fraction]:
    """seq[0..2n] as Fractions: the moments an order-(n+1) Hankel matrix
    reads."""
    if len(seq) < 2 * n + 1:
        raise DerangeDomainError(f"need {2 * n + 1} terms, got {len(seq)}")
    return [Fraction(v) for v in seq[:2 * n + 1]]


def hankel_matrix(seq: Sequence, n: int) -> Matrix:
    """(n+1) x (n+1) matrix with entry (i, j) = seq[i+j]."""
    moments = _moments(seq, n)
    return [[moments[i + j] for j in range(n + 1)] for i in range(n + 1)]


def det_bareiss(seq: Sequence, n: int) -> Fraction:
    """Determinant of the order-(n+1) Hankel matrix of seq[0..2n] by
    one-step fraction-free Bareiss elimination on a symmetric integer matrix.

    Entry (i, j) is s_i s_j a_{i+j} / g, for s_i the lcm of the
    denominators of a_i..a_{i+n} and g the gcd of all entries, so the
    determinant is det * g^{n+1} / Pi s_i^2. Every Bareiss stage of a
    symmetric matrix is symmetric, so only entries with j >= i are
    eliminated, and a[i][k] is read as a[k][i]. A zero pivot copies the
    upper triangle into the lower one once; elimination then goes on as on
    a general matrix, with row swaps."""
    moments = _moments(seq, n)
    size = n + 1
    dens = [v.denominator for v in moments]
    s = [lcm(*dens[i:i + size]) for i in range(size)]
    a = [[s[i] * s[j] * moments[i + j].numerator // dens[i + j]
          for j in range(size)] for i in range(size)]
    g = gcd(*(gcd(*row) for row in a))
    if g == 0:
        return Fraction(0)
    if g > 1:
        a = [[v // g for v in row] for row in a]
    sign, prev, sym = 1, 1, True
    for k in range(size - 1):
        if a[k][k] == 0:
            if sym:  # the lower triangle is stale
                for i in range(k + 1, size):
                    for j in range(k, i):
                        a[i][j] = a[j][i]
                sym = False
            for i in range(k + 1, size):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        rk, akk = a[k], a[k][k]
        for i in range(k + 1, size):
            ri = a[i]
            lo, aik = (i, rk[i]) if sym else (k + 1, ri[k])
            ri[lo:] = [(v * akk - aik * w) // prev
                       for v, w in zip(ri[lo:], rk[lo:])]
        prev = akk
    return Fraction(sign * a[-1][-1] * g ** size, prod(s) ** 2)


def det_condensation(seq: Sequence, n: int) -> Fraction:
    """Determinant of the order-(n+1) Hankel matrix of seq[0..2n] by Dodgson
    condensation on the moments; raises DegenerateInterior on a zero divisor.

    Its connected minors H_k^(m) = det(a_{m+i+j})_{i,j<k} obey
    H_{k+1}^(m) H_{k-1}^(m+2) = H_k^(m) H_k^(m+2) - (H_k^(m+1))^2 from
    H_0 = 1, H_1^(m) = a_m; on b = d a, for a common denominator d, every
    minor is an integer and every division exact."""
    moments = _moments(seq, n)
    d = lcm(*(v.denominator for v in moments))
    # level k holds H_k^(m), m = 0..2(n+1-k)
    prev = [1] * (2 * n + 3)
    cur = [v.numerator * (d // v.denominator) for v in moments]
    for k in range(1, n + 1):
        nxt = []
        for m in range(2 * (n - k) + 1):
            div = prev[m + 2]
            if div == 0:
                raise DegenerateInterior(f"zero minor H_{k - 1}^({m + 2})")
            nxt.append((cur[m] * cur[m + 2] - cur[m + 1] ** 2) // div)
        prev, cur = cur, nxt
    return Fraction(cur[0], d ** (n + 1))


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
    # row k holds sigma[k][k+j] as integers over one denominator,
    # j = 0..2(n-k); row -1 is the unit functional, whose denominator
    # cancels from every step
    moments = _moments(seq, n)
    cur_den = lcm(*(v.denominator for v in moments))
    cur = [v.numerator * (cur_den // v.denominator) for v in moments]
    old = [1] + [0] * (2 * n + 2)
    det, b, lam = Fraction(cur[0], cur_den), [], []
    for k in range(1, n + 1):
        c0, o0 = cur[0], old[0]
        if c0 == 0:
            return JFraction(None, tuple(b), tuple(lam))
        # alpha = q/p and beta old[j+2] = t old[j+2] / (p cur_den) on the
        # numerators, so p cur_den sigma[k][k+j] is new[j]
        p, q, t = c0 * o0, cur[1] * o0 - old[1] * c0, c0 * c0
        new = [p * cur[j + 2] - q * cur[j + 1] - t * old[j + 2]
               for j in range(2 * (n - k) + 1)]
        new_den = p * cur_den
        g = gcd(new_den, *new)
        if g > 1:
            new = [v // g for v in new]
            new_den //= g
        b.append(Fraction(q, p))
        lam.append(Fraction(new[0] * cur_den, new_den * c0))
        det *= Fraction(new[0], new_den)
        old, cur, cur_den = cur, new, new_den
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
    """(c, x, r) of the family's EGF e^{cz}(1-xz)^{-r}; a DerangeDomainError
    when the EGF has a z^s prefactor, s > 0."""
    c, x, r, shift = egf_shape(spec)
    if shift > 0:
        raise DerangeDomainError(
            f"no Hankel closed form for family {spec.family.value}")
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
    """Evaluate the order-(n+1) Hankel determinant of the family's values
    by Bareiss, by the J-fraction route and, up to ORACLE_CAP, by
    condensation and cofactor expansion, and compare every value with the
    paper-supplied closed form. Only cofactor reads the matrix itself."""
    if n < 0:
        raise DerangeDomainError("n must be >= 0")
    closed = _closed_form(spec, n)
    seq = egf_values(spec, 2 * n + 1)
    db = det_bareiss(seq, n)
    dj = det_jfraction(seq, n).det
    dc = dk = None
    if n + 1 <= ORACLE_CAP:
        dk = det_cofactor(hankel_matrix(seq, n))
        try:
            dc = det_condensation(seq, n)
        except DegenerateInterior:
            pass
    values = [v for v in (db, dj, dc, dk) if v is not None]
    verdict = "pass" if all(v == closed for v in values) else "fail"
    return HankelReport(spec, n, db, dj, dc, dk, closed, verdict)


def factorial_hankel_det(n: int) -> Fraction:
    """Bareiss determinant of the (i+j)! Hankel matrix of order n+1."""
    return det_bareiss([factorial(k) for k in range(2 * n + 1)], n)


def reduced_derivative(n: int, r: int, z) -> Fraction:
    """g_n(z) = e^{-z} d^n/dz^n (e^z/(1-z)^r), computed without the
    transcendental factor as D_n^{(r)}(1/(1-z)) / (1-z)^r."""
    z = Fraction(z)
    if z == 1:
        raise DerangeDomainError("z = 1 is a pole")
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
    g = [reduced_derivative(m, r, z) for m in range(2 * n - 1)]
    det = det_bareiss(g, n - 1)
    closed = Fraction(closed_form_order_d(n - 1, r))
    closed /= (z - 1) ** ((n - 1) * n) * (1 - z) ** (r * n)
    verdict = "pass" if det == closed else "fail"
    return DerivativeHankelReport(n, r, z, det, closed, verdict)
