"""Hankel matrices, four exact determinant routes, and the closed forms.

Each route returns the chain of leading minors H_0..H_n of the Hankel
matrix of a_0..a_{2n}, H_k = det(a_{i+j})_{i,j<=k}, which it passes on its
way to H_n; `hankel_reports` calls each route once and reads every order
from the chains, and `verify_hankel` is its view of one order. Bareiss is
the authority (fraction-free, always defined): before any row swap its
k-th pivot is H_k, scaled (Bareiss 1968), and each order after a zero
pivot is eliminated alone. The J-fraction route is the independent check
at every size: the Chebyshev algorithm (Gautschi 2004) turns the moments
into the Jacobi continued-fraction coefficients (b_k, lambda_k) in O(n^2)
integer operations, and H_k is the running product of the orthogonal
polynomials' norms (Flajolet 1980). Two oracles run up to ORACLE_CAP:
Dodgson condensation, the Desnanot-Jacobi recurrence of the paper's
inductive proofs, and Laplace cofactor expansion by `exact._laplace`,
with no division and no pivot. No two routes share a kernel. A None in
a chain is an order the route has no value at: condensation past a zero
divisor, the J-fraction past a zero leading minor; a report shows it as
"degenerate".

The paper's determinant of the generalized polynomials at z is
z^{n(n+1)} Pi_{k=1}^{n} rising(r,k) k!. Every family whose EGF is
e^{cz}(1-xz)^{-r} has it at (r, z = x), since the e^{cz} factor is a
binomial transform of the moments, which leaves every Hankel determinant
as it is. The r-derangement families, with a z^s prefactor, have none.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm, prod
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .exact import (DerangeDomainError, _laplace, as_text, factorial,
                    rising_factorial)
from .polys import eval_poly, generalized_D_poly
from .series import FamilySpec, egf_shape, egf_values

# Largest matrix size the oracles run on; cofactor refuses anything larger.
ORACLE_CAP = 6

Matrix = List[List[Fraction]]


def _moments(seq: Sequence, n: int) -> List[Fraction]:
    """seq[0..2n], the moments of H_n, as Fractions (a Fraction as it is)."""
    if len(seq) < 2 * n + 1:
        raise DerangeDomainError(f"need {2 * n + 1} terms, got {len(seq)}")
    return [v if isinstance(v, Fraction) else Fraction(v)
            for v in seq[:2 * n + 1]]


def hankel_matrix(seq: Sequence, n: int) -> Matrix:
    """(n+1) x (n+1) matrix with entry (i, j) = seq[i+j]."""
    moments = _moments(seq, n)
    return [[moments[i + j] for j in range(n + 1)] for i in range(n + 1)]


def _bareiss(seq: Sequence, n: int, lo: int) -> List[Optional[Fraction]]:
    """H_lo..H_n of seq[0..2n] by one-step fraction-free Bareiss elimination:
    H_k from the k-th pivot until a row swap, None after it, and H_n last.
    Entry (i, j) is s_i s_j a_{i+j} / g, for s_i the lcm of the
    denominators of a_i..a_{i+n} and g the gcd of all entries, so every
    division is exact and the k-th pivot is H_k g^{k+1} / Pi_{i<=k} s_i^2.
    Every stage of a symmetric matrix is symmetric, so only entries with
    j >= i are eliminated. A zero pivot copies the upper triangle into the
    lower one once; elimination goes on with row swaps."""
    moments = _moments(seq, n)
    size = n + 1
    dens = [v.denominator for v in moments]
    s = [lcm(*dens[i:i + size]) for i in range(size)]
    a = [[s[i] * s[j] * moments[i + j].numerator // dens[i + j]
          for j in range(size)] for i in range(size)]
    g = gcd(*(gcd(*row) for row in a)) or 1
    if g > 1:
        a = [[v // g for v in row] for row in a]
    minors, scale = [], 1
    sign, prev, sym = 1, 1, True
    for k in range(size - 1):
        if sym:
            scale *= s[k] * s[k]
            if k >= lo:
                minors.append(Fraction(a[k][k] * g ** (k + 1), scale))
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
            else:  # the matrix is singular
                a[-1][-1] = 0
                break
        rk, akk = a[k], a[k][k]
        for i in range(k + 1, size):
            ri = a[i]
            j0, aik = (i, rk[i]) if sym else (k + 1, ri[k])
            ri[j0:] = [(v * akk - aik * w) // prev
                       for v, w in zip(ri[j0:], rk[j0:])]
        prev = akk
    return minors + [None] * (n - lo - len(minors)) + [
        Fraction(sign * a[-1][-1] * g ** size, prod(s) ** 2)]


def det_bareiss(seq: Sequence, n: int) -> Fraction:
    """H_n of seq[0..2n] by fraction-free Bareiss elimination."""
    return _bareiss(seq, n, n)[-1]


def bareiss_minors(seq: Sequence, n: int, lo: int = 0) -> List[Fraction]:
    """H_lo..H_n of seq[0..2n]: the pivots of one elimination, and
    det_bareiss for each order after the first row swap."""
    if not 0 <= lo <= n:
        raise DerangeDomainError(f"need 0 <= lo <= {n}, got {lo}")
    return [det_bareiss(seq, k) if v is None else v
            for k, v in enumerate(_bareiss(seq, n, lo), lo)]


def condensation_minors(seq: Sequence, n: int) -> List[Optional[Fraction]]:
    """H_0..H_n of seq[0..2n] by Dodgson condensation on the moments.

    The connected minors h_k^(m) = det(a_{m+i+j})_{i,j<k} obey
    h_{k+1}^(m) h_{k-1}^(m+2) = h_k^(m) h_k^(m+2) - (h_k^(m+1))^2 from
    h_0 = 1, h_1^(m) = a_m, and H_k = h_{k+1}^(0); on d a, for a common
    denominator d, every division is exact. A zero divisor makes the minor
    that reads it None, and so every minor that reads that one: H_k is
    None exactly when condensation of H_k alone meets a zero divisor."""
    moments = _moments(seq, n)
    d = lcm(*(v.denominator for v in moments))
    # level k holds h_k^(m), m = 0..2(n+1-k)
    prev = [1] * (2 * n + 3)
    cur = [v.numerator * (d // v.denominator) for v in moments]
    minors = [Fraction(cur[0], d)]
    for k in range(1, n + 1):
        prev, cur = cur, [
            None if not prev[m + 2] or None in cur[m:m + 3]
            else (cur[m] * cur[m + 2] - cur[m + 1] ** 2) // prev[m + 2]
            for m in range(2 * (n - k) + 1)]
        minors.append(None if cur[0] is None else Fraction(cur[0], d ** (k + 1)))
    return minors


def det_condensation(seq: Sequence, n: int) -> Optional[Fraction]:
    """H_n of seq[0..2n] by Dodgson condensation; None on a zero divisor."""
    return condensation_minors(seq, n)[-1]


def cofactor_minors(m: Matrix) -> List[Fraction]:
    """The minors of m on its last k rows and columns, k = 1..len(m), read
    from one `exact._laplace` of d * m, d the lcm of all denominators of
    its entries, which neither divides nor pivots; capped at ORACLE_CAP."""
    size = len(m)
    if size > ORACLE_CAP:
        raise DerangeDomainError(
            f"cofactor oracle capped at {ORACLE_CAP}, got {size}")
    d = lcm(*(v.denominator for row in m for v in row))
    minors = _laplace([[v.numerator * (d // v.denominator) for v in row]
                       for row in m], signed=True)
    return [Fraction(minors[((1 << k) - 1) << (size - k)], d ** k)
            for k in range(1, size + 1)]


def det_cofactor(m: Matrix) -> Fraction:
    """det m by Laplace expansion; capped at ORACLE_CAP."""
    return cofactor_minors(m)[-1] if m else Fraction(1)


class JFraction(NamedTuple):
    minors: Tuple[Optional[Fraction], ...]  # H_0..H_n, None after a zero one
    b: Tuple[Fraction, ...]    # b_0, b_1, ...
    lam: Tuple[Fraction, ...]  # lambda_1, lambda_2, ...


def det_jfraction(seq: Sequence, n: int) -> JFraction:
    """H_0..H_n of seq[0..2n] by the Chebyshev algorithm, with the
    J-fraction coefficients it passes through. sigma[k][l] = L(pi_k x^l)
    for the monic orthogonal polynomials pi_k of L(x^l) = seq[l] obeys
    sigma[k][l] = sigma[k-1][l+1] - b_{k-1} sigma[k-1][l]
                  - lambda_{k-1} sigma[k-2][l],
    with b_k = sigma[k][k+1]/sigma[k][k] - sigma[k-1][k]/sigma[k-1][k-1]
    and lambda_k = sigma[k][k]/sigma[k-1][k-1]. sigma[k][k] = H_k/H_{k-1},
    so H_k is the running product Pi_{i<=k} sigma[i][i]. A zero
    sigma[k][k] with k < n stops the recursion: H_{k+1}..H_n are None and
    the coefficients end at that lambda_k = 0 (b_0..b_{k-1})."""
    # row k holds sigma[k][k+j] as integers over one denominator,
    # j = 0..2(n-k); row -1 is the unit functional, whose denominator
    # cancels from every step
    moments = _moments(seq, n)
    cur_den = lcm(*(v.denominator for v in moments))
    cur = [v.numerator * (cur_den // v.denominator) for v in moments]
    old = [1] + [0] * (2 * n + 2)
    minors, b, lam = [Fraction(cur[0], cur_den)], [], []
    for k in range(1, n + 1):
        c0, o0 = cur[0], old[0]
        if c0 == 0:
            return JFraction(tuple(minors) + (None,) * (n + 1 - k),
                             tuple(b), tuple(lam))
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
        minors.append(minors[-1] * Fraction(new[0], new_den))
        old, cur, cur_den = cur, new, new_den
    return JFraction(tuple(minors), tuple(b), tuple(lam))


def closed_form_chain(n: int, r: int, z, lo: int = 0) -> List[Fraction]:
    """The paper's H_lo..H_n of the generalized polynomials at z,
    z^{k(k+1)} times the running product Pi_{i=1}^{k} rising(r,i) i!."""
    if n < 0:
        raise DerangeDomainError("n must be >= 0")
    z, tail, chain = Fraction(z), 1, []
    for k in range(n + 1):
        tail *= rising_factorial(r, k) * factorial(k)
        if k >= lo:
            chain.append(z ** (k * (k + 1)) * tail)
    return chain


def _hankel_shape(spec: FamilySpec) -> Tuple[Fraction, Fraction, int]:
    """(c, x, r) of the family's EGF e^{cz}(1-xz)^{-r}, s = 0 or refused."""
    c, x, r, shift = egf_shape(spec)
    if shift > 0:
        raise DerangeDomainError(
            f"no Hankel closed form for family {spec.family.value}")
    return c, x, r


def closed_form(spec: FamilySpec, n: int) -> Fraction:
    """H_n of a family whose EGF is e^{cz}(1-xz)^{-r}: the generalized one
    at (r, x), whatever c is."""
    _, x, r = _hankel_shape(spec)
    return closed_form_chain(n, r, x, n)[0]


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


class HankelReport(NamedTuple):
    spec: FamilySpec
    n: int
    det_bareiss: Fraction
    det_jfraction: Optional[Fraction]  # None after a zero leading minor
    det_condensation: Optional[Fraction]  # None above ORACLE_CAP or degenerate
    det_cofactor: Optional[Fraction]  # None above ORACLE_CAP
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
                "degenerate" if det is None else as_text(det)
                for name, det, ran in dets}


def hankel_reports(spec: FamilySpec, n: int, lo: int = 0) -> List[HankelReport]:
    """The reports of H_lo..H_n of the family's values from one chain per
    route, the oracles' up to ORACLE_CAP and only when lo < ORACLE_CAP; a
    report passes when every value it has equals the closed form."""
    if n < 0:
        raise DerangeDomainError("n must be >= 0")
    _, x, r = _hankel_shape(spec)
    closed = closed_form_chain(n, r, x, lo)
    seq = egf_values(spec, 2 * n + 1)
    cond = cof = ()
    if lo < ORACLE_CAP:
        top = min(n, ORACLE_CAP - 1)
        cond = condensation_minors(seq, top)
        # the index-reversed matrix's trailing minors are H_0..H_top
        cof = cofactor_minors(hankel_matrix(_moments(seq, top)[::-1], top))
    routes = zip_longest(bareiss_minors(seq, n, lo),
                         det_jfraction(seq, n).minors[lo:], cond[lo:], cof[lo:],
                         closed)
    return [HankelReport(spec, k, *dets, cf, "pass" if all(
        v == cf for v in dets if v is not None) else "fail")
        for k, (*dets, cf) in enumerate(routes, lo)]


def verify_hankel(spec: FamilySpec, n: int) -> HankelReport:
    """The report of H_n alone; no oracle runs above ORACLE_CAP."""
    return hankel_reports(spec, n, lo=n)[0]


def reduced_derivative(n: int, r: int, z) -> Fraction:
    """g_n(z) = e^{-z} d^n/dz^n (e^z/(1-z)^r), computed without the
    transcendental factor as D_n^{(r)}(1/(1-z)) / (1-z)^r."""
    z = Fraction(z)
    if z == 1:
        raise DerangeDomainError("z = 1 is a pole")
    t = 1 / (1 - z)
    return eval_poly(generalized_D_poly(n, r), t) * t ** r


def derivative_hankel_chain(n: int, r: int, z) -> List[Tuple[Fraction, Fraction]]:
    """The e^z-cancelled derivative Hankel identity (det(g_{i+j-2}(z)) by
    Bareiss, its closed form) for each size m = 1..n, from one chain on
    g_0..g_{2n-2}, g_m the generalized polynomial at t = 1/(1-z) times t^r:
    the paper's Pi_{k<m} rising(r,k) k! / ((z-1)^{(m-1)m} (1-z)^{rm}), the
    (1-z)^{-rm} what remains of (e^z/(1-z)^r)^m once e^{mz} cancels."""
    if n < 1:
        raise DerangeDomainError("n must be >= 1")
    g = [reduced_derivative(m, r, z) for m in range(2 * n - 1)]
    t = 1 / (1 - Fraction(z))
    return [(det, closed * t ** (r * m)) for m, (det, closed) in enumerate(
        zip(bareiss_minors(g, n - 1), closed_form_chain(n - 1, r, t)), 1)]


def verify_derivative_hankel(n: int, r: int, z) -> Tuple[Fraction, Fraction]:
    """The derivative Hankel identity for matrix size n alone."""
    return derivative_hankel_chain(n, r, z)[-1]
