"""Hankel matrices, four exact determinant routes, and the closed forms.

Each route returns the chain of leading minors H_0..H_n of the Hankel
matrix of a_0..a_{2n}, H_k = det(a_{i+j})_{i,j<=k}, which it passes on
its way to H_n. `chain_reports` is the one runner: it knows no family,
calls each route once on any moments, and reads every order's report
from the chains against a closed chain, with the J-fraction coefficients
of the step that reaches that order. Its views are the family
reports (`hankel_reports`, and `verify_hankel` for one order) and the
derivative Hankel identity (`derivative_hankel_chain`, and
`verify_derivative_hankel` for one size).
Bareiss is the authority (fraction-free, always defined): one
elimination reads every order, its k-th pivot H_k, scaled, while every
row swap so far stays inside that leading block (Bareiss 1968). A zero
k-th pivot whose column has its first nonzero entry below it at row i
makes H_k..H_{i-1} 0, and a column with none makes H_k..H_n 0. The
J-fraction route is the independent check at every size: the Chebyshev
algorithm (Gautschi 2004) turns the moments into the Jacobi
continued-fraction coefficients (b_k, lambda_k) in O(n^2) integer
operations, and H_k is the running product of the orthogonal
polynomials' norms (Flajolet 1980). Two oracles run up to ORACLE_CAP:
Dodgson condensation, the Desnanot-Jacobi recurrence of the paper's
inductive proofs, and Laplace cofactor expansion by `exact._laplace`,
with no division and no pivot. No two routes share a kernel. A None in a
chain is an order the route has no value at, which Bareiss never has:
condensation past a zero divisor, the J-fraction past a zero norm.
`HankelReport.cell` is the one text of a report, for `derange hankel`
and `verify` alike: it shows such an order as "degenerate", and a route
that did not run as "n/a".

The paper's determinant of the generalized polynomials at z is
z^{n(n+1)} Pi_{k=1}^{n} rising(r,k) k!. Every family whose EGF is
e^{cz}(1-xz)^{-r} has it at (r, z = x), since the e^{cz} factor is a
binomial transform of the moments, which leaves every Hankel determinant
as it is. The r-derangement families, with a z^s prefactor, have none. The
derivative identity's moments are g_m = e^{-z} d^m/dz^m (e^z (1-z)^{-r}),
computed from that definition, and its closed chain is the generalized
one at t = 1/(1-z) times t^{rm} for size m.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

from .exact import DerangeDomainError, _laplace, factorial, rising_factorial
from .polys import eval_poly
from .series import Cell, FamilySpec, egf_shape, egf_values, spec_params

# Largest matrix size the oracles run on; cofactor refuses anything larger.
ORACLE_CAP = 6

Matrix = List[List[Fraction]]


def _moments(seq: Sequence, n: int) -> List[Fraction]:
    """seq[0..2n], the moments of H_n, as Fractions (a Fraction as it is)."""
    if n < 0:
        raise DerangeDomainError("n must be >= 0")
    if len(seq) < 2 * n + 1:
        raise DerangeDomainError(f"need {2 * n + 1} terms, got {len(seq)}")
    return [v if isinstance(v, Fraction) else Fraction(v)
            for v in seq[:2 * n + 1]]


def hankel_matrix(seq: Sequence, n: int) -> Matrix:
    """(n+1) x (n+1) matrix with entry (i, j) = seq[i+j]."""
    moments = _moments(seq, n)
    return [[moments[i + j] for j in range(n + 1)] for i in range(n + 1)]


def det_bareiss(seq: Sequence, n: int) -> Fraction:
    """H_n of seq[0..2n] by fraction-free Bareiss elimination."""
    return bareiss_minors(seq, n, n)[-1]


def bareiss_minors(seq: Sequence, n: int, lo: int = 0) -> List[Fraction]:
    """H_lo..H_n of seq[0..2n] from the pivots of one fraction-free
    Bareiss elimination. Entry (i, j) is s_i s_j a_{i+j} / g, for s_i the
    lcm of the denominators of a_i..a_{i+n} and g the gcd of all entries,
    so every division is exact, and while every row swap so far stays in
    rows 0..k the k-th pivot is +-H_k g^{k+1} / Pi_{i<=k} s_i^2. Every
    stage of a symmetric matrix is symmetric, so until the first swap only
    entries with j >= i are eliminated. A zero k-th pivot whose column has
    its first nonzero entry below it at row i makes H_k..H_{i-1} 0, since
    column k of each of those leading blocks is zero from row k down once
    reduced (Sylvester's identity); the first such pivot copies the upper
    triangle into the lower one once, and rows k and i swap. With no such
    row, H_k..H_n are all 0."""
    moments = _moments(seq, n)
    if not 0 <= lo <= n:
        raise DerangeDomainError(f"need 0 <= lo <= {n}, got {lo}")
    size = n + 1
    dens = [v.denominator for v in moments]
    s = [lcm(*dens[i:i + size]) for i in range(size)]
    a = [[s[i] * s[j] * moments[i + j].numerator // dens[i + j]
          for j in range(size)] for i in range(size)]
    g = gcd(*(gcd(*row) for row in a)) or 1
    if g > 1:
        a = [[v // g for v in row] for row in a]
    minors, scale = [], 1
    sign, prev, sym, reach = 1, 1, True, 0  # every swap is in rows 0..reach
    for k in range(size):
        scale *= s[k] * s[k]
        if k >= lo:
            minors.append(Fraction(sign * a[k][k] * g ** (k + 1), scale)
                          if k >= reach else Fraction(0))
        if a[k][k] == 0:
            if sym:  # the lower triangle is stale
                for i in range(k + 1, size):
                    for j in range(k, i):
                        a[i][j] = a[j][i]
                sym = False
            i = next((i for i in range(k + 1, size) if a[i][k]), size)
            if i == size:  # so H_k..H_n are all 0
                return minors + [Fraction(0)] * (n + 1 - lo - len(minors))
            a[k], a[i] = a[i], a[k]
            sign, reach = -sign, max(reach, i)
        rk, akk = a[k], a[k][k]
        for i in range(k + 1, size):
            ri = a[i]
            j0, aik = (i, rk[i]) if sym else (k + 1, ri[k])
            ri[j0:] = [(v * akk - aik * w) // prev
                       for v, w in zip(ri[j0:], rk[j0:])]
        prev = akk
    return minors


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
    params: dict  # the cell's params before the route params
    n: int  # the order k of H_k, the determinant of size k + 1
    det_bareiss: Fraction
    det_jfraction: Optional[Fraction]  # None after a zero leading minor
    det_condensation: Optional[Fraction]  # None above ORACLE_CAP or degenerate
    det_cofactor: Optional[Fraction]  # None above ORACLE_CAP
    closed_form: Fraction
    verdict: str  # "pass" | "fail"
    b: Optional[Fraction]  # b_{k-1} of the J-fraction step to order k
    lam: Optional[Fraction]  # its lambda_k; each None at k = 0 or past the end

    def cell(self) -> Cell:
        """Bareiss against the closed form, with each other route's
        determinant as a param: its value, "degenerate" when the route ran
        and degenerated, "n/a" when it did not run."""
        oracles = self.n < ORACLE_CAP
        routes = (("jfraction", self.det_jfraction, True),
                  ("condensation", self.det_condensation, oracles),
                  ("cofactor", self.det_cofactor, oracles))
        return Cell({**self.params,
                     **{name: "n/a" if not ran else
                        "degenerate" if det is None else det
                        for name, det, ran in routes}},
                    self.closed_form, self.det_bareiss, self.verdict)


def chain_reports(moments: Sequence, closed: Sequence, params: Callable,
                  lo: int = 0) -> List[HankelReport]:
    """The reports of H_lo..H_n of the moments a_0..a_{2n} against the
    closed chain H_lo..H_n, with params(k) the cell params of order k.
    Each route runs once; the oracles' up to ORACLE_CAP and only when
    lo < ORACLE_CAP. A report passes when every determinant it has equals
    its closed form; its J-fraction coefficients are read, not judged."""
    n = (len(moments) - 1) // 2
    cond = cof = ()
    if lo < ORACLE_CAP:
        top = min(n, ORACLE_CAP - 1)
        cond = condensation_minors(moments, top)
        # the index-reversed matrix's trailing minors are H_0..H_top
        cof = cofactor_minors(hankel_matrix(_moments(moments, top)[::-1], top))
    jf = det_jfraction(moments, n)
    routes = zip_longest(bareiss_minors(moments, n, lo), jf.minors[lo:],
                         cond[lo:], cof[lo:], closed, ((None,) + jf.b)[lo:],
                         ((None,) + jf.lam)[lo:])
    return [HankelReport(params(k), k, *dets, cf, "pass" if all(
        v == cf for v in dets if v is not None) else "fail", b, lam)
        for k, (*dets, cf, b, lam) in enumerate(routes, lo)]


def hankel_reports(spec: FamilySpec, n: int, lo: int = 0) -> List[HankelReport]:
    """The reports of H_lo..H_n of the family's values against the paper's
    closed form at the family's (r, x)."""
    if n < 0:
        raise DerangeDomainError("n must be >= 0")
    _, x, r = _hankel_shape(spec)
    return chain_reports(
        egf_values(spec, 2 * n + 1), closed_form_chain(n, r, x, lo),
        lambda k: {"family": spec.family.value, "n": k, **spec_params(spec)},
        lo)


def verify_hankel(spec: FamilySpec, n: int) -> HankelReport:
    """The report of H_n alone; no oracle runs above ORACLE_CAP."""
    return hankel_reports(spec, n, lo=n)[0]


def _pole_free(z) -> Fraction:
    """t = 1/(1-z), for z != 1."""
    z = Fraction(z)
    if z == 1:
        raise DerangeDomainError("z = 1 is a pole")
    return 1 / (1 - z)


def reduced_derivatives(count: int, r: int, z) -> List[Fraction]:
    """g_0..g_{count-1}, g_m = e^{-z} d^m/dz^m (e^z (1-z)^{-r}), from the
    definition: g_m = (1 + d/dz)^m t^r for t = 1/(1-z), and d/dz t^a =
    a t^{a+1}. So g_m = sum_j c_j t^{r+j} on int c_j, which one more
    (1 + d/dz) maps to c_j + (r+j-1) c_{j-1}: one running pass, O(count^2)
    integer steps, and each g_m evaluated once at t."""
    t, c, g = _pole_free(z), [1], []
    for _ in range(count):
        g.append(eval_poly(c, t) * t ** r)
        c = [a + (r + j - 1) * b
             for j, (a, b) in enumerate(zip(c + [0], [0] + c))]
    return g


def derivative_closed_chain(n: int, r: int, z) -> List[Fraction]:
    """The paper's det(g_{i+j})_{i,j<m} for sizes m = 1..n,
    Pi_{k<m} rising(r,k) k! / ((z-1)^{(m-1)m} (1-z)^{rm}): the generalized
    chain at t = 1/(1-z) times t^{rm}, what remains of (e^z/(1-z)^r)^m
    once e^{mz} cancels."""
    t = _pole_free(z)
    return [closed * t ** (r * m) for m, closed in
            enumerate(closed_form_chain(n - 1, r, t), 1)]


def derivative_hankel_chain(n: int, r: int, z) -> List[HankelReport]:
    """The reports of the e^z-cancelled derivative Hankel identity for
    each size m = 1..n (report order m - 1), from one chain per route on
    g_0..g_{2n-2}."""
    if n < 1:
        raise DerangeDomainError("n must be >= 1")
    return chain_reports(
        reduced_derivatives(2 * n - 1, r, z), derivative_closed_chain(n, r, z),
        lambda k: {"identity": "derivative-hankel", "n": k + 1, "r": r, "z": z})


def verify_derivative_hankel(n: int, r: int, z) -> HankelReport:
    """The derivative Hankel identity for matrix size n alone."""
    return derivative_hankel_chain(n, r, z)[-1]
