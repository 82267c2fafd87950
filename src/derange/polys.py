"""The derangement polynomials as coefficient tuples, and their recurrences.

A polynomial is the tuple of its coefficients, low to high. Two families
live here: the generalized polynomials (coefficient of x^k is
C(n,k) * rising(r,k), each one the previous times the ratio
(n-k)(r+k)/(k+1)) and their reflections x^n D_n(1/x), the order-r
derangement polynomials, whose tuples are the same integers reversed.
The cross-order shift recurrences are exposed as a verifier rather than a
generator; the fixed-order convolution recurrences generate. Evaluation
of int coefficients and the convolution recurrences run on integer
numerators over one common denominator and build a Fraction only for each
result. Evaluation folds the coefficients eight at a time, so a long
tuple costs one product of two large integers per block of eight
coefficients, not one per coefficient.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from typing import List, Sequence, Tuple

from .exact import DerangeDomainError


def generalized_D_poly(n: int, r: int) -> tuple:
    """Explicit formula: sum_k C(n,k) rising(r,k) x^k, as its int
    coefficients.

    The coefficients c_k = C(n,k) rising(r,k) obey the ratio recurrence
    c_{k+1} = c_k (n-k)(r+k) / (k+1) from c_0 = 1, and since c_{k+1} is
    an integer the division is exact. The small factor (n-k)(r+k) is
    formed first, so each coefficient costs one large-by-small product and
    one exact division."""
    if n < 0:
        raise DerangeDomainError("n must be >= 0")
    coeffs = [1]
    for k in range(n):
        coeffs.append(coeffs[-1] * ((n - k) * (r + k)) // (k + 1))
    return tuple(coeffs)


def order_d_poly(n: int, r: int) -> tuple:
    """Explicit formula: sum_k C(n,k) rising(r,k) x^{n-k}, the coefficients
    of generalized_D_poly(n, r) reversed."""
    return generalized_D_poly(n, r)[::-1]


def eval_poly(coeffs: Sequence, x) -> Fraction:
    """Exact Horner evaluation of coefficients a_k, low to high: with
    x = u/q the value is (sum_k a_k u^k q^{m-k}) / q^m for
    m = len(coeffs) - 1, on integers when the a_k are ints. A Fraction
    coefficient makes the sum a Fraction, and the value stays exact.

    Horner's step a_k q^{m-k} multiplies two large integers. So the
    coefficients are folded eight at a time from the top: the weights
    u^j q^{7-j} of the block sum_{j<8} a_{k+j} u^j q^{7-j} are small, and
    the step acc u^8 + block q^{m-k-7} makes one large product per block.
    The len % 8 top coefficients take single Horner steps first. Eight
    was the fastest block width measured on long tuples, and short ones
    also run faster than with one large product per coefficient
    (BENCH_20.json)."""
    if not coeffs:
        return Fraction(0)
    if not isinstance(x, Fraction):
        x = Fraction(x)
    u, q = x.numerator, x.denominator
    acc, qpow = 0, 1
    top = reversed(coeffs)
    for c in islice(top, len(coeffs) % 8):
        acc = acc * u + c * qpow
        qpow *= q
    if len(coeffs) >= 8:
        uu, qq = u * u, q * q
        u4, q4 = uu * uu, qq * qq
        # w_j = u^j q^(7-j)
        w0, w1, w2, w3 = q4 * qq * q, q4 * qq * u, q4 * q * uu, q4 * uu * u
        w4, w5, w6, w7 = u4 * qq * q, u4 * qq * u, u4 * q * uu, u4 * uu * u
        u8, q8 = u4 * u4, q4 * q4
        for c7, c6, c5, c4, c3, c2, c1, c0 in zip(*[top] * 8):
            block = (c0 * w0 + c1 * w1 + c2 * w2 + c3 * w3
                     + c4 * w4 + c5 * w5 + c6 * w6 + c7 * w7)
            acc = acc * u8 + block * qpow
            qpow *= q8
    return Fraction(acc, q ** (len(coeffs) - 1))


def generate_D_by_convolution(r: int, x, count: int) -> List[Fraction]:
    """Generalized-polynomial values at x by the fixed-order convolution
    recurrence: D_{n+1} = D_n + r x sum_k C(n,k) D_k x^{n-k} (n-k)!.

    With x = p/q and D_n = N_n / q^n this is, on integers,
    N_{n+1} = q N_n + r p S_n with S_n = sum_k (n!/k!) p^{n-k} N_k.
    Each weight n!/k! p^{n-k} gains the factor (n+1) p from n to n+1, so
    S_{n+1} = (n+1) p S_n + N_{n+1} carries the whole sum forward."""
    if count < 1:
        raise DerangeDomainError("count must be >= 1")
    x = Fraction(x)
    return _convolution(r, x.numerator, x.denominator, x.denominator, count)


def generate_d_by_convolution(r: int, x, count: int) -> List[Fraction]:
    """Order-r polynomial values at x by the reflected convolution
    recurrence: d_{n+1} = x d_n + r sum_k C(n,k) d_k (n-k)!.

    With x = p/q and d_n = M_n / q^n this is, on integers,
    M_{n+1} = p M_n + r q S_n with S_n = sum_k (n!/k!) q^{n-k} M_k,
    the D recurrence with p and q exchanged."""
    if count < 1:
        raise DerangeDomainError("count must be >= 1")
    x = Fraction(x)
    return _convolution(r, x.denominator, x.numerator, x.denominator, count)


def _convolution(r: int, a: int, b: int, q: int, count: int) -> List[Fraction]:
    """Values N_n / q^n of N_{n+1} = b N_n + r a S_n, N_0 = 1, where
    S_n = sum_k (n!/k!) a^{n-k} N_k."""
    vals, num, conv, denom = [], 1, 1, 1
    for n in range(count):
        vals.append(Fraction(num, denom))
        num = b * num + r * a * conv
        conv = (n + 1) * a * conv + num
        denom *= q
    return vals


def verify_shift_recurrences(n_max: int, r_max: int,
                             xs: Sequence) -> Tuple[int, list]:
    """Check the cross-order recurrences
    D_{n+1}^{(r)} = D_n^{(r)} + r x D_n^{(r+1)}  and
    d_{n+1}^{(r)} = x d_n^{(r)} + r d_n^{(r+1)}
    over the full (n, r, x) grid, exactly: (checks made, the failed cells
    as (identity, n, r, x, lhs, rhs)). Each value the checks read is
    evaluated once: D[r, n] and d[r, n] hold the values at every x, for
    r <= r_max + 1 and n <= n_max + 1 but the corner that no check reads."""
    xs = [Fraction(x) for x in xs]
    D, d = {}, {}
    for r in range(r_max + 2):
        for n in range(n_max + 2 - (r > r_max)):
            D[r, n] = [eval_poly(generalized_D_poly(n, r), x) for x in xs]
            d[r, n] = [eval_poly(order_d_poly(n, r), x) for x in xs]
    checked, failures = 0, []
    for r in range(r_max + 1):
        for n in range(n_max + 1):
            for x, Dn1, Dn, Dn_up, dn1, dn, dn_up in zip(
                    xs, D[r, n + 1], D[r, n], D[r + 1, n],
                    d[r, n + 1], d[r, n], d[r + 1, n]):
                checked += 2
                rhs = Dn + r * x * Dn_up
                if Dn1 != rhs:
                    failures.append(("D-shift", n, r, x, Dn1, rhs))
                rhs = x * dn + r * dn_up
                if dn1 != rhs:
                    failures.append(("d-shift", n, r, x, dn1, rhs))
    return checked, failures
