"""The derangement polynomials as coefficient tuples, and their recurrences.

A polynomial is the tuple of its coefficients, low to high. Two families
live here: the generalized polynomials (coefficient of x^k is
C(n,k) * rising(r,k), each one the previous times the ratio
(n-k)(r+k)/(k+1)) and their reflections x^n D_n(1/x), the order-r
derangement polynomials, whose tuples are the same integers reversed.
The cross-order shift recurrences are exposed as a verifier rather than a
generator; the fixed-order convolution recurrences generate. Evaluation
and the convolution recurrences run on integer numerators over one common
denominator and build a Fraction only for each result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import List, Sequence

from .exact import DerangeDomainError, factorial


def generalized_D_poly(n: int, r: int) -> tuple:
    """Explicit formula: sum_k C(n,k) rising(r,k) x^k, as its int
    coefficients.

    The coefficients c_k = C(n,k) rising(r,k) obey the ratio recurrence
    c_{k+1} = c_k (n-k)(r+k) / (k+1) from c_0 = 1, and since c_{k+1} is
    an integer the division is exact."""
    if n < 0:
        raise DerangeDomainError("n must be >= 0")
    coeffs = [1]
    for k in range(n):
        coeffs.append(coeffs[-1] * (n - k) * (r + k) // (k + 1))
    return tuple(coeffs)


def order_d_poly(n: int, r: int) -> tuple:
    """Explicit formula: sum_k C(n,k) rising(r,k) x^{n-k}, the coefficients
    of generalized_D_poly(n, r) reversed."""
    return generalized_D_poly(n, r)[::-1]


def eval_poly(coeffs: Sequence, x) -> Fraction:
    """Exact Horner evaluation of int/Fraction coefficients, low to high, on
    integers: with x = u/q and the coefficients a_k/L over their common
    denominator L, the value is (sum_k a_k u^k q^{m-k}) / (L q^m) for
    m = len(coeffs) - 1."""
    if not coeffs:
        return Fraction(0)
    x = Fraction(x)
    u, q = x.numerator, x.denominator
    den = lcm(*(c.denominator for c in coeffs))
    acc, qpow = 0, 1
    for c in reversed(coeffs):
        acc = acc * u + c.numerator * (den // c.denominator) * qpow
        qpow *= q
    return Fraction(acc, den * q ** (len(coeffs) - 1))


def classic_derangement(n: int) -> int:
    """D_n = n! sum_k (-1)^k / k!, computed as an exact integer."""
    if n < 0:
        raise DerangeDomainError("n must be >= 0")
    total = Fraction(0)
    for k in range(n + 1):
        total += Fraction((-1) ** k, factorial(k))
    val = factorial(n) * total
    assert val.denominator == 1
    return val.numerator


def cyclic_derangement(n: int, r: int) -> int:
    """d_{n,r} = (-1)^n * generalized poly of order 1 evaluated at -r."""
    if n < 0 or r < 1:
        raise DerangeDomainError("need n >= 0, r >= 1")
    val = (-1) ** n * eval_poly(generalized_D_poly(n, 1), -r)
    assert val.denominator == 1
    return val.numerator


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


@dataclass
class IdentityReport:
    """Outcome of an exact identity sweep; failures carry the offending cell."""

    checked: int = 0
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_shift_recurrences(n_max: int, r_max: int, xs: Sequence) -> IdentityReport:
    """Check the cross-order recurrences
    D_{n+1}^{(r)} = D_n^{(r)} + r x D_n^{(r+1)}  and
    d_{n+1}^{(r)} = x d_n^{(r)} + r d_n^{(r+1)}
    over the full (n, r, x) grid, exactly."""
    report = IdentityReport()
    xs = [Fraction(x) for x in xs]
    for r in range(r_max + 1):
        for n in range(n_max + 1):
            Dn = generalized_D_poly(n, r)
            Dn_up = generalized_D_poly(n, r + 1)
            Dn1 = generalized_D_poly(n + 1, r)
            dn = order_d_poly(n, r)
            dn_up = order_d_poly(n, r + 1)
            dn1 = order_d_poly(n + 1, r)
            for x in xs:
                report.checked += 2
                lhs = eval_poly(Dn1, x)
                rhs = eval_poly(Dn, x) + r * x * eval_poly(Dn_up, x)
                if lhs != rhs:
                    report.failures.append(("D-shift", n, r, x, lhs, rhs))
                lhs = eval_poly(dn1, x)
                rhs = x * eval_poly(dn, x) + r * eval_poly(dn_up, x)
                if lhs != rhs:
                    report.failures.append(("d-shift", n, r, x, lhs, rhs))
    return report
