"""Truncated formal power series over Fraction, and the EGF family table.

Every family's EGF is z^s e^{cz} (1-xz)^{-r}. `FAMILY_TABLE` has one row
per family: the least r it takes (or none), whether it takes x, and its
(c, x, r, s); `FamilySpec` checks its parameters against that row. The EGF
is D-finite (Stanley 1980): b_n = n! [z^n] e^{cz}(1-xz)^{-r} obeys
b_{n+1} = (c + x(n+r)) b_n - c x n b_{n-1}, b_0 = 1, which `egf_values`
runs on integers. The Cauchy product of `series_exp` and `geom_pow` is the
independent cross-check that `verify` and the tests use.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from math import lcm, perm

from .exact import DerangeDomainError


class OrderMismatch(DerangeDomainError):
    """Arithmetic between two series of different truncation order."""


class InvalidFamilyParams(DerangeDomainError):
    """Family parameters outside the family's domain (e.g. r=0 r-derangement)."""


@dataclass(frozen=True)
class TruncatedSeries:
    """Coefficients of a power series in z, coeffs[n] = [z^n], up to a fixed order."""

    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(Fraction(c) for c in self.coeffs))
        if not self.coeffs:
            raise DerangeDomainError("series needs at least the constant coefficient")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> Fraction:
        return self.coeffs[n]


def series_mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Cauchy product truncated at the common order."""
    if a.order != b.order:
        raise OrderMismatch(f"order {a.order} vs {b.order}")
    n = a.order
    out = [Fraction(0)] * (n + 1)
    for i, ai in enumerate(a.coeffs):
        if ai == 0:
            continue
        for j in range(n + 1 - i):
            out[i + j] += ai * b.coeffs[j]
    return TruncatedSeries(tuple(out))


def series_exp(c, order: int) -> TruncatedSeries:
    """e^{cz} truncated: coeffs[n] = c^n / n!."""
    if order < 0:
        raise DerangeDomainError("order must be >= 0")
    c = Fraction(c)
    coeffs = [Fraction(1)]
    for n in range(1, order + 1):
        coeffs.append(coeffs[-1] * c / n)
    return TruncatedSeries(tuple(coeffs))


def geom_pow(x, r: int, order: int) -> TruncatedSeries:
    """1/(1-xz)^r by the binomial expansion: coeffs[k] = r^(rising k) x^k / k!."""
    if order < 0:
        raise DerangeDomainError("order must be >= 0")
    if r < 0:
        raise DerangeDomainError("r must be >= 0")
    x = Fraction(x)
    coeffs = [Fraction(1)]
    for k in range(1, order + 1):
        # ratio of consecutive terms: (r+k-1) * x / k
        coeffs.append(coeffs[-1] * (r + k - 1) * x / k)
    return TruncatedSeries(tuple(coeffs))


class Family(enum.Enum):
    CLASSIC = "classic"
    ORDER_R_NUMBERS = "order-r"
    R_DERANGEMENT_NUMBERS = "r-derangement"
    R_DERANGEMENT_POLY = "r-derangement-poly"
    ORDER_R_POLY = "order-r-poly"
    CYCLIC = "cyclic"
    GENERALIZED = "generalized"


class FamilyRow(NamedTuple):
    min_r: Optional[int]  # the least r the family takes; None: it takes no r
    takes_x: bool
    shape: Callable  # (r, x) -> (c, x, r, s) of its EGF z^s e^{cz} (1-xz)^{-r}


FAMILY_TABLE = {
    Family.CLASSIC: FamilyRow(None, False, lambda r, x: (-1, 1, 1, 0)),
    Family.ORDER_R_NUMBERS: FamilyRow(0, False, lambda r, x: (-1, 1, r, 0)),
    Family.R_DERANGEMENT_NUMBERS: FamilyRow(1, False, lambda r, x: (-1, 1, r + 1, r)),
    Family.R_DERANGEMENT_POLY: FamilyRow(1, True, lambda r, x: (x, 1, r + 1, r)),
    Family.ORDER_R_POLY: FamilyRow(0, True, lambda r, x: (x, 1, r, 0)),
    Family.CYCLIC: FamilyRow(1, False, lambda r, x: (-1, r, 1, 0)),
    Family.GENERALIZED: FamilyRow(0, True, lambda r, x: (1, x, r, 0)),
}


@dataclass(frozen=True)
class FamilySpec:
    """A family with its r and x, checked against the family's row of
    FAMILY_TABLE."""

    family: Family
    r: Optional[int] = None
    x: Optional[Fraction] = None

    def __post_init__(self):
        row, name = FAMILY_TABLE[self.family], self.family.value
        if row.min_r is None:
            if self.r is not None:
                raise InvalidFamilyParams(f"{name} takes no r")
        elif self.r is None or self.r < row.min_r:
            raise InvalidFamilyParams(f"{name} needs r >= {row.min_r}")
        if row.takes_x:
            if self.x is None:
                raise InvalidFamilyParams(f"{name} needs x")
            object.__setattr__(self, "x", Fraction(self.x))
        elif self.x is not None:
            raise InvalidFamilyParams(f"{name} takes no x")


def egf_shape(spec: FamilySpec) -> tuple:
    """(c, x, r, s) of the family's EGF z^s e^{cz} (1-xz)^{-r}, with c and x
    as Fractions."""
    c, x, r, shift = FAMILY_TABLE[spec.family].shape(spec.r, spec.x)
    return Fraction(c), Fraction(x), r, shift


def egf_values(spec: FamilySpec, count: int) -> list:
    """First `count` values a_n = n! [z^n] F(z) of the family's EGF.

    b_n is homogeneous of degree n in (c, x), so with c = c'/d, x = x'/d
    the numerators B_n = d^n b_n obey the recurrence in the integers c', x'.
    The z^s prefactor makes a_n = n!/(n-s)! b_{n-s}, and zero for n < s.
    """
    if count < 1:
        raise DerangeDomainError("count must be >= 1")
    c, x, r, shift = egf_shape(spec)
    d = lcm(c.denominator, x.denominator)
    c, x = c.numerator * (d // c.denominator), x.numerator * (d // x.denominator)
    out = [Fraction(0)] * min(shift, count)
    prev, cur, denom = 0, 1, 1
    for m in range(count - shift):
        out.append(Fraction(perm(m + shift, shift) * cur, denom))
        prev, cur = cur, (c + x * (m + r)) * cur - c * x * m * prev
        denom *= d
    return out
