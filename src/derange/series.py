"""Truncated power series as Fraction tuples, and the EGF family table.

Every family's EGF is z^s e^{cz} (1-xz)^{-r}. `FAMILY_TABLE` has one row
per family: the least r it takes (or none), whether it takes x, and its
(c, x, r, s); `FamilySpec` checks its parameters against that row. The EGF
is D-finite (Stanley 1980): b_n = n! [z^n] e^{cz}(1-xz)^{-r} obeys
b_{n+1} = (c + x(n+r)) b_n - c x n b_{n-1}, b_0 = 1, which `egf_stream`
runs on integers, one value at a time, and `egf_values` lists. The Cauchy
product of `series_exp` and `geom_pow` is the independent cross-check that
`verify` and the tests use.

`Cell`, one comparison of a report, which makes the text of its values
and its default verdict, and `spec_params` live here, below `verify`, so
that `derange hankel` and `derange mc` build their one cell without loading
`verify` and the oracles it runs.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple, Optional

from math import lcm, perm

from .exact import DerangeDomainError, as_text


def series_mul(a: tuple, b: tuple) -> tuple:
    """Cauchy product of two coefficient tuples of one length, truncated
    at that length, on the integer numerators of a and b over their lcm
    denominators; one Fraction per output coefficient."""
    if len(a) != len(b):
        raise DerangeDomainError(f"order {len(a) - 1} vs {len(b) - 1}")
    da = lcm(*(v.denominator for v in a))
    db = lcm(*(v.denominator for v in b))
    ia = [v.numerator * (da // v.denominator) for v in a]
    ib = [v.numerator * (db // v.denominator) for v in b]
    den = da * db
    return tuple(Fraction(sum(ia[i] * ib[k - i] for i in range(k + 1)), den)
                 for k in range(len(a)))


def series_exp(c, order: int) -> tuple:
    """e^{cz} truncated: coeffs[n] = c^n / n!."""
    if order < 0:
        raise DerangeDomainError("order must be >= 0")
    c = Fraction(c)
    coeffs = [Fraction(1)]
    for n in range(1, order + 1):
        coeffs.append(coeffs[-1] * c / n)
    return tuple(coeffs)


def geom_pow(x, r: int, order: int) -> tuple:
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
    return tuple(coeffs)


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


class FamilySpec:
    """A family with its r and x, checked against the family's row of
    FAMILY_TABLE; x is held as a Fraction. Specs with the same family, r and
    x are equal and hash alike."""

    __slots__ = ("family", "r", "x")

    def __init__(self, family: Family, r: Optional[int] = None,
                 x: Optional[Fraction] = None):
        FamilySpec.check_r(family, r)
        name = family.value
        if FAMILY_TABLE[family].takes_x:
            if x is None:
                raise DerangeDomainError(f"{name} needs x")
            x = Fraction(x)
        elif x is not None:
            raise DerangeDomainError(f"{name} takes no x")
        self.family, self.r, self.x = family, r, x

    @staticmethod
    def check_r(family: Family, r: Optional[int]) -> None:
        """Refuse an r that the family's row does not take."""
        min_r, name = FAMILY_TABLE[family].min_r, family.value
        if min_r is None:
            if r is not None:
                raise DerangeDomainError(f"{name} takes no r")
        elif r is None or r < min_r:
            raise DerangeDomainError(f"{name} needs r >= {min_r}")

    def __eq__(self, other):
        if type(other) is not FamilySpec:
            return NotImplemented
        return ((self.family, self.r, self.x)
                == (other.family, other.r, other.x))

    def __hash__(self):
        return hash((self.family, self.r, self.x))

    def __repr__(self):
        return f"FamilySpec(family={self.family!r}, r={self.r!r}, x={self.x!r})"


def spec_params(spec: FamilySpec) -> dict:
    """The r and x of a family spec, as report parameters, when it has them."""
    return {k: v for k, v in (("r", spec.r), ("x", spec.x)) if v is not None}


class Cell:
    """One comparison of a report; its attributes, in this order, are its
    JSON object. It holds the text of each param, of `expected` and of
    `actual`; without a verdict it passes exactly when the two values are
    equal, and an explicit verdict is kept as given."""

    def __init__(self, params: dict, expected, actual,
                 verdict: Optional[str] = None):
        self.params = {k: as_text(v) for k, v in params.items()}
        self.expected = as_text(expected)
        self.actual = as_text(actual)
        if verdict is None:
            verdict = "pass" if expected == actual else "fail"
        self.verdict = verdict  # "pass" | "fail" | "skipped"


def egf_shape(spec: FamilySpec) -> tuple:
    """(c, x, r, s) of the family's EGF z^s e^{cz} (1-xz)^{-r}, with c and x
    as Fractions."""
    c, x, r, shift = FAMILY_TABLE[spec.family].shape(spec.r, spec.x)
    return Fraction(c), Fraction(x), r, shift


def egf_stream(spec: FamilySpec, count: int) -> Iterator[Fraction]:
    """The first `count` values a_n = n! [z^n] F(z) of the family's EGF, one
    at a time, so a caller that stops early computes no more.

    b_n is homogeneous of degree n in (c, x), so with c = c'/d, x = x'/d
    the numerators B_n = d^n b_n obey the recurrence in the integers c', x'.
    The z^s prefactor makes a_n = n!/(n-s)! b_{n-s}, and zero for n < s.
    """
    if count < 1:
        raise DerangeDomainError("count must be >= 1")
    c, x, r, shift = egf_shape(spec)
    d = lcm(c.denominator, x.denominator)
    c, x = c.numerator * (d // c.denominator), x.numerator * (d // x.denominator)
    for _ in range(min(shift, count)):
        yield Fraction(0)
    prev, cur, denom = 0, 1, 1
    for m in range(count - shift):
        yield Fraction(perm(m + shift, shift) * cur, denom)
        prev, cur = cur, (c + x * (m + r)) * cur - c * x * m * prev
        denom *= d


def egf_values(spec: FamilySpec, count: int) -> list:
    """The first `count` values of `egf_stream`, as a list."""
    return list(egf_stream(spec, count))
