import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from derange.exact import DerangeDomainError, factorial
from derange.series import (
    Cell,
    Family,
    FamilySpec,
    egf_values,
    geom_pow,
    series_exp,
    series_mul,
)


def S(*coeffs):
    return tuple(F(c) for c in coeffs)


class TestSeriesMul:
    def test_difference_of_squares(self):
        assert series_mul(S(1, 1, 0), S(1, -1, 0)) == (1, 0, -1)

    def test_zero_absorbs(self):
        a = S(3, F(1, 2), -2, 7)
        assert series_mul(a, S(0, 0, 0, 0)) == (0, 0, 0, 0)

    def test_exp_times_exp_minus(self):
        prod = series_mul(series_exp(1, 6), series_exp(-1, 6))
        assert prod == (1, 0, 0, 0, 0, 0, 0)

    def test_order_mismatch(self):
        with pytest.raises(DerangeDomainError, match=r"^order 1 vs 2$"):
            series_mul(S(1, 2), S(1, 2, 3))

    @given(st.integers(0, 12).flatmap(lambda n: st.tuples(
        *[st.lists(st.fractions(-20, 20, max_denominator=30),
                   min_size=n, max_size=n)] * 2)))
    def test_matches_fraction_cauchy_product(self, pair):
        # the product term by term in Fraction is the reference
        a, b = map(tuple, pair)
        want = tuple(sum((a[i] * b[k - i] for i in range(k + 1)), F(0))
                     for k in range(len(a)))
        got = series_mul(a, b)
        assert got == want
        assert all(type(v) is F for v in got)


def test_series_exp():
    assert series_exp(0, 3) == (1, 0, 0, 0)
    assert series_exp(-1, 4) == (1, -1, F(1, 2), F(-1, 6), F(1, 24))
    assert series_exp(F(1, 2), 2) == (1, F(1, 2), F(1, 8))


def test_geom_pow():
    assert geom_pow(F(7, 3), 0, 4) == (1, 0, 0, 0, 0)
    assert geom_pow(1, 1, 3) == (1, 1, 1, 1)
    assert geom_pow(2, 2, 2) == (1, 4, 12)


class TestEgfValues:
    def test_classic_paper_values(self):
        assert egf_values(FamilySpec(Family.CLASSIC), 5) == [1, 0, 1, 2, 9]

    def test_generalized_at_minus_one_is_signed_classic(self):
        vals = egf_values(FamilySpec(Family.GENERALIZED, 1, F(-1)), 5)
        assert vals == [1, 0, 1, -2, 9]

    def test_cyclic_r2(self):
        assert egf_values(FamilySpec(Family.CYCLIC, 2), 4) == [1, 1, 5, 29]

    def test_order_r_numbers_r2(self):
        assert egf_values(FamilySpec(Family.ORDER_R_NUMBERS, 2), 4) == [1, 1, 3, 11]

    def test_count_must_be_positive(self):
        with pytest.raises(ValueError):
            egf_values(FamilySpec(Family.CLASSIC), 0)

    def test_r_derangement_needs_positive_r(self):
        with pytest.raises(DerangeDomainError,
                           match=r"^r-derangement needs r >= 1$"):
            FamilySpec(Family.R_DERANGEMENT_NUMBERS, 0)

    def test_poly_family_needs_x(self):
        with pytest.raises(DerangeDomainError, match=r"^generalized needs x$"):
            FamilySpec(Family.GENERALIZED, 2)

    def test_r_derangement_leading_zeros(self):
        vals = egf_values(FamilySpec(Family.R_DERANGEMENT_NUMBERS, 3), 8)
        assert vals[:3] == [0, 0, 0]
        assert vals[3] != 0

    def test_r_derangement_poly_at_minus_one_matches_numbers(self):
        for r in (1, 2, 3):
            nums = egf_values(FamilySpec(Family.R_DERANGEMENT_NUMBERS, r), 10)
            poly = egf_values(FamilySpec(Family.R_DERANGEMENT_POLY, r, F(-1)), 10)
            assert nums == poly

    def test_integrality_of_number_families(self):
        for spec in (FamilySpec(Family.CLASSIC),
                     FamilySpec(Family.ORDER_R_NUMBERS, 3),
                     FamilySpec(Family.CYCLIC, 4),
                     FamilySpec(Family.R_DERANGEMENT_NUMBERS, 2)):
            assert all(v.denominator == 1 for v in egf_values(spec, 15))


def _domain_error(family, r, x):
    """The family domains, written out rule by rule: the message of the
    first rule (r before x) that (r, x) breaks, or None."""
    name = family.value
    if family is Family.CLASSIC:
        least = None
    elif family in (Family.ORDER_R_NUMBERS, Family.ORDER_R_POLY,
                    Family.GENERALIZED):
        least = 0
    else:  # r-derangement, r-derangement-poly, cyclic
        least = 1
    takes_x = family in (Family.R_DERANGEMENT_POLY, Family.ORDER_R_POLY,
                         Family.GENERALIZED)
    if least is None and r is not None:
        return f"{name} takes no r"
    if least is not None and (r is None or r < least):
        return f"{name} needs r >= {least}"
    if takes_x and x is None:
        return f"{name} needs x"
    if not takes_x and x is not None:
        return f"{name} takes no x"
    return None


@pytest.mark.parametrize("x", [None, F(1, 2)], ids=["no-x", "x=1/2"])
@pytest.mark.parametrize("r", [None, -1, 0, 1, 2], ids=lambda r: f"r={r}")
@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
def test_family_domain(family, r, x):
    message = _domain_error(family, r, x)
    if message is None:
        spec = FamilySpec(family, r, x)
        assert (spec.r, spec.x) == (r, x)
    else:
        with pytest.raises(DerangeDomainError, match=f"^{message}$"):
            FamilySpec(family, r, x)


def test_family_spec_is_a_value():
    spec = FamilySpec(Family.GENERALIZED, 2, 1)
    same = FamilySpec(Family.GENERALIZED, 2, F(1))
    assert spec == same and hash(spec) == hash(same)
    assert spec != FamilySpec(Family.GENERALIZED, 3, F(1))
    assert spec != FamilySpec(Family.ORDER_R_POLY, 2, F(1))
    assert spec != (Family.GENERALIZED, 2, F(1))
    assert repr(spec) == ("FamilySpec(family=<Family.GENERALIZED: "
                          "'generalized'>, r=2, x=Fraction(1, 1))")


# no verdict: the cell passes exactly when the raw values are equal; an
# explicit verdict is kept as given
@pytest.mark.parametrize("expected,actual,given,verdict", [
    (F(1, 2), F(2, 4), None, "pass"),
    (F(6), 6, None, "pass"),
    ("ended", F(1, 2), None, "fail"),
    (F(1, 2), "1/2", None, "fail"),
    (F(1), F(1), "fail", "fail"),
    (F(1), F(2), "pass", "pass"),
    (F(1), F(1), "", ""),
    ("", "", "skipped", "skipped"),
])
def test_a_cell_holds_text_and_its_verdict(expected, actual, given, verdict):
    cell = Cell({"n": 3, "x": F(-3, 5), "family": "classic"}, expected, actual,
                given)
    assert vars(cell) == {"params": {"n": "3", "x": "-3/5", "family": "classic"},
                          "expected": str(expected), "actual": str(actual),
                          "verdict": verdict}


def test_a_value_too_large_to_print_is_a_domain_error():
    # a library caller gets a value or a DerangeDomainError, never the
    # interpreter's ValueError
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python prints an int of any size")
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        big = 10 ** 4300
        for args in (({"n": big}, 1, 1), ({}, F(1, big), 1), ({}, 1, -big)):
            with pytest.raises(DerangeDomainError,
                               match=r"^Exceeds the limit \(4300 digits\).*"
                                     "PYTHONINTMAXSTRDIGITS=0"):
                Cell(*args)
        assert Cell({}, 10 ** 4299, 10 ** 4299).actual == str(10 ** 4299)
    finally:
        sys.set_int_max_str_digits(limit)


XS = [F(-1), F(1), F(2), F(1, 2), F(-3, 5)]


def _cauchy_egf(spec, count):
    """n! [z^n] of the family's EGF z^s e^{cz} (1-xz)^{-r} as a Cauchy
    product of series_exp and geom_pow, the shift s applied by hand."""
    f, r, x = spec.family, spec.r or 0, spec.x
    c, base, power, shift = {
        Family.CLASSIC: (-1, 1, 1, 0),
        Family.ORDER_R_NUMBERS: (-1, 1, r, 0),
        Family.R_DERANGEMENT_NUMBERS: (-1, 1, r + 1, r),
        Family.R_DERANGEMENT_POLY: (x, 1, r + 1, r),
        Family.ORDER_R_POLY: (x, 1, r, 0),
        Family.CYCLIC: (-1, r, 1, 0),
        Family.GENERALIZED: (1, x, r, 0),
    }[f]
    order = count - 1
    prod = series_mul(series_exp(c, order), geom_pow(base, power, order))
    return [factorial(n) * prod[n - shift] if n >= shift else 0
            for n in range(count)]


def _all_specs():
    yield FamilySpec(Family.CLASSIC)
    for r in range(5):
        yield FamilySpec(Family.ORDER_R_NUMBERS, r)
        for x in (F(-3, 5), F(1, 2), F(2)):
            yield FamilySpec(Family.ORDER_R_POLY, r, x)
            yield FamilySpec(Family.GENERALIZED, r, x)
        if r >= 1:
            yield FamilySpec(Family.R_DERANGEMENT_NUMBERS, r)
            yield FamilySpec(Family.CYCLIC, r)
            for x in (F(-3, 5), F(1, 2), F(2)):
                yield FamilySpec(Family.R_DERANGEMENT_POLY, r, x)


@pytest.mark.parametrize("spec", list(_all_specs()),
                         ids=lambda s: f"{s.family.value}-r{s.r}-x{s.x}")
def test_recurrence_matches_cauchy_product(spec):
    ref = _cauchy_egf(spec, 60)
    assert egf_values(spec, 60) == ref
    for count in (1, 2, 3, 5):
        assert egf_values(spec, count) == ref[:count]


def test_reflection_through_egf():
    # d_n^{(r)}(x) = x^n * D_n^{(r)}(1/x) at the value level
    for r in range(4):
        for x in XS:
            d_vals = egf_values(FamilySpec(Family.ORDER_R_POLY, r, x), 12)
            D_vals = egf_values(FamilySpec(Family.GENERALIZED, r, 1 / x), 12)
            for n in range(12):
                assert d_vals[n] == x ** n * D_vals[n], (n, r, x)


def test_specialization_chain():
    classic = egf_values(FamilySpec(Family.CLASSIC), 10)
    assert classic == egf_values(FamilySpec(Family.CYCLIC, 1), 10)
    for r in range(4):
        order_nums = egf_values(FamilySpec(Family.ORDER_R_NUMBERS, r), 10)
        order_poly = egf_values(FamilySpec(Family.ORDER_R_POLY, r, F(-1)), 10)
        assert order_nums == order_poly
    for rp in (1, 2, 3):
        cyc = egf_values(FamilySpec(Family.CYCLIC, rp), 10)
        gen = egf_values(FamilySpec(Family.GENERALIZED, 1, F(-rp)), 10)
        assert cyc == [(-1) ** n * gen[n] for n in range(10)]


@given(st.integers(0, 10), st.integers(0, 4),
       st.fractions(max_denominator=6, min_value=-3, max_value=3))
def test_generalized_value_is_polynomial_in_x(n, r, x):
    # EGF extraction agrees with the explicit binomial-rising sum
    from math import comb

    from derange.exact import rising_factorial
    expected = sum(comb(n, k) * rising_factorial(r, k) * x ** k
                   for k in range(n + 1))
    vals = egf_values(FamilySpec(Family.GENERALIZED, r, x), n + 1)
    assert vals[n] == expected
