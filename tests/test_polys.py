import random
from fractions import Fraction as F
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from derange import polys, verify
from derange.exact import DerangeDomainError, rising_factorial
from derange.polys import (
    eval_poly,
    generalized_D_poly,
    generate_D_by_convolution,
    generate_d_by_convolution,
    order_d_poly,
    verify_shift_recurrences,
)
from derange.series import Family, FamilySpec, egf_values

XS = [F(-1), F(1), F(2), F(1, 2), F(-3, 5)]


def _explicit(n, r, x, reflected=False):
    """sum_k C(n,k) rising(r,k) x^k (x^{n-k} when reflected), in Fractions."""
    total, rising = F(0), 1
    for k in range(n + 1):
        total += comb(n, k) * rising * x ** (n - k if reflected else k)
        rising *= r + k
    return total


def _fraction_horner(coeffs, x):
    """Horner's rule in Fraction arithmetic, the reference for eval_poly."""
    value = F(0)
    for c in reversed(coeffs):
        value = value * x + F(c)
    return value


class TestExplicitFormulas:
    def test_degree_zero(self):
        assert generalized_D_poly(0, 5) == (1,)
        assert order_d_poly(0, 5) == (1,)

    def test_small_cases(self):
        assert generalized_D_poly(2, 1) == (1, 2, 2)
        assert generalized_D_poly(2, 2) == (1, 4, 6)
        assert order_d_poly(2, 2) == (6, 4, 1)

    def test_order_d_at_minus_one_matches_numbers(self):
        # d_3^{(2)}(-1) is the third derangement number of order 2
        assert eval_poly(order_d_poly(3, 2), -1) == 11

    def test_coefficient_positivity(self):
        for r in range(1, 5):
            for n in range(12):
                p = generalized_D_poly(n, r)
                assert p[0] == 1
                assert all(c > 0 and c.denominator == 1 for c in p)

    def test_value_at_zero_is_one(self):
        for r in range(5):
            for n in range(10):
                assert eval_poly(generalized_D_poly(n, r), 0) == 1

    def test_r_zero_is_constant_family(self):
        for n in range(8):
            assert generalized_D_poly(n, 0) == (1,) + (0,) * n

    def test_order_d_is_the_reversed_tuple(self):
        for r in range(5):
            for n in range(12):
                assert order_d_poly(n, r) == generalized_D_poly(n, r)[::-1]

    def test_negative_n(self):
        for make in (generalized_D_poly, order_d_poly):
            with pytest.raises(DerangeDomainError, match=r"^n must be >= 0$"):
                make(-1, 2)


def test_ratio_built_coefficients_match_comb_times_rising():
    cases = [(n, r) for n in range(61) for r in range(6)]
    for n, r in cases + [(240, r) for r in (2, 3, 4)]:
        coeffs = generalized_D_poly(n, r)
        assert coeffs == tuple(comb(n, k) * rising_factorial(r, k)
                               for k in range(n + 1)), (n, r)
        assert all(type(c) is int for c in coeffs)


def test_explicit_path_matches_the_egf_at_depth():
    # the depth of the deep benchmark: 241 terms, so every length mod 8
    x = F(-11, 13)
    egf = egf_values(FamilySpec(Family.GENERALIZED, 3, x), 241)
    assert [eval_poly(generalized_D_poly(n, 3), x) for n in range(241)] == egf


def test_integer_coefficients_stay_int():
    assert all(type(c) is int for c in generalized_D_poly(9, 3))
    assert all(type(c) is int for c in order_d_poly(9, 3))
    p = (2, F(1, 2), F(3), F(3, 2))
    assert eval_poly(p, F(-2, 3)) == 2 - F(1, 3) + F(4, 3) - F(4, 9)


class TestEval:
    def test_horner(self):
        assert eval_poly((1, 2, 2), 1) == 5
        assert eval_poly((1, 4, 6), -2) == 17

    def test_at_zero(self):
        assert eval_poly((F(7, 3), 5, 9), 0) == F(7, 3)

    def test_empty_polynomial_is_zero(self):
        assert eval_poly((), F(5, 3)) == 0
        assert eval_poly((), 0) == 0

    @given(st.lists(st.fractions(max_denominator=12), max_size=9),
           st.fractions(max_denominator=12))
    @example([F(1, 2), F(-2, 3), F(5, 7)], F(-3, 4))
    @example([F(1, 3), 0, 0], F(2, 5))
    def test_rational_coefficients(self, coeffs, x):
        expected = sum((c * x ** k for k, c in enumerate(coeffs)), F(0))
        assert eval_poly(coeffs, x) == expected

    @given(st.lists(st.integers(-10 ** 30, 10 ** 30)
                    | st.fractions(max_denominator=12), max_size=12),
           st.fractions(max_denominator=30))
    @example([3, -7, 0, 11], F(-11, 13))
    @example([0, 0, 5], F(0))
    @example([4, F(1, 3), -2], F(5, 2))
    def test_int_and_fraction_coefficients_match_fraction_horner(self, coeffs, x):
        got = eval_poly(tuple(coeffs), x)
        assert isinstance(got, F) and got == _fraction_horner(coeffs, x)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 300), st.sampled_from(("int", "fraction", "mixed")),
           st.integers(0, 2 ** 32),
           st.sampled_from((F(0), F(1), F(-1))) | st.fractions(max_denominator=30))
    @example(293, "int", 1, F(-11, 13))
    @example(294, "mixed", 2, F(13, 11))
    @example(295, "fraction", 3, F(11, 13))
    @example(296, "int", 4, F(-13, 11))
    @example(297, "int", 5, F(-1))
    @example(298, "mixed", 6, F(1))
    @example(299, "int", 7, F(-11, 13))
    @example(300, "fraction", 8, F(0))
    def test_long_tuples_match_fraction_horner(self, length, kind, seed, x):
        # coefficients up to 10^300 in size, from a drawn seed, so that the
        # blocked fold meets long tuples of every length mod 8
        rng = random.Random(seed)
        coeffs = []
        for _ in range(length):
            c = rng.getrandbits(rng.randint(0, 997)) * rng.choice((1, -1))
            if kind == "fraction" or (kind == "mixed" and rng.random() < 0.5):
                c = F(c, rng.randint(1, 12))
            coeffs.append(c)
        got = eval_poly(tuple(coeffs), x)
        assert isinstance(got, F) and got == _fraction_horner(coeffs, x)


class TestNumberSequences:
    # the classic and cyclic rows of the EGF table against their values
    def test_classic_values(self):
        assert egf_values(FamilySpec(Family.CLASSIC), 6) == [1, 0, 1, 2, 9, 44]

    def test_classic_recurrence(self):
        # D_n = (n-1)(D_{n-1} + D_{n-2})
        D = egf_values(FamilySpec(Family.CLASSIC), 20)
        for n in range(2, 20):
            assert D[n] == (n - 1) * (D[n - 1] + D[n - 2])

    def test_cyclic_reduces_to_classic(self):
        assert (egf_values(FamilySpec(Family.CYCLIC, 1), 10)
                == egf_values(FamilySpec(Family.CLASSIC), 10))

    def test_cyclic_small(self):
        assert egf_values(FamilySpec(Family.CYCLIC, 2), 4)[2:] == [5, 29]


class TestConvolutionGenerators:
    def test_r_zero_degenerates(self):
        assert generate_D_by_convolution(0, F(3, 7), 6) == [1] * 6
        assert generate_d_by_convolution(0, F(1, 2), 5) == [F(1, 2) ** n
                                                            for n in range(5)]

    def test_signed_classic(self):
        assert generate_D_by_convolution(1, -1, 5) == [1, 0, 1, -2, 9]

    def test_d_at_zero_is_factorial(self):
        assert generate_d_by_convolution(1, 0, 5) == [1, 1, 2, 6, 24]

    def test_d_matches_order_numbers(self):
        assert generate_d_by_convolution(2, -1, 4) == [1, 1, 3, 11]

    def test_matches_explicit_formula(self):
        for r in range(5):
            for x in XS:
                conv_D = generate_D_by_convolution(r, x, 60)
                conv_d = generate_d_by_convolution(r, x, 60)
                for n in range(60):
                    want_D = _explicit(n, r, x)
                    want_d = _explicit(n, r, x, reflected=True)
                    assert conv_D[n] == want_D == eval_poly(generalized_D_poly(n, r), x)
                    assert conv_d[n] == want_d == eval_poly(order_d_poly(n, r), x)

    def test_d_convolution_holds_at_x_zero(self):
        # the reflected recurrence has no stated x != 0 restriction; it does
        # hold there (d_n^{(r)}(0) = rising(r, n))
        from derange.exact import rising_factorial
        for r in range(5):
            vals = generate_d_by_convolution(r, 0, 12)
            assert vals == [rising_factorial(r, n) for n in range(12)]


def test_shift_recurrence_single_cell():
    # D_2^{(1)}(1) = 5 against D_1^{(1)}(1) + 1*D_1^{(2)}(1) = 2 + 3
    assert eval_poly(generalized_D_poly(2, 1), 1) == 5
    assert eval_poly(generalized_D_poly(1, 1), 1) == 2
    assert eval_poly(generalized_D_poly(1, 2), 1) == 3


def test_shift_recurrences_grid():
    checked, failures = verify_shift_recurrences(30, 5)
    assert not failures, failures[:3]
    assert checked == 2 * 31 * 6


def test_shift_recurrences_evaluate_nothing(monkeypatch):
    # the recurrences are checked on coefficient tuples, at no point x
    def refuse(coeffs, x):
        raise AssertionError("eval_poly called")

    monkeypatch.setattr(polys, "eval_poly", refuse)
    grid = verify.Grid()
    assert verify_shift_recurrences(grid.n_max, grid.r_max) == (56, [])


# P(x) = 30x^6 - 7x^5 - 140x^4 + 140x^2 + 7x - 30 vanishes at 1, -1, 2,
# 1/2, -3/5 and -5/3: at every default grid x and at its reciprocal
P_COEFFS = (-30, 7, 140, 0, -140, -7, 30)


def test_a_mutant_that_vanishes_on_the_grid_fails_the_shift_cell(monkeypatch):
    # D_6^{(1)} + P agrees with D_6^{(1)} at every grid point, so only the
    # coefficient check can see it; order_d_poly reads the mutant too
    real = polys.generalized_D_poly

    def broken(n, r):
        coeffs = real(n, r)
        if (n, r) == (6, 1):
            coeffs = tuple(c + p for c, p in zip(coeffs, P_COEFFS))
        return coeffs

    monkeypatch.setattr(polys, "generalized_D_poly", broken)
    [failed] = [c for c in verify.run_suite("all") if c.verdict != "pass"]
    assert failed.params["identity"] == "shift-recurrences"
    assert failed.actual == (
        "4 failures of 56: D-shift n=5 r=1, d-shift n=5 r=1, "
        "D-shift n=6 r=1, d-shift n=6 r=1")


def test_the_recurrences_cell_names_its_first_five_failures(monkeypatch):
    # D_4^{(r)}, and d_4^{(r)} that reverses it, are read by one check
    # each, at n = 3 (n_max): six failed checks over r = 0, 1, 2
    real = polys.generalized_D_poly

    def broken(n, r):
        coeffs = real(n, r)
        return (coeffs[0] + 1,) + coeffs[1:] if n == 4 else coeffs

    monkeypatch.setattr(polys, "generalized_D_poly", broken)
    grid = verify.Grid(n_max=3, r_max=2)
    [failed] = [c for c in verify.suite_recurrences(grid) if c.verdict == "fail"]
    assert failed.expected == "0 failures of 24"
    assert failed.actual == (
        "6 failures of 24: D-shift n=3 r=0, d-shift n=3 r=0, "
        "D-shift n=3 r=1, d-shift n=3 r=1, D-shift n=3 r=2")


def test_the_recurrences_cell_names_a_broken_D_shift(monkeypatch):
    # D_4^{(1)} is read by one shift check only, at n = 3 (n_max), r = 1
    real = polys.generalized_D_poly

    def broken(n, r):
        coeffs = real(n, r)
        return (coeffs[0] + 1,) + coeffs[1:] if (n, r) == (4, 1) else coeffs

    monkeypatch.setattr(polys, "generalized_D_poly", broken)
    # order_d_poly reads generalized_D_poly; keep d on the true coefficients
    monkeypatch.setattr(polys, "order_d_poly", lambda n, r: real(n, r)[::-1])
    grid = verify.Grid(n_max=3, r_max=2)
    [shift] = [c for c in verify.suite_recurrences(grid)
               if c.params.get("identity") == "shift-recurrences"]
    assert shift.verdict == "fail"
    assert shift.expected == "0 failures of 24"
    assert shift.actual == "1 failures of 24: D-shift n=3 r=1"


@pytest.mark.parametrize("suite", sorted(verify.SUITES))
def test_int_grid_points_give_the_fraction_cells(suite):
    """A grid of int points checks what the same grid of Fractions does,
    cell for cell, exactly: 1 / x is no float."""
    ints = verify.Grid(n_max=3, r_max=2, points=(3, -2), deriv_z=(0, 2))
    fracs = ints._replace(points=(F(3), F(-2)), deriv_z=(F(0), F(2)))
    got, want = (verify.run_suite(suite, grid) for grid in (ints, fracs))
    assert [vars(c) for c in got] == [vars(c) for c in want]
    assert all(c.verdict != "fail" for c in got)


def test_reflection_identity_grid():
    for r in range(6):
        for n in range(31):
            D = generalized_D_poly(n, r)
            d = order_d_poly(n, r)
            for x in XS:
                assert x ** n * eval_poly(D, 1 / x) == eval_poly(d, x)
