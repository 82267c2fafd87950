from fractions import Fraction
from itertools import permutations
from math import comb, gcd, prod

import pytest
from hypothesis import given, settings, strategies as st

from derange.exact import _laplace, factorial, rising_factorial


class TestRisingFactorial:
    def test_empty_product(self):
        assert rising_factorial(5, 0) == 1
        assert rising_factorial(7, 0) == 1

    def test_zero_base(self):
        assert rising_factorial(0, 3) == 0

    def test_direct_product(self):
        assert rising_factorial(2, 3) == 2 * 3 * 4

    @pytest.mark.parametrize("k", range(8))
    def test_base_one_is_factorial(self, k):
        assert rising_factorial(1, k) == factorial(k)

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            rising_factorial(2, -1)

    @given(st.integers(-10, 10), st.integers(0, 30))
    def test_recurrence(self, r, k):
        assert rising_factorial(r, k + 1) == rising_factorial(r, k) * (r + k)

    def test_binomial_identity_grid(self):
        # rising(r, k) = C(r+k-1, k) * k! for r >= 1
        for r in range(1, 11):
            for k in range(21):
                assert rising_factorial(r, k) == comb(r + k - 1, k) * factorial(k)


def test_factorial_values():
    assert factorial(0) == 1
    assert factorial(4) == 24
    assert factorial(10) == 3628800


@given(st.fractions(), st.fractions())
def test_fraction_canonical_form(a, b):
    # the Rational scalar of the package must stay reduced with positive
    # denominator after arithmetic
    for val in (a + b, a - b, a * b):
        assert val.denominator > 0
        assert gcd(abs(val.numerator), val.denominator) == 1
    if b != 0:
        q = a / b
        assert q.denominator > 0
        assert gcd(abs(q.numerator), q.denominator) == 1


def _leibniz(rows, signed):
    """The defining sum over every permutation of range(n), each signed by
    its number of inversions when signed."""
    n, total = len(rows), 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j]
                         for i in range(n) for j in range(i + 1, n))
        sign = -1 if signed and inversions % 2 else 1
        total += sign * prod(rows[i][perm[i]] for i in range(n))
    return total


_int_matrix = st.integers(0, 6).flatmap(lambda n: st.lists(
    st.lists(st.integers(-9, 9), min_size=n, max_size=n),
    min_size=n, max_size=n))


@given(_int_matrix, st.booleans())
@settings(max_examples=80, deadline=None)
def test_laplace_is_the_leibniz_sum(rows, signed):
    # every minor, on the last k rows and the columns of its mask
    n = len(rows)
    minors = _laplace(rows, signed)
    assert len(minors) == 1 << n and minors[-1] == _leibniz(rows, signed)
    for mask, minor in enumerate(minors):
        cols = [j for j in range(n) if mask >> j & 1]
        sub = [[row[j] for j in cols] for row in rows[n - len(cols):]]
        assert minor == _leibniz(sub, signed), mask


@pytest.mark.parametrize("n", range(10))
def test_permanents_of_all_ones_and_of_j_minus_i(n):
    ones = [[1] * n for _ in range(n)]
    no_fixed_point = [[int(i != j) for j in range(n)] for i in range(n)]
    derangements = [1, 0, 1, 2, 9, 44, 265, 1854, 14833, 133496]
    assert _laplace(ones, signed=False)[-1] == factorial(n)
    assert _laplace(no_fixed_point, signed=False)[-1] == derangements[n]
