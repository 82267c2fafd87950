from itertools import permutations, product

import pytest

from derange import verify
from derange.exact import DerangeDomainError
from derange.oracle import (
    ENUMERATION_CAP,
    SizeTooLarge,
    count_cyclic_derangements_brute,
    count_derangements_brute,
)
from derange.series import FAMILY_TABLE, Family, FamilySpec, egf_values


def _recurrence_derangements(count):
    """D_0..D_{count-1} by D_n = (n-1)(D_{n-1} + D_{n-2}), D_0 = 1, D_1 = 0."""
    out = [1, 0]
    for n in range(2, count):
        out.append((n - 1) * (out[-1] + out[-2]))
    return out[:count]


def _full_walk(n):
    """The reference walk: every permutation of range(n), each tested for a
    fixed point."""
    count = 0
    for perm in permutations(range(n)):
        fixed = False
        for i in range(n):
            if perm[i] == i:
                fixed = True
                break
        if not fixed:
            count += 1
    return count


def test_derangement_counts():
    assert count_derangements_brute(0) == 1
    assert count_derangements_brute(4) == 9
    assert count_derangements_brute(7) == 1854


def test_derangement_size_cap():
    assert ENUMERATION_CAP == 9
    assert count_derangements_brute(9) == 133496
    with pytest.raises(SizeTooLarge, match="enumeration capped at n = 9, got 10"):
        count_derangements_brute(10)


@pytest.mark.parametrize("count", [
    count_derangements_brute,
    lambda n: count_cyclic_derangements_brute(n, 2),
], ids=["derangements", "cyclic"])
def test_negative_n_is_a_domain_error_not_a_size_cap(count):
    with pytest.raises(DerangeDomainError, match="need n >= 0") as err:
        count(-1)
    assert not isinstance(err.value, SizeTooLarge)


def test_brute_matches_formula_and_egf():
    egf = egf_values(FamilySpec(Family.CLASSIC), 10)
    for n, want in enumerate(_recurrence_derangements(10)):
        brute = count_derangements_brute(n)
        assert brute == want
        assert brute == egf[n]


@pytest.mark.parametrize("n", range(10))
def test_pruned_walk_matches_full_walk(n):
    # the permanent of J - I against the walk of all n!
    want = _recurrence_derangements(n + 1)[n]
    assert count_derangements_brute(n) == _full_walk(n) == want


def test_cyclic_checks_r_before_n():
    # a bad r is named first, even where n is negative or above the cap
    for n in (-1, 10):
        with pytest.raises(DerangeDomainError, match="need r >= 1") as err:
            count_cyclic_derangements_brute(n, 0)
        assert not isinstance(err.value, SizeTooLarge)


def test_cyclic_small_cases():
    assert count_cyclic_derangements_brute(1, 2) == 1
    assert count_cyclic_derangements_brute(2, 2) == 5


def test_cyclic_colorless_reduces_to_derangements():
    for n in range(7):
        assert count_cyclic_derangements_brute(n, 1) == count_derangements_brute(n)


def test_cyclic_brute_matches_formula():
    for r in range(1, 5):
        egf = egf_values(FamilySpec(Family.CYCLIC, r), 7)
        for n in range(7):
            assert count_cyclic_derangements_brute(n, r) == egf[n]


def test_cyclic_size_cap():
    with pytest.raises(SizeTooLarge):
        count_cyclic_derangements_brute(10, 5)
    egf = egf_values(FamilySpec(Family.CYCLIC, 5), 10)
    assert count_cyclic_derangements_brute(9, 5) == egf[9]


def _wreath_count(n, r):
    """The direct wreath-model count: every (permutation, coloring) pair,
    r^n n! of them, checked one by one."""
    count = 0
    for perm in permutations(range(n)):
        for colors in product(range(r), repeat=n):
            fixed = False
            for i in range(n):
                if perm[i] == i and colors[i] == 0:
                    fixed = True
                    break
            if not fixed:
                count += 1
    return count


@pytest.mark.parametrize("r", [1, 2, 3])
def test_cyclic_oracle_matches_wreath_enumeration(r):
    for n in range(7):
        assert count_cyclic_derangements_brute(n, r) == _wreath_count(n, r)


# c -> -c in one row of FAMILY_TABLE, and the suite that must fail a cell
# for it.
FLIPPED_C = {
    Family.CLASSIC: "oracles",
    Family.CYCLIC: "oracles",
    Family.GENERALIZED: "all",
    Family.ORDER_R_POLY: "all",
    Family.ORDER_R_NUMBERS: "recurrences",
    Family.R_DERANGEMENT_NUMBERS: "recurrences",
    Family.R_DERANGEMENT_POLY: "recurrences",
}


@pytest.mark.parametrize("family", FLIPPED_C, ids=lambda f: f.value)
def test_a_wrong_table_row_fails_a_verify_cell(family):
    row = FAMILY_TABLE[family]

    def flipped(r, x):
        c, *rest = row.shape(r, x)
        return (-c, *rest)

    FAMILY_TABLE[family] = row._replace(shape=flipped)
    try:
        cells = verify.run_suite(FLIPPED_C[family])
    finally:
        FAMILY_TABLE[family] = row
    assert any(cell.verdict == "fail" for cell in cells)
