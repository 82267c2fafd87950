import json
import random
from collections import Counter
from fractions import Fraction as F
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from derange import hankel, verify
from derange.cli import main
from derange.exact import DerangeDomainError, factorial, rising_factorial
from derange.hankel import (
    ORACLE_CAP,
    closed_form,
    bareiss_minors,
    closed_form_chain,
    cofactor_minors,
    condensation_minors,
    det_bareiss,
    det_cofactor,
    det_condensation,
    det_jfraction,
    derivative_hankel_chain,
    hankel_matrix,
    hankel_reports,
    reduced_derivative,
    verify_derivative_hankel,
    verify_hankel,
)
from derange.series import (
    Family, FamilySpec, egf_values, series_exp, series_mul,
)


class TestHankelMatrix:
    def test_classic_2x2(self):
        assert hankel_matrix([1, 0, 1], 1) == [[1, 0], [0, 1]]

    def test_cyclic_3x3(self):
        m = hankel_matrix([1, 1, 5, 29, 233], 2)
        assert m == [[1, 1, 5], [1, 5, 29], [5, 29, 233]]

    def test_constant_sequence_is_singular(self):
        assert det_bareiss([F(3)] * 7, 3) == 0

    def test_insufficient_terms(self):
        for route in (hankel_matrix, det_bareiss, det_condensation,
                      det_jfraction):
            with pytest.raises(DerangeDomainError,
                               match=r"^need 5 terms, got 3$"):
                route([1, 2, 3], 2)


def _integer_rows(m):
    """An integer matrix a and a rational scale with det(m) = scale * det(a):
    each row times the lcm of its denominators, then each column divided
    by the gcd of its entries (an all-zero column is left as it is)."""
    rows, denom = [], 1
    for row in m:
        row = [F(v) for v in row]
        d = lcm(*(v.denominator for v in row))
        denom *= d
        rows.append([v.numerator * (d // v.denominator) for v in row])
    numer = 1
    for j in range(len(rows[0])):
        g = gcd(*(row[j] for row in rows))
        if g > 1:
            numer *= g
            for row in rows:
                row[j] //= g
    return rows, F(numer, denom)


def _matrix_bareiss(m):
    """One-step fraction-free Bareiss elimination of a general matrix, with
    row swaps on a zero pivot: the reference for det_bareiss, which runs
    the same elimination on the symmetric matrix of a Hankel sequence."""
    size = len(m)
    a, scale = _integer_rows(m)
    sign, prev = 1, 1
    for k in range(size - 1):
        if a[k][k] == 0:
            for i in range(k + 1, size):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return F(0)
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[size - 1][size - 1] * scale


def _rational_matrix(size):
    entry = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    return st.lists(st.lists(entry, min_size=size, max_size=size),
                    min_size=size, max_size=size)


class TestDeterminantAlgorithms:
    def test_identity(self):
        for size in (1, 2, 4, 7):
            m = [[F(int(i == j)) for j in range(size)] for i in range(size)]
            assert _matrix_bareiss(m) == 1
        assert det_cofactor([]) == 1  # the empty product

    def test_classic_hankel_by_hand(self):
        m = [[1, 0, 1], [0, 1, 2], [1, 2, 9]]
        assert det_bareiss([1, 0, 1, 2, 9], 2) == 4
        assert det_condensation([1, 0, 1, 2, 9], 2) == 4
        assert det_cofactor(m) == 4

    def test_2x2_formula(self):
        assert det_cofactor([[F(2), F(3)], [F(5), F(7)]]) == 2 * 7 - 3 * 5
        det = det_cofactor([[F(1, 2), F(1, 3)], [F(1, 5), F(-1, 7)]])
        assert isinstance(det, F) and det == F(-1, 14) - F(1, 15)

    def test_permutation_matrix_parity(self):
        m = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]  # 3-cycle, even
        assert _matrix_bareiss(m) == 1
        m = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]  # transposition, odd
        assert _matrix_bareiss(m) == -1
        assert det_cofactor(m) == -1
        assert det_bareiss([0, 1, 0, 0, 1], 2) == -1  # the same, as Hankel

    def test_condensation_degenerate_interior(self):
        # interior entry m[1][1] = a_2 = 0 is the divisor of the second
        # contraction
        seq = [F(0), F(1), F(0), F(0), F(1)]
        assert det_condensation(seq, 2) is None
        m = hankel_matrix(seq, 2)
        assert m == [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
        assert det_bareiss(seq, 2) == -1

    def test_cofactor_size_cap(self):
        m = [[F(1)] * 7 for _ in range(7)]
        with pytest.raises(DerangeDomainError,
                           match="cofactor oracle capped at 6, got 7"):
            det_cofactor(m)

    @given(st.integers(1, 5).flatmap(_rational_matrix))
    @settings(max_examples=60, deadline=None)
    def test_three_way_agreement(self, rows):
        m = [[F(v) for v in row] for row in rows]
        ref = det_cofactor(m)
        assert _matrix_bareiss(m) == ref
        seq, n = _border_sequence(m), len(m) - 1
        # None is the legitimate signal of a zero interior minor
        assert det_condensation(seq, n) in (
            None, det_cofactor(hankel_matrix(seq, n)))


def _border_sequence(m):
    """The 2 size - 1 moments of the Hankel matrix with m's first row and
    last column."""
    return list(m[0]) + [row[-1] for row in m[1:]]


def _matrix_condensation(m):
    """Dodgson condensation of a general matrix, in Fraction: the reference
    for det_condensation, which runs the same recurrence on a Hankel
    matrix's moments. Each stage holds the connected minors of one size;
    entry (i, j) of the next is the 2 x 2 determinant of neighbours divided
    by entry (i+1, j+1) of the stage before. None when such a divisor is
    zero."""
    size = len(m)
    cur = [[F(v) for v in row] for row in m]
    prev = [[F(1)] * (size + 1) for _ in range(size + 1)]
    while len(cur) > 1:
        k = len(cur)
        nxt = []
        for i in range(k - 1):
            row = []
            for j in range(k - 1):
                div = prev[i + 1][j + 1]
                if div == 0:
                    return None
                minor = cur[i][j] * cur[i + 1][j + 1] - cur[i][j + 1] * cur[i + 1][j]
                row.append(minor / div)
            nxt.append(row)
        prev, cur = cur, nxt
    return cur[0][0]


def _laplace_recursive(rows):
    """Top-down Laplace expansion along the first row in Fraction,
    recomputing every minor it meets (about e * size! calls)."""
    if len(rows) == 1:
        return rows[0][0]
    total = F(0)
    for j, head in enumerate(rows[0]):
        if head == 0:
            continue
        sub = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * head * _laplace_recursive(sub)
    return total


def _seeded_matrix(rng, size, kind):
    """A random rational matrix; "singular" makes the last row a rational
    combination of the others (a zero entry when size is 1),
    "zero-row" and "zero-column" zero out one row or column."""
    m = [[F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(size)]
         for _ in range(size)]
    if kind == "singular":
        if size == 1:
            m[0][0] = F(0)
        else:
            coef = [F(rng.randint(-3, 3), rng.randint(1, 4))
                    for _ in range(size - 1)]
            m[-1] = [sum((c * m[i][j] for i, c in enumerate(coef)), F(0))
                     for j in range(size)]
    elif kind == "zero-row":
        m[rng.randrange(size)] = [F(0)] * size
    elif kind == "zero-column":
        j = rng.randrange(size)
        for row in m:
            row[j] = F(0)
    return m


@pytest.mark.parametrize("kind", ["random", "singular", "zero-row", "zero-column"])
@pytest.mark.parametrize("size", range(1, ORACLE_CAP + 1))
def test_cofactor_matches_recursive_laplace(size, kind):
    rng = random.Random(f"{size}-{kind}")
    for _ in range(8):
        m = _seeded_matrix(rng, size, kind)
        ref = _laplace_recursive(m)
        if kind != "random":
            assert ref == 0
        det = det_cofactor(m)
        assert isinstance(det, F) and det == ref
        assert _matrix_bareiss(m) == ref


@st.composite
def _sparse_matrix(draw):
    """Square rational matrices up to 6x6 with many zero entries, and
    sometimes an all-zero column, so that zero interior minors are common."""
    size = draw(st.integers(1, 6))
    entry = (st.sampled_from([F(0), F(0), F(1), F(-1), F(2), F(1, 2), F(-3, 5)])
             | st.fractions(min_value=-5, max_value=5, max_denominator=7))
    rows = [[draw(entry) for _ in range(size)] for _ in range(size)]
    zero_col = draw(st.none() | st.integers(0, size - 1))
    if zero_col is not None:
        for row in rows:
            row[zero_col] = F(0)
    return rows


def _has_zero_interior_minor(m):
    """Whether a connected minor of m without its border rows and columns
    vanishes: those minors are exactly the divisors of condensation."""
    inner = [row[1:-1] for row in m[1:-1]]
    k = len(inner)
    return any(det_cofactor([row[j:j + s] for row in inner[i:i + s]]) == 0
               for s in range(1, k + 1)
               for i in range(k - s + 1) for j in range(k - s + 1))


@given(_sparse_matrix())
@example([[F(1), F(0), F(2)], [F(3), F(0), F(1, 2)], [F(5), F(0), F(7)]])
@example([[F(1), F(2), F(3)], [F(4), F(5), F(6)], [F(7), F(8), F(9)]])
@example([[F(2), F(1), F(0), F(1)], [F(1), F(1), F(1), F(0)],
          [F(0), F(1), F(1), F(1)], [F(1), F(0), F(1), F(3)]])
@settings(max_examples=150, deadline=None)
def test_integer_kernels_match_fraction_reference(m):
    ref = det_cofactor(m)
    assert _matrix_bareiss(m) == ref
    seq, n = _border_sequence(m), len(m) - 1
    h = hankel_matrix(seq, n)
    bareiss = det_bareiss(seq, n)
    assert isinstance(bareiss, F) and bareiss == det_cofactor(h)
    if _has_zero_interior_minor(h):
        assert det_condensation(seq, n) is None
    else:
        cond = det_condensation(seq, n)
        assert isinstance(cond, F) and cond == det_cofactor(h)


@st.composite
def _hankel_sequence(draw):
    """n and 2n+1 rational moments for an (n+1)x(n+1) Hankel matrix, n <= 5,
    with many zeros and repeats, so that zero leading minors are common."""
    n = draw(st.integers(0, 5))
    entry = (st.sampled_from([F(0), F(0), F(1), F(-1), F(2), F(1, 2)])
             | st.fractions(min_value=-5, max_value=5, max_denominator=7))
    return n, [draw(entry) for _ in range(2 * n + 1)]


@given(_hankel_sequence())
@example((0, [F(0)]))
@example((1, [F(0), F(1), F(0)]))           # H_1 = mu_0 = 0
@example((3, [F(1)] * 7))                   # H_2 = 0
@example((2, [F(1), F(0), F(1), F(0), F(1)]))  # H_3 = 0, the last minor
@settings(max_examples=200, deadline=None)
def test_jfraction_matches_cofactor(case):
    n, seq = case
    m = hankel_matrix(seq, n)
    got = det_jfraction(seq, n)
    leading = [det_cofactor([row[:k] for row in m[:k]]) for k in range(1, n + 1)]
    if 0 in leading:
        assert got.minors[-1] is None
        # the coefficients stop at the first zero minor H_k: lambda_{k-1} = 0
        k = leading.index(0) + 1
        assert (len(got.b), len(got.lam)) == (k - 1, k - 1)
        assert k == 1 or got.lam[-1] == 0
        return
    det = det_cofactor(m)
    assert isinstance(got.minors[-1], F) and got.minors[-1] == det
    assert (len(got.b), len(got.lam)) == (n, n)
    flajolet = seq[0] ** (n + 1)
    for k, lam in enumerate(got.lam, 1):
        flajolet *= lam ** (n + 1 - k)
    assert flajolet == det


@given(_hankel_sequence())
@example((2, [F(0), F(1), F(0), F(0), F(1)]))  # zero pivot at k = 0
@example((2, [F(1), F(1), F(1), F(2), F(5)]))  # at k = 1: copy, then swap
@example((3, [F(1), F(2), F(4), F(8), F(17), F(1, 3), F(-2)]))  # at k = 1, n = 3
@example((4, [F(2), F(1), F(1, 2), F(-1), F(3), F(0), F(7), F(1), F(-5)]))
@example((3, [F(0)] * 7))                           # all zero
@example((3, [F(0), F(0), F(0), F(0), F(0), F(0), F(1)]))  # no pivot in column 0
@settings(max_examples=300, deadline=None)
def test_bareiss_matches_general_reference(case):
    n, seq = case
    got = det_bareiss(seq, n)
    assert isinstance(got, F)
    assert got == _matrix_bareiss(hankel_matrix(seq, n))


def _fraction_chebyshev(seq, n):
    """The Chebyshev algorithm in Fraction, row by row: the reference for
    det_jfraction, which holds each row as integers over one denominator.
    The leading minors are the running products of the rows' first
    entries, None after the first zero."""
    old = [F(1)] + [F(0)] * (2 * n + 2)
    cur = [F(v) for v in seq[:2 * n + 1]]
    minors, b, lam = [cur[0]], [], []
    for k in range(1, n + 1):
        norm = cur[0]
        if norm == 0:
            return (tuple(minors) + (None,) * (n + 1 - k), tuple(b),
                    tuple(lam))
        alpha = cur[1] / norm - old[1] / old[0]
        beta = norm / old[0]
        new = [cur[j + 2] - alpha * cur[j + 1] - beta * old[j + 2]
               for j in range(2 * (n - k) + 1)]
        b.append(alpha)
        lam.append(new[0] / norm)
        minors.append(minors[-1] * new[0])
        old, cur = cur, new
    return tuple(minors), tuple(b), tuple(lam)


@given(_hankel_sequence())
@example((0, [F(0)]))
@example((1, [F(0), F(1), F(0)]))                 # ends at k = 1
@example((3, [F(1)] * 7))                         # ends at k = 2
@example((4, [F(1), F(1), F(1), F(2), F(5), F(1, 3), F(0), F(2), F(9)]))
@example((5, [F(1, 2), F(1, 3), F(1, 5), F(1, 7), F(1, 11), F(1, 13),
              F(-1, 17), F(2, 19), F(3, 23), F(5, 29), F(-7, 31)]))
@settings(max_examples=300, deadline=None)
def test_jfraction_matches_fraction_reference(case):
    n, seq = case
    got = det_jfraction(seq, n)
    assert tuple(got) == _fraction_chebyshev(seq, n)
    assert all(isinstance(v, F) for v in (*got.b, *got.lam))


@given(_hankel_sequence())
@example((2, [F(0), F(1), F(0), F(0), F(1)]))  # H_1^(2) = 0 divides
@example((3, [F(1)] * 7))                       # H_2^(m) = 0 divides
@example((2, [F(1, 2), F(1, 3), F(1, 5), F(1, 7), F(1, 11)]))
@settings(max_examples=200, deadline=None)
def test_condensation_matches_matrix_reference(case):
    n, seq = case
    got = det_condensation(seq, n)
    assert got == _matrix_condensation(hankel_matrix(seq, n))
    assert got is None or isinstance(got, F)


def test_condensation_on_the_default_grid():
    """Every call verify_hankel makes on the default grid: condensation
    equals the matrix reference, value and degeneracy, and degenerates
    exactly on the r = 0 polynomial cells with n >= 3, where H_2 = 0."""
    calls, degenerate = 0, set()
    for n in range(ORACLE_CAP):
        for spec in verify._closed_form_specs(verify.Grid()):
            seq = egf_values(spec, 2 * n + 1)
            got = det_condensation(seq, n)
            assert got == _matrix_condensation(hankel_matrix(seq, n)), (spec, n)
            assert got in (None, closed_form(spec, n))
            calls += 1
            if got is None:
                degenerate.add((spec, n))
    assert calls == 270 and len(degenerate) == 30
    assert {(spec.family, spec.r) for spec, n in degenerate} == {
        (Family.GENERALIZED, 0), (Family.ORDER_R_POLY, 0)}
    assert {n for spec, n in degenerate} == {3, 4, 5}


def _per_order(seq, n):
    """Each route's determinant of order n + 1 from its own call on
    seq[0..2n]: Bareiss, J-fraction, and up to ORACLE_CAP condensation
    (None when it degenerates) and cofactor."""
    oracles = n < ORACLE_CAP
    return (det_bareiss(seq, n), det_jfraction(seq, n).minors[-1],
            det_condensation(seq, n) if oracles else None,
            det_cofactor(hankel_matrix(seq, n)) if oracles else None)


@pytest.mark.parametrize("n_max", [verify.Grid().n_max, 28])
def test_every_chain_entry_is_its_own_per_order_call(n_max, monkeypatch):
    """On the default and the --nmax 28 grids, each route's chain of
    leading minors, as hankel_reports reads it, equals the route's call for
    that order alone, value and None alike. The ten r = 0 specs are rank
    one: their elimination meets a zero pivot on a zero row at order 2, so
    every later entry of their chains is an exact 0 with no row swap, and
    per-order Bareiss never runs. Condensation degenerates on the 30 cells
    that test_condensation_on_the_default_grid pins."""
    fallbacks = []
    real = hankel.det_bareiss
    monkeypatch.setattr(hankel, "det_bareiss",
                        lambda seq, n: fallbacks.append(n) or real(seq, n))
    specs = list(verify._closed_form_specs(verify.Grid(n_max=n_max)))
    chains = {spec: hankel_reports(spec, n_max) for spec in specs}
    assert len(specs) == 45 and fallbacks == []
    monkeypatch.undo()
    degenerate = set()
    for spec, chain in chains.items():
        seq = egf_values(spec, 2 * n_max + 1)
        for n, rep in enumerate(chain):
            got = (rep.det_bareiss, rep.det_jfraction, rep.det_condensation,
                   rep.det_cofactor)
            assert got == _per_order(seq, n), (spec, n)
            assert rep.n == n and rep.closed_form == closed_form(spec, n)
            assert rep.verdict == "pass", (spec, n)
            if n_max < ORACLE_CAP + 1:
                assert rep == verify_hankel(spec, n), (spec, n)
            if n < ORACLE_CAP and rep.det_condensation is None:
                degenerate.add((spec, n))
    assert len(degenerate) == 30
    assert {(spec.r, n) for spec, n in degenerate} == {
        (0, n) for n in (3, 4, 5)}


@given(_hankel_sequence())
@example((3, [F(1), F(1), F(2), F(0), F(5), F(1), F(1)]))  # H_1^(3) = 0
@example((2, [F(0), F(1), F(0), F(0), F(1)]))  # H_1^(2) = 0 divides
@example((3, [F(1)] * 7))                       # rank one
@settings(max_examples=200, deadline=None)
def test_chains_match_the_references_order_by_order(case):
    """Every order of each chain against the test's matrix references; a
    zero divisor marks only the condensation minors that read it, so H_2
    of the first example is a value although a minor of its level reads
    a_3 = 0."""
    n, seq = case
    bareiss, jfraction = bareiss_minors(seq, n), det_jfraction(seq, n)
    cond = condensation_minors(seq, n)
    cof = cofactor_minors(hankel_matrix(seq[2 * n::-1], n))  # index-reversed
    assert len(bareiss) == len(jfraction.minors) == len(cond) == len(cof) == n + 1
    for k in range(n + 1):
        h = hankel_matrix(seq, k)
        assert cond[k] == _matrix_condensation(h) == det_condensation(seq, k)
        assert bareiss[k] == cof[k] == _matrix_bareiss(h) == det_cofactor(h)
        assert bareiss_minors(seq, n, k) == bareiss[k:]
    for lo in (-1, n + 1):
        with pytest.raises(DerangeDomainError, match="^need 0 <= lo <= "):
            bareiss_minors(seq, n, lo)
        assert jfraction.minors[k] == det_jfraction(seq, k).minors[-1]


def test_suites_make_one_route_call_per_spec(monkeypatch):
    """The hankel suite runs each route once per family spec (45, the
    factorials among them); the derivative suite runs one chain per (r, z)
    (12). Per-order Bareiss runs only after a row swap, and no spec of the
    default grid makes one: the r = 0 specs' zero pivot sits on a zero row."""
    calls = dict.fromkeys(("hankel_reports", "bareiss_minors", "det_bareiss",
                           "det_jfraction", "condensation_minors",
                           "cofactor_minors", "derivative_hankel_chain"), 0)

    def counted(name):
        real = getattr(hankel, name)

        def call(*args):
            calls[name] += 1
            return real(*args)
        return call

    for name in calls:
        monkeypatch.setattr(hankel, name, counted(name))
    verify.suite_hankel(verify.Grid())
    verify.suite_derivative_hankel(verify.Grid())
    assert calls == {"hankel_reports": 45, "bareiss_minors": 45 + 12,
                     "det_bareiss": 0, "det_jfraction": 45,
                     "condensation_minors": 45, "cofactor_minors": 45,
                     "derivative_hankel_chain": 12}


DEPTH_SPECS = {
    "classic": FamilySpec(Family.CLASSIC),
    "generalized": FamilySpec(Family.GENERALIZED, 4, F(-11, 13)),
    "order-r-poly": FamilySpec(Family.ORDER_R_POLY, 4, F(-11, 13)),
    "cyclic": FamilySpec(Family.CYCLIC, 4),
}


@pytest.mark.parametrize("family", sorted(DEPTH_SPECS))
def test_jfraction_matches_bareiss_at_depth(family):
    spec = DEPTH_SPECS[family]
    seq = egf_values(spec, 65)
    for n in (0, 1, 2, 5, 11, 20, 32):
        got = det_jfraction(seq, n)
        assert got.minors[-1] == det_bareiss(seq, n), n
        assert (got.b, got.lam) == hankel.jfraction_closed_form(spec, n), n


@pytest.mark.parametrize("r", range(5))
def test_order_r_numbers_have_the_order_d_closed_form(r):
    # EGF shape (-1, 1, r, 0): the order-r polynomials at x = -1
    spec = FamilySpec(Family.ORDER_R_NUMBERS, r)
    seq = egf_values(spec, 65)
    for n in [*range(13), 32]:
        want = closed_form_chain(n, r, 1)[-1]
        rep = verify_hankel(spec, n)
        assert rep.verdict == "pass", n
        assert rep.closed_form == rep.det_bareiss == want, n
        dets = [rep.det_jfraction]
        if n + 1 <= ORACLE_CAP:
            dets += [rep.det_condensation, rep.det_cofactor]
        for det in dets:  # r = 0 makes H_2 = 0, so two routes degenerate
            assert det == want or (r == 0 and det is None), n
        got = det_jfraction(seq, n)
        assert (got.b, got.lam) == hankel.jfraction_closed_form(spec, n), n


def test_jfraction_suite_names_the_broken_k(monkeypatch, capsys):
    real = hankel.jfraction_closed_form

    def mutated(spec, n):  # lambda_3 off by a factor of 2
        b, lam = real(spec, n)
        return b, tuple(2 * v if k == 3 else v for k, v in enumerate(lam, 1))

    assert all(c.verdict == "pass" for c in verify.suite_jfraction(verify.Grid()))
    monkeypatch.setattr(hankel, "jfraction_closed_form", mutated)
    cells = verify.suite_jfraction(verify.Grid())
    failed = [c.params for c in cells if c.verdict == "fail"]
    reaching = [c for c in cells if c.params["coefficient"] == "lambda"
                and c.params["k"] == "3"]
    assert failed and len(failed) == len(reaching)
    assert {(p["coefficient"], p["k"]) for p in failed} == {("lambda", "3")}
    assert main(["verify", "--suite", "jfraction", "--nmax", "4"]) == 1
    out = capsys.readouterr().out
    fails = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert fails and all("coefficient=lambda k=3 " in line for line in fails)


def test_jfraction_suite_fails_a_fraction_that_ends_early(monkeypatch):
    real = hankel.det_jfraction

    def cut(seq, n):
        got = real(seq, n)
        return got._replace(b=got.b[:2], lam=got.lam[:2])

    monkeypatch.setattr(hankel, "det_jfraction", cut)
    cells = verify.suite_jfraction(verify.Grid(n_max=4))
    failed = [c for c in cells if c.verdict == "fail"]
    assert failed and all(c.actual == "ended" for c in failed)
    assert {int(c.params["k"]) for c in failed} == {2, 3, 4}


class TestClosedForms:
    def test_generalized_base_cases(self):
        assert closed_form_chain(1, 1, F(5)) == [1, 25]
        assert closed_form_chain(1, 2, F(5)) == [1, 50]
        assert closed_form_chain(0, 3, F(7, 2)) == [1]

    def test_generalized_2x2_by_hand(self):
        for r, z in [(1, F(3)), (2, F(-1, 2))]:
            seq = [1,
                   1 + r * z,
                   1 + 2 * r * z + r * (r + 1) * z * z]
            det = det_cofactor(hankel_matrix(seq, 1))
            assert det == closed_form_chain(1, r, z)[-1]

    def test_order_d_values(self):
        assert closed_form(FamilySpec(Family.ORDER_R_NUMBERS, 4), 0) == 1
        assert closed_form(FamilySpec(Family.ORDER_R_NUMBERS, 2), 1) == 2
        assert closed_form(FamilySpec(Family.ORDER_R_NUMBERS, 1), 2) == 4

    def test_cyclic_values(self):
        assert closed_form(FamilySpec(Family.CYCLIC, 3), 0) == 1
        assert closed_form(FamilySpec(Family.CYCLIC, 2), 1) == 4
        assert closed_form(FamilySpec(Family.CYCLIC, 2), 2) == 256

    def test_classic_values(self):
        classic = FamilySpec(Family.CLASSIC)
        assert closed_form(classic, 0) == 1
        assert closed_form(classic, 2) == 4
        assert closed_form(classic, 3) == (1 * 2 * 6) ** 2

    def test_cyclic_3x3_matches_matrix(self):
        assert det_bareiss([1, 1, 5, 29, 233], 2) == 256

    def test_specialisations_keep_their_products(self):
        # each family's closed form, read from its EGF shape, as a product
        # of its own, as the paper states it
        for n in range(11):
            facts = 1
            for k in range(1, n + 1):
                facts *= factorial(k)
            assert closed_form(FamilySpec(Family.CLASSIC), n) == facts ** 2
            for r in range(5):
                tail = rising_factorial(r, n)
                for k in range(1, n + 1):
                    tail *= rising_factorial(r, k - 1) * factorial(k)
                assert closed_form(FamilySpec(Family.ORDER_R_NUMBERS, r), n) == tail
                assert closed_form(
                    FamilySpec(Family.ORDER_R_POLY, r, F(-3, 5)), n) == tail
                assert closed_form_chain(n, r, F(-3, 5))[-1] == (
                    F(-3, 5) ** (n * (n + 1)) * tail)
                if r >= 1:
                    assert closed_form(FamilySpec(Family.CYCLIC, r), n) == (
                        r ** (n * (n + 1)) * facts ** 2)


def _last_minor_seven(got):
    """A J-fraction result whose determinant, its last leading minor, is 7."""
    return got._replace(minors=got.minors[:-1] + (F(7),))


class TestVerifyHankel:
    def test_classic(self):
        rep = verify_hankel(FamilySpec(Family.CLASSIC), 2)
        assert rep.verdict == "pass"
        assert rep.det_bareiss == 4

    def test_cyclic(self):
        rep = verify_hankel(FamilySpec(Family.CYCLIC, 3), 2)
        assert rep.verdict == "pass"
        assert rep.det_bareiss == 3 ** 6 * 4

    def test_generalized_degenerate_r_zero(self):
        rep = verify_hankel(FamilySpec(Family.GENERALIZED, 0, F(3)), 2)
        assert rep.verdict == "pass"
        assert rep.det_bareiss == 0

    def test_cofactor_skipped_above_cap(self):
        rep = verify_hankel(FamilySpec(Family.CLASSIC), 6)
        assert rep.det_cofactor is None
        assert rep.verdict == "pass"

    def test_no_matrix_is_built_above_the_cap(self, monkeypatch):
        def refuse(seq, n):
            raise AssertionError("hankel_matrix called")

        monkeypatch.setattr(hankel, "hankel_matrix", refuse)
        rep = verify_hankel(FamilySpec(Family.GENERALIZED, 2, F(-3, 5)), ORACLE_CAP)
        assert rep.verdict == "pass" and rep.det_cofactor is None
        with pytest.raises(AssertionError):
            verify_hankel(FamilySpec(Family.CLASSIC), ORACLE_CAP - 1)

    def test_oracles_run_up_to_the_cap(self):
        spec = FamilySpec(Family.GENERALIZED, 2, F(-3, 5))
        head = {"family": "generalized", "r": "2", "x": "-3/5"}
        rep = verify_hankel(spec, ORACLE_CAP - 1)
        assert (rep.det_jfraction == rep.det_condensation == rep.det_cofactor
                == rep.det_bareiss == rep.closed_form)
        closed = str(rep.closed_form)
        assert rep.cell().params == {
            **head, "n": str(ORACLE_CAP - 1), "jfraction": closed,
            "condensation": closed, "cofactor": closed}
        rep = verify_hankel(spec, ORACLE_CAP)
        assert rep.det_condensation is None and rep.det_cofactor is None
        assert rep.det_jfraction == rep.det_bareiss == rep.closed_form
        cell = rep.cell()
        assert cell.params == {**head, "n": str(ORACLE_CAP),
                               "jfraction": str(rep.closed_form),
                               "condensation": "n/a", "cofactor": "n/a"}
        assert cell.expected == cell.actual == str(rep.closed_form)
        assert cell.verdict == "pass"
        assert list(cell.params) == ["family", "n", "r", "x", "jfraction",
                                     "condensation", "cofactor"]

    def test_a_wrong_jfraction_determinant_fails_the_cell(self, monkeypatch):
        real = hankel.det_jfraction
        monkeypatch.setattr(hankel, "det_jfraction",
                            lambda seq, n: _last_minor_seven(real(seq, n)))
        rep = verify_hankel(FamilySpec(Family.CYCLIC, 2), 8)
        assert rep.verdict == "fail" and rep.det_bareiss == rep.closed_form

    def test_a_failed_cell_says_which_oracles_ran(self, monkeypatch):
        real = hankel.det_jfraction
        monkeypatch.setattr(hankel, "det_jfraction",
                            lambda seq, n: _last_minor_seven(real(seq, n)))
        cell = verify_hankel(FamilySpec(Family.CYCLIC, 2), 6).cell()
        assert cell.verdict == "fail" and cell.actual == cell.expected
        assert cell.params == {"family": "cyclic", "n": "6", "r": "2",
                               "jfraction": "7", "condensation": "n/a",
                               "cofactor": "n/a"}
        # r = 0: H_2 = 0, so condensation degenerates and cofactor reads 0;
        # Bareiss stays the cell's actual value
        cell = verify_hankel(FamilySpec(Family.GENERALIZED, 0, F(2)), 3).cell()
        assert cell.verdict == "fail"
        assert cell.expected == cell.actual == "0"
        assert cell.params == {"family": "generalized", "n": "3", "r": "0",
                               "x": "2", "jfraction": "7",
                               "condensation": "degenerate", "cofactor": "0"}

    def test_no_closed_form(self):
        with pytest.raises(
                DerangeDomainError,
                match=r"^no Hankel closed form for family r-derangement$"):
            verify_hankel(FamilySpec(Family.R_DERANGEMENT_NUMBERS, 2), 2)


def _route_status(capsys):
    """How often `verify --suite all --format json` shows each route as
    degenerate or n/a, and its exit code."""
    code = main(["verify", "--suite", "all", "--format", "json"])
    cells = json.loads(capsys.readouterr().out)["cells"]
    return code, Counter(
        (name, value) for cell in cells for name, value in cell["params"].items()
        if name in ("jfraction", "condensation", "cofactor")
        and value in ("degenerate", "n/a"))


def test_the_verify_report_shows_each_route_status(capsys):
    """On the default grid the ten r = 0 specs have H_1 = 0, so the
    J-fraction degenerates at their orders 2..6 (50 cells) and condensation
    at 3..5 (30); at n = 6 neither oracle runs (45 cells each)."""
    assert _route_status(capsys) == (0, {
        ("jfraction", "degenerate"): 50, ("condensation", "degenerate"): 30,
        ("condensation", "n/a"): 45, ("cofactor", "n/a"): 45})


def test_a_condensation_that_always_degenerates_changes_the_report(
        capsys, monkeypatch):
    """A route with no value is left out of the verdict, so the cells still
    pass; the report shows it on every cell where it ran (45 specs times
    ORACLE_CAP orders)."""
    monkeypatch.setattr(hankel, "condensation_minors",
                        lambda seq, n: [None] * (n + 1))
    code, status = _route_status(capsys)
    assert code == 0
    assert status[("condensation", "degenerate")] == 45 * ORACLE_CAP
    assert status[("condensation", "n/a")] == 45


def test_each_hankel_suite_cell_is_its_reports_cell():
    """suite_hankel's cells are the cells of the per-order reports, param
    for param, in grid order."""
    grid = verify.Grid()
    got = verify.suite_hankel(grid)
    want = [verify_hankel(spec, n).cell() for n in range(grid.n_max + 1)
            for spec in verify._closed_form_specs(grid)]
    assert len(got) == len(want) == 45 * (grid.n_max + 1)
    for have, cell in zip(got, want):
        assert vars(have) == vars(cell), cell.params


FACTORIALS = FamilySpec(Family.ORDER_R_POLY, 1, 0)


def _factorial_cells(cells):
    return [cell for cell in cells
            if cell.params["family"] == "order-r-poly"
            and cell.params["x"] == "0"]


def test_the_factorials_have_classics_hankel_determinants():
    """Order-r-poly at (r, x) = (1, 0) is the factorials of the paper's
    remark, the spec after classic; each of its hankel suite cells has
    classic's closed form, and every route that ran gave a number."""
    grid = verify.Grid()
    assert list(verify._closed_form_specs(grid))[:2] == [
        FamilySpec(Family.CLASSIC), FACTORIALS]
    assert egf_values(FACTORIALS, 2 * grid.n_max + 1) == [
        factorial(k) for k in range(2 * grid.n_max + 1)]
    cells = _factorial_cells(verify.suite_hankel(grid))
    assert [cell.params["n"] for cell in cells] == [
        str(n) for n in range(grid.n_max + 1)]
    for n, cell in enumerate(cells):
        closed = str(closed_form(FamilySpec(Family.CLASSIC), n))
        assert cell.verdict == "pass" and cell.expected == cell.actual == closed
        assert cell.params["jfraction"] == closed
        for route in ("condensation", "cofactor"):
            assert cell.params[route] == (closed if n < ORACLE_CAP else "n/a")


def test_the_factorials_jfraction_is_laguerres():
    """The factorials' J-fraction cells read b_k = 2k+1, lambda_k = k^2."""
    grid = verify.Grid()
    cells = _factorial_cells(verify.suite_jfraction(grid))
    assert [(c.params["coefficient"], c.params["k"], c.actual)
            for c in cells] == (
        [("b", str(k), str(2 * k + 1)) for k in range(grid.n_max)]
        + [("lambda", str(k), str(k * k)) for k in range(1, grid.n_max + 1)])
    assert all(c.verdict == "pass" and c.expected == c.actual for c in cells)


def test_factorial_hankel():
    assert bareiss_minors([factorial(k) for k in range(5)], 2) == [1, 1, 4]
    m = hankel_matrix([factorial(k) for k in range(5)], 2)
    assert m == [[1, 1, 2], [1, 2, 6], [2, 6, 24]]


class TestReducedDerivative:
    def test_zeroth(self):
        for r in range(4):
            for z in (F(0), F(1, 2), F(-1)):
                assert reduced_derivative(0, r, z) == (1 - z) ** -r

    def test_small_values(self):
        assert reduced_derivative(1, 1, 0) == 2
        assert reduced_derivative(2, 1, F(1, 2)) == 26

    def test_pole(self):
        with pytest.raises(DerangeDomainError, match=r"^z = 1 is a pole$"):
            reduced_derivative(3, 2, 1)


def _recentered_series(r, z, order):
    """Independent Taylor-recentering oracle: m-th derivative of e^z/(1-z)^r,
    stripped of e^z, via the h-expansion of e^h / (1 - z - h)^r built from
    the plain geometric series, powered by repeated multiplication."""
    c = 1 / (1 - F(z))
    geom = tuple(c ** (k + 1) for k in range(order + 1))
    power = (F(1),) + (F(0),) * order
    for _ in range(r):
        power = series_mul(power, geom)
    return series_mul(series_exp(1, order), power)


def test_reduced_derivative_matches_recentering_oracle():
    for r in range(4):
        for z in (F(0), F(1, 2), F(-1)):
            s = _recentered_series(r, z, 8)
            for m in range(9):
                assert reduced_derivative(m, r, z) == factorial(m) * s[m], (m, r, z)


class TestDerivativeHankel:
    def test_single_entry(self):
        for r in range(4):
            for z in (F(0), F(1, 2), F(-1), F(2)):
                det, closed = verify_derivative_hankel(1, r, z)
                assert det == closed == (1 - z) ** -r

    def test_2x2_at_origin(self):
        det, closed = verify_derivative_hankel(2, 1, 0)
        assert det == closed == 1  # det [[1,2],[2,5]]

    def test_grid(self):
        # the paper's form: Pi rising(r,k) k! / ((z-1)^{(n-1)n} (1-z)^{rn})
        for r in (1, 2, 3):
            for z in (F(0), F(1, 2), F(-1), F(2)):
                for n in range(1, 7):
                    paper = F(1)
                    for k in range(1, n):
                        paper *= rising_factorial(r, k) * factorial(k)
                    paper /= (z - 1) ** ((n - 1) * n) * (1 - z) ** (r * n)
                    assert verify_derivative_hankel(n, r, z) == (paper, paper)

    def test_shared_derivatives_give_each_size_its_own_values(self):
        # the suite makes one chain per (r, z), from g_0..g_10, for n <= 6
        for r in (1, 2, 3):
            for z in (F(0), F(1, 2), F(-1), F(2)):
                chain = derivative_hankel_chain(6, r, z)
                assert len(chain) == 6
                for n in range(1, 7):
                    g = [reduced_derivative(m, r, z) for m in range(2 * n - 1)]
                    assert chain[n - 1] == verify_derivative_hankel(n, r, z)
                    assert chain[n - 1][0] == det_bareiss(g, n - 1)

    def test_consistency_with_generalized_closed_form(self):
        for r in (1, 2, 3):
            for z in (F(0), F(1, 2), F(-1), F(2)):
                for n in range(1, 6):
                    det, _ = verify_derivative_hankel(n, r, z)
                    expected = closed_form_chain(n - 1, r, 1 / (1 - z))[-1]
                    expected /= (1 - z) ** (n * r)
                    assert det == expected

    def test_pole(self):
        with pytest.raises(DerangeDomainError, match=r"^z = 1 is a pole$"):
            verify_derivative_hankel(3, 1, 1)


def test_verify_hankel_paper_grid_sample():
    # a slice of the main closed-form grid; the full sweep is acceptance
    for r in range(4):
        for z in (F(1), F(-1), F(1, 2)):
            for n in range(5):
                rep = verify_hankel(FamilySpec(Family.GENERALIZED, r, z), n)
                assert rep.verdict == "pass", (r, z, n)
                rep = verify_hankel(FamilySpec(Family.ORDER_R_POLY, r, z), n)
                assert rep.verdict == "pass", (r, z, n)
