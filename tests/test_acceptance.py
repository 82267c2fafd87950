"""Acceptance gate: each test sweeps one criterion's full grid at its exact
(or 6-standard-error) tolerance and prints a one-line verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they pass.
"""

import json
import math
from fractions import Fraction as F

import pytest

from derange import cli, oracle, stochastic, verify
from derange.exact import factorial, rising_factorial
from derange.hankel import (
    closed_form,
    closed_form_chain,
    det_bareiss,
    det_cofactor,
    det_condensation,
    hankel_matrix,
    reduced_derivatives,
    verify_derivative_hankel,
    verify_hankel,
)
from derange.polys import (
    eval_poly,
    generalized_D_poly,
    generate_D_by_convolution,
    generate_d_by_convolution,
    order_d_poly,
    verify_shift_recurrences,
)
from derange.series import Family, FamilySpec, egf_values
from derange.stochastic import mc_generalized_D, mc_moment

XS = [F(-1), F(1), F(2), F(1, 2), F(-3, 5)]


def report(num, text):
    print(f"criterion {num:2d} PASS: {text}")


def test_criterion_01_paper_values():
    assert egf_values(FamilySpec(Family.CLASSIC), 5) == [1, 0, 1, 2, 9]
    D = [1, 0]  # D_n = (n-1)(D_{n-1} + D_{n-2})
    for n in range(2, 10):
        D.append((n - 1) * (D[-1] + D[-2]))
    classic = egf_values(FamilySpec(Family.CLASSIC), 10)
    for n in range(10):
        assert oracle.count_derangements_brute(n) == D[n] == classic[n]
    report(1, "classic derangement values 1,0,1,2,9 and brute agreement n<=9")


def test_criterion_02_three_path_equivalence():
    cells = 0
    for r in range(6):
        for x in XS:
            egf_D = egf_values(FamilySpec(Family.GENERALIZED, r, x), 41)
            conv_D = generate_D_by_convolution(r, x, 41)
            egf_d = egf_values(FamilySpec(Family.ORDER_R_POLY, r, x), 41)
            conv_d = generate_d_by_convolution(r, x, 41)
            for n in range(41):
                expl_D = eval_poly(generalized_D_poly(n, r), x)
                expl_d = eval_poly(order_d_poly(n, r), x)
                assert expl_D == egf_D[n] == conv_D[n], (n, r, x)
                assert expl_d == egf_d[n] == conv_d[n], (n, r, x)
                cells += 2
    assert cells >= 1200
    report(2, f"explicit = EGF = convolution over {cells} cells, exact")


def test_criterion_03_shift_recurrences():
    checked, failures = verify_shift_recurrences(30, 5)
    assert not failures, failures[:3]
    report(3, f"both shift recurrences exact over {checked} checks")


def test_criterion_04_reflection():
    checked = 0
    for r in range(6):
        for n in range(31):
            D = generalized_D_poly(n, r)
            d = order_d_poly(n, r)
            for x in XS:
                assert x ** n * eval_poly(D, 1 / x) == eval_poly(d, x)
                checked += 1
    report(4, f"reflection identity exact over {checked} cells (x != 0)")


def test_criterion_05_generalized_hankel():
    for r in range(4):
        for z in XS:
            seq = egf_values(FamilySpec(Family.GENERALIZED, r, z), 17)
            for n, closed in enumerate(closed_form_chain(8, r, z)):
                assert det_bareiss(seq, n) == closed, (n, r, z)
                assert det_condensation(seq, n) in (None, closed)
                if n <= 5:
                    assert det_cofactor(hankel_matrix(seq, n)) == closed
    report(5, "generalized-polynomial Hankel closed form, n<=8, r<=3, 5 z values")


def test_criterion_06_order_d_z_independence():
    for r in range(4):
        for n in range(7):
            closed = closed_form(FamilySpec(Family.ORDER_R_NUMBERS, r), n)
            dets = set()
            for z in XS:
                seq = egf_values(FamilySpec(Family.ORDER_R_POLY, r, z), 13)
                dets.add(det_bareiss(seq, n))
            assert dets == {closed}, (n, r)
    report(6, "order-r polynomial Hankel determinant z-independent and exact")


def test_criterion_07_remark_identity():
    classic = egf_values(FamilySpec(Family.CLASSIC), 17)
    factorials = [factorial(k) for k in range(17)]
    for n in range(9):
        closed = closed_form(FamilySpec(Family.CLASSIC), n)
        assert det_bareiss(factorials, n) == closed
        assert det_bareiss(classic, n) == closed
    report(7, "det((i+j)!) = det(D_{i+j}) = (prod k!)^2 for n <= 8")


def test_criterion_08_cyclic():
    for r in (1, 2, 3):
        seq = egf_values(FamilySpec(Family.CYCLIC, r), 13)
        for n in range(7):
            assert det_bareiss(seq, n) == closed_form(
                FamilySpec(Family.CYCLIC, r), n)
        for n in range(7):
            if r ** n * factorial(n) > 10 ** 7:
                continue
            assert oracle.count_cyclic_derangements_brute(n, r) == seq[n]
    report(8, "cyclic Hankel closed form and wreath-product brute counts")


def test_criterion_09_derivative_hankel():
    for r in (1, 2, 3):
        for z in (F(0), F(1, 2), F(-1), F(2)):
            for n in range(1, 7):
                rep = verify_derivative_hankel(n, r, z)
                assert rep.verdict == "pass", (n, r, z)
                assert rep.det_bareiss == rep.closed_form, (n, r, z)
    from test_hankel import _recentered_series
    for r in (1, 2, 3):
        for z in (F(0), F(1, 2), F(-1)):
            s = _recentered_series(r, z, 8)
            assert reduced_derivatives(9, r, z) == [
                factorial(m) * s[m] for m in range(9)]
    report(9, "derivative Hankel identity and Taylor-recentering oracle, exact")


def test_criterion_10_moment_series_identity():
    grid = verify.Grid(r_max=5)
    cells = verify.suite_mgf(grid)
    assert all(c.verdict == "pass" for c in cells)
    report(10, f"e^z/(1-xz)^r EGF identity coefficient-wise, {len(cells)} cells")


def test_criterion_11_stochastic_layer():
    for r in range(1, 6):
        for k in range(7):
            est = mc_moment(r, k, 10 ** 6, 42)
            target = rising_factorial(r, k)
            assert stochastic.zscore_gate(est, target)[1], (r, k)
    for n in range(5):
        for r in (1, 2, 3):
            for x in (F(1), F(-1), F(1, 2)):
                est = mc_generalized_D(n, r, x, 10 ** 6, 42)
                target = eval_poly(generalized_D_poly(n, r), x)
                assert stochastic.zscore_gate(est, target)[1], (n, r, x)
    report(11, "seed-42 Monte Carlo within 6 stderr on every grid cell")


def test_criterion_12_cli_contract(capsys):
    assert cli.main(["seq", "--family", "classic", "--count", "5"]) == 0
    assert cli.main(["hankel", "--family", "cyclic", "--r", "2", "--n", "2"]) == 0
    assert cli.main(["seq", "--family", "bogus", "--count", "1"]) == 2
    assert cli.main(["mc", "--r", "2"]) == 2
    capsys.readouterr()
    assert cli.main(["verify", "--suite", "oracles", "--nmax", "4",
                     "--format", "json"]) == 0
    out = capsys.readouterr().out
    parsed = json.loads(out)
    assert json.dumps(parsed, indent=2) + "\n" == out
    report(12, "exit codes 0/2 and byte-stable JSON on canned invocations")
