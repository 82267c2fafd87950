"""Verification suites over parameter grids, feeding the CLI reports.

Each suite walks its grid, compares two independently computed exact
values per cell, and emits one Cell per comparison.  A failed identity is
a "fail" cell, never an exception, and a cell above an oracle's size cap
is "skipped" by testing the cap, not by catching the oracle's refusal.
Every Hankel cell is `HankelReport.cell`, the one `derange hankel` prints:
Bareiss against the closed form, with every other route's status; the
factorials are one more closed-form spec, not a cell of their own.
"""

from __future__ import annotations

from fractions import Fraction
from math import perm
from typing import List, NamedTuple, Optional

from . import exact, hankel, oracle, polys, series
from .exact import DerangeDomainError, as_text
from .series import Cell, Family, FamilySpec, spec_params

DEFAULT_POINTS = (Fraction(1), Fraction(-1), Fraction(2),
                  Fraction(1, 2), Fraction(-3, 5))
SERIES_ORDER = 20


class Grid(NamedTuple):
    """Default desk-scale grid; every suite reads the slice it needs."""

    n_max: int = 6
    r_max: int = 3
    points: tuple = DEFAULT_POINTS
    deriv_z: tuple = (Fraction(0), Fraction(1, 2), Fraction(-1), Fraction(2))


def _row_anchors(grid: Grid):
    """The spec of each grid point of the order-r, r-derangement and
    r-derangement-poly rows of FAMILY_TABLE, with (q, s, x) such that its
    values are n!/(n-s)! d_{n-s}^{(q)}(x), and 0 for n < s: d_n^{(r)}(-1) for
    the order-r numbers, n!/(n-r)! d_{n-r}^{(r+1)}(x) for the r-derangement
    polynomials, and the same at x = -1 for the r-derangement numbers."""
    for r in range(grid.r_max + 1):
        yield FamilySpec(Family.ORDER_R_NUMBERS, r), r, 0, -1
        if r >= 1:
            yield FamilySpec(Family.R_DERANGEMENT_NUMBERS, r), r + 1, r, -1
            for x in grid.points:
                yield FamilySpec(Family.R_DERANGEMENT_POLY, r, x), r + 1, r, x


def suite_recurrences(grid: Grid) -> List[Cell]:
    """Shift recurrences plus the three-path equivalence (explicit = EGF =
    convolution) for both polynomial families, then each FAMILY_TABLE row
    that no other suite compares with a table-free value against its
    definition from the polynomial families. The shift recurrences are one
    cell, whose actual value names the first five failed checks."""
    cells = []
    checked, failures = polys.verify_shift_recurrences(
        grid.n_max, grid.r_max, grid.points)
    actual = f"{len(failures)} failures of {checked}"
    if failures:
        actual += ": " + ", ".join(f"{identity} n={n} r={r} x={x}"
                                   for identity, n, r, x, _, _ in failures[:5])
    cells.append(Cell(
        {"identity": "shift-recurrences", "n_max": grid.n_max,
         "r_max": grid.r_max},
        f"0 failures of {checked}", actual))
    count = grid.n_max + 1
    for r in range(grid.r_max + 1):
        for x in grid.points:
            paths = (
                ("D", polys.generalized_D_poly,
                 series.egf_values(FamilySpec(Family.GENERALIZED, r, x), count),
                 polys.generate_D_by_convolution(r, x, count)),
                ("d", polys.order_d_poly,
                 series.egf_values(FamilySpec(Family.ORDER_R_POLY, r, x), count),
                 polys.generate_d_by_convolution(r, x, count)))
            for n in range(count):
                for name, poly, egf, conv in paths:
                    expl = polys.eval_poly(poly(n, r), x)
                    params = {"identity": f"three-path-{name}", "n": n, "r": r,
                              "x": x}
                    cells.append(Cell(params, expl, egf[n]))
                    cells.append(Cell({**params, "path": "convolution"},
                                      expl, conv[n]))
    for spec, q, s, x in _row_anchors(grid):
        values = series.egf_values(spec, count)
        for n in range(count):
            want = 0 if n < s else perm(n, s) * polys.eval_poly(
                polys.order_d_poly(n - s, q), x)
            cells.append(Cell({"identity": "family-row",
                               "family": spec.family.value, "n": n,
                               **spec_params(spec)}, want, values[n]))
    return cells


def suite_reflection(grid: Grid) -> List[Cell]:
    """x^n D_n^{(r)}(1/x) = d_n^{(r)}(x), exactly, for grid x != 0."""
    cells = []
    for r in range(grid.r_max + 1):
        for n in range(grid.n_max + 1):
            D = polys.generalized_D_poly(n, r)
            d = polys.order_d_poly(n, r)
            for x in grid.points:
                if x == 0:
                    continue
                lhs = x ** n * polys.eval_poly(D, 1 / x)
                cells.append(Cell(
                    {"identity": "reflection", "n": n, "r": r, "x": x},
                    polys.eval_poly(d, x), lhs))
    return cells


def _closed_form_specs(grid: Grid):
    """Every family spec of the grid whose Hankel determinant has a closed
    form. The second, order-r-poly at (r, x) = (1, 0) with EGF (1-z)^{-1},
    is the factorials n! of the paper's remark, whose Hankel determinants
    are classic's."""
    yield FamilySpec(Family.CLASSIC)
    yield FamilySpec(Family.ORDER_R_POLY, 1, 0)
    for r in range(grid.r_max + 1):
        for x in grid.points:
            yield FamilySpec(Family.GENERALIZED, r, x)
            yield FamilySpec(Family.ORDER_R_POLY, r, x)
        if r >= 1:
            yield FamilySpec(Family.CYCLIC, r)


def suite_hankel(grid: Grid) -> List[Cell]:
    """Closed-form Hankel determinants of every family that has one, from one
    hankel_reports call per spec, each report's own cell. Every spec's top
    closed form is made text first, so one past the digit limit refuses the
    suite before any route runs."""
    specs = list(_closed_form_specs(grid))
    for spec in specs:
        as_text(hankel.closed_form(spec, grid.n_max))
    chains = [hankel.hankel_reports(spec, grid.n_max) for spec in specs]
    return [chain[n].cell() for n in range(grid.n_max + 1) for chain in chains]


def suite_jfraction(grid: Grid) -> List[Cell]:
    """Each J-fraction coefficient that the Chebyshev algorithm computes from
    the 2n+1 Hankel moments (n = n_max), against its closed form read from
    the family's EGF shape; one cell per b_k and per lambda_k, so a failure
    names the k. A computed fraction that ended too early reads "ended"."""
    cells = []
    n = grid.n_max
    for spec in _closed_form_specs(grid):
        got = hankel.det_jfraction(series.egf_values(spec, 2 * n + 1), n)
        want_b, want_lam = hankel.jfraction_closed_form(spec, n)
        params = {"identity": "jfraction", "family": spec.family.value,
                  **spec_params(spec)}
        for name, want, have, first in (("b", want_b, got.b, 0),
                                        ("lambda", want_lam, got.lam, 1)):
            for i, value in enumerate(want):
                actual = have[i] if i < len(have) else "ended"
                cells.append(Cell({**params, "coefficient": name,
                                   "k": i + first}, value, actual))
    return cells


def suite_derivative_hankel(grid: Grid) -> List[Cell]:
    """The e^z-cancelled derivative Hankel identity on the (n, r, z) grid,
    n >= 1; one derivative_hankel_chain call per (r, z) serves every n."""
    cells = []
    if grid.n_max < 1:  # no matrix size on the grid
        return cells
    for r in range(1, grid.r_max + 1):
        for z in grid.deriv_z:
            chain = hankel.derivative_hankel_chain(grid.n_max, r, z)
            for n, (det, closed) in enumerate(chain, 1):
                cells.append(Cell(
                    {"identity": "derivative-hankel", "n": n, "r": r, "z": z},
                    closed, det))
    return cells


def suite_mgf(grid: Grid) -> List[Cell]:
    """Series form of the moment representation: n! [z^n] e^z/(1-xz)^r
    equals the generalized polynomial value, coefficient by coefficient."""
    cells = []
    for r in range(grid.r_max + 1):
        for x in grid.points:
            prod = series.series_mul(series.series_exp(1, SERIES_ORDER),
                                     series.geom_pow(x, r, SERIES_ORDER))
            for n in range(SERIES_ORDER + 1):
                lhs = exact.factorial(n) * prod[n]
                rhs = polys.eval_poly(polys.generalized_D_poly(n, r), x)
                cells.append(Cell(
                    {"identity": "mgf-egf", "n": n, "r": r, "x": x}, rhs, lhs))
    return cells


def suite_oracles(grid: Grid) -> List[Cell]:
    """Brute-force permanents against the values that `egf_values` reads
    from the classic and cyclic rows of FAMILY_TABLE, so a wrong row fails
    here: the derangements up to the oracle's cap, the cyclic counts on the
    grid's n and r, skipped above the cap."""
    cells = []
    count = oracle.ENUMERATION_CAP + 1
    classic = series.egf_values(FamilySpec(Family.CLASSIC), count)
    for n in range(count):
        cells.append(Cell(
            {"oracle": "derangements", "n": n},
            classic[n], oracle.count_derangements_brute(n)))
    for r in range(1, grid.r_max + 1):
        cyclic = series.egf_values(FamilySpec(Family.CYCLIC, r), grid.n_max + 1)
        for n in range(grid.n_max + 1):
            params = {"oracle": "cyclic", "n": n, "r": r}
            if n > oracle.ENUMERATION_CAP:
                cells.append(Cell(params, "", "", "skipped"))
            else:
                cells.append(Cell(params, cyclic[n],
                                  oracle.count_cyclic_derangements_brute(n, r)))
    return cells


SUITES = {
    "recurrences": suite_recurrences,
    "reflection": suite_reflection,
    "hankel": suite_hankel,
    "jfraction": suite_jfraction,
    "derivative-hankel": suite_derivative_hankel,
    "mgf": suite_mgf,
    "oracles": suite_oracles,
}


def run_suite(name: str, grid: Optional[Grid] = None) -> List[Cell]:
    """Cells of one suite, or of every suite for "all"; a run that checks
    nothing on the grid is an error, not a pass."""
    grid = grid or Grid()
    if min(grid.n_max, grid.r_max) < 0:
        raise DerangeDomainError("grid needs n_max, r_max >= 0")
    if not grid.points or not grid.deriv_z:
        raise DerangeDomainError("grid needs at least one x and one z point")
    fns = SUITES.values() if name == "all" else [SUITES[name]]
    cells = [cell for fn in fns for cell in fn(grid)]
    if not cells:
        raise DerangeDomainError(f"suite {name} has no cells on this grid")
    return cells
