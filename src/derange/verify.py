"""Verification suites over parameter grids, feeding the CLI reports.

Each suite walks its grid, compares two independently computed exact
values per cell, and emits one Cell per comparison.  A failed identity is
a "fail" cell, never an exception.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional

from . import exact, hankel, oracle, polys, series
from .exact import DerangeDomainError
from .series import Family, FamilySpec

DEFAULT_POINTS = (Fraction(1), Fraction(-1), Fraction(2),
                  Fraction(1, 2), Fraction(-3, 5))
SERIES_ORDER = 20


@dataclass(frozen=True)
class Grid:
    """Default desk-scale grid; every suite reads the slice it needs."""

    n_max: int = 6
    r_max: int = 3
    points: tuple = DEFAULT_POINTS
    deriv_z: tuple = (Fraction(0), Fraction(1, 2), Fraction(-1), Fraction(2))

    def __post_init__(self):
        if min(self.n_max, self.r_max) < 0:
            raise DerangeDomainError("grid needs n_max, r_max >= 0")
        if not self.points or not self.deriv_z:
            raise DerangeDomainError("grid needs at least one x and one z point")


@dataclass
class Cell:
    params: Dict[str, str]
    expected: str
    actual: str
    verdict: str  # "pass" | "fail" | "skipped"


def _cell(params, expected, actual) -> Cell:
    verdict = "pass" if expected == actual else "fail"
    return Cell({k: str(v) for k, v in params.items()},
                str(expected), str(actual), verdict)


def suite_recurrences(grid: Grid) -> List[Cell]:
    """Shift recurrences plus the three-path equivalence (explicit = EGF =
    convolution) for both polynomial families."""
    cells = []
    rep = polys.verify_shift_recurrences(grid.n_max, grid.r_max, grid.points)
    cells.append(_cell(
        {"identity": "shift-recurrences", "n_max": grid.n_max,
         "r_max": grid.r_max},
        f"0 failures of {rep.checked}",
        f"{len(rep.failures)} failures of {rep.checked}"))
    count = grid.n_max + 1
    for r in range(grid.r_max + 1):
        for x in grid.points:
            egf_D = series.egf_values(FamilySpec(Family.GENERALIZED, r, x), count)
            conv_D = polys.generate_D_by_convolution(r, x, count)
            egf_d = series.egf_values(FamilySpec(Family.ORDER_R_POLY, r, x), count)
            conv_d = polys.generate_d_by_convolution(r, x, count)
            for n in range(count):
                expl = polys.eval_poly(polys.generalized_D_poly(n, r), x)
                cells.append(_cell(
                    {"identity": "three-path-D", "n": n, "r": r, "x": x},
                    expl, egf_D[n]))
                cells.append(_cell(
                    {"identity": "three-path-D", "n": n, "r": r, "x": x,
                     "path": "convolution"},
                    expl, conv_D[n]))
                expl = polys.eval_poly(polys.order_d_poly(n, r), x)
                cells.append(_cell(
                    {"identity": "three-path-d", "n": n, "r": r, "x": x},
                    expl, egf_d[n]))
                cells.append(_cell(
                    {"identity": "three-path-d", "n": n, "r": r, "x": x,
                     "path": "convolution"},
                    expl, conv_d[n]))
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
                cells.append(_cell(
                    {"identity": "reflection", "n": n, "r": r, "x": x},
                    polys.eval_poly(d, x), lhs))
    return cells


def spec_params(spec: FamilySpec) -> Dict[str, str]:
    """The r and x of a family spec, as report parameters, when it has them."""
    return {k: str(v) for k, v in (("r", spec.r), ("x", spec.x)) if v is not None}


def _hankel_cell(spec: FamilySpec, n: int) -> Cell:
    rep = hankel.verify_hankel(spec, n)
    params = {"family": spec.family.value, "n": str(n), **spec_params(spec)}
    actual = str(rep.det_bareiss) if rep.verdict == "pass" else " ".join(
        f"{name}={det}" for name, det in
        {"bareiss": rep.det_bareiss, **rep.shown_dets()}.items())
    return Cell(params, str(rep.closed_form), actual, rep.verdict)


def _closed_form_specs(grid: Grid):
    """Every family spec of the grid whose Hankel determinant has a closed form."""
    yield FamilySpec(Family.CLASSIC)
    for r in range(grid.r_max + 1):
        for x in grid.points:
            yield FamilySpec(Family.GENERALIZED, r, x)
            yield FamilySpec(Family.ORDER_R_POLY, r, x)
        if r >= 1:
            yield FamilySpec(Family.CYCLIC, r)


def suite_hankel(grid: Grid) -> List[Cell]:
    """Closed-form Hankel determinants for every family that has one, plus
    the factorial-matrix identity beside the classic family."""
    cells = []
    for n in range(grid.n_max + 1):
        for spec in _closed_form_specs(grid):
            cells.append(_hankel_cell(spec, n))
            if spec.family is Family.CLASSIC:
                cells.append(_cell(
                    {"family": "factorial", "n": n},
                    Fraction(hankel.closed_form_classic(n)),
                    hankel.factorial_hankel_det(n)))
    return cells


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
                cells.append(_cell({**params, "coefficient": name,
                                    "k": i + first}, value, actual))
    return cells


def suite_derivative_hankel(grid: Grid) -> List[Cell]:
    """The e^z-cancelled derivative Hankel identity on the (n, r, z) grid."""
    cells = []
    for r in range(1, grid.r_max + 1):
        for z in grid.deriv_z:
            for n in range(1, grid.n_max + 1):
                rep = hankel.verify_derivative_hankel(n, r, z)
                cells.append(_cell(
                    {"identity": "derivative-hankel", "n": n, "r": r, "z": z},
                    rep.closed_form, rep.det))
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
                cells.append(_cell(
                    {"identity": "mgf-egf", "n": n, "r": r, "x": x}, rhs, lhs))
    return cells


def suite_oracles(grid: Grid) -> List[Cell]:
    """Brute-force enumeration against the formula paths."""
    cells = []
    for n in range(10):
        cells.append(_cell(
            {"oracle": "derangements", "n": n},
            polys.classic_derangement(n), oracle.count_derangements_brute(n)))
    for r in range(1, min(grid.r_max, 4) + 1):
        for n in range(grid.n_max + 1):
            try:
                brute = oracle.count_cyclic_derangements_brute(n, r)
            except oracle.SizeTooLarge:
                cells.append(Cell({"oracle": "cyclic", "n": str(n), "r": str(r)},
                                  "", "", "skipped"))
                continue
            cells.append(_cell(
                {"oracle": "cyclic", "n": n, "r": r},
                polys.cyclic_derangement(n, r), brute))
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
    fns = SUITES.values() if name == "all" else [SUITES[name]]
    cells = [cell for fn in fns for cell in fn(grid)]
    if not cells:
        raise DerangeDomainError(f"suite {name} has no cells on this grid")
    return cells
