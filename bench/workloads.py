"""The three benchmark workloads: seeded inputs, reference values the
harness computes itself, and one checked pass each.

The workload seed picks r, the rational point x = +-p/q and the SplitMix64
seed. p and q are the two 4-bit primes 11 and 13 in either order, so every
seed gives values of the same bit lengths and a pass costs the same work.
Sizes and grids are fixed.

One operation is one CLI command, one exact comparison or one Monte Carlo
estimate; `Tally` counts them and their failures.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import math
import random
from fractions import Fraction

PRIMES = (11, 13)


def draw_inputs(workload: str, seed: int) -> dict:
    rng = random.Random(f"{workload}:{seed}")
    p, q = rng.sample(PRIMES, 2)
    return {"r": rng.choice((2, 3, 4)),
            "x": Fraction(rng.choice((1, -1)) * p, q),
            "mc_seed": rng.getrandbits(64)}


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 10:
                self.messages.append(what)


# Reference values, computed here from their definitions and sharing no
# code with the package.

def rising(r: int, k: int) -> int:
    out = 1
    for i in range(k):
        out *= r + i
    return out


def generalized_value(n: int, r: int, x: Fraction) -> Fraction:
    """sum_k C(n,k) rising(r,k) x^k, in integers over the common q^n."""
    p, q = x.numerator, x.denominator
    num = sum(math.comb(n, k) * rising(r, k) * p ** k * q ** (n - k)
              for k in range(n + 1))
    return Fraction(num, q ** n)


def classic_value(n: int) -> int:
    """Derangements of n: sum_k (-1)^k n!/k!."""
    return sum((-1) ** k * math.perm(n, n - k) for k in range(n + 1))


def _superfactorial(n: int) -> int:
    out = 1
    for k in range(1, n + 1):
        out *= math.factorial(k)
    return out


def hankel_closed_form(family: str, n: int, r: int, x: Fraction) -> Fraction:
    """Order-(n+1) Hankel determinant of each family with a closed form."""
    if family == "classic":
        return Fraction(_superfactorial(n) ** 2)
    if family == "cyclic":
        return Fraction(r ** (n * (n + 1)) * _superfactorial(n) ** 2)
    tail = rising(r, n)
    for k in range(1, n + 1):
        tail *= rising(r, k - 1) * math.factorial(k)
    if family == "order-r-poly":
        return Fraction(tail)
    return x ** (n * (n + 1)) * tail  # generalized


class DeskCli:
    """The README session: five commands, each a fresh process when run
    end to end, or calls of cli.main(argv) when traced."""

    name = "desk-cli"
    imports = ("derange.cli",)

    # cell counts of `verify --suite all` on its default grid: n <= 6,
    # r <= 3, five x points, four derivative z values, series order 20
    VERIFY_CELLS = {
        "recurrences": 1 + 4 * 4 * 5 * 7,
        "reflection": 4 * 7 * 5,
        "hankel": 7 * (1 + 1 + 4 * 5 * 2 + 3),
        "derivative-hankel": 3 * 4 * 6,
        "mgf": 4 * 5 * 21,
        "oracles": 10 + 3 * 7,
    }

    def __init__(self, seed: int):
        inp = draw_inputs(self.name, seed)
        self.r, self.x = inp["r"], inp["x"]
        r, x = str(self.r), str(self.x)
        self.commands = [
            ["seq", "--family", "classic", "--count", "5"],
            # "--x=" form: argparse would read a negative x as an option
            ["seq", "--family", "generalized", "--r", r, f"--x={x}", "--count", "8"],
            ["poly", "--which", "D", "--n", "4", "--r", r],
            ["hankel", "--family", "cyclic", "--r", r, "--n", "3",
             "--format", "json"],
            ["verify", "--suite", "all", "--format", "json"],
        ]
        self._checks = [self._check_classic, self._check_generalized,
                        self._check_poly, self._check_hankel,
                        self._check_verify]
        self.verify_digest = None
        self.cli = None

    def describe(self) -> str:
        return f"r={self.r} x={self.x}"

    def load(self):
        self.cli = importlib.import_module("derange.cli")

    def prepare(self):
        self.expected_classic = [(n, Fraction(classic_value(n))) for n in range(5)]
        self.expected_generalized = [(n, generalized_value(n, self.r, self.x))
                                     for n in range(8)]
        self.expected_poly = [Fraction(math.comb(4, k) * rising(self.r, k))
                              for k in range(5)]
        self.expected_hankel = str(hankel_closed_form("cyclic", 3, self.r, None))

    def check(self, i: int, rc: int, out: str, err: str, tally: Tally) -> None:
        cmd = " ".join(self.commands[i])
        if rc != 0 or "Traceback" in err:
            tally.check(False, f"{cmd}: exit {rc}, stderr {err[-300:]!r}")
            return
        try:
            ok = self._checks[i](out)
        except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
            ok = False
            cmd += f": unparsable output ({exc!r})"
        tally.check(ok, f"{cmd}: wrong output")

    @staticmethod
    def _pairs(out):
        return [(int(n), Fraction(v)) for n, v in
                (line.split() for line in out.splitlines())]

    def _check_classic(self, out):
        return self._pairs(out) == self.expected_classic

    def _check_generalized(self, out):
        return self._pairs(out) == self.expected_generalized

    def _check_poly(self, out):
        return [Fraction(c) for c in out.split()] == self.expected_poly

    def _check_hankel(self, out):
        report = json.loads(out)
        (cell,) = report["cells"]
        return (cell["verdict"] == "pass"
                and cell["expected"] == cell["actual"] == self.expected_hankel
                and cell["params"]["condensation"] == self.expected_hankel
                and cell["params"]["cofactor"] == self.expected_hankel
                and report["summary"] == {"pass": 1, "fail": 0, "skipped": 0})

    @staticmethod
    def _suite_of(params) -> str:
        """The suite a cell came from, by its parameter keys; cells of a
        suite added later count as "other" and need only pass."""
        identity = params.get("identity")
        if identity is not None:
            if identity.startswith(("shift-", "three-path")):
                return "recurrences"
            return {"mgf-egf": "mgf"}.get(identity, identity)
        if "family" in params:
            return "hankel"
        return "oracles" if "oracle" in params else "other"

    def _check_verify(self, out):
        report = json.loads(out)
        report.pop("wall_time_s")
        counts = dict.fromkeys(self.VERIFY_CELLS, 0)
        for cell in report["cells"]:
            suite = self._suite_of(cell["params"])
            if suite in counts:
                counts[suite] += 1
        summary = report["summary"]
        digest = hashlib.sha256(
            json.dumps(report, sort_keys=True).encode()).hexdigest()
        if self.verify_digest is None:
            self.verify_digest = digest
        return (counts == self.VERIFY_CELLS and summary["fail"] == 0
                and summary["pass"] == len(report["cells"])
                and digest == self.verify_digest)

    def run_pass(self, tally: Tally) -> None:
        """In-process pass through cli.main(argv), output captured."""
        for i, argv in enumerate(self.commands):
            out, err = io.StringIO(), io.StringIO()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = self.cli.main(list(argv))
            except Exception as exc:  # a traceback the user would see
                rc, err = 1, io.StringIO(f"Traceback: {exc!r}")
            self.check(i, rc, out.getvalue(), err.getvalue(), tally)


class DeepExact:
    """The generalized family at depth by three sequence paths, then the
    Hankel closed forms of four families on large matrices."""

    name = "deep-exact"
    imports = ("derange.exact", "derange.series", "derange.polys",
               "derange.hankel")
    FAMILIES = ("classic", "generalized", "order-r-poly", "cyclic")

    def __init__(self, seed: int, terms: int = 241, hankel_n: int = 28):
        inp = draw_inputs(self.name, seed)
        self.r, self.x = inp["r"], inp["x"]
        self.terms, self.hankel_n = terms, hankel_n

    def describe(self) -> str:
        return f"r={self.r} x={self.x} terms={self.terms} hankel_n={self.hankel_n}"

    def load(self):
        self.series = importlib.import_module("derange.series")
        self.polys = importlib.import_module("derange.polys")
        self.hankel = importlib.import_module("derange.hankel")
        Family, FamilySpec = self.series.Family, self.series.FamilySpec
        self.generalized = FamilySpec(Family.GENERALIZED, self.r, self.x)
        self.specs = {
            "classic": FamilySpec(Family.CLASSIC),
            "generalized": self.generalized,
            "order-r-poly": FamilySpec(Family.ORDER_R_POLY, self.r, self.x),
            "cyclic": FamilySpec(Family.CYCLIC, self.r),
        }

    def prepare(self):
        self.expected = [generalized_value(n, self.r, self.x)
                         for n in range(self.terms)]
        self.closed = {f: hankel_closed_form(f, self.hankel_n, self.r, self.x)
                       for f in self.FAMILIES}

    def run_pass(self, tally: Tally) -> None:
        polys, n_terms = self.polys, self.terms
        egf = self.series.egf_values(self.generalized, n_terms)
        conv = polys.generate_D_by_convolution(self.r, self.x, n_terms)
        explicit = [polys.eval_poly(polys.generalized_D_poly(n, self.r), self.x)
                    for n in range(n_terms)]
        for n, want in enumerate(self.expected):
            tally.check(egf[n] == conv[n] == explicit[n] == want,
                        f"D_{n}^({self.r})({self.x}): egf {egf[n]} conv {conv[n]} "
                        f"explicit {explicit[n]} reference {want}")
        for family in self.FAMILIES:
            rep = self.hankel.verify_hankel(self.specs[family], self.hankel_n)
            want = self.closed[family]
            dets = [d for d in (rep.det_bareiss, rep.det_condensation) if d is not None]
            tally.check(rep.verdict == "pass" and all(d == want for d in dets),
                        f"hankel {family} n={self.hankel_n}: {rep.verdict}")


class McSweep:
    """Every Erlang moment r <= 5, k <= 6 and one generalized-polynomial
    value, each from 10^6 samples, gated at 6 standard errors."""

    name = "mc-sweep"
    imports = ("derange.stochastic",)
    R_MAX, K_MAX, GATE = 5, 6, 6.0

    def __init__(self, seed: int, samples: int = 10 ** 6):
        inp = draw_inputs(self.name, seed)
        self.x, self.seed64 = inp["x"], inp["mc_seed"]
        self.samples = samples
        self.max_abs_z = 0.0

    def describe(self) -> str:
        return f"x={self.x} splitmix_seed={self.seed64} samples={self.samples}"

    def load(self):
        self.stochastic = importlib.import_module("derange.stochastic")

    def prepare(self):
        self.targets = {(r, k): rising(r, k) for r in range(1, self.R_MAX + 1)
                        for k in range(1, self.K_MAX + 1)}
        self.dn_target = generalized_value(8, 3, self.x)

    def _gate(self, est, target, what, tally):
        ok = est.stderr > 0
        if ok:
            z = (est.mean - float(target)) / est.stderr
            self.max_abs_z = max(self.max_abs_z, abs(z))
            ok = abs(z) <= self.GATE
        tally.check(ok, f"{what}: mean {est.mean!r} stderr {est.stderr!r} "
                        f"target {target}")

    def run_pass(self, tally: Tally) -> None:
        st, n, seed = self.stochastic, self.samples, self.seed64
        for (r, k), target in self.targets.items():
            last = st.mc_moment(r, k, n, seed)
            self._gate(last, target, f"mc_moment r={r} k={k}", tally)
        est = st.mc_generalized_D(8, 3, self.x, n, seed)
        self._gate(est, self.dn_target, f"mc_generalized_D x={self.x}", tally)
        # the largest cell again: an estimate is a pure function of its inputs
        again = st.mc_moment(r, k, n, seed)
        tally.check((again.mean, again.stderr) == (last.mean, last.stderr),
                    f"mc_moment r={r} k={k} re-run is not bit-identical")


WORKLOADS = {w.name: w for w in (DeskCli, DeepExact, McSweep)}
