"""DerangeDomainError is the package's one exception type: each guard
below names its domain in its message, and no module subclasses it."""

import importlib
import inspect
import pkgutil
import re
from fractions import Fraction as F

import pytest

import derange
from derange import exact, hankel, polys, series, stochastic, verify
from derange.exact import DerangeDomainError

GUARDS = {
    "factorial": (lambda: exact.factorial(-1), "factorial needs n >= 0, got -1"),
    "binomial": (lambda: exact.binomial(-1, 0), "binomial needs n >= 0, got -1"),
    "D-convolution": (lambda: polys.generate_D_by_convolution(1, F(1), 0),
                      "count must be >= 1"),
    "d-convolution": (lambda: polys.generate_d_by_convolution(1, F(1), 0),
                      "count must be >= 1"),
    "series_exp": (lambda: series.series_exp(1, -1), "order must be >= 0"),
    "geom_pow-order": (lambda: series.geom_pow(1, 1, -1), "order must be >= 0"),
    "geom_pow-r": (lambda: series.geom_pow(1, -1, 3), "r must be >= 0"),
    "closed_form_chain": (lambda: hankel.closed_form_chain(-1, 1, 1),
                          "n must be >= 0"),
    "derivative_hankel_chain": (
        lambda: hankel.derivative_hankel_chain(0, 1, F(1, 2)), "n must be >= 1"),
    "erlang_moment_exact": (lambda: stochastic.erlang_moment_exact(0, 1),
                            "need r >= 1, k >= 0"),
    "run_suite": (lambda: verify.run_suite("all", verify.Grid(points=())),
                  "grid needs at least one x and one z point"),
}


@pytest.mark.parametrize("call, message", GUARDS.values(), ids=GUARDS)
def test_guard_names_its_domain(call, message):
    with pytest.raises(DerangeDomainError, match=f"^{re.escape(message)}$"):
        call()


def test_the_domain_error_is_the_only_exception_type():
    modules = [importlib.import_module(f"derange.{m.name}")
               for m in pkgutil.iter_modules(derange.__path__)]
    assert DerangeDomainError.__subclasses__() == []
    assert {obj for mod in modules for obj in vars(mod).values()
            if inspect.isclass(obj) and issubclass(obj, BaseException)
            and obj.__module__.startswith("derange")} == {DerangeDomainError}
