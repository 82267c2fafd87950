"""One checked pass of each benchmark workload at the benchmark self-test's
tiny sizes, so that a change to what a workload checks (a pinned `verify`
cell count, the `hankel` parameters the desk session reads) fails here;
and a check that every traced layer metric still names a function.

`bench/workloads.py` and `bench/tracing.py` are read and executed by path;
nothing is written under `bench/`.
"""

import types
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    path = BENCH_DIR / f"{name}.py"
    module = types.ModuleType(f"bench_{name}")
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


BENCH = _load("workloads")
TINY = {
    "desk-cli": lambda: BENCH.DeskCli(seed=5),
    "deep-exact": lambda: BENCH.DeepExact(seed=5, terms=21, hankel_n=4),
    "mc-sweep": lambda: BENCH.McSweep(seed=5, samples=20_000),
}


# deep-exact above ORACLE_CAP, where verify_hankel builds no matrix
PAST_ORACLES = {
    "deep-exact-n8": lambda: BENCH.DeepExact(seed=5, terms=21, hankel_n=8),
}


def test_every_workload_is_covered():
    assert set(TINY) == set(BENCH.WORKLOADS)


@pytest.mark.parametrize("name", sorted(TINY) + sorted(PAST_ORACLES))
def test_one_checked_pass(name):
    workload = {**TINY, **PAST_ORACLES}[name]()
    workload.load()
    workload.prepare()
    tally = BENCH.Tally()
    workload.run_pass(tally)
    assert tally.attempted > 0 and tally.failed == 0, tally.messages


def test_every_traced_metric_names_a_public_function():
    # a traced function that is deleted or renamed leaves its metric absent
    # from every traced run, which the benchmark's self-test rejects
    tracing = _load("tracing")
    spans = set(tracing._public_functions().values())
    for metric, (_, kind, sources) in tracing.LAYER_METRICS.items():
        if kind == "external":
            continue
        for pattern in sources:
            assert any(tracing._matches(span, pattern) for span in spans), (
                metric, pattern)
