"""One checked pass of each benchmark workload at the benchmark self-test's
tiny sizes, so that a change to what a workload checks (a pinned `verify`
cell count, the `hankel` parameters the desk session reads) fails here.

`bench/workloads.py` is read and executed by path; nothing is written
under `bench/`.
"""

import types
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def _workloads():
    module = types.ModuleType("bench_workloads")
    exec(compile(WORKLOADS.read_text(), str(WORKLOADS), "exec"), module.__dict__)
    return module


BENCH = _workloads()
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
