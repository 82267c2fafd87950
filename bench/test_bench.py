"""Self-test of the benchmark at tiny sizes, run from the root of a checkout:

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import tracing
import worker
from workloads import DeepExact, DeskCli, McSweep

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# The layer metrics each workload must move; zero there means the layer,
# or the tracing of it, is broken. oracle.skipped and hankel.degenerate
# count events the default grids need not have.
HEAVY = {
    "desk-cli": [
        "cli.import_s", "cli.numpy_import_s", "cli.main.self_s",
        "cli.render_report.s", "verify.suite_recurrences.self_s",
        "verify.suite_reflection.self_s", "verify.suite_hankel.self_s",
        "verify.suite_derivative_hankel.self_s", "verify.suite_mgf.self_s",
        "verify.suite_oracles.self_s", "verify.cells",
        "polys.order_d_by_convolution.s", "polys.verify_shift_recurrences.s",
        "hankel.det_cofactor.s", "hankel.verify_derivative_hankel.self_s",
        "oracle.count_derangements_brute.s",
        "oracle.count_cyclic_derangements_brute.s", "oracle.enumerated",
    ],
    "deep-exact": [
        "series.egf_values.s", "series.egf_values.calls", "series.series_mul.s",
        "series.terms", "series.max_value_bits",
        "polys.generate_D_by_convolution.s", "polys.generalized_D_poly.s",
        "polys.eval_poly.s", "polys.eval_poly.calls", "hankel.hankel_matrix.s",
        "hankel.det_bareiss.s", "hankel.det_condensation.s",
        "hankel.closed_form.s", "hankel.verify_hankel.self_s",
        "hankel.max_entry_bits", "exact.factorial.calls",
        "exact.rising_factorial.calls",
    ],
    "mc-sweep": [
        "cli.numpy_import_s", "stochastic.mc_moment.s",
        "stochastic.mc_generalized_D.s", "stochastic.draws",
        "stochastic.tracemalloc_peak_mb", "stochastic.max_abs_z",
    ],
}

TINY = {
    "desk-cli": lambda: DeskCli(seed=5),
    "deep-exact": lambda: DeepExact(seed=5, terms=21, hankel_n=4),
    "mc-sweep": lambda: McSweep(seed=5, samples=20_000),
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_heavy_layers_are_nonzero_and_nothing_fails(name):
    workload = TINY[name]()
    workload.load()
    workload.prepare()
    result = worker.measure(workload, seconds=0, trace=True)
    assert result["attempted"] > 0 and result["failed"] == 0, result["messages"]
    layers = dict(result["layers"])
    layers.update(run.import_times(workload, time.monotonic() + 60))
    assert set(layers) == set(tracing.LAYER_METRICS)
    for metric in HEAVY[name]:
        assert layers[metric][0] > 0, metric
    assert layers["trace_overhead"][0] > 0
    if name == "deep-exact":
        stochastic = [m for m in layers if m.startswith("stochastic.")]
        assert stochastic and all(layers[m][0] == 0 for m in stochastic)
        assert layers["cli.numpy_import_s"][0] == 0


def test_wrappers_reach_every_binding_and_are_removed():
    from derange import cli, hankel, verify
    originals = (hankel.egf_values, hankel.factorial, hankel.rising_factorial,
                 cli.verify_hankel, verify.SUITES["hankel"])
    with tracing.installed(tracing.Tracer()):
        now = (hankel.egf_values, hankel.factorial, hankel.rising_factorial,
               cli.verify_hankel, verify.SUITES["hankel"])
        assert all(getattr(f, "__wrapped_by_bench__", False) for f in now)
    assert (hankel.egf_values, hankel.factorial, hankel.rising_factorial,
            cli.verify_hankel, verify.SUITES["hankel"]) == originals
    tracing.assert_unwrapped()


def test_missing_function_is_an_absent_metric(monkeypatch):
    from derange import hankel
    monkeypatch.delattr(hankel, "det_condensation")
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        pass
    metrics = tracer.layer_metrics()
    assert "hankel.det_condensation.s" not in metrics
    assert "hankel.degenerate" not in metrics
    assert "hankel.det_bareiss.s" in metrics


def test_benchmark_json_names_what_the_code_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == ["desk-cli", "deep-exact",
                                                      "mc-sweep"]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _, _) in tracing.LAYER_METRICS.items()}


def _bench(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_end_to_end_run_prints_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _bench(ROOT, "--workload", "deep-exact", "--seed", "3",
                  "--seconds", "0", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_without_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "mc-sweep", "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
