"""One benchmark process: set a workload up, print "ready", run checked
passes for the given seconds, and print one JSON line of results.

    PYTHONPATH=src python3 bench/worker.py --workload deep-exact --seed 1 \\
        --seconds 10 --trace 0 [--setup-only]

Set-up is the imports the workload needs plus its inputs, and nothing
else, so the time to "ready" is what a user's process pays before work.
With --trace 1 every pass without wrappers is followed by one with them;
the layer metrics come from the traced passes, and trace_overhead is the
median traced pass over the median untraced one. For desk-cli both kinds
run in-process through cli.main(argv), so the ratio is like for like.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

from workloads import WORKLOADS, Tally


def timed_pass(workload, tally: Tally) -> float:
    t0 = time.perf_counter()
    try:
        workload.run_pass(tally)
    except Exception as exc:  # the program raised: a failed operation
        tally.check(False, f"pass raised {exc!r}")
    return time.perf_counter() - t0


def measure(workload, seconds: float, trace: bool) -> dict:
    tally = Tally()
    untraced, traced = [], []
    tracer = None
    if trace:
        import tracing
        tracer = tracing.Tracer()
    start = time.perf_counter()
    while not untraced or time.perf_counter() - start < seconds:
        untraced.append(timed_pass(workload, tally))
        if tracer is not None:
            with tracing.installed(tracer):
                traced.append(timed_pass(workload, tally))
    result = {"passes": untraced, "attempted": tally.attempted,
              "failed": tally.failed, "messages": tally.messages}
    if tracer is not None:
        layers = tracer.layer_metrics()
        layers["stochastic.max_abs_z"] = (getattr(workload, "max_abs_z", 0.0),
                                          "sigma")
        layers["trace_overhead"] = (statistics.median(traced)
                                    / statistics.median(untraced), "ratio")
        result["layers"] = layers
        result["traced_passes"] = traced
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed)
    workload.load()
    print("ready", flush=True)
    if args.setup_only:
        return 0
    workload.prepare()
    print(json.dumps(measure(workload, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
