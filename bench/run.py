"""Benchmark of the derange package, run from the root of a checkout:

    python3 bench/run.py --workload {desk-cli,deep-exact,mc-sweep} \\
        --seed N --seconds S --trace {0,1}

It runs the package from `src/` uninstalled, one process at a time, and
checks every output against values it computes itself. The last line of
standard output is one JSON object: `correct`, `attempted`, `failed` and
`metrics`. With --trace 0 the metrics are the end-to-end ones below; with
--trace 1 they are the per-layer metrics of `tracing.LAYER_METRICS`.

- setup_s: spawn of a process until it is ready (interpreter, imports of the
  modules the workload calls, inputs); the median over SETUP_RUNS spawns.
  For desk-cli, spawn to exit of `python -c "import derange.cli"`.
- verdict_s: the median time of one pass, from ready to the last checked
  verdict. desk-cli passes start each command as a fresh process.
- peak_rss_mb: peak resident memory of the workload's process (wait4
  rusage); for desk-cli the largest command process.
- pass_ratio: operations that passed over those attempted, 1 - fail_ratio.
  (fail_ratio is 0 when the program is correct, and a metric that is 0
  has no relative bound.)

The lines before the JSON give each metric with its unit, sample count and
quartiles, the fail ratio, the inputs, and the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

from tracing import LAYER_METRICS
from workloads import WORKLOADS, DeskCli, Tally

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_RUNS = 11
IMPORTTIME_RUNS = 3
RUN_LIMIT_S = 170.0


class Child:
    """A finished child process: exit code, output, rusage peak RSS, and the
    seconds from spawn to its "ready" line (when asked for) and to exit."""

    def __init__(self, argv, deadline, wait_ready=False):
        env = dict(os.environ, PYTHONHASHSEED="0")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE)
        killer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
        killer.start()
        err = []
        reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
        reader.start()
        self.ready_s = None
        first = b""
        if wait_ready:
            first = proc.stdout.readline()
            self.ready_s = time.perf_counter() - t0
            if first == b"ready\n":
                first = b""
            else:
                self.ready_s = None
        out = first + proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
        self.wall_s = time.perf_counter() - t0
        killer.cancel()
        proc.returncode = self.rc = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
        self.out = out.decode(errors="replace")
        self.err = err[0].decode(errors="replace")
        self.rss_mb = usage.ru_maxrss / 1024  # Linux reports KiB


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _require_ok(child: Child, what: str) -> Child:
    if child.rc != 0 or "Traceback" in child.err:
        raise BenchError(f"{what} failed with exit {child.rc}:\n{child.err[-2000:]}")
    return child


def worker_argv(args, *extra) -> list:
    return [sys.executable, str(BENCH / "worker.py"), "--workload",
            args.workload, "--seed", str(args.seed), "--seconds",
            str(args.seconds), "--trace", str(args.trace), *extra]


def worker_result(child: Child) -> dict:
    _require_ok(child, "benchmark worker")
    if child.ready_s is None:
        raise BenchError("benchmark worker never became ready")
    return json.loads(child.out.splitlines()[-1])


def setup_times(args, deadline) -> list:
    """SETUP_RUNS spawn-to-ready times, after one unmeasured warm-up spawn
    that compiles bytecode and fills the file cache."""
    if args.workload == DeskCli.name:
        argv, ready = [sys.executable, "-c", "import derange.cli"], False
    else:
        argv, ready = worker_argv(args, "--setup-only"), True
    times = []
    for i in range(SETUP_RUNS + 1):
        child = _require_ok(Child(argv, deadline, ready), "set-up")
        if ready and child.ready_s is None:
            raise BenchError("set-up process never became ready")
        if i:
            times.append(child.ready_s if ready else child.wall_s)
    return times


def desk_cli_passes(args, deadline):
    """End-to-end desk-cli: each command a fresh `python -m derange.cli`."""
    desk = DeskCli(args.seed)
    desk.prepare()
    tally, passes, rss = Tally(), [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        t0 = time.perf_counter()
        for i, argv in enumerate(desk.commands):
            child = Child([sys.executable, "-m", "derange.cli", *argv], deadline)
            desk.check(i, child.rc, child.out, child.err, tally)
            rss.append(child.rss_mb)
        passes.append(time.perf_counter() - t0)
    return desk, passes, rss, tally


def import_times(workload, deadline) -> dict:
    """Median cumulative import time of derange.cli and of numpy within the
    workload's own imports, from `python -X importtime`."""
    stmt = "import " + ", ".join(workload.imports)
    runs = {"derange.cli": [], "numpy": []}
    for _ in range(IMPORTTIME_RUNS):
        child = _require_ok(
            Child([sys.executable, "-X", "importtime", "-c", stmt], deadline),
            "import probe")
        cumulative = {}
        for line in child.err.splitlines():
            if line.startswith("import time:") and line.count("|") == 2:
                _, cum, name = line.split("|")
                if cum.strip().isdigit():
                    cumulative[name.strip()] = int(cum) / 1e6
        for name in runs:
            runs[name].append(cumulative.get(name, 0.0))
    return {"cli.import_s": (statistics.median(runs["derange.cli"]), "s"),
            "cli.numpy_import_s": (statistics.median(runs["numpy"]), "s")}


def summary(values) -> dict:
    values = list(values)
    q1, med, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                   else values * 3)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def end_to_end(args, deadline):
    setup = setup_times(args, deadline)
    if args.workload == DeskCli.name:
        workload, passes, rss, tally = desk_cli_passes(args, deadline)
        attempted, failed, messages = tally.attempted, tally.failed, tally.messages
    else:
        workload = WORKLOADS[args.workload](args.seed)
        child = Child(worker_argv(args), deadline, wait_ready=True)
        res = worker_result(child)
        setup.append(child.ready_s)
        passes, rss = res["passes"], [child.rss_mb]
        attempted, failed, messages = res["attempted"], res["failed"], res["messages"]
    stats = {"setup_s": (summary(setup), "s"),
             "verdict_s": (summary(passes), "s"),
             "peak_rss_mb": (summary([max(rss)]) | {"n": len(rss)}, "MB"),
             "pass_ratio": (summary([(attempted - failed) / attempted])
                            | {"n": attempted}, "ratio")}
    return workload, stats, attempted, failed, messages


def traced(args, deadline):
    workload = WORKLOADS[args.workload](args.seed)
    layers = import_times(workload, deadline)
    res = worker_result(Child(worker_argv(args), deadline, wait_ready=True))
    layers.update({k: tuple(v) for k, v in res["layers"].items()})
    stats = {name: ({"median": layers[name][0], "n": len(res["traced_passes"])},
                    layers[name][1])
             for name in LAYER_METRICS if name in layers}
    return workload, stats, res["attempted"], res["failed"], res["messages"]


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "absent"
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy_version,
            "commit": git_commit()}


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="derange benchmark; see the module docstring.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "derange" / "__init__.py").is_file():
        print(f"error: no derange package under {SRC}; run from the root of "
              "a checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    run = traced if args.trace else end_to_end
    try:
        workload, stats, attempted, failed, messages = run(args, deadline)
    except (BenchError, ValueError, KeyError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print("machine: " + json.dumps(machine()))
    print(f"workload: {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} {workload.describe()}")
    for name, (s, unit) in stats.items():
        quart = f"  q1={s['q1']:.6g} q3={s['q3']:.6g}" if "q1" in s else ""
        print(f"  {name:42s} {s['median']:.6g} {unit}  n={s['n']}{quart}")
    print(f"  {'fail_ratio':42s} {failed / attempted:.6g}  "
          f"({failed} of {attempted} operations failed)")
    absent = [name for name in LAYER_METRICS if args.trace and name not in stats]
    if absent:
        print("  absent (function no longer exists): " + ", ".join(absent))
    for msg in messages:
        print(f"  FAIL {msg}", file=sys.stderr)
    metrics = {name: {"value": s["median"], "unit": unit}
               for name, (s, unit) in stats.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
