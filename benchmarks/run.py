"""The voa benchmark: one workload, cold processes, end-to-end or traced metrics.

    python3 benchmarks/run.py --workload {recursion,descent,engine,classical}
                              --seed N --seconds S --trace {0,1}

Each measured run of a workload is a fresh interpreter (``workloads.py``)
with cold caches and a fixed ``PYTHONHASHSEED``, started one at a time and
pinned to one CPU, the CPUs taking turns.

With ``--trace 0`` a run starts such processes, each running the whole
workload, for ``S`` seconds: it starts another only while it expects that
one to end within ``S`` seconds of the first, and starts at least
``MIN_PROCESSES``.  Before each it starts ``SETUP_PROBES_EACH`` processes
that only set up.  Every process also times a probe loop that does not use
``voa`` (see ``workloads.py``), and its times are scaled to the machine's
reference speed: times ``PROBE_REFERENCE_S`` over the probe's mean time in
that process.  Other load on the machine slows the program and the probe
alike, so the scaled times repeat where the raw ones do not.  It reports

- ``setup_s``: process start until ``voa`` is imported and the inputs
  built, in the set-up-only processes (which run the probe right after),
  scaled, the median;
- ``wall_s``: time to solution of the workload's computations (output
  checks run after it) in each workload process, with the probe running
  from a timer signal meanwhile, scaled, the median over the processes;
  the raw timed regions are printed too, as the times single invocations
  took;
- ``peak_rss_mb``: the peak resident set of a process, the median.

With ``--trace 1`` it runs one untraced and one traced process, without the
probe, and reports the per-layer metrics of the traced one (see
``tracing.py``), with ``trace.overhead_s`` the traced timed region minus
the untraced one.  The traced process writes its spans to
``benchmarks/out/``.

Every metric is printed as ``name = value unit``; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 when every operation ran and gave the right
output, 1 when some operation failed or gave a wrong output, and 2 when the
benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
MIN_PROCESSES = 2
SETUP_PROBES_EACH = 3
#: the mean time of ``workloads.probe_loop`` on an idle CPU of the reference
#: machine (a 2-vCPU Xeon VM, Python 3.11.7): its lowest mean over the timed
#: region of a process there
PROBE_REFERENCE_S = 0.00044
CHILD_TIMEOUT = 170
ENV = {"PYTHONHASHSEED": "0"}


class BenchError(Exception):
    pass


def cold_run(workload, seed, cpu, *, setup_only=False, probe=False, trace_out=None):
    """One fresh interpreter running one workload on one CPU; returns its result."""
    cmd = [sys.executable, str(HERE / "workloads.py"), workload, "--seed", str(seed),
           "--cpu", str(cpu)]
    if setup_only:
        cmd.append("--setup-only")
    if probe:
        cmd.append("--probe")
    if trace_out:
        cmd += ["--trace-out", str(trace_out)]
    env = dict(os.environ, **ENV)
    started = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} did not finish within {CHILD_TIMEOUT} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"{workload} exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    result = json.loads(lines[-1])
    result["setup_s"] = result["setup_end"] - started
    return result


def cpus():
    """The CPUs this process may run on; the cold processes take turns on them.

    Slow spells from other load on the machine come and go on each CPU
    independently, so processes on different CPUs rarely share one.
    """
    return sorted(os.sched_getaffinity(0))


def measure(workload, seed, seconds):
    cpu = cpus()
    cold_run(workload, seed, cpu[0], setup_only=True)  # writes the bytecode caches
    start = time.monotonic()
    longest = 0.0
    runs, setups = [], []
    while len(runs) < MIN_PROCESSES or time.monotonic() - start + longest <= seconds:
        began = time.monotonic()
        on = cpu[len(runs) % len(cpu)]
        for _ in range(SETUP_PROBES_EACH):
            setups.append(cold_run(workload, seed, on, setup_only=True, probe=True))
        r = cold_run(workload, seed, on, probe=True)
        if not r["probe_samples"]:
            raise BenchError(f"{workload}: the probe never ran in the timed region")
        runs.append(r)
        longest = max(longest, time.monotonic() - began)
    metrics = {
        "setup_s": statistics.median(at_reference(s["setup_s"], s) for s in setups),
        "wall_s": statistics.median(at_reference(r["wall_s"], r) for r in runs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }
    return runs, with_units(metrics, BENCHMARK["end_to_end"])


def at_reference(seconds, run):
    """A time measured in a process, scaled to the probe's reference speed."""
    return seconds * PROBE_REFERENCE_S / run["probe_mean_s"]


def measure_traced(workload, seed):
    OUT.mkdir(exist_ok=True)
    cpu = cpus()[0]
    plain = cold_run(workload, seed, cpu)
    traced = cold_run(workload, seed, cpu, trace_out=OUT / f"trace-{workload}-{seed}.json")
    layers = dict(traced["layers"])
    layers["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    return [plain, traced], with_units(layers, BENCHMARK["per_layer"])


def with_units(values, declared):
    """The measured values with their units from BENCHMARK.json, which must
    declare exactly the metrics measured."""
    if set(values) != {m["name"] for m in declared}:
        raise BenchError(f"measured metrics differ from BENCHMARK.json: {sorted(values)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "voa" / "__init__.py").is_file():
        print(f"no voa sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    try:
        if args.trace:
            runs, metrics = measure_traced(args.workload, args.seed)
        else:
            runs, metrics = measure(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    correct = all(r["correct"] for r in runs)
    for r in runs:
        for err in r["errors"]:
            print(f"error: {err}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}, {len(runs)} cold processes")
    walls = ", ".join(f"{r['wall_s']:.4g}" for r in runs)
    print(f"timed region of each process: {walls} s")
    if not args.trace:
        probes = ", ".join(f"{r['probe_mean_s'] / PROBE_REFERENCE_S:.3f}" for r in runs)
        print(f"probe time over its reference, per process: {probes}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"attempted = {attempted}, failed = {failed}, correct = {correct}")
    print(json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
