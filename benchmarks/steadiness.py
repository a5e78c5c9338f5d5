"""Two sets of benchmark runs of the same code, in alternating order.

    python3 benchmarks/steadiness.py [--workloads w1,w2]

For each workload and each seed 1..10 it runs ``run.py`` at BENCHMARK.json's
``run_seconds`` once per set (set A, then set B, then A again for the next
seed, ...), and for every end-to-end metric it prints each set's median and
quartiles, the spread (quartile distance over the median) and the change of
the median from set A to set B.  The raw results go to
``benchmarks/out/steadiness.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SEEDS = range(1, 11)


def one_run(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(BENCHMARK["run_seconds"]), "--trace", "0"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}): {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in BENCHMARK["workloads"]))
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    report = {}
    for workload in args.workloads.split(","):
        sets = ([], [])
        for seed in SEEDS:
            for runs in sets:
                runs.append(one_run(workload, seed))
        report[workload] = {"runs": sets, "metrics": {}}
        for name, bound in bounds.items():
            per_set = [summary([r["metrics"][name]["value"] for r in runs]) for runs in sets]
            change = per_set[1]["median"] / per_set[0]["median"] - 1
            report[workload]["metrics"][name] = {"sets": per_set, "change": change}
            cells = "  ".join(
                f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}] spread {s['spread']:.3f}"
                for s in per_set
            )
            print(f"{workload:9s} {name:12s} {cells}  change {change:+.3f}  bound {bound}")
        failed = {(r["failed"], r["attempted"]) for runs in sets for r in runs}
        print(f"{workload:9s} (failed, attempted) per run: {sorted(failed)}", flush=True)
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / "steadiness.json").write_text(json.dumps(report, indent=1))


if __name__ == "__main__":
    main()
