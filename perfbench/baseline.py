"""Run the benchmark over several seeds and write the medians and quartiles.

    python3 perfbench/baseline.py --out perfbench/baseline.json

For each workload it makes ten untraced runs (seeds 1..10) and one traced
run (seed 1), and records per end-to-end metric the values, median,
quartiles and the quartile spread as a share of the median, the statistic
the benchmark's bounds are checked against. Numbers measured hours apart
drift with the machine's load; compare only runs made side by side.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SEEDS = range(1, 11)


def one_run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    info = next((json.loads(line[5:]) for line in lines if line.startswith("info ")), {})
    return json.loads(lines[-1]), info


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"run_seconds": seconds, "workloads": {}}
    for workload in workloads.WORKLOADS:
        seeds = list(SEEDS)
        runs = [one_run(workload, seed, seconds, 0) for seed in seeds]
        entry = {"seeds": seeds,
                 "attempted": [r["attempted"] for r, _ in runs],
                 "failed": [r["failed"] for r, _ in runs],
                 "correct": [r["correct"] for r, _ in runs],
                 "started_under_load": [i.get("started_under_load") for _, i in runs],
                 "end_to_end": {}}
        for name in bounds:
            s = summary([r["metrics"][name]["value"] for r, _ in runs])
            s["bound"] = bounds[name]
            entry["end_to_end"][name] = s
            print(f"{workload:15s} {name:12s} median {s['median']:.4g} "
                  f"spread {s['spread']:.3f} (bound {bounds[name]})", flush=True)
        report["environment"] = runs[-1][1].get("environment")
        entry["job_tail_percentile"] = [i.get("job_tail_percentile") for _, i in runs]
        traced, info = one_run(workload, seeds[0], seconds, 1)
        entry["traced_seed"] = seeds[0]
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        entry["trace_info"] = {k: info.get(k) for k in (
            "traced_passes", "untraced_passes", "unwrapped_boundaries")}
        report["workloads"][workload] = entry
    args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
