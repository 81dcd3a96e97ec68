"""Self-test of the benchmark harness, at smoke size (one item per job kind).

    python3 perfbench/selftest.py

Checks that every end-to-end and per-layer metric named in BENCHMARK.json is
emitted, with its unit, for every workload, and that a corrupted reference
digest, a corrupted reference file digest and a wrong expected exit code
each count as a failed job. It also checks that the recorded known defects
are excused only when they reproduce their recorded failure. Exits 0 when
all checks hold.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent


def emitted(workload, trace):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "1", "--seconds", "0",
                         "--trace", str(trace), "--smoke"])
    if code != 0:
        raise AssertionError(f"{workload} trace={trace}: exit {code}")
    return json.loads(out.getvalue().strip().splitlines()[-1])


def check_names(spec, errors):
    for workload in workloads.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = emitted(workload, trace)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                errors.append(f"{workload} trace={trace}: metrics {sorted(set(got) ^ set(want))} "
                              f"or units differ")
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                errors.append(f"{workload} trace={trace}: result keys {sorted(result)}")
            print(f"{workload} trace={trace}: {len(got)} metrics, "
                  f"{result['failed']}/{result['attempted']} failed", flush=True)


def corrupt_shallow(jobs):
    next(j for j in jobs if j.get("stdout_sha256"))["stdout_sha256"] = "0" * 64


def corrupt_certify(jobs):
    params = next(j for j in jobs if j["verb"] == "params-sample" and j["case"] == "3_3")
    params["file_sha256"] = "0" * 64
    build = next(j for j in jobs if j["verb"] == "rep-build" and j["case"] == "3_3")
    build["expect_exit"] = 4


def only_psi_defect(jobs):
    pool = json.loads(run.POOL.read_text(encoding="utf-8"))
    jobs[:] = [workloads.simple_job(item) for item in pool["psi"] if "known_defect" in item]


def alter_defect(jobs):
    next(j for j in jobs if j.get("known_defect"))["known_defect"]["stdout_sha256"] = "0" * 64


def check_failures(errors):
    cases = (
        ("verify_shallow", corrupt_shallow, {"failed": 1, "known_defects": 0}),
        # (4,4) reproduces its known defect: reported, but not failed
        ("rep_certify", corrupt_certify, {"failed": 2, "known_defects": 1}),
        ("verify_shallow", only_psi_defect, {"failed": 0, "known_defects": 1}),
        # a known defect that fails otherwise than recorded is a failure
        ("rep_certify", alter_defect, {"failed": 1, "known_defects": 0}),
    )
    for workload, edit, want in cases:
        _, counts, _ = run.run(ROOT, workload, 1, 0, 0, smoke=True, edit_jobs=edit,
                               min_passes=1)
        got = {k: counts[k] for k in want}
        if got != want:
            errors.append(f"{workload} {edit.__name__}: {got}, expected {want}")
        print(f"{workload} {edit.__name__}: {counts}", flush=True)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    errors = []
    check_names(spec, errors)
    check_failures(errors)
    for err in errors:
        print("FAIL " + err)
    print("selftest: " + ("FAIL" if errors else "PASS"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
