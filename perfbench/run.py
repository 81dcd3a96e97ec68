"""Seeded closed-loop benchmark of the uqson CLI verbs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (the package is imported from ./src; nothing
needs building). One client runs the workload's job list (one "pass", see
workloads.py) again and again, one job in flight, each job a separate
`python -m uqson.cli ...` process, until the next pass would end after S
seconds (at least three passes). Every output is checked against the
references in pool.json. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}; the lines before it print
each metric with its unit, the failure ratio and the recorded environment.

--trace 0 reports the end-to-end metrics of BENCHMARK.json:
  wall_s       wall time of one pass, each job taken at its mean over the
               run's passes
  job_p50_s    median over the job list of each job's mean wall time
  job_tail_s   per-job mean wall time at the highest whole percentile
               that leaves at least ten of the job runs of three passes
               ranked beyond it (common.job_tail); job_p50_s when three
               passes hold fewer than 20 job runs. The percentile and the
               job counts are printed
  cpu_s        user+sys CPU of all job processes of one pass, each job
               taken at its mean over the run's passes
  peak_rss_mb  largest per-job peak RSS
  setup_s      median of seven set-ups: seeded job-list generation plus one
               untimed warm-up CLI process
The failure ratio (wrong exit code, missing PASS verdict or reference
digest mismatch, over jobs attempted) is printed; it is 0 on most
workloads, so it is no bounded metric. A failure counts as a known defect
only when the job reproduces the exit code and standard output recorded
for it at the reference commit. The result's `failed` counts the other
failures, so that it is 0 for the reference code and `correct` is
`failed == 0`; the known defects stay in the printed failure ratio.

--trace 1 alternates untraced passes with passes whose jobs go through
launcher.py, and reports the per-layer metrics of BENCHMARK.json: medians
over traced passes of per-pass sums (self times, calls, counts), plus
per-verb peak RSS from the untraced passes and trace.overhead_ratio, the
traced over the untraced wall_s.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402
import workloads  # noqa: E402

LAUNCHER = HERE / "launcher.py"
POOL = HERE / "pool.json"
SETUP_REPEATS = 7
# BLAS/OpenMP threads per job: one job in flight, and a pinned count keeps a
# busy neighbour from turning a 0.3 s dense solve into seconds
THREADS = 1
JOB_CPU_LIMIT_S = 150
WARMUP = {"argv": ["pbw-reduce", "--n", "3", "I32*I21"], "verb": "pbw-reduce",
          "expect_exit": 0,
          "stdout_sha256": common.sha256_text("q*I21*I32 - q^(1/2)*I31\n")}
VERBS = ("assoc-fuzz", "pbw-reduce", "relations-verify", "commrel-verify", "embed-verify",
         "psi-verify", "params-sample", "rep-build", "rep-verify")
# per-layer metric -> (tracer group, field) for self times and call counts
LAYER_STATS = {
    "jsonio.load.s": ("jsonio.load", "self"),
    "jsonio.dump.s": ("jsonio.dump", "self"),
    "expr.evaluate.calls": ("expr.evaluate", "calls"),
    "expr.evaluate.s": ("expr.evaluate", "self"),
    "pbw.mul.calls": ("pbw.mul", "calls"),
    "pbw.mul.s": ("pbw.mul", "self"),
    "pbw.from_word.calls": ("pbw.from_word", "calls"),
    "pbw.from_word.s": ("pbw.from_word", "self"),
    "pbw.verify.s": ("pbw.verify", "self"),
    "pbw.fuzz.s": ("pbw.fuzz", "self"),
    "coeffring.laurent.calls": ("coeffring.laurent", "calls"),
    "coeffring.laurent.s": ("coeffring.laurent", "self"),
    "coeffring.qbracket.calls": ("coeffring.qbracket", "calls"),
    "coeffring.qbracket.s": ("coeffring.qbracket", "self"),
    "reps.sample.s": ("reps.sample", "self"),
    "reps.build.s": ("reps.build", "self"),
    "reps.residual.s": ("reps.residual", "self"),
    "reps.commutant.s": ("reps.commutant", "self"),
    "djembed.embed.s": ("djembed.embed", "self"),
    "djembed.psi.s": ("djembed.psi", "self"),
}
FIELD = {"calls": 0, "self": 2}
_TOL = re.compile(r"\btol=([0-9.eE+-]+)")
PROBE = r"""
import json, sys
import numpy, scipy, uqson
blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
kernel = getattr(uqson, "active_kernel", None)
print(json.dumps({
    "python": sys.version.split()[0], "numpy": numpy.__version__,
    "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
    "uqson_file": uqson.__file__,
    "active_kernel": kernel() if callable(kernel) else None}))
"""


class Bench:
    """One benchmark run: its checkout root, work directory and child environment."""

    def __init__(self, root, workload, seed):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.work = root / common.WORK_DIR / f"{workload}-{os.getpid()}"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(root / "src")
        self.env.pop("PYTHONHOME", None)
        self.threads = {v: str(THREADS) for v in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
        self.env.update(self.threads)

    def fresh_work(self):
        shutil.rmtree(self.work, ignore_errors=True)
        (self.work / "traces").mkdir(parents=True)

    def run_job(self, job, trace_path=None):
        """Run one job to completion and check it; returns a result dict."""
        if job.get("fresh"):
            for name in common.CHAIN_FILES:
                (self.work / name).unlink(missing_ok=True)
        if trace_path is None:
            cmd = [sys.executable, "-m", "uqson.cli", *job["argv"]]
        else:
            cmd = [sys.executable, str(LAUNCHER), str(trace_path), "--", *job["argv"]]
        out_path, err_path = self.work / "job.out", self.work / "job.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.work, env=self.env, stdout=out,
                                    stderr=err, preexec_fn=_limit_cpu)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - t0
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        stdout = out_path.read_text(encoding="utf-8", errors="replace")
        problems = check(job, code, stdout, self.work)
        result = {
            "verb": job["verb"], "case": job.get("case"), "wall": wall,
            "cpu": usage.ru_utime + usage.ru_stime, "rss_mb": usage.ru_maxrss / 1024.0,
            "exit": code, "problems": problems,
            "known_defect": known_defect(job, code, stdout) if problems else None,
            "digest_changed": 0,
        }
        if job.get("numeric_sha256"):
            path = self.work / common.out_file(job["argv"])
            if not path.exists() or common.sha256_file(path) != job["numeric_sha256"]:
                result["digest_changed"] = 1
        if trace_path is not None:
            try:
                result["trace"] = json.loads(trace_path.read_text(encoding="utf-8"))
                trace_path.unlink()
            except (OSError, ValueError):
                result["trace"] = None
            m = _TOL.search(stdout)
            result["tol"] = float(m.group(1)) if m else None
        if result["problems"]:
            err = err_path.read_text(encoding="utf-8", errors="replace").strip()
            result["stderr_tail"] = err.splitlines()[-1] if err else ""
        return result

    def run_pass(self, jobs, index, traced):
        t0 = time.perf_counter()
        results = []
        for j, job in enumerate(jobs):
            trace_path = self.work / "traces" / f"p{index}-j{j}.json" if traced else None
            results.append(self.run_job(job, trace_path))
        return {"traced": traced, "wall": time.perf_counter() - t0, "jobs": results}

    def setup(self, smoke):
        """Seeded job-list generation plus one untimed warm-up CLI process."""
        t0 = time.perf_counter()
        pool = json.loads(POOL.read_text(encoding="utf-8"))
        jobs = workloads.build_jobs(self.workload, self.seed, pool, smoke=smoke)
        self.fresh_work()
        warm = self.run_job(WARMUP)
        if warm["problems"]:
            raise RuntimeError(f"warm-up CLI process failed: {warm['problems']} "
                               f"{warm.get('stderr_tail', '')}")
        return jobs, time.perf_counter() - t0


def _limit_cpu():
    resource.setrlimit(resource.RLIMIT_CPU, (JOB_CPU_LIMIT_S, JOB_CPU_LIMIT_S))


def check(job, code, stdout, work):
    """Reasons the job's outputs are wrong; empty when they match the references."""
    problems = []
    if code != job["expect_exit"]:
        problems.append(f"exit {code}, expected {job['expect_exit']}")
    elif code == 0 and not common.has_pass(stdout, job["verb"]):
        problems.append("no PASS verdict")
    if job.get("stdout_sha256") and common.sha256_text(stdout) != job["stdout_sha256"]:
        problems.append("stdout differs from reference")
    if job.get("file_sha256"):
        path = work / common.out_file(job["argv"])
        if not path.exists() or common.sha256_file(path) != job["file_sha256"]:
            problems.append(f"{path.name} differs from reference")
    return problems


def known_defect(job, code, stdout):
    """The recorded defect a failed job reproduces, else None.

    A job marked as a known defect is excused only when its exit code and
    standard output are those recorded at the reference commit; any other
    failure of it (a crash, another exit code, other output) is unexpected."""
    ref = job.get("known_defect")
    if ref and code == ref["exit"] and common.sha256_text(stdout) == ref["stdout_sha256"]:
        return ref["why"]
    return None


def measure(bench, jobs, seconds, trace, min_passes=common.MIN_PASSES):
    """Run passes until the next one would end after `seconds`, and at least
    `min_passes`; with tracing, traced and untraced passes alternate."""
    passes = []
    t0 = time.perf_counter()
    while True:
        traced = bool(trace) and len(passes) % 2 == 1
        passes.append(bench.run_pass(jobs, len(passes), traced))
        if len(passes) < min_passes:
            continue
        next_traced = bool(trace) and len(passes) % 2 == 1
        same = [p["wall"] for p in passes if p["traced"] == next_traced]
        if time.perf_counter() - t0 + statistics.median(same) > seconds:
            return passes


def per_job_means(passes, key):
    """Each job's mean of `key` over the passes, in job-list order.

    With three to five passes a run, the mean of a job's runs spread less
    between runs than their median: a single job run on a shared machine
    varies by about 20% around its typical time, both ways."""
    return [statistics.fmean(p["jobs"][j][key] for p in passes)
            for j in range(len(passes[0]["jobs"]))]


def end_to_end(passes, setups):
    plain = [p for p in passes if not p["traced"]]
    walls = per_job_means(plain, "wall")
    # over per-job means, as wall_s: a single job run stretched by a busy
    # neighbour would otherwise land in the tail. The percentile is fixed by
    # the job runs a run is guaranteed, so it does not move with one pass more
    pct, tail = common.job_tail(walls)
    metrics = {
        "wall_s": sum(walls),
        "job_p50_s": statistics.median(walls),
        "job_tail_s": tail,
        "cpu_s": sum(per_job_means(plain, "cpu")),
        "peak_rss_mb": max(j["rss_mb"] for p in plain for j in p["jobs"]),
        "setup_s": statistics.median(setups),
    }
    info = {"job_tail_percentile": pct, "jobs_per_pass": len(walls),
            "jobs_above_tail": sum(v > tail for v in walls),
            "pass_walls_s": [p["wall"] for p in plain], "setup_runs_s": setups}
    return metrics, info


def pass_layers(p, cases):
    """Per-layer numbers of one traced pass."""
    traces = [j["trace"] for j in p["jobs"] if j.get("trace")]
    out = {name: sum(t["stats"].get(group, [0, 0.0, 0.0])[FIELD[field]] for t in traces)
           for name, (group, field) in LAYER_STATS.items()}
    out["cli.import_s"] = statistics.median(t["import_s"] for t in traces) if traces else 0.0
    counters = [t["counters"] for t in traces]
    out["jsonio.bytes"] = sum(c["jsonio.bytes"] for c in counters)
    out["jsonio.digest_changed"] = sum(j["digest_changed"] for j in p["jobs"])
    out["pbw.mul.terms_out"] = sum(c["pbw.mul.terms_out"] for c in counters)
    out["pbw.mul.max_terms"] = max((c["pbw.mul.max_terms"] for c in counters), default=0)
    out["reps.build.nnz"] = sum(c["reps.build.nnz"] for c in counters)
    out["reps.residual.max"] = max((c["reps.residual.max"] for c in counters), default=0.0)
    margins = [j["trace"]["counters"]["reps.residual.max"] / j["tol"]
               for j in p["jobs"] if j.get("trace") and j.get("tol")
               and j["verb"] == "rep-verify"]
    out["reps.residual.margin"] = max(margins, default=0.0)
    for n, k in cases:
        dims = [d for j in p["jobs"] if j.get("trace") and j["case"] == f"{n}_{k}"
                for d in j["trace"]["counters"]["reps.commutant.dim"]]
        out[f"reps.commutant.dim.{n}_{k}"] = max(dims, default=0)
    return out


def per_layer(passes):
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    cases = [c for c in common.CERTIFY_CASES if c[1] != 2]
    rows = [pass_layers(p, cases) for p in traced]
    metrics = {name: statistics.median(r[name] for r in rows) for name in rows[0]}
    for verb in VERBS:
        metrics[f"cli.{verb}.peak_rss_mb"] = max(
            (j["rss_mb"] for p in plain for j in p["jobs"] if j["verb"] == verb), default=0.0)
    metrics["trace.overhead_ratio"] = (sum(per_job_means(traced, "wall"))
                                       / sum(per_job_means(plain, "wall")))
    missing = sorted({m for p in traced for j in p["jobs"] if j.get("trace")
                      for m in j["trace"]["missing"]})
    return metrics, {"unwrapped_boundaries": missing,
                     "traced_passes": len(traced), "untraced_passes": len(plain)}


def environment(bench):
    """What the numbers depend on besides the code: recorded, not controlled."""
    env = {"nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
           "threads": bench.threads}
    try:
        probe = subprocess.run([sys.executable, "-c", PROBE], env=bench.env, cwd=bench.work,
                               capture_output=True, text=True, timeout=60, check=True)
        env.update(json.loads(probe.stdout.strip().splitlines()[-1]))
        env["uqson_file"] = os.path.relpath(env["uqson_file"], bench.root)
    except (subprocess.SubprocessError, ValueError, IndexError, KeyError) as exc:
        env["probe_error"] = str(exc)
    env["git_commit"] = "unknown"
    if (bench.root / ".git").exists():
        try:
            env["git_commit"] = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=bench.root, capture_output=True,
                text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    env["src_py_lines"] = sum(
        len(p.read_bytes().splitlines()) for p in (bench.root / "src").rglob("*.py"))
    return env


def run(root, workload, seed, seconds, trace, smoke=False, edit_jobs=None,
        min_passes=common.MIN_PASSES):
    """One benchmark run; returns (metrics, result counts, info).

    `edit_jobs`, if given, may change the job list before measuring (the
    self-test uses it to corrupt references)."""
    bench = Bench(root, workload, seed)
    load_start = os.getloadavg()
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            jobs, dt = bench.setup(smoke)
            setups.append(dt)
        if edit_jobs is not None:
            edit_jobs(jobs)
        passes = measure(bench, jobs, seconds, trace, min_passes)
        metrics, info = end_to_end(passes, setups)
        if trace:
            metrics, trace_info = per_layer(passes)
            info.update(trace_info)
        info["environment"] = environment(bench)
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
        try:
            bench.work.parent.rmdir()
        except OSError:
            pass
    load_end = os.getloadavg()
    results = [j for p in passes for j in p["jobs"]]
    failures = [j for j in results if j["problems"]]
    info["load_avg_start"] = load_start
    info["load_avg_end"] = load_end
    # the benchmark itself keeps about one core busy; more than that at the
    # start means another process competed for the cores
    info["started_under_load"] = load_start[0] > 1.0 + 0.25 * (os.cpu_count() or 1)
    info["failures"] = [
        {"verb": j["verb"], "case": j["case"], "problems": j["problems"],
         "known_defect": j["known_defect"], "stderr_tail": j.get("stderr_tail")}
        for j in failures[:20]]
    # a job that reproduces its recorded known defect exactly has behaved as
    # at the reference commit: it is reported, but it is not a failed operation
    known = sum(1 for j in failures if j["known_defect"])
    counts = {
        "attempted": len(results),
        "failed": len(failures) - known,
        "known_defects": known,
    }
    return metrics, counts, info


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one item per job kind, for the harness self-test")
    args = parser.parse_args(argv)

    root = HERE.parent
    if not (root / "src" / "uqson" / "cli.py").is_file() or not POOL.is_file():
        print("error: run from the repository root (src/uqson and perfbench/pool.json "
              "are needed)", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    try:
        values, counts, info = run(root, args.workload, args.seed, args.seconds,
                                   args.trace, smoke=args.smoke)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(f"workload={args.workload} seed={args.seed} trace={args.trace}")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    failing = counts["failed"] + counts["known_defects"]
    print(f"  {'fail_ratio':32s} {failing / counts['attempted']:.6g} 1 "
          f"({failing}/{counts['attempted']}, {counts['known_defects']} known defects)")
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": counts["failed"] == 0, "attempted": counts["attempted"],
                      "failed": counts["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
