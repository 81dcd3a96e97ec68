"""Build perfbench/pool.json: the input pool the benchmark draws its jobs from.

Every pool item carries the reference digests of its outputs, taken on the
commit the pool is built at, and its cost: the median wall time of the
item run as the benchmark runs it (one CLI process per step), which the
benchmark uses to draw cost-balanced job lists (see workloads.py). Run it
from the repository root, on the commit whose outputs are the reference:

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 python3 perfbench/make_pool.py

Rebuilding the pool on a later commit would silently re-baseline every
correctness reference, so only do it together with a new baseline.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402
import run  # noqa: E402

MASTER_SEED = 20260
FUZZ_TRIALS = 8
# in-process cost bands (seconds) that keep one pass inside a run's budget
FUZZ_BAND = (0.3, 1.5)
WORD_BAND = (0.2, 1.0)
TIMEOUT_S = 3.0
# cost = median of this many timed runs as separate processes: in-process
# timings miss per-process rule-table and cache set-up, which differs by
# input, and single timings on a shared machine scatter by 10% or more
COST_REPEATS = 3
CENTRAL_KEEP = 8


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout()


def run_cli(argv, timeout=None):
    """Run one verb in process; return (exit code, stdout, seconds) or None on timeout."""
    from uqson import cli

    out = io.StringIO()
    if timeout:
        signal.signal(signal.SIGALRM, _alarm)
        signal.setitimer(signal.ITIMER_REAL, timeout)
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except _Timeout:
        return None
    finally:
        if timeout:
            signal.setitimer(signal.ITIMER_REAL, 0)
    return code, out.getvalue(), time.perf_counter() - t0


def simple_item(argv, digest=True, timeout=None):
    res = run_cli(argv, timeout)
    if res is None:
        return None
    code, out, cost = res
    item = {"argv": argv, "cost_s": round(cost, 4)}
    if code != 0 or not common.has_pass(out, argv[0]):
        if argv[0] not in common.KNOWN_DEFECTS:
            raise SystemExit(f"pool item failed at the reference commit: {argv} -> {code}")
        item["known_defect"] = common.KNOWN_DEFECTS[argv[0]]
        # the failure a run must reproduce for it to count as this defect
        item["exit"] = code
        digest = True
    if digest:
        item["stdout_sha256"] = common.sha256_text(out)
    return item


def process_cost(bench, argvs):
    """Median over COST_REPEATS of the wall time of `argvs` run in sequence,
    each as a CLI process, exactly as the benchmark runs its jobs."""
    totals = [sum(bench.run_job({"argv": argv, "verb": argv[0], "expect_exit": 0,
                                 "fresh": i == 0})["wall"]
                  for i, argv in enumerate(argvs))
              for _ in range(COST_REPEATS)]
    return round(statistics.median(totals), 4)


def banded(bench, candidates, band, want):
    kept = []
    for argv in candidates:
        item = simple_item(argv, timeout=TIMEOUT_S)
        if item is not None and band[0] <= item["cost_s"] <= band[1]:
            item["cost_s"] = process_cost(bench, [argv])
            kept.append(item)
            if len(kept) >= want:
                break
    if len(kept) < want:
        raise SystemExit(f"only {len(kept)} items in band {band}")
    return kept


def central(items, keep=CENTRAL_KEEP):
    """The `keep` items whose cost is nearest the median cost, in pool order.

    Per-job times then scatter little, so the median job time of a run does
    not hinge on which items a seed draws."""
    mid = statistics.median(item["cost_s"] for item in items)
    nearest = sorted(range(len(items)), key=lambda i: abs(items[i]["cost_s"] - mid))[:keep]
    return [items[i] for i in sorted(nearest)]


def gen_word(rng, n, letters, variant):
    from uqson.pbw import gen_pairs

    mark = "m" if variant == "minus" else ""
    pairs = gen_pairs(n)
    return "*".join(f"I{mark}{k}{l}" for k, l in (rng.choice(pairs) for _ in range(letters)))


def short_expr(rng):
    n = rng.randint(3, 6)
    variant = rng.choice(("plus", "minus"))
    letters = rng.randint(1, 3)
    coeff = rng.choice(("", "q*", "q^(1/2)*", "2*", "(-1)*", "q^(-1)*", "1/2*"))
    if letters >= 2 and rng.random() < 0.3:
        cut = rng.randint(1, letters - 1)
        body = gen_word(rng, n, cut, variant) + rng.choice((" + ", " - ")) + gen_word(
            rng, n, letters - cut, variant)
    else:
        body = gen_word(rng, n, letters, variant)
    return ["pbw-reduce", "--n", str(n), coeff + body]


def chain_item(bench, n, k, seed, work):
    """Run one params-sample -> rep-build -> rep-verify chain and record its references."""
    argvs = common.chain_argvs(n, k, seed)
    for name in common.CHAIN_FILES:
        path = work / name
        if path.exists():
            path.unlink()
    steps = []
    for argv in argvs:
        code, out, _ = run_cli(argv)
        step = {"exit": code, "stdout_sha256": common.sha256_text(out)}
        out_name = common.out_file(argv)
        if out_name and (work / out_name).exists():
            step["file_sha256"] = common.sha256_file(work / out_name)
        steps.append(step)
        if code != 0:
            break
    item = {"n": n, "k": k, "seed": seed, "cost_s": process_cost(bench, argvs[:len(steps)]),
            "steps": steps}
    expected = common.chain_expected_exits(n, k)
    observed = [s["exit"] for s in steps]
    if observed != expected:
        if (n, k) in common.KNOWN_DEFECTS:
            item["known_defect"] = common.KNOWN_DEFECTS[(n, k)]
        else:
            raise SystemExit(f"chain ({n},{k}) seed {seed}: exits {observed}, expected {expected}")
    if len(steps) == 3 and "file_sha256" in steps[2]:
        report = json.loads((work / common.CHAIN_FILES[2]).read_text())
        dims = [row["commutantDim"] for row in report if "commutantDim" in row]
        if dims:
            item["commutant_dim"] = dims[0]
    return item


def main():
    bench = run.Bench(ROOT, "pool", MASTER_SEED)
    bench.fresh_work()
    rng = random.Random(MASTER_SEED)
    pool = {"fuzz_trials": FUZZ_TRIALS, "fuzz_band_s": FUZZ_BAND, "word_band_s": WORD_BAND}

    t0 = time.time()
    for variant in ("plus", "minus"):
        cands = ([
            "assoc-fuzz", "--n", "4", "--degree", "4", "--trials", str(FUZZ_TRIALS),
            "--seed", str(s), "--variant", variant]
            for s in rng.sample(range(1, 100000), 400))
        pool[f"fuzz_{variant}"] = central(banded(bench, cands, FUZZ_BAND, 18))
        print(f"fuzz {variant}: {time.time() - t0:.0f}s", flush=True)
    for n in (6, 7):
        cands = (["pbw-reduce", "--n", str(n), gen_word(rng, n, 12, rng.choice(("plus", "minus")))]
                 for _ in range(400))
        pool[f"word_rank{n}"] = central(banded(bench, cands, WORD_BAND, 18))
        print(f"words rank {n}: {time.time() - t0:.0f}s", flush=True)

    def costed(item):
        item["cost_s"] = process_cost(bench, [item["argv"]])
        return item

    pool["short_expr"] = [costed(simple_item(short_expr(rng))) for _ in range(60)]
    pool["relations"] = [costed(simple_item(["relations-verify", "--n", str(n), "--variant", v]))
                         for n in range(3, 13) for v in ("plus", "minus")]
    pool["commrel"] = [costed(simple_item(["commrel-verify", "--n", str(n), "--variant", v]))
                       for n in range(3, 10) for v in ("plus", "minus")]
    pool["embed"] = [costed(simple_item(["embed-verify", "--n", str(n)])) for n in range(3, 7)]
    # psi residuals are rounding noise printed to 3 digits: verdict only, no digest
    pool["psi"] = [costed(simple_item(["psi-verify", "--twoj", str(j), "--seed", str(s)],
                                      digest=False))
                   for j in range(0, 9) for s in range(5)]
    print(f"shallow: {time.time() - t0:.0f}s", flush=True)

    work = ROOT / common.WORK_DIR / "pool"
    work.mkdir(parents=True, exist_ok=True)
    old = os.getcwd()
    os.chdir(work)
    try:
        pool["chains"] = {}
        for n, k in common.CHAIN_CASES:
            pool["chains"][f"{n},{k}"] = [
                chain_item(bench, n, k, seed, work) for seed in range(common.CHAIN_SEEDS)]
            print(f"chains ({n},{k}): {time.time() - t0:.0f}s", flush=True)
    finally:
        os.chdir(old)
        shutil.rmtree(work, ignore_errors=True)
        shutil.rmtree(bench.work, ignore_errors=True)
        with contextlib.suppress(OSError):
            (ROOT / common.WORK_DIR).rmdir()

    (HERE / "pool.json").write_text(json.dumps(pool, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
