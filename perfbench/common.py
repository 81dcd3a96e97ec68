"""Constants and helpers shared by run.py, launcher.py, workloads.py and make_pool.py."""

from __future__ import annotations

import hashlib
import math
import re
import statistics

WORK_DIR = ".perfbench_work"

# file names a representation chain writes, in chain order
CHAIN_FILES = ("params.json", "rep.json", "report.json")

# (n, k) cases; rep_certify also asks for the commutant certificate
CERTIFY_CASES = ((3, 3), (3, 5), (4, 3), (4, 5), (4, 7), (4, 4), (4, 2))
LADDER_CASES = ((5, 5), (6, 3))
CHAIN_CASES = CERTIFY_CASES + LADDER_CASES
CHAIN_SEEDS = 8

# passes every run makes at least, and the job runs the tail leaves beyond it
MIN_PASSES = 3
TAIL_BEYOND = 10

# Documented behaviour that the program does not meet at the reference
# commit. The jobs still run and count in the printed failure ratio; they
# are not failed operations of the result, because the reference itself
# fails them, and only while they fail exactly as recorded in the pool.
KNOWN_DEFECTS = {
    (4, 4): "rep-verify --commutant reports commutant dim 2 (residuals ~1e-14); "
            "the README promises an irreducible rep of dimension k^N",
    "psi-verify": "absolute residual tolerance 1e-10 is not scaled to the matrix "
                  "entries, which grow with |q| and twoj; some generic q fail by ~1e-10",
}

_PASS = re.compile(r":\s*PASS\b")


def sha256_text(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def sha256_file(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def has_pass(stdout, verb):
    """True when the verb's verdict line says PASS; verbs without a verdict pass."""
    if verb in ("pbw-reduce", "params-sample", "rep-build"):
        return True
    lines = stdout.strip().splitlines()
    return bool(lines) and bool(_PASS.search(lines[-1]))


def job_tail(per_job):
    """(percentile, seconds): the job tail of a job list whose jobs take
    `per_job` seconds each.

    Each job stands for MIN_PASSES runs at its value, the N job runs every
    run makes. The percentile is the highest whole one that leaves at least
    TAIL_BEYOND of the N ranked beyond it; below 2 * TAIL_BEYOND runs no
    percentile above the median does, so it is None and the value the median.
    """
    n = MIN_PASSES * len(per_job)
    if n < 2 * TAIL_BEYOND:
        return None, statistics.median(per_job)
    pct = math.floor(100 * (1 - TAIL_BEYOND / n))
    return pct, statistics.quantiles(list(per_job) * MIN_PASSES, n=100,
                                     method="inclusive")[pct - 1]


def chain_argvs(n, k, seed):
    params, rep, report = CHAIN_FILES
    verify = ["rep-verify", "--rep", rep, "--q-order", str(k)]
    if (n, k) in CERTIFY_CASES:
        verify.append("--commutant")
    argvs = [
        ["params-sample", "--n", str(n), "--order", str(k), "--seed", str(seed),
         "--out", params],
        ["rep-build", "--params", params, "--out", rep],
        verify + ["--out", report],
    ]
    return argvs[:len(chain_expected_exits(n, k))]


def chain_expected_exits(n, k):
    """Exit codes the README documents for each chain step."""
    if k == 2:
        return [0, 3]  # q = -1 kills every bracket denominator: rep-build exits 3
    return [0, 0, 0]


def out_file(argv):
    return argv[argv.index("--out") + 1] if "--out" in argv else None
