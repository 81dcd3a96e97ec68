"""Seeded job lists for the four workloads.

A job list is one pass: the fixed list of CLI verbs a workload runs once.
Its shape (how many jobs of each kind) is fixed; the seed picks the concrete
inputs from perfbench/pool.json, whose items carry the reference digests
taken at the reference commit. The draw is balanced by the pool's measured
cost: each kind's items are ranked by cost and cut into as many strata as
the pass takes items of that kind, one item is drawn from each stratum, and
the seeded generator redraws until the pass's total pool cost is within
1.5% of its expectation, and for single-verb workloads until the pass's
job tail in pool costs is within 2% of its typical value. Different seeds
then give different inputs but nearly the same amount of work and the same
tail, so run-to-run spread stays small without fixing the inputs; the
costs of single inputs are heavy-tailed (one 12-letter word at rank 7 can
take 0.01 s or 13 s).

Why these workloads (all closed loop: one client, one job in flight):

- pbw_deep: associativity fuzz (both variants) and 12-letter words at rank
  6-7. Long words, many rewrites per product and large term maps stress the
  straightening kernel and the coefficient ring; `reps` does no work.
- verify_shallow: 24 short verbs (relation and commutation checks, the
  embedding and psi checks, normal forms of <= 3 letters). Per-process cost
  dominates, so added import, set-up or memo warm-up shows here.
- rep_certify: params-sample -> rep-build -> rep-verify --commutant at
  dimensions 3..49. The commutant certificate dominates, on both its dense
  (d^2 <= 1600) and sparse paths. (4,2) must exit 3 at rep-build (q = -1);
  (4,4) is an open defect (commutant dim 2), counted in the
  failure ratio.
- rep_ladder: the same chain without the commutant at (5,5) = 625 and
  (6,3) = 729 dimensions: the dense residual, the Python build and JSON
  I/O dominate, and the commutant does nothing.
"""

from __future__ import annotations

import random
import statistics

import common

WORKLOADS = ("pbw_deep", "verify_shallow", "rep_certify", "rep_ladder")

# pool kind -> items per pass
SHAPES = {
    "pbw_deep": {"fuzz_plus": 2, "fuzz_minus": 2, "word_rank6": 2, "word_rank7": 2},
    "verify_shallow": {"relations": 5, "commrel": 5, "embed": 2, "psi": 5, "short_expr": 7},
}
# share of the expected pool cost by which one pass's draw may differ
BALANCE_TOL = 0.015
# share of the expected job tail (common.job_tail of the item costs) by
# which a draw of single-verb items may differ; draws that estimate it
TAIL_TOL = 0.02
TAIL_DRAWS = 200
# draws before the last one is taken unbalanced
DRAW_TRIES = 20000
CHAIN_WORKLOADS = {
    "rep_certify": common.CERTIFY_CASES,
    "rep_ladder": common.LADDER_CASES,
}


def draw(groups, rng):
    """One item from each of `count` strata of each (items, count) group.

    The strata split the items, ranked by pool cost, into `count` runs of
    near-equal length, so every draw holds the same mix of cheap and dear
    inputs (for verify_shallow: one commutation check from the n = 8, 9
    band, one embedding check from n = 5, 6) and the seed picks within it."""
    picks = []
    for items, count in groups:
        ranked = sorted(items, key=lambda i: i["cost_s"])
        bounds = [round(s * len(ranked) / count) for s in range(count + 1)]
        picks.append([rng.choice(ranked[lo:hi]) for lo, hi in zip(bounds, bounds[1:])])
    return picks


def draw_tail(picks):
    return common.job_tail([i["cost_s"] for group in picks for i in group])[1]


def balanced(groups, rng, tail=False):
    """Draw `count` items from each (items, count) group, one per stratum
    (see draw), so that the pool cost of the draw is within BALANCE_TOL of its expectation and, with
    `tail`, its job tail within TAIL_TOL of its median over draws made
    with a fixed generator."""
    target = sum(count * statistics.fmean(i["cost_s"] for i in items)
                 for items, count in groups)
    if tail:
        fixed = random.Random("tail-target")
        tail_target = statistics.median(draw_tail(draw(groups, fixed))
                                        for _ in range(TAIL_DRAWS))
    for _ in range(DRAW_TRIES):
        picks = draw(groups, rng)
        total = sum(i["cost_s"] for group in picks for i in group)
        if abs(total - target) > BALANCE_TOL * target:
            continue
        if not tail or abs(draw_tail(picks) - tail_target) <= TAIL_TOL * tail_target:
            break
    return picks


def defect(why, ref):
    """A known defect with the exit code and stdout digest the job must
    reproduce to be excused (see run.known_defect)."""
    return {"why": why, "exit": ref["exit"], "stdout_sha256": ref["stdout_sha256"]}


def simple_job(item):
    job = {
        "argv": list(item["argv"]),
        "verb": item["argv"][0],
        "expect_exit": 0,
        "stdout_sha256": item.get("stdout_sha256"),
    }
    if "known_defect" in item:
        job["known_defect"] = defect(item["known_defect"], item)
    return job


def chain_jobs(item):
    """Jobs of one representation chain, with the checks for each step.

    params-sample: stdout and params JSON are references (exact).
    rep-build: stdout (dim, nonzeros) is a reference; the dump's digest is
    only compared and counted (jsonio.digest_changed), because its floats
    may move in the last bit under a valid change of arithmetic.
    rep-verify: exit code and PASS verdict; the report's digest is counted.
    """
    n, k = item["n"], item["k"]
    argvs = common.chain_argvs(n, k, item["seed"])
    expected = common.chain_expected_exits(n, k)
    jobs = []
    for step, (argv, want) in enumerate(zip(argvs, expected)):
        ref = item["steps"][step] if step < len(item["steps"]) else {}
        job = {
            "argv": argv,
            "verb": argv[0],
            "expect_exit": want,
            "case": f"{n}_{k}",
            "fresh": step == 0,
        }
        if step == 0:
            job["stdout_sha256"] = ref.get("stdout_sha256")
            job["file_sha256"] = ref.get("file_sha256")
        elif step == 1:
            job["stdout_sha256"] = ref.get("stdout_sha256")
            job["numeric_sha256"] = ref.get("file_sha256")
        else:
            job["numeric_sha256"] = ref.get("file_sha256")
        if "known_defect" in item and ref.get("exit") != want:
            job["known_defect"] = defect(item["known_defect"], ref)
        jobs.append(job)
    return jobs


def build_jobs(workload, seed, pool, smoke=False):
    """The job list (one pass) of `workload` for `seed`.

    `smoke` takes one item per kind, or the first and the two special
    representation cases, for the harness self-test.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload in SHAPES:
        groups = [(pool[kind], 1 if smoke else count)
                  for kind, count in SHAPES[workload].items()]
        jobs = [simple_job(item) for group in balanced(groups, rng, tail=True)
                for item in group]
        rng.shuffle(jobs)
        return jobs
    if workload in CHAIN_WORKLOADS:
        cases = CHAIN_WORKLOADS[workload]
        if smoke:
            cases = [c for i, c in enumerate(cases) if i == 0 or c in ((4, 2), (4, 4))]
        groups = [(pool["chains"][f"{n},{k}"], 1) for n, k in cases]
        return [job for (item,) in balanced(groups, rng) for job in chain_jobs(item)]
    raise ValueError(f"unknown workload {workload!r}")
