"""Acceptance gate: one test per shipping criterion, each emitting a single
PASS/FAIL line into the terminal summary via conftest.record_acceptance.

The (4,2) case of the dimension ladder has order 2, so q = -1, where
q - q^(-1) = 0 and every q-bracket is undefined (see qbracket_numeric).
Operators cannot exist there, so C05-C07 check that building them raises
DegenerateDenominator, as documented. Whether a case is degenerate is decided
from its root order, never from what the build happens to raise: a
DegenerateDenominator at order >= 3 fails, and so does a build that succeeds
at order 2. Every criterion must pass.
"""

from __future__ import annotations

import time

from conftest import record_acceptance

from uqson.coeffring import qnumber
from uqson.djembed import sample_generic_q, verify_embedding, verify_psi
from uqson.errors import DegenerateDenominator
from uqson.pbw import MINUS, PLUS
from uqson.pbw.classical import verify_classical_limit
from uqson.pbw.fuzz import associativity_fuzz
from uqson.pbw.verify import (
    all_pass,
    verify_commutation_relations,
    verify_defining_relations,
)
from uqson.reps import (
    build_representation,
    commutant_certificate,
    commutant_dimension,
    random_generic_params,
    relation_residual,
)

import random

from tableau_oracle import enumerate_tableaux

# dimension-law cases: (n, order k) -> expected dimension k**N
DIMENSION_CASES = [(3, 3, 3), (3, 5, 5), (4, 2, 4), (4, 3, 9), (5, 3, 81)]


def _residual_tol(dim: int) -> float:
    return 1e-7 if dim >= 81 else 1e-9


def _max_residual(ops, root) -> float:
    return max(entry["residual"] for entry in relation_residual(ops, root))


def _order_two(omega) -> bool:
    # q = -1: every bracket denominator q - q^(-1) vanishes
    return omega.root.order == 2


def _build_or_none(omega):
    """The operators, or None when the build raises DegenerateDenominator.

    Any other exception propagates and fails the calling test.
    """
    try:
        return build_representation(omega)
    except DegenerateDenominator:
        return None


def test_c01_defining_relations_exact_through_rank_6():
    elapsed6 = None
    ok = True
    for n in (3, 4, 5, 6):
        t0 = time.monotonic()
        ok = ok and all_pass(verify_defining_relations(n))
        if n == 6:
            elapsed6 = time.monotonic() - t0
    verdict = ok and elapsed6 < 30.0
    record_acceptance(
        f"[C01] defining relations n=3..6 exact: {'PASS' if verdict else 'FAIL'}"
        f" (n=6 in {elapsed6:.1f}s)"
    )
    assert verdict


def test_c02_commutation_families_both_variants():
    t0 = time.monotonic()
    ok = all(
        all_pass(verify_commutation_relations(n, variant))
        for n in (3, 4, 5)
        for variant in (PLUS, MINUS)
    )
    elapsed = time.monotonic() - t0
    verdict = ok and elapsed < 60.0
    record_acceptance(
        f"[C02] commutation suite n<=5 plus+minus: {'PASS' if verdict else 'FAIL'}"
        f" ({elapsed:.1f}s)"
    )
    assert verdict


def test_c03_pbw_confluence_fuzz():
    t0 = time.monotonic()
    out = associativity_fuzz(4, 4, 500, seed=20411)
    elapsed = time.monotonic() - t0
    verdict = out["pass"] and elapsed < 60.0
    record_acceptance(
        f"[C03] associativity fuzz 500 trials n=4 deg=4 seed=20411:"
        f" {'PASS' if verdict else 'FAIL'} ({elapsed:.1f}s,"
        f" {len(out['failures'])} failures)"
    )
    assert verdict


def test_c04_classical_limit():
    ok = all(
        entry["exact_zero"] for n in (3, 4, 5) for entry in verify_classical_limit(n)
    )
    record_acceptance(f"[C04] classical limit q=1 n<=5: {'PASS' if ok else 'FAIL'}")
    assert ok


def test_c05_dimension_law():
    details = []
    ok = True
    for n, k, expected in DIMENSION_CASES:
        omega = random_generic_params(n, k, seed=0)
        basis = len(enumerate_tableaux(omega))
        ops = _build_or_none(omega)
        if _order_two(omega):
            # order 2 admits the basis but no operator matrices; the k**N
            # count is still checkable on the tableau enumeration
            case_ok = basis == expected and ops is None
            details.append(f"({n},{k})={basis} basis-only")
        else:
            case_ok = (
                basis == expected
                and ops is not None
                and all(op.dim == expected for op in ops)
            )
            details.append(f"({n},{k})={basis}")
        ok = ok and case_ok
    record_acceptance(
        f"[C05] dimension law k^N: {'PASS' if ok else 'FAIL'} ({', '.join(details)})"
    )
    assert ok


def test_c06_representation_residuals_20_seeds():
    t0 = time.monotonic()
    worst = {}
    raised = {}
    ok = True
    for n, k, expected in DIMENSION_CASES:
        tol = _residual_tol(expected)
        for seed in range(20):
            omega = random_generic_params(n, k, seed)
            ops = _build_or_none(omega)
            if _order_two(omega):
                raised[(n, k)] = raised.get((n, k), 0) + (ops is None)
                ok = ok and ops is None
            elif ops is None:
                worst[(n, k)] = float("inf")
                ok = False
            else:
                r = _max_residual(ops, omega.root)
                worst[(n, k)] = max(worst.get((n, k), 0.0), r)
                ok = ok and r < tol
    elapsed = time.monotonic() - t0
    verdict = ok and elapsed < 120.0
    worst_txt = ", ".join(f"({n},{k})<{v:.1e}" for (n, k), v in sorted(worst.items()))
    degen_txt = "".join(
        f"; ({n},{k}) raises DegenerateDenominator (q=-1) for {c}/20 seeds"
        + (", as documented" if c == 20 else ", expected all")
        for (n, k), c in sorted(raised.items())
    )
    record_acceptance(
        f"[C06] relation residuals 20 seeds/case: {'PASS' if verdict else 'FAIL'}"
        f" ({elapsed:.1f}s, {worst_txt}{degen_txt})"
    )
    assert verdict


def test_c07_irreducibility_commutant_dimension_one():
    t0 = time.monotonic()
    dims = {}
    certs = []
    degen_txt = ""
    ok = True
    big_elapsed = 0.0
    for n, k, expected in DIMENSION_CASES:
        omega = random_generic_params(n, k, seed=0)
        ops = _build_or_none(omega)
        if _order_two(omega):
            ok = ok and ops is None
            degen_txt += (
                f"; ({n},{k}) raises DegenerateDenominator (q=-1), as documented"
                if ops is None else f"; ({n},{k}) built operators at q=-1"
            )
            continue
        if ops is None:
            dims[(n, k)] = "DegenerateDenominator"
            continue
        t1 = time.monotonic()
        cert = commutant_certificate(ops)
        dims[(n, k)] = cert.dimension
        certs.append(
            f"({n},{k}) gap {cert.gap:.1e} cond {cert.cond:.1e}"
            f" commute/edge margins {cert.commute_margin:.1e}/{cert.edge_margin:.1e}"
        )
        if expected >= 81:
            big_elapsed = time.monotonic() - t1
    elapsed = time.monotonic() - t0
    ok = ok and all(d == 1 for d in dims.values()) and big_elapsed < 180.0
    dim_txt = ", ".join(f"({n},{k})={d}" for (n, k), d in sorted(dims.items()))
    record_acceptance(
        f"[C07] commutant dimension 1: {'PASS' if ok else 'FAIL'}"
        f" ({elapsed:.1f}s, 81-dim solve {big_elapsed:.1f}s, {dim_txt}{degen_txt};"
        f" {'; '.join(certs)})"
    )
    assert ok


def test_c08_parameter_count():
    counts = {}
    for n in (3, 4, 5, 6):
        omega = random_generic_params(n, 5, seed=1)
        counts[n] = len(omega.m_top) + len(omega.h) + len(omega.c)
    ok = all(counts[n] == n * (n - 1) // 2 for n in counts)
    record_acceptance(
        f"[C08] parameter count n(n-1)/2: {'PASS' if ok else 'FAIL'}"
        f" ({', '.join(f'n={n}:{c}' for n, c in counts.items())})"
    )
    assert ok


def test_c09_vanishing_diagonal_when_l_is_zero():
    from uqson.reps import ParamsOmega, variable_slots

    base = random_generic_params(4, 3, seed=6)
    h = dict(base.h)
    h[(1, 2)] = 0.0
    omega = ParamsOmega(n=4, root=base.root, m_top=base.m_top, h=h, c=base.c)
    op = build_representation(omega)[0]  # I21
    slot = variable_slots(4).index((1, 2))
    tabs = enumerate_tableaux(omega)
    diag_cols = {c for r, c, _ in op.entries if r == c}
    ok = all(
        (col in diag_cols) == (tab.offsets[slot] != 0)
        for col, tab in enumerate(tabs)
    )
    record_acceptance(
        f"[C09] diagonal vanishes where l=0: {'PASS' if ok else 'FAIL'}"
        f" ({len(tabs) - len(diag_cols)} exact-zero columns of {len(tabs)})"
    )
    assert ok


def test_c10_embedding_exact_with_classical_limit():
    t0 = time.monotonic()
    ok = all(all_pass(verify_embedding(n)) for n in (3, 4, 5))
    elapsed = time.monotonic() - t0
    verdict = ok and elapsed < 30.0
    record_acceptance(
        f"[C10] embedding relations + q=1 limit n=3,4,5:"
        f" {'PASS' if verdict else 'FAIL'} ({elapsed:.1f}s)"
    )
    assert verdict


def test_c11_psi_residuals():
    t0 = time.monotonic()
    rng = random.Random(424242)
    worst = 0.0
    ok = True
    for twoJ in range(9):
        for i in range(10):
            q = sample_generic_q(rng, on_circle=(i % 2 == 0))
            report = verify_psi(twoJ, q, tol=1e-10)
            ok = ok and all_pass(report)
            worst = max(worst, max(e["residual"] for e in report))
    elapsed = time.monotonic() - t0
    verdict = ok and elapsed < 10.0
    record_acceptance(
        f"[C11] psi residuals twoJ=0..8 x10 q: {'PASS' if verdict else 'FAIL'}"
        f" ({elapsed:.1f}s, worst {worst:.1e})"
    )
    assert verdict


def test_c12_primitive_root_independence():
    results = []
    ok = True
    for n, k, t_values, expected in [(3, 5, (1, 2, 3, 4), 5), (5, 3, (1, 2), 81)]:
        tol = _residual_tol(expected)
        for t in t_values:
            omega = random_generic_params(n, k, seed=3, t=t)
            ops = build_representation(omega)
            r = _max_residual(ops, omega.root)
            d = commutant_dimension(ops)
            case_ok = r < tol and d == 1
            ok = ok and case_ok
            results.append(f"({n},{k},t={t}):{'ok' if case_ok else 'BAD'}")
    record_acceptance(
        f"[C12] primitive-root independence: {'PASS' if ok else 'FAIL'}"
        f" ({', '.join(results)})"
    )
    assert ok


def test_gate_has_one_test_per_criterion():
    # the gate above must stay in one-to-one correspondence with the ship list
    import inspect
    import sys

    mod = sys.modules[__name__]
    gates = [
        name for name, fn in inspect.getmembers(mod, inspect.isfunction)
        if name.startswith("test_c") and name[6:8].isdigit()
    ]
    assert len(gates) == 12
