"""Classical q=1 cross-check of the straightening rules.

Independent oracle: the signed antisymmetric matrices
J[k,l] := (-1)**(k-l-1) * (E_kl - E_lk) realize the q=1 structure constants
of the rewrite system, so every rule instance and every defining relation can
be checked as an exact integer matrix identity with no Laurent arithmetic
involved.
"""

from __future__ import annotations

from fractions import Fraction
from operator import matmul

from ._rules import check_rank, classify_pair, gen_pairs, rule_table
from .verify import defining_relation_residuals


def classical_generator(n, k, l):
    """Integer matrix J[k,l] on C^n (0-indexed rows/cols)."""
    import numpy as np  # not at module level: importing uqson.pbw must not load numpy

    check_rank(n)
    m = np.zeros((n, n), dtype=np.int64)
    sign = (-1) ** (k - l - 1)
    m[k - 1, l - 1] = sign
    m[l - 1, k - 1] = -sign
    return m


def _coeff_at_one(raw):
    """Exact value of a {doubled exponent: rational} coefficient at q=1."""
    total = sum(raw.values())
    total = Fraction(total)
    if total.denominator != 1:
        raise AssertionError(f"non-integer classical coefficient {total}")
    return int(total)


def verify_classical_limit(n):
    """Check every rule instance and defining relation at q=1 on J matrices.

    Returns a report list of {"relation": str, "exact_zero": bool}; all rule
    coefficients must specialize to integers in {-1, 0, 1}.
    """
    import numpy as np

    check_rank(n)
    pairs = gen_pairs(n)
    mats = [classical_generator(n, k, l) for k, l in pairs]
    report = []

    table = rule_table(n)
    for key, entries in sorted(table.items()):
        xi, yi = key >> 8, key & 0xFF
        lhs = mats[xi] @ mats[yi]
        acc = np.zeros((n, n), dtype=np.int64)
        for word, coeff in entries:
            c = _coeff_at_one(coeff)
            if c == 0:
                continue
            term = np.eye(n, dtype=np.int64)
            for code in word:
                term = term @ mats[code]
            acc = acc + c * term
        kind = classify_pair(pairs[xi], pairs[yi])
        name = f"rule {kind} I{pairs[xi][0]}{pairs[xi][1]}*I{pairs[yi][0]}{pairs[yi][1]}"
        report.append({"relation": name, "exact_zero": bool(np.array_equal(lhs, acc))})

    # Defining relations on the neighbor matrices directly.
    gens = [mats[pairs.index((i, i - 1))] for i in range(2, n + 1)]
    for name, _, resid in defining_relation_residuals(n, gens, 2, matmul):
        report.append({"relation": f"classical {name}", "exact_zero": not resid.any()})
    return report
