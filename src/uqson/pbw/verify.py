"""Symbolic verification of the defining and derived relation families.

Every check reduces a relation to PBW normal form and asserts exact zero (or
exact equality of the two sides); reports carry one entry per relation
instance so failures identify the offending indices.
"""

from __future__ import annotations

import operator
from itertools import combinations

from ..coeffring import LaurentPoly, qnumber
from ._rules import PLUS, check_rank
from .algebra import AlgebraElement, bracket_generator, qcommutator


def defining_relation_instances(n):
    """(name, kind, indices) for every defining relation of rank n.

    kind "serre-a"/"serre-b" carries i (the lower neighbor index pair is
    (i, i-1), the upper (i+1, i)); kind "commute" carries (i, j) with
    j >= i+2 for the distant-neighbor commutator.
    """
    check_rank(n)
    out = []
    for i in range(2, n):
        out.append((f"serre-a[{i}]", "serre-a", (i,)))
        out.append((f"serre-b[{i}]", "serre-b", (i,)))
    for i in range(2, n + 1):
        for j in range(i + 2, n + 1):
            out.append((f"commute[{i},{j}]", "commute", (i, j)))
    return out


def defining_relation_residuals(n, gens, qq, mul):
    """(name, kind, residual) for every defining relation of rank n.

    gens[i-2] is the image of I[i,i-1], qq the image of [2], and mul the
    product of two images (operator.mul for algebra elements,
    operator.matmul for matrices). A serre residual is
    a*a*b - [2]*a*b*a + b*a*a + b with (a, b) = (I[i,i-1], I[i+1,i]) for
    serre-a and the pair swapped for serre-b; a commute residual is
    a*b - b*a. Residuals are made one at a time, as they are consumed.
    """
    for name, kind, idx in defining_relation_instances(n):
        if kind == "commute":
            a, b = (gens[i - 2] for i in idx)
            yield name, kind, mul(a, b) - mul(b, a)
        else:
            a, b = gens[idx[0] - 2], gens[idx[0] - 1]
            if kind == "serre-b":
                a, b = b, a
            yield name, kind, mul(mul(a, a), b) - qq * mul(mul(a, b), a) + mul(mul(b, a), a) + b


def verify_defining_relations(n, variant=PLUS):
    """Reduce each defining relation to normal form; report exact-zero flags."""
    gens = [AlgebraElement.generator(n, i, i - 1, variant) for i in range(2, n + 1)]
    return [
        {"relation": name, "exact_zero": resid.is_zero()}
        for name, _, resid in defining_relation_residuals(n, gens, qnumber(2), operator.mul)
    ]


def commutation_relation_instances(n):
    """All derived-relation instances: three chain identities per index
    triple, two vanishing commutators and one crossing identity per index
    quadruple."""
    check_rank(n)
    out = []
    for m, l, k in combinations(range(1, n + 1), 3):
        out.append((f"chain-lower[{k},{l},{m}]", "chain-lower", (k, l, m)))
        out.append((f"chain-outer[{k},{l},{m}]", "chain-outer", (k, l, m)))
        out.append((f"chain-upper[{k},{l},{m}]", "chain-upper", (k, l, m)))
    for d, c, b, a in combinations(range(1, n + 1), 4):
        out.append((f"disjoint[{a},{b},{c},{d}]", "disjoint", (a, b, c, d)))
        out.append((f"nested[{a},{b},{c},{d}]", "nested", (a, b, c, d)))
        out.append((f"crossing[{a},{b},{c},{d}]", "crossing", (a, b, c, d)))
    return out


def verify_commutation_relations(n, variant=PLUS):
    """Check the four derived commutation families through normal forms.

    Both sides are built from bracket_generator output (not raw basis
    letters), so this also re-verifies the recursion against the rule table.
    The minus variant uses the mirrored bracket deformation throughout.
    """
    power = 1 if variant == PLUS else -1
    scale = LaurentPoly.q(1) - LaurentPoly.q(-1)
    if variant != PLUS:
        scale = -scale

    def gen(k, l):
        return bracket_generator(n, k, l, variant)

    report = []
    for name, kind, idx in commutation_relation_instances(n):
        if kind == "chain-lower":
            k, l, m = idx
            lhs = qcommutator(gen(l, m), gen(k, l), power)
            rhs = gen(k, m)
        elif kind == "chain-outer":
            k, l, m = idx
            lhs = qcommutator(gen(k, l), gen(k, m), power)
            rhs = gen(l, m)
        elif kind == "chain-upper":
            k, l, m = idx
            lhs = qcommutator(gen(k, m), gen(l, m), power)
            rhs = gen(k, l)
        elif kind == "disjoint":
            a, b, c, d = idx
            lhs = qcommutator(gen(a, b), gen(c, d), 0)
            rhs = AlgebraElement.zero(n, variant)
        elif kind == "nested":
            a, b, c, d = idx
            lhs = qcommutator(gen(a, d), gen(b, c), 0)
            rhs = AlgebraElement.zero(n, variant)
        else:
            # crossing pairs close under the plain commutator; the deformed
            # bracket picks up an extra (q^(1/2)-q^(-1/2)) Y*X term instead
            a, b, c, d = idx
            lhs = qcommutator(gen(a, c), gen(b, d), 0)
            rhs = scale * (gen(c, d) * gen(a, b) - gen(a, d) * gen(b, c))
        report.append({"relation": name, "exact_zero": (lhs - rhs).is_zero()})
    return report


def all_pass(report):
    return all(entry.get("exact_zero", entry.get("pass", False)) for entry in report)
