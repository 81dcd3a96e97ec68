"""Symbolic verification of the defining and derived relation families.

Every check reduces a relation to PBW normal form and asserts exact zero (or
exact equality of the two sides); reports carry one entry per relation
instance so failures identify the offending indices. The derived commutation
families are one table of identities over the composite generators, each
generator built once.
"""

from __future__ import annotations

import operator
from itertools import combinations

from ..coeffring import LaurentPoly, qnumber
from ._relations import (  # re-exported, the same objects
    defining_relation_instances,
    defining_relation_residuals,
)
from ._rules import PLUS, gen_pairs
from .algebra import AlgebraElement, bracket_generator, qcommutator


def verify_defining_relations(n, variant=PLUS):
    """Reduce each defining relation to normal form; report exact-zero flags."""
    gens = [AlgebraElement.generator(n, i, i - 1, variant) for i in range(2, n + 1)]
    return [
        {"relation": name, "exact_zero": resid.is_zero()}
        for name, _, resid in defining_relation_residuals(n, gens, qnumber(2), operator.mul)
    ]


def verify_commutation_relations(n, variant=PLUS):
    """Check the four derived commutation families through normal forms.

    Each composite generator I[k,l] is built once by bracket_generator (not
    taken as a raw basis letter), so this also re-verifies the recursion
    against the rule table. Each identity is a left and a right side: three
    chain identities per index triple k > l > m, then, per index quadruple
    a > b > c > d, a vanishing commutator of the disjoint pairs and of the
    nested pairs, and one crossing identity. The minus variant uses the
    mirrored bracket deformation throughout.
    """
    g = {(k, l): bracket_generator(n, k, l, variant) for k, l in gen_pairs(n)}
    power = 1 if variant == PLUS else -1
    scale = LaurentPoly.q(power) - LaurentPoly.q(-power)
    zero = AlgebraElement.zero(n, variant)

    def identities():
        for m, l, k in combinations(range(1, n + 1), 3):
            idx = f"[{k},{l},{m}]"
            yield "chain-lower" + idx, qcommutator(g[l, m], g[k, l], power), g[k, m]
            yield "chain-outer" + idx, qcommutator(g[k, l], g[k, m], power), g[l, m]
            yield "chain-upper" + idx, qcommutator(g[k, m], g[l, m], power), g[k, l]
        for d, c, b, a in combinations(range(1, n + 1), 4):
            idx = f"[{a},{b},{c},{d}]"
            yield "disjoint" + idx, qcommutator(g[a, b], g[c, d], 0), zero
            yield "nested" + idx, qcommutator(g[a, d], g[b, c], 0), zero
            # crossing pairs close under the plain commutator; the deformed
            # bracket picks up an extra (q^(1/2)-q^(-1/2)) Y*X term instead
            yield ("crossing" + idx, qcommutator(g[a, c], g[b, d], 0),
                   scale * (g[c, d] * g[a, b] - g[a, d] * g[b, c]))

    return [{"relation": name, "exact_zero": (lhs - rhs).is_zero()}
            for name, lhs, rhs in identities()]


def all_pass(report):
    return all(entry.get("exact_zero", entry.get("pass", False)) for entry in report)
