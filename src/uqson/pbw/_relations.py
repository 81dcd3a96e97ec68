"""The defining relations of rank n as a table, and their residuals on any
images of the neighbor generators.

Only the rule table's rank check is needed, so the numeric residuals
(`reps.relation_residual`, `djembed.verify_psi`) and the q = 1 check in
`classical` use the relations without loading the straightening kernel.
`verify` re-exports both functions.
"""

from __future__ import annotations

from ._rules import check_rank


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
