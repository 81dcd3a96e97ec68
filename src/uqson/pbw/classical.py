"""Classical q=1 cross-check of the straightening rules, and the exact sparse
matrix it and the embedding check compute with.

Independent oracle: the signed antisymmetric matrices
J[k,l] := (-1)**(k-l-1) * (E_kl - E_lk) realize the q=1 structure constants
of the rewrite system, so every rule instance and every defining relation can
be checked as an exact integer matrix identity with no Laurent arithmetic
involved.
"""

from __future__ import annotations

from operator import matmul

from ._rules import check_rank, classify_pair, gen_pairs, rule_table
from ._relations import defining_relation_residuals


class ExactMatrix(dict):
    """Exact sparse matrix {(row, col): nonzero entry} over ints or LaurentPoly,
    with what the relation residuals use: @, +, -, scalar * (on the left),
    any() and ==. No operation stores a zero entry or changes an operand."""

    def __init__(self, cells=()):
        super().__init__((cell, v) for cell, v in dict(cells).items() if v)

    def __add__(self, other):
        out = dict(self)
        for cell, v in other.items():
            out[cell] = out[cell] + v if cell in out else v
        return ExactMatrix(out)

    def __sub__(self, other):
        return self + ExactMatrix({cell: -v for cell, v in other.items()})

    def __rmul__(self, scalar):
        return ExactMatrix({cell: scalar * v for cell, v in self.items()})

    def __matmul__(self, other):
        rows = {}
        for (k, c), b in other.items():
            rows.setdefault(k, []).append((c, b))
        out = {}
        for (r, k), a in self.items():
            for c, b in rows.get(k, ()):
                out[r, c] = out[r, c] + a * b if (r, c) in out else a * b
        return ExactMatrix(out)

    def any(self):
        return bool(self)


def classical_generator(n, k, l):
    """Integer matrix J[k,l] on C^n as an ExactMatrix (0-indexed rows/cols)."""
    check_rank(n)
    sign = (-1) ** (k - l - 1)
    return ExactMatrix({(k - 1, l - 1): sign, (l - 1, k - 1): -sign})


def verify_classical_limit(n):
    """Check every rule instance and defining relation at q=1 on J matrices.

    Returns a report list of {"relation": str, "exact_zero": bool}. Each rule
    entry sign * q**(shift/2) * word is sign * word at q=1; the crossing
    correction's two entries per word cancel there.
    """
    check_rank(n)
    pairs = gen_pairs(n)
    mats = [classical_generator(n, k, l) for k, l in pairs]
    report = []

    table = rule_table(n)
    for key, entries in sorted(table.items()):
        xi, yi = key >> 8, key & 0xFF
        lhs = mats[xi] @ mats[yi]
        acc = ExactMatrix()
        for word, _, sign in entries:
            term = mats[word[0]]  # a rule word holds one or two letters
            for code in word[1:]:
                term = term @ mats[code]
            acc = acc + sign * term
        kind = classify_pair(pairs[xi], pairs[yi])
        name = f"rule {kind} I{pairs[xi][0]}{pairs[xi][1]}*I{pairs[yi][0]}{pairs[yi][1]}"
        report.append({"relation": name, "exact_zero": lhs == acc})

    # Defining relations on the neighbor matrices directly.
    gens = [mats[pairs.index((i, i - 1))] for i in range(2, n + 1)]
    for name, _, resid in defining_relation_residuals(n, gens, 2, matmul):
        report.append({"relation": f"classical {name}", "exact_zero": not resid.any()})
    return report
