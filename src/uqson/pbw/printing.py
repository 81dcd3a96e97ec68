"""Canonical text form for algebra elements.

Monomials are listed in PBW order (bytes-lexicographic on code words, so the
scalar term comes first); each coefficient prints with ascending q-exponents,
through coeffring.format_laurent. Generators with a two-digit row print as
I[k,l]. The output is stable byte-for-byte and round-trips through
uqson.expr.evaluate_expression at every rank.
"""

from __future__ import annotations

from functools import lru_cache

from ..coeffring import format_laurent, join_signed
from ._rules import MINUS, gen_pairs


def generator_name(k, l, variant):
    """I<k><l> for neighbors and plus-variant elements, Im<k><l> for minus;
    I[k,l] and Im[k,l] once k has two digits, so the parser reads it back."""
    prefix = "Im" if variant == MINUS and k > l + 1 else "I"
    return f"{prefix}{k}{l}" if k < 10 else f"{prefix}[{k},{l}]"


@lru_cache(maxsize=None)
def _generator_names(n, variant):
    """Printed name of each generator code."""
    return tuple(generator_name(k, l, variant) for k, l in gen_pairs(n))


def _term_piece(items, mono):
    """(negative, body) for one term; sign is pulled out of single-term coeffs."""
    if len(items) > 1:
        coeff = "(" + format_laurent(items) + ")"
        return False, f"{coeff}*{mono}" if mono else coeff
    e2, c = items[0]
    coeff = format_laurent(((e2, abs(c)),))
    if not mono:
        return c < 0, coeff
    return c < 0, mono if coeff == "1" else f"{coeff}*{mono}"


def element_to_str(el):
    if not el._terms:
        return "0"
    names = _generator_names(el.n, el.variant)
    terms = el._terms
    return join_signed(
        _term_piece(tuple(sorted(terms[w].items())), "*".join([names[c] for c in w]))
        for w in sorted(terms)
    )
