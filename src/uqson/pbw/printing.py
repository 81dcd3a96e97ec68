"""Canonical text form for algebra elements.

Monomials are listed in PBW order (bytes-lexicographic on code words, so the
scalar term comes first); each coefficient prints with ascending q-exponents.
The output is stable byte-for-byte and round-trips through the expression
parser.
"""

from __future__ import annotations

from functools import lru_cache

from ..coeffring import format_laurent, format_qpower, format_rational, join_signed
from ._rules import MINUS, gen_pairs


def generator_name(k, l, variant):
    """I<k><l> for neighbors and plus-variant elements, Im<k><l> for minus."""
    if variant == MINUS and k > l + 1:
        return f"Im{k}{l}"
    return f"I{k}{l}"


@lru_cache(maxsize=None)
def _generator_names(n, variant):
    """Printed name of each generator code."""
    return tuple(generator_name(k, l, variant) for k, l in gen_pairs(n))


def _term_piece(items, mono):
    """(negative, body) for one term; sign is pulled out of single-term coeffs."""
    if not mono:
        if len(items) == 1:
            e2, c = items[0]
            return c < 0, format_laurent(((e2, abs(c)),))
        return False, "(" + format_laurent(items) + ")"
    if len(items) == 1:
        e2, c = items[0]
        neg = c < 0
        mag = abs(c)
        factors = []
        if e2 == 0:
            if mag != 1:
                factors.append(format_rational(mag))
        else:
            if mag != 1:
                factors.append(format_rational(mag))
            factors.append(format_qpower(e2))
        factors.append(mono)
        return neg, "*".join(factors)
    return False, "(" + format_laurent(items) + ")*" + mono


def element_to_str(el):
    if not el._terms:
        return "0"
    names = _generator_names(el.n, el.variant)
    terms = el._terms
    return join_signed(
        _term_piece(tuple(sorted(terms[w].items())), "*".join([names[c] for c in w]))
        for w in sorted(terms)
    )
