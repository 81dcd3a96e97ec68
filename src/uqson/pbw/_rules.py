"""Straightening rule tables for the PBW rewrite engine.

Generators are the elements I[k,l] with n >= k > l >= 1, ordered by
(k, l) ascending; a monomial is a nondecreasing word in that order.  For an
adjacent out-of-order product X*Y (X = I[a,b], Y = I[c,d], X after Y in the
order) exactly one of five index patterns applies, each giving a rewrite of
X*Y into a combination of words that are strictly smaller in the
degree-then-lexicographic well-order:

  shared middle  b == c:          X*Y = q        * Y*X - q**( 1/2) * I[a,d]
  shared row     a == c, b > d:   X*Y = q**(-1)  * Y*X + q**(-1/2) * I[b,d]
  shared column  b == d, a > c:   X*Y = q**(-1)  * Y*X + q**(-1/2) * I[a,c]
  disjoint/nested (no shared index, non-interleaved): X*Y = Y*X
  crossing       a > c > b > d:   X*Y = Y*X
                   + (q - q**-1) * (I[b,d]*I[a,c] - I[c,b]*I[a,d])

The crossing correction rides on the plain commutator, not the deformed one:
with a q**-1-weighted swap the I[b,d]*I[a,c] overlap ambiguities fail to
resolve and products stop being associative, so confluence forces the
undeformed swap here.

The minus-variant table is the same with q replaced by q**-1.  Each entry
is one signed q-power times a word, (word, shift, sign) for
sign * q**(shift/2) * word, with shift an int (1 encodes q**(1/2)) and sign
the int +1 or -1; the crossing correction's q - q**-1 is two entries per
word.  Replacement words are bytes of generator codes and are already
sorted, so the crossing corrections never need a second pass through the
crossing rule.
"""

from __future__ import annotations

from functools import lru_cache

from ..errors import IndexOutOfRange, RankMismatch, VariantMismatch

PLUS = "plus"
MINUS = "minus"
VARIANTS = (PLUS, MINUS)

# Generator codes are single bytes; rank 23 gives 253 generators.
MAX_RANK = 23


def check_rank(n):
    if not isinstance(n, int) or n < 3:
        raise RankMismatch(f"rank must be an integer >= 3, got {n!r}")
    if n > MAX_RANK:
        raise RankMismatch(f"rank {n} exceeds the supported maximum {MAX_RANK}")
    return n


def check_variant(variant):
    if variant not in VARIANTS:
        raise VariantMismatch(f"variant must be one of {VARIANTS}, got {variant!r}")
    return variant


@lru_cache(maxsize=None)
def gen_pairs(n):
    """All (k, l) with n >= k > l >= 1 in PBW order."""
    check_rank(n)
    return tuple((k, l) for k in range(2, n + 1) for l in range(1, k))


@lru_cache(maxsize=None)
def code_of(n):
    return {pair: i for i, pair in enumerate(gen_pairs(n))}


def gen_code(n, k, l):
    if not (1 <= l < k <= n):
        raise IndexOutOfRange(f"generator I[{k},{l}] is outside rank {n}")
    return code_of(n)[(k, l)]


def classify_pair(x_pair, y_pair):
    """Index pattern of an out-of-order adjacent pair (x after y in PBW order)."""
    a, b = x_pair
    c, d = y_pair
    if (a, b) <= (c, d):
        raise ValueError("pair is not out of order")
    if a == c:
        return "shared-row"
    if b == c:
        return "shared-middle"
    if b == d:
        return "shared-column"
    if a > b > c > d:
        return "disjoint"
    if a > c > d > b:
        return "nested"
    if a > c > b > d:
        return "crossing"
    raise AssertionError(f"unclassified pair {x_pair}, {y_pair}")


def _rule_entries(n, x_pair, y_pair, s):
    """Rewrite of X*Y as ((word bytes, shift, sign), ...); s=+1 plus, -1 minus."""
    code = code_of(n)
    a, b = x_pair
    c, d = y_pair
    x = code[x_pair]
    y = code[y_pair]
    swap = bytes((y, x))
    kind = classify_pair(x_pair, y_pair)
    if kind == "shared-middle":
        return ((swap, 2 * s, 1), (bytes((code[(a, d)],)), s, -1))
    if kind == "shared-row":
        return ((swap, -2 * s, 1), (bytes((code[(b, d)],)), -s, 1))
    if kind == "shared-column":
        return ((swap, -2 * s, 1), (bytes((code[(a, c)],)), -s, 1))
    if kind in ("disjoint", "nested"):
        return ((swap, 0, 1),)
    # crossing: plain swap; both correction words are in PBW order as written,
    # each times q - q**-1 (mirrored for minus), one entry per q-power
    w1 = bytes((code[(b, d)], code[(a, c)]))
    w2 = bytes((code[(c, b)], code[(a, d)]))
    return ((swap, 0, 1), (w1, 2 * s, 1), (w1, -2 * s, -1), (w2, 2 * s, -1), (w2, -2 * s, 1))


@lru_cache(maxsize=None)
def rule_table(n, variant=PLUS):
    """Rewrite table {x<<8 | y: entries} for every out-of-order pair of codes."""
    s = 1 if check_variant(variant) == PLUS else -1
    pairs = gen_pairs(n)
    table = {}
    for xi, x_pair in enumerate(pairs):
        for yi, y_pair in enumerate(pairs):
            if xi <= yi:
                continue
            table[(xi << 8) | yi] = _rule_entries(n, x_pair, y_pair, s)
    return table
