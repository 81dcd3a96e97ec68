"""Straightening kernel: PBW normal forms by rewriting inversions.

Words are bytes of generator codes, coefficients are {doubled exponent:
rational} dicts. A sum of seed terms coeff*word is straightened in one
worklist: `pending` maps each word met so far to its merged coefficient,
and the largest pending word in (length, lex) order is rewritten next, at
its first inversion.

Why this is exact and rewrites each word once: every rule replaces an
adjacent inversion x*y by words that are strictly smaller in (length, lex)
order (a swap y*x, a shorter word, or a crossing correction that starts
with a smaller letter). So once a word is taken, nothing pending or still
to come can produce it again: its coefficient is complete, and each
distinct word is rewritten (or emitted, if it has no inversion) exactly
once. Which inversion is rewritten does not change the result, because the
rewrite system is confluent (Bergman's diamond lemma; the associativity
fuzz checks it). Pending words are kept in one sorted list per length,
popped from the end; a rewrite only inserts smaller words, so the end of
the list stays the largest word.

Coefficient dicts are never modified in place, so a coefficient may be
shared by a seed, a pending entry and an output term.
"""

from bisect import insort

from ..coeffring import cadd, cmul


def _is_unit(c):
    """True for the int one {0: 1}; {0: Fraction(1)} is not reused as one."""
    return len(c) == 1 and type(c.get(0)) is int and c[0] == 1


def straighten(pending, rules):
    """Normal form {word: coeff} of the sum of coeff*word over `pending`.

    pending is a {word: coeff} dict, which the kernel consumes; rules is
    `rule_table(n, variant)`. Each rule entry is one signed q-power, so it
    shifts the coefficient's exponents and negates its values for sign -1.
    """
    out = {}
    queues = [[]]
    for w in pending:
        while len(queues) <= len(w):
            queues.append([])
        queues[len(w)].append(w)
    for length in range(len(queues) - 1, -1, -1):
        queue = queues[length]
        queue.sort()
        shorter = queues[length - 1]  # unused at length 0: no inversion there
        last = length - 1
        while queue:
            w = queue.pop()
            c = pending.pop(w)
            if not c:
                continue
            i = 0
            while i < last and w[i] <= w[i + 1]:
                i += 1
            if i >= last:
                out[w] = c
                continue
            pre = w[:i]
            post = w[i + 2 :]
            for repl, shift, sign in rules[(w[i] << 8) | w[i + 1]]:
                nw = pre + repl + post
                if sign > 0:
                    nc = c if shift == 0 else {e + shift: v for e, v in c.items()}
                else:
                    nc = {e + shift: -v for e, v in c.items()}
                cur = pending.get(nw)
                if cur is None:
                    pending[nw] = nc
                    insort(queue if len(repl) == 2 else shorter, nw)
                else:
                    pending[nw] = cadd(cur, nc)
    return out


def mul_terms(ta, tb, rules):
    """Normal form of the product of two term maps {word: coeff}."""
    pending = {}
    for wa, ca in ta.items():
        for wb, cb in tb.items():
            w = wa + wb
            c = ca if _is_unit(cb) else cmul(ca, cb)
            cur = pending.get(w)
            pending[w] = c if cur is None else cadd(cur, c)
    return straighten(pending, rules)
