"""Reference straightening rewriter, kept as a test oracle.

This is the kernel uqson used before the largest-first worklist: each seed
word is straightened on its own, always at the first inversion at or after
a hint, and normal words are summed into the output as they appear. It is
slow but short, so the differential test in `test_kernel_oracle.py` checks
`uqson.pbw._straighten` against it. Rule tables come from
`uqson.pbw._rules.rule_table`; each entry (word, shift, sign) is multiplied
in as the coefficient {shift: sign} through `cmul`, not by the kernel's
exponent shift, so the oracle stays an independent reference.
"""

from uqson.coeffring import cadd, cmul


def first_inversion(w, start):
    i = start if start > 0 else 0
    last = len(w) - 1
    while i < last:
        if w[i] > w[i + 1]:
            return i
        i += 1
    return -1


def straighten_into(out, word, coeff, hint, rules):
    """Accumulate the normal form of coeff*word into out (word dict)."""
    pending = {word: (coeff, hint)}
    while pending:
        w, (c, h) = pending.popitem()
        i = first_inversion(w, h)
        if i < 0:
            cur = out.get(w)
            if cur is None:
                out[w] = c
            else:
                cur = cadd(cur, c)
                if cur:
                    out[w] = cur
                else:
                    del out[w]
            continue
        pre = w[:i]
        post = w[i + 2 :]
        nh = i - 1 if i > 0 else 0
        for repl, shift, sign in rules[(w[i] << 8) | w[i + 1]]:
            nw = pre + repl + post
            nc = cmul(c, {shift: sign})
            ent = pending.get(nw)
            if ent is None:
                pending[nw] = (nc, nh)
            else:
                merged = cadd(ent[0], nc)
                h2 = ent[1] if ent[1] < nh else nh
                if merged:
                    pending[nw] = (merged, h2)
                else:
                    del pending[nw]
    return out


def mul_terms(ta, tb, rules):
    """Normal form of the product of two term maps {word: coeff}."""
    out = {}
    for wa, ca in ta.items():
        la = len(wa)
        hint = la - 1 if la else 0
        for wb, cb in tb.items():
            straighten_into(out, wa + wb, cmul(ca, cb), hint, rules)
    return out
