"""Differential test: the straightening kernel against the reference rewriter.

Random elements at ranks 3-6, both variants, are straightened by
`uqson.pbw._straighten` and by `straighten_oracle` (the former kernel), and
so are their products. Coefficients are ints or fractions (1/2, -3/2 and
the integral `Fraction(1)`, `Fraction(2)`), and some seeds repeat an earlier
seed with the opposite sign, so sums cancel to zero, in part or in full.

When each operand is all int or all Fraction, the two term maps must give
the same canonical dump (words sorted, each coefficient as sorted (doubled
exponent, rational) items, reprs), so an int coefficient and an equal
`Fraction` stay distinct. When one operand mixes them, only the values must
agree: see `test_kernel_matches_oracle_with_mixed_types`.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import straighten_oracle as oracle
from uqson.coeffring import cadd
from uqson.pbw import MINUS, PLUS, gen_pairs
from uqson.pbw._rules import rule_table
from uqson.pbw._straighten import mul_terms, straighten

INTS = [1, -1, 2, -3]
FRACTIONS = [Fraction(1, 2), Fraction(-3, 2), Fraction(1), Fraction(2)]


@st.composite
def cases(draw, pools):
    n = draw(st.integers(3, 6))
    variant = draw(st.sampled_from([PLUS, MINUS]))
    codes = st.integers(0, len(gen_pairs(n)) - 1)
    words = st.lists(codes, max_size=4).map(bytes)

    def seeds():
        rationals = st.sampled_from(draw(st.sampled_from(pools)))
        coeffs = st.dictionaries(st.integers(-3, 3), rationals, min_size=1, max_size=2)
        out = draw(st.lists(st.tuples(words, coeffs), min_size=1, max_size=4))
        for w, c in list(out):
            if draw(st.booleans()):
                out.append((w, {e: -v for e, v in c.items()}))
        return out

    return n, variant, seeds(), seeds()


def dump(terms):
    return repr([(w.hex(), sorted(c.items())) for w, c in sorted(terms.items())])


def merged(seeds):
    """The seeds as one {word: coeff} map, equal words summed in order."""
    out = {}
    for w, c in seeds:
        out[w] = cadd(out[w], c) if w in out else c
    return out


def oracle_sum(seeds, rules):
    out = {}
    for w, c in seeds:
        oracle.straighten_into(out, w, c, 0, rules)
    return out


def both_kernels(case):
    n, variant, seeds_a, seeds_b = case
    rules = rule_table(n, variant)
    ta = straighten(merged(seeds_a), rules)
    tb = straighten(merged(seeds_b), rules)
    ref_a = oracle_sum(seeds_a, rules)
    ref_b = oracle_sum(seeds_b, rules)
    return (
        [ta, tb, mul_terms(ta, tb, rules)],
        [ref_a, ref_b, oracle.mul_terms(ref_a, ref_b, rules)],
    )


@settings(max_examples=150, deadline=None)
@given(cases([INTS, FRACTIONS]))
def test_kernel_matches_oracle_bit_for_bit(case):
    # each operand is all int or all Fraction, so every summand met at one
    # (word, exponent) has the same type and the sum's type cannot depend
    # on the order in which the two kernels add them up
    got, ref = both_kernels(case)
    assert [dump(t) for t in got] == [dump(t) for t in ref]


@settings(max_examples=50, deadline=None)
@given(cases([INTS + FRACTIONS]))
def test_kernel_matches_oracle_with_mixed_types(case):
    # with int and Fraction summands at one place, a partial sum that
    # cancels to zero drops the key, and whether the final sum is an int or
    # an equal Fraction depends on the order of addition, which differs
    # between the kernels; the values must still agree exactly
    got, ref = both_kernels(case)
    assert got == ref


def test_only_the_int_one_is_reused_as_a_unit():
    # a seed times {0: 1} keeps its coefficient dict; times {0: Fraction(1)}
    # it must become a Fraction, as cmul makes it
    rules = rule_table(4, PLUS)
    ta = {bytes([3]): {0: 2, 1: -1}, b"": {2: 3}}
    for unit in ({0: 1}, {0: Fraction(1)}):
        tb = {bytes([0]): unit, b"": unit}
        assert dump(mul_terms(ta, tb, rules)) == dump(oracle.mul_terms(ta, tb, rules))
