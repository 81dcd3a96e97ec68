"""Ring laws of the kernel's raw coefficient arithmetic.

`cadd`/`cmul` act on {doubled exponent: int | Fraction} dicts, the form the
straightening kernel stores. They must form a commutative ring with `{}` as
zero and `{0: 1}` as one, never store a zero coefficient (term-map equality
relies on it), and never modify their arguments.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from uqson.pbw._straighten import cadd, cmul

coeffs = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
).filter(bool)
polys = st.dictionaries(st.integers(-4, 4), coeffs, max_size=4)

laws = settings(max_examples=40, deadline=None)


def no_stored_zero(p):
    return all(c != 0 for c in p.values())


@laws
@given(polys, polys)
def test_commutative_and_zero_free(a, b):
    assert cadd(a, b) == cadd(b, a)
    assert cmul(a, b) == cmul(b, a)
    assert no_stored_zero(cadd(a, b))
    assert no_stored_zero(cmul(a, b))


@laws
@given(polys, polys, polys)
def test_associative_and_distributive(a, b, c):
    assert cadd(cadd(a, b), c) == cadd(a, cadd(b, c))
    assert cmul(cmul(a, b), c) == cmul(a, cmul(b, c))
    assert cmul(a, cadd(b, c)) == cadd(cmul(a, b), cmul(a, c))


@laws
@given(polys)
def test_identities_and_inverse(a):
    assert cadd(a, {}) == a == cadd({}, a)
    assert cmul(a, {0: 1}) == a == cmul({0: 1}, a)
    assert cmul(a, {}) == {} == cmul({}, a)
    assert cadd(a, {e: -c for e, c in a.items()}) == {}
    assert cmul(a, {0: Fraction(-1)}) == {e: -c for e, c in a.items()}


@laws
@given(polys, polys)
def test_arguments_untouched(a, b):
    before = (dict(a), dict(b))
    cadd(a, b)
    cmul(a, b)
    assert (a, b) == before
