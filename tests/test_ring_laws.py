"""Ring laws of the kernel's raw coefficient arithmetic, and of the exact
sparse matrix built on it.

`cadd`/`cmul` act on {doubled exponent: int | Fraction} dicts, the form the
straightening kernel stores. They must form a commutative ring with `{}` as
zero and `{0: 1}` as one, never store a zero coefficient (term-map equality
relies on it), and never modify their arguments. `ExactMatrix` must agree
with nested-list matrix arithmetic under the same two rules.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from uqson.coeffring import LaurentPoly
from uqson.pbw._straighten import cadd, cmul
from uqson.pbw.classical import ExactMatrix

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


# -- the exact sparse matrix ------------------------------------------------------

# small entries, so that sums in products and differences often cancel to zero
matrix_entries = st.sampled_from([
    st.integers(-2, 2),
    st.dictionaries(st.integers(-1, 1), st.integers(-2, 2), max_size=2).map(LaurentPoly),
])


def nested(entries, rows, cols):
    return st.lists(st.lists(entries, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


def nonzero_cells(m):
    return {(r, c): v for r, row in enumerate(m) for c, v in enumerate(row) if v}


@laws
@given(st.data())
def test_exact_matrix_agrees_with_nested_lists(data):
    entries = data.draw(matrix_entries)
    rows, inner, cols = (data.draw(st.integers(1, 3)) for _ in range(3))
    a, a2 = (data.draw(nested(entries, rows, inner)) for _ in range(2))
    b = data.draw(nested(entries, inner, cols))
    s = data.draw(entries)
    A, A2, B = (ExactMatrix(nonzero_cells(m)) for m in (a, a2, b))
    before = [dict(m) for m in (A, A2, B)]
    zero = [[0] * inner for _ in range(rows)]
    cases = [
        (A @ B, [[sum((a[r][t] * b[t][c] for t in range(inner)), 0) for c in range(cols)]
                 for r in range(rows)]),
        (A + A2, [[x + y for x, y in zip(*pair)] for pair in zip(a, a2)]),
        (A - A2, [[x - y for x, y in zip(*pair)] for pair in zip(a, a2)]),
        (s * A, [[s * x for x in row] for row in a]),
        (A - A, zero),
        (A + -1 * A, zero),
    ]
    for got, want in cases:
        assert type(got) is ExactMatrix
        assert all(v for v in got.values())  # no stored zero
        assert got == nonzero_cells(want)
        assert got.any() == bool(nonzero_cells(want))
    assert [dict(m) for m in (A, A2, B)] == before
