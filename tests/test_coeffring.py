"""Exact scalar layer: Laurent polynomials in q^(1/2), q-numbers, numeric
evaluation at roots of unity.

Numeric goldens below were first computed with plain cmath expressions
(q**a - q**-a)/(q - 1/q) and then frozen; symbolic goldens are checked
against the closed forms stated in the docstrings.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import pytest

from uqson.coeffring import (
    HALF,
    LaurentPoly,
    RootOfUnity,
    qbracket_numeric,
    qnumber,
    qpow_complex,
)
from uqson.errors import DegenerateDenominator, ZeroBase


def test_constructors_normalize_to_doubled_exponents():
    p = LaurentPoly({1: 1, HALF: 2, Fraction(-3, 2): Fraction(1, 3)})
    assert p.items2() == ((-3, Fraction(1, 3)), (1, 2), (2, 1))
    assert LaurentPoly.q(HALF).items2() == ((1, 1),)
    assert LaurentPoly.q(-1).items2() == ((-2, 1),)
    assert LaurentPoly.const(0).is_zero()
    assert LaurentPoly.zero().items2() == ()
    assert LaurentPoly.one() == 1


def test_quarter_integer_exponent_rejected():
    with pytest.raises(ValueError):
        LaurentPoly({Fraction(1, 4): 1})


def test_ring_axioms_spot_checks():
    a = LaurentPoly.q(1) + LaurentPoly.const(Fraction(1, 2))
    b = LaurentPoly.q(-HALF) - 3
    c = qnumber(2)
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == LaurentPoly.zero()
    assert a * LaurentPoly.one() == a
    assert (a * b).terms() == (b * a).terms()


def test_integer_and_fraction_coercion():
    p = LaurentPoly.q(1)
    assert 2 * p == p + p
    assert p - 1 == LaurentPoly({1: 1, 0: -1})
    assert Fraction(1, 2) * p == LaurentPoly({1: HALF})
    assert p + 0 == p
    assert (p == "q") is False


def test_pow_matches_repeated_product():
    p = LaurentPoly.q(HALF) + 1
    assert p**0 == LaurentPoly.one()
    assert p**3 == p * p * p
    with pytest.raises(ValueError):
        p ** (-1)


def test_qnumber_closed_forms():
    assert qnumber(0).is_zero()
    assert qnumber(1) == LaurentPoly.one()
    assert qnumber(2) == LaurentPoly.q(1) + LaurentPoly.q(-1)
    assert qnumber(3) == LaurentPoly.q(2) + 1 + LaurentPoly.q(-2)
    assert qnumber(-2) == -qnumber(2)
    # the shift identity [a+1] + [a-1] = [2][a]
    for a in range(-4, 5):
        assert qnumber(a + 1) + qnumber(a - 1) == qnumber(2) * qnumber(a)


def test_qnumber_rejects_half_integers():
    with pytest.raises(ValueError):
        qnumber(HALF)
    with pytest.raises(ValueError):
        qnumber(Fraction(5, 2))
    with pytest.raises(ValueError):
        qnumber(Fraction(1, 3))


def test_evaluate_matches_direct_cmath():
    p = LaurentPoly({HALF: 1, -2: Fraction(3, 4), 0: -1})
    for q in (0.3 + 0.1j, cmath.exp(0.7j), 2.0):
        s = cmath.sqrt(q)
        expected = s + Fraction(3, 4) * q**-2 - 1
        assert abs(p.evaluate(q) - expected) < 1e-12


def test_evaluate_rejects_zero_and_nonfinite():
    p = LaurentPoly.q(1)
    with pytest.raises(ZeroBase):
        p.evaluate(0)
    with pytest.raises(ValueError):
        p.evaluate(float("nan"))


def test_qnumber_evaluates_to_bracket_quotient():
    # independent oracle: (q^a - q^-a)/(q - q^-1) in raw complex arithmetic
    q = cmath.exp(0.31j) * 1.1
    for a in (1, 2, 3, 5, -4):
        direct = (q**a - q**-a) / (q - 1 / q)
        assert abs(qnumber(a).evaluate(q) - direct) < 1e-12


def test_str_goldens():
    assert str(qnumber(2)) == "q^(-1) + q"
    assert str(qnumber(3)) == "q^(-2) + 1 + q^(2)"
    assert str(qnumber(0)) == "0"
    assert str(qnumber(1)) == "1"
    assert str(qnumber(-2)) == "-q^(-1) - q"
    assert str(LaurentPoly.q(HALF)) == "q^(1/2)"
    assert str(2 * LaurentPoly.q(Fraction(-3, 2))) == "2*q^(-3/2)"
    assert str(LaurentPoly.const(HALF) + LaurentPoly.q(1)) == "1/2 + q"
    assert str(LaurentPoly.zero()) == "0"


def test_hash_consistent_with_equality():
    a = LaurentPoly({1: 1, 0: 2})
    b = LaurentPoly.q(1) + 2
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_root_of_unity_validation():
    with pytest.raises(ValueError):
        RootOfUnity(1)
    with pytest.raises(ValueError):
        RootOfUnity(6, 3)  # gcd(3, 6) != 1
    with pytest.raises(ValueError):
        RootOfUnity(5, 0)
    root = RootOfUnity(5, 2)
    assert abs(root.value() - cmath.exp(4j * math.pi / 5)) < 1e-15
    assert abs(root.value() ** 5 - 1) < 1e-12


def test_qpow_complex_branch():
    root = RootOfUnity(7, 1)
    # q^x = exp(x log q) with log q = 2*pi*i*t/k, also for complex x
    x = 0.3 + 0.25j
    expected = cmath.exp(x * 2j * math.pi / 7)
    assert abs(qpow_complex(x, root) - expected) < 1e-14
    assert abs(qpow_complex(1, root) - root.value()) < 1e-15


def test_qbracket_numeric_matches_quotient():
    root = RootOfUnity(5, 2)
    q = root.value()
    for x in (1, 2.5, 0.3 + 0.7j):
        direct = (qpow_complex(x, root) - qpow_complex(-x, root)) / (q - 1 / q)
        assert abs(qbracket_numeric(x, root) - direct) < 1e-12
    assert abs(qbracket_numeric(1, root) - 1) < 1e-14
    assert abs(qbracket_numeric(0, root)) < 1e-14


def test_qbracket_numeric_order_two_degenerates():
    with pytest.raises(DegenerateDenominator):
        qbracket_numeric(1, RootOfUnity(2, 1))


def test_bracket_periodicity_at_root_of_unity():
    # q^k = 1 makes the bracket periodic in integer steps of k
    root = RootOfUnity(5, 1)
    x = 0.37 + 0.11j
    assert abs(qbracket_numeric(x, root) - qbracket_numeric(x + 5, root)) < 1e-12


def test_fraction_coefficients_print_like_ints():
    # integral Fractions made by the ring arithmetic print as the int would
    poly = LaurentPoly.const(HALF) * LaurentPoly({0: 1, 1: 2, -1: -3})
    assert poly._terms == {0: HALF, 2: Fraction(1), -2: Fraction(-3, 2)}
    assert all(type(c) is Fraction for c in poly._terms.values())
    assert str(poly) == "-3/2*q^(-1) + 1/2 + q"
    unit = LaurentPoly.const(HALF) * 2
    assert type(unit._terms[0]) is Fraction
    assert str(unit) == str(LaurentPoly.one()) == "1"
    assert str(unit - LaurentPoly.q(-1) * Fraction(3, 2)) == "-3/2*q^(-1) + 1"
    assert str(-unit * LaurentPoly.q(HALF)) == str(LaurentPoly({HALF: -1})) == "-q^(1/2)"
