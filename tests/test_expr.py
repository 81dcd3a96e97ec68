"""Expression front end: tokens, grammar, variant inference, evaluation, and
the print/parse round trip that ties the parser to the normal-form printer.
"""

from __future__ import annotations

import operator
import random
from fractions import Fraction
from functools import reduce

import pytest

from uqson.coeffring import HALF, LaurentPoly
from uqson.errors import ExpressionSyntaxError, IndexOutOfRange, VariantMismatch
from uqson.expr import evaluate_expression, infer_variant, tokenize
from uqson.pbw import MINUS, PLUS, AlgebraElement, bracket_generator
from uqson.pbw.fuzz import random_monomial


def gen(n, k, l, variant=PLUS):
    return AlgebraElement.generator(n, k, l, variant)


def scalar(value, n=3):
    return AlgebraElement.scalar(n, value)


def test_tokenizer_layout():
    toks = tokenize("q^(1/2)*I21 - 3")
    kinds = ["q", "op", "op", "num", "op", "num", "op", "op", "gen", "op", "num"]
    assert [t.kind for t in toks] == kinds
    assert toks[0].column == 1
    assert toks[-1].column == 15


def test_tokenizer_rejects_junk_with_column():
    with pytest.raises(ExpressionSyntaxError) as err:
        tokenize("I21 $ I32")
    assert err.value.column == 5


def test_parse_precedence_binds_product_tighter():
    out = evaluate_expression("1/2 - I21*I21", 3)
    assert out == scalar(LaurentPoly.const(Fraction(1, 2))) - gen(3, 2, 1) * gen(3, 2, 1)


def test_parse_q_power_forms():
    assert evaluate_expression("q", 3) == scalar(LaurentPoly.q(1))
    assert evaluate_expression("q^2", 3) == scalar(LaurentPoly.q(2))
    assert evaluate_expression("q^(1/2)", 3) == scalar(LaurentPoly.q(HALF))
    assert evaluate_expression("q^(-3/2)", 3) == scalar(LaurentPoly.q(Fraction(-3, 2)))
    assert evaluate_expression("q^(-2)", 3) == scalar(LaurentPoly.q(-2))


def test_syntax_error_columns():
    # an unclosed parenthesis points back at the opener, not at EOF
    for src, message, col in [
        ("I43*(", "unexpected end of input", 5),
        ("I43*I21@", "unexpected character '@'", 8),
        ("", "empty expression", 1),
        ("(I21", "unclosed parenthesis", 1),
        ("3/", "unexpected end of input", 2),
        ("q^", "unexpected end of input", 2),
        ("3/q", "expected an integer denominator", 3),
        ("3/0", "zero denominator", 3),
        ("I21*)", "unexpected ')'", 5),
        ("q^)", "expected an exponent, found ')'", 3),
        ("q^(q)", "expected an integer exponent", 4),
        ("q^(1/3)", "only half-integer exponents are supported", 6),
        ("q^(1/02)", "only half-integer exponents are supported", 6),
        ("q^(2", "unexpected end of input", 3),
        ("q^(2*", "expected ')', found '*'", 5),
    ]:
        with pytest.raises(ExpressionSyntaxError) as err:
            evaluate_expression(src, 4)
        assert (str(err.value), err.value.column) == (f"{message} (column {col})", col), src


def test_trailing_space_and_a_leading_zero_denominator_parse():
    assert evaluate_expression("I21 ", 3) == gen(3, 2, 1)
    assert evaluate_expression("3/04", 3) == scalar(LaurentPoly.const(Fraction(3, 4)))


def test_generator_validation():
    with pytest.raises(ExpressionSyntaxError):
        evaluate_expression("I12", 3)  # row must exceed column
    with pytest.raises(IndexOutOfRange):
        evaluate_expression("I43", 3)
    assert evaluate_expression("I43", 4) == gen(4, 4, 3)


def test_variant_inference_and_mixing():
    assert infer_variant(tokenize("I21*I32")) == PLUS
    assert infer_variant(tokenize("Ip31")) == PLUS
    assert infer_variant(tokenize("Im31")) == MINUS
    with pytest.raises(VariantMismatch):
        infer_variant(tokenize("Ip31*Im21"))


def test_evaluate_golden_product():
    out = evaluate_expression("I32*I21", 3)
    assert str(out) == "q*I21*I32 - q^(1/2)*I31"
    assert out == gen(3, 3, 2) * gen(3, 2, 1)


def test_evaluate_bracket_recursion_example():
    out = evaluate_expression("q^(1/2)*I21*I32 - q^(-1/2)*I32*I21", 3)
    assert out == bracket_generator(3, 3, 1)
    assert str(out) == "I31"


def test_evaluate_minus_variant_marker():
    out = evaluate_expression("q^(-1/2)*I21*I32 - q^(1/2)*I32*I21", 3, variant=MINUS)
    assert out == bracket_generator(3, 3, 1, MINUS)
    assert str(out) == "Im31"


def test_evaluate_scalar_only_expression():
    out = evaluate_expression("3/2 - q^2", 3)
    assert out == AlgebraElement.scalar(3, LaurentPoly.const(Fraction(3, 2)) - LaurentPoly.q(2))


def test_unary_minus_and_parentheses():
    assert evaluate_expression("-I21*I21", 3) == -(gen(3, 2, 1) * gen(3, 2, 1))
    assert evaluate_expression("-(I21 - I32)", 3) == gen(3, 3, 2) - gen(3, 2, 1)
    assert evaluate_expression("2*(I21 + I32)", 3) == 2 * gen(3, 2, 1) + 2 * gen(3, 3, 2)


def test_division_only_for_numeric_literals():
    assert evaluate_expression("3/4", 3) == scalar(LaurentPoly.const(Fraction(3, 4)))
    with pytest.raises(ExpressionSyntaxError):
        evaluate_expression("I21/2", 3)
    with pytest.raises(ExpressionSyntaxError):
        evaluate_expression("3/0", 3)


def test_print_parse_round_trip_on_random_elements():
    # rank 12 prints generators with a two-digit row as I[k,l]
    for n in (4, 12):
        rng = random.Random(2718)
        for _ in range(50):
            e = random_monomial(rng, n, 3) * random_monomial(rng, n, 2) - random_monomial(rng, n, 2)
            if e.is_zero():
                continue
            assert evaluate_expression(str(e), n) == e


def test_print_parse_round_trip_minus_variant():
    for n in (4, 12):
        rng = random.Random(577)
        for _ in range(20):
            e = random_monomial(rng, n, 2, MINUS) * random_monomial(rng, n, 2, MINUS)
            if e.is_zero():
                continue
            assert evaluate_expression(str(e), n, variant=MINUS) == e


SUM_PARTS = ("I21*I32", "q*I31", "-I32*I21", "1/2", "q^(1/2)", "I43*I21*I32", "3*I41",
             "-(I21 - 1/3)", "q^(-1)*I32", "2/3*I21*I43")


def test_a_long_sum_equals_the_chain_of_binary_sums():
    # a sum is added into one term map; it must equal the left-to-right chain
    # of binary + and - term for term, also where terms cancel and come back
    # and where scalars come first
    rng = random.Random(31)
    for first in ("1/2", "I21*I32"):
        parts = [first] + [rng.choice(SUM_PARTS) for _ in range(300)]
        ops = [rng.choice("+-") for _ in parts[1:]]
        src = parts[0] + "".join(f" {op} ({part})" for op, part in zip(ops, parts[1:]))
        values = [evaluate_expression(part, 4) for part in parts]
        want = reduce(lambda acc, pair: (operator.add if pair[0] == "+" else operator.sub)(
            acc, pair[1]), zip(ops, values[1:]), values[0])
        got = evaluate_expression(src, 4)
        assert got == want
        assert str(got) == str(want)


def test_sums_do_not_share_or_change_their_operands():
    x = evaluate_expression("q*I21*I32 - 1/2 + I31", 3)
    before = {w: dict(c) for w, c in x._terms.items()}
    for total in (x + x, x - x, x + 1, 1 - x, x - scalar(LaurentPoly.q(1))):
        assert all(c is not x._terms.get(w) for w, c in total._terms.items())
    assert x._terms == before
    assert x + x == evaluate_expression("2*q*I21*I32 - 1 + 2*I31", 3)
    assert (x - x).is_zero()
