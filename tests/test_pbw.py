"""Normal-form algebra: straightening rules, composite brackets, relation
closure, and the confluence properties that caught the crossing-rule bug.

Reduction goldens were frozen from hand-derived single-step rewrites (solve
the relevant q-commutator identity for the out-of-order product); relation
suites assert exact zero in the coefficient ring, no tolerances anywhere.
"""

from __future__ import annotations

import hashlib
import operator
import random
from fractions import Fraction
from itertools import product

import pytest

from uqson.coeffring import HALF, LaurentPoly, qnumber
from uqson.errors import IndexOutOfRange, RankMismatch, VariantMismatch
from uqson.pbw import verify as verify_module
from uqson.pbw import (
    MINUS,
    PLUS,
    AlgebraElement,
    bracket_generator,
    qcommutator,
    verify_commutation_relations,
    verify_defining_relations,
)
from uqson.pbw._rules import classify_pair, gen_pairs, rule_table
from uqson.pbw.classical import verify_classical_limit
from uqson.pbw.fuzz import associativity_fuzz, random_monomial
from uqson.pbw.verify import (
    all_pass,
    defining_relation_instances,
    defining_relation_residuals,
)


def gen(n, k, l, variant=PLUS):
    return AlgebraElement.generator(n, k, l, variant)


# -- rule table shape ---------------------------------------------------------


def test_every_out_of_order_pair_is_classified_once():
    kinds = {"shared-row", "shared-middle", "shared-column", "disjoint", "nested", "crossing"}
    seen = set()
    pairs = gen_pairs(6)
    for x in pairs:
        for y in pairs:
            if x <= y:
                continue
            kind = classify_pair(x, y)
            assert kind in kinds
            seen.add(kind)
    assert seen == kinds


def test_rule_table_covers_all_inversions_and_replacements_are_sorted():
    for n in (3, 4, 5):
        pairs = gen_pairs(n)
        for variant in (PLUS, MINUS):
            table = rule_table(n, variant)
            assert len(table) == len(pairs) * (len(pairs) - 1) // 2
            for entries in table.values():
                for word, shift, sign in entries:
                    assert type(word) is bytes and bytes(sorted(word)) == word
                    assert type(shift) is int
                    assert type(sign) is int and sign in (1, -1)


def test_minus_table_is_q_inverse_mirror():
    plus = rule_table(4, PLUS)
    minus = rule_table(4, MINUS)
    for key, entries in plus.items():
        assert minus[key] == tuple((w, -shift, sign) for w, shift, sign in entries)


def test_rule_table_entries_sum_to_the_five_patterns():
    # each word's entries, summed into {doubled exponent: sign}, against the
    # five index patterns written out here from the paper's relations:
    #   b == c: q*Y*X - q^(1/2)*I[a,d]
    #   a == c or b == d: q^-1*Y*X + q^(-1/2)*(I[b,d] or I[a,c])
    #   a > c > b > d: Y*X + (q - q^-1)*(I[b,d]*I[a,c] - I[c,b]*I[a,d])
    #   otherwise: Y*X
    for n in range(3, 7):
        pairs = gen_pairs(n)
        code = {pair: i for i, pair in enumerate(pairs)}
        for variant, s in ((PLUS, 1), (MINUS, -1)):
            table = rule_table(n, variant)
            for xi, (a, b) in enumerate(pairs):
                for yi, (c, d) in enumerate(pairs[:xi]):
                    swap = bytes((yi, xi))
                    if b == c:
                        want = {swap: {2: 1}, bytes((code[a, d],)): {1: -1}}
                    elif a == c:
                        want = {swap: {-2: 1}, bytes((code[b, d],)): {-1: 1}}
                    elif b == d:
                        want = {swap: {-2: 1}, bytes((code[a, c],)): {-1: 1}}
                    elif a > c > b > d:
                        want = {swap: {0: 1},
                                bytes((code[b, d], code[a, c])): {2: 1, -2: -1},
                                bytes((code[c, b], code[a, d])): {2: -1, -2: 1}}
                    else:
                        want = {swap: {0: 1}}
                    want = {w: {s * e: v for e, v in c.items()} for w, c in want.items()}
                    got = {}
                    for word, shift, sign in table[(xi << 8) | yi]:
                        coeff = got.setdefault(word, {})
                        coeff[shift] = coeff.get(shift, 0) + sign
                    assert got == want, (variant, pairs[xi], pairs[yi])


def test_rule_table_refuses_an_unknown_variant():
    with pytest.raises(VariantMismatch, match="variant must be one of"):
        rule_table(3, "bogus")


# -- single-step reduction goldens -------------------------------------------


def test_shared_middle_golden():
    # I32*I21 = q*I21*I32 - q^(1/2)*I31
    assert str(gen(3, 3, 2) * gen(3, 2, 1)) == "q*I21*I32 - q^(1/2)*I31"


def test_shared_row_golden():
    # I43*I42 = q^(-1)*I42*I43 + q^(-1/2)*I32
    lhs = gen(4, 4, 3) * gen(4, 4, 2)
    rhs = LaurentPoly.q(-1) * (gen(4, 4, 2) * gen(4, 4, 3)) + LaurentPoly.q(-HALF) * gen(4, 3, 2)
    assert lhs == rhs


def test_shared_column_golden():
    # I31*I21 = q^(-1)*I21*I31 + q^(-1/2)*I32
    lhs = gen(3, 3, 1) * gen(3, 2, 1)
    rhs = LaurentPoly.q(-1) * (gen(3, 2, 1) * gen(3, 3, 1)) + LaurentPoly.q(-HALF) * gen(3, 3, 2)
    assert lhs == rhs


def test_disjoint_and_nested_commute_exactly():
    assert gen(4, 4, 3) * gen(4, 2, 1) == gen(4, 2, 1) * gen(4, 4, 3)
    assert gen(4, 4, 1) * gen(4, 3, 2) == gen(4, 3, 2) * gen(4, 4, 1)


def test_crossing_golden_plain_commutator():
    # [I42, I31] = (q - q^-1)(I21*I43 - I32*I41), undeformed swap
    n = 4
    scale = LaurentPoly.q(1) - LaurentPoly.q(-1)
    lhs = gen(n, 4, 2) * gen(n, 3, 1) - gen(n, 3, 1) * gen(n, 4, 2)
    rhs = scale * (gen(n, 2, 1) * gen(n, 4, 3) - gen(n, 4, 1) * gen(n, 3, 2))
    assert lhs == rhs


def test_normal_form_is_stable_under_rebuild():
    # re-assembling an element from its own (monomial, coefficient) view is
    # the identity: normal forms contain no hidden reducible words
    rng = random.Random(7)
    for _ in range(20):
        e = random_monomial(rng, 4, 3) * random_monomial(rng, 4, 2)
        rebuilt = AlgebraElement.zero(4)
        for mono, coeff in e.items():
            rebuilt = rebuilt + coeff * AlgebraElement.from_word(4, mono)
        assert rebuilt == e


# -- composite generators -----------------------------------------------------


def test_bracket_generator_recursion_base_and_step():
    n = 4
    assert bracket_generator(n, 2, 1) == gen(n, 2, 1)
    assert bracket_generator(n, 3, 1) == qcommutator(gen(n, 2, 1), gen(n, 3, 2), 1)
    assert bracket_generator(n, 4, 1) == qcommutator(gen(n, 2, 1), bracket_generator(n, 4, 2), 1)
    m41 = bracket_generator(n, 4, 1, MINUS)
    assert m41 == qcommutator(gen(n, 2, 1, MINUS), bracket_generator(n, 4, 2, MINUS), -1)


def test_composite_equals_single_basis_letter():
    # each composite reduces to the corresponding basis generator itself
    for n in (3, 4, 5):
        for k, l in gen_pairs(n):
            assert bracket_generator(n, k, l) == gen(n, k, l)
            assert str(bracket_generator(n, k, l)) == f"I{k}{l}"


def test_minus_composites_print_with_marker():
    assert str(bracket_generator(3, 3, 1, MINUS)) == "Im31"
    assert str(bracket_generator(3, 3, 2, MINUS)) == "I32"  # neighbors carry no marker


def test_qcommutator_definition():
    a, b = gen(3, 2, 1), gen(3, 3, 2)
    explicit = LaurentPoly.q(HALF) * (a * b) - LaurentPoly.q(-HALF) * (b * a)
    assert qcommutator(a, b, 1) == explicit
    assert qcommutator(a, b, 0) == a * b - b * a


# -- relation suites ----------------------------------------------------------


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_defining_relations_exact(n):
    report = verify_defining_relations(n)
    assert all(entry["exact_zero"] for entry in report)
    assert all_pass(report)


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("variant", [PLUS, MINUS])
def test_commutation_relations_exact(n, variant):
    report = verify_commutation_relations(n, variant)
    assert all(entry["exact_zero"] for entry in report)


@pytest.mark.parametrize("n", [3, 5, 7])
def test_commutation_relations_build_each_generator_once(monkeypatch, n):
    calls = []

    def counted(*args):
        calls.append(args[1:3])
        return bracket_generator(*args)

    monkeypatch.setattr(verify_module, "bracket_generator", counted)
    verify_commutation_relations(n, MINUS)
    assert sorted(calls) == sorted(gen_pairs(n))
    assert len(calls) == n * (n - 1) // 2


@pytest.mark.parametrize("variant", [PLUS, MINUS])
def test_commutation_relation_names_are_pinned(variant):
    # sha256 of the names joined by newlines, in report order, as the
    # instance list that preceded the one-table verifier emitted them
    names = [entry["relation"] for entry in verify_commutation_relations(6, variant)]
    assert len(names) == 105
    assert hashlib.sha256("\n".join(names).encode()).hexdigest() == (
        "45cdbf196b52952edf57561f652b1225aa23290ddb67efe58b2ea8d5bd0f4b37"
    )


def commutation_generators(name):
    """The pairs (k, l) of the I[k,l] that the identity `name` holds: a chain
    identity at [k,l,m] and a crossing one at [a,b,c,d] hold every pair of
    their indices, disjoint the pairs (a,b), (c,d), nested (a,d), (b,c)."""
    family, idx = name.rstrip("]").split("[")
    i = tuple(int(x) for x in idx.split(","))
    if family == "disjoint":
        return {(i[0], i[1]), (i[2], i[3])}
    if family == "nested":
        return {(i[0], i[3]), (i[1], i[2])}
    return {(x, y) for x in i for y in i if x > y}


@pytest.mark.parametrize("pair", [(2, 1), (4, 2), (5, 1), (5, 4)])
def test_commutation_relations_flag_a_doubled_generator(monkeypatch, pair):
    # every side is linear or bilinear in the I[k,l], so a doubled I[k,l]
    # breaks only identities that hold it, and every chain identity holding
    # it: 2 * its side no longer matches the other
    def doubled(n, k, l, variant):
        value = bracket_generator(n, k, l, variant)
        return 2 * value if (k, l) == pair else value

    monkeypatch.setattr(verify_module, "bracket_generator", doubled)
    report = verify_commutation_relations(5)
    flagged = {entry["relation"] for entry in report if not entry["exact_zero"]}
    holding = {entry["relation"] for entry in report
               if pair in commutation_generators(entry["relation"])}
    assert flagged and flagged <= holding
    assert {name for name in holding if name.startswith("chain-")} <= flagged


def test_commutation_relations_refuse_bad_rank_and_variant():
    with pytest.raises(RankMismatch):
        verify_commutation_relations(2)
    with pytest.raises(VariantMismatch):
        verify_commutation_relations(3, "sideways")


def test_serre_relation_spelled_out():
    # A^2 B - (q + q^-1) A B A + B A^2 = -B with A = I21, B = I32
    a, b = gen(3, 2, 1), gen(3, 3, 2)
    lhs = a * a * b - qnumber(2) * (a * b * a) + b * a * a
    assert lhs == -b


def relations_with_generator(n, w):
    """Names of the defining relations of rank n that contain I[w,w-1]: the
    serre pair at i holds I[i,i-1] and I[i+1,i], commute[i,j] I[i,i-1] and
    I[j,j-1]."""
    return [
        name
        for name, kind, idx in defining_relation_instances(n)
        if w in (idx if kind == "commute" else (idx[0], idx[0] + 1))
    ]


@pytest.mark.parametrize("n,w", [(n, w) for n in (4, 5) for w in range(2, n + 1)])
def test_residuals_flag_exactly_the_relations_of_a_wrong_image(n, w):
    # I[w,w-1] + 1 + (sum of the images) commutes with no generator and breaks
    # every Serre pair it enters; the other images stay right
    gens = [gen(n, i, i - 1) for i in range(2, n + 1)]
    gens[w - 2] = gens[w - 2] + AlgebraElement.from_word(n, []) + sum(gens[1:], gens[0])
    nonzero = [
        name
        for name, _, resid in defining_relation_residuals(n, gens, qnumber(2), operator.mul)
        if not resid.is_zero()
    ]
    assert nonzero == relations_with_generator(n, w)


@pytest.mark.parametrize("n,w", [(n, w) for n in (4, 5) for w in range(2, n + 1)])
def test_residuals_flag_where_a_rescaled_image_is_squared(n, w):
    # a serre residual is linear in b and quadratic in a, so 2*I[w,w-1] breaks
    # only serre-b[w-1] and serre-a[w], where it is the squared a
    gens = [gen(n, i, i - 1) for i in range(2, n + 1)]
    gens[w - 2] = 2 * gens[w - 2]
    nonzero = [
        name
        for name, _, resid in defining_relation_residuals(n, gens, qnumber(2), operator.mul)
        if not resid.is_zero()
    ]
    names = [name for name, _, _ in defining_relation_instances(n)]
    assert nonzero == [name for name in names if name in (f"serre-b[{w - 1}]", f"serre-a[{w}]")]


@pytest.mark.parametrize("n", [3, 4, 5])
def test_classical_limit(n):
    assert all(entry["exact_zero"] for entry in verify_classical_limit(n))


# -- confluence / associativity ----------------------------------------------


@pytest.mark.parametrize("variant", [PLUS, MINUS])
def test_all_generator_triples_associate_n4(variant):
    gens = [gen(4, k, l, variant) for k, l in gen_pairs(4)]
    for x, y, z in product(gens, repeat=3):
        assert (x * y) * z == x * (y * z)


def test_crossing_overlap_regression_triples():
    # these eight words exposed the non-confluent q-deformed crossing swap;
    # each mixes a crossing rewrite into a chain of shared-index rewrites
    triples = [
        ((4, 1), (3, 1), (2, 1)),
        ((4, 2), (3, 1), (2, 1)),
        ((4, 2), (3, 2), (2, 1)),
        ((4, 2), (3, 2), (3, 1)),
        ((4, 2), (4, 1), (3, 1)),
        ((4, 3), (3, 2), (3, 1)),
        ((4, 3), (4, 2), (3, 1)),
        ((4, 3), (4, 2), (4, 1)),
    ]
    for p1, p2, p3 in triples:
        x, y, z = (gen(4, *p) for p in (p1, p2, p3))
        assert (x * y) * z == x * (y * z)


def test_associativity_fuzz_seeded():
    out = associativity_fuzz(4, 3, 60, seed=2024)
    assert out["pass"] is True
    assert out["failures"] == []
    assert out["trials"] == 60
    # same seed, same draw
    again = associativity_fuzz(4, 3, 60, seed=2024)
    assert again == out


def test_random_monomial_determinism_and_degree_bound():
    a = random_monomial(random.Random(5), 4, 3)
    b = random_monomial(random.Random(5), 4, 3)
    assert a == b
    assert a.degree() <= 3


# -- scalar interplay and errors ----------------------------------------------


def test_scalar_coercion_paths():
    e = gen(3, 2, 1)
    assert 2 * e == e + e
    assert e * Fraction(1, 2) + e * Fraction(1, 2) == e
    assert LaurentPoly.q(1) * e == e * LaurentPoly.q(1)
    assert (e - e).is_zero()
    assert e**2 == e * e
    assert e + 1 == e + AlgebraElement.one(3)


def test_rank_and_variant_mixing_rejected():
    with pytest.raises(RankMismatch):
        gen(3, 2, 1) + gen(4, 2, 1)
    with pytest.raises(VariantMismatch):
        gen(3, 2, 1, PLUS) * gen(3, 2, 1, MINUS)
    with pytest.raises(IndexOutOfRange):
        gen(3, 4, 1)
    with pytest.raises(RankMismatch):
        AlgebraElement.generator(2, 2, 1)


def test_support_and_coefficient_views():
    e = gen(3, 3, 2) * gen(3, 2, 1)
    assert e.support() == (((2, 1), (3, 2)), ((3, 1),))
    assert e.coefficient(((3, 1),)) == -LaurentPoly.q(HALF)
    assert e.coefficient(((2, 1), (3, 2))) == LaurentPoly.q(1)
    assert e.coefficient(((3, 2),)) == LaurentPoly.zero()
    assert e.degree() == 2


# -- printing of Fraction coefficients ----------------------------------------


def _int_twin(el):
    """The same element with every integral Fraction coefficient as an int."""
    terms = {
        w: {e: int(c) if Fraction(c).denominator == 1 else c for e, c in cd.items()}
        for w, cd in el._terms.items()
    }
    return AlgebraElement(el.n, el.variant, _terms=terms)


def test_fraction_coefficients_print_like_ints():
    # goldens were printed by the Fraction-only formatter; integral Fractions
    # (kernel-made Fraction(1, 1), Fraction(-2, 1)) must print like the ints
    poly = LaurentPoly.const(HALF) * LaurentPoly({0: 1, 1: 2, -1: -3})
    cases = [
        (gen(3, 2, 1) * HALF, "1/2*I21"),
        ((gen(3, 2, 1) * HALF) * (gen(3, 3, 2) * 2), "I21*I32"),
        ((gen(3, 3, 2) * HALF) * (gen(3, 2, 1) * 2), "q*I21*I32 - q^(1/2)*I31"),
        (
            gen(4, 4, 3, MINUS) * Fraction(-3, 2) + gen(4, 3, 1, MINUS) * Fraction(5, 3),
            "5/3*Im31 - 3/2*I43",
        ),
        (
            poly * gen(3, 2, 1) - HALF * gen(3, 3, 1) + poly,
            "(-3/2*q^(-1) + 1/2 + q) + (-3/2*q^(-1) + 1/2 + q)*I21 - 1/2*I31",
        ),
        (
            AlgebraElement.scalar(3, Fraction(-1, 2)) + gen(3, 2, 1) * HALF * -4,
            "-1/2 - 2*I21",
        ),
    ]
    for el, text in cases:
        coeffs = [c for cd in el._terms.values() for c in cd.values()]
        assert all(type(c) is Fraction for c in coeffs)
        assert str(el) == text
        assert str(_int_twin(el)) == text
    unit = cases[1][0]._terms[bytes((0, 2))][0]
    assert type(unit) is Fraction and unit == 1


@pytest.mark.parametrize("value, text", [(Fraction(2), "2"), (Fraction(-6, 3), "-2"),
                                         (Fraction(1, 2), "1/2")])
def test_integral_fraction_scalars_are_stored_as_ints(value, text):
    # term maps are canonical: an integral Fraction enters as its int, as in
    # LaurentPoly, so {0: Fraction(2)} never sits where {0: 2} would
    canonical = int(value) if value.denominator == 1 else value
    el = AlgebraElement.scalar(3, value)
    assert el._terms == {b"": {0: canonical}}
    assert type(el._terms[b""][0]) is type(canonical)
    assert str(el) == text
    scaled = gen(3, 2, 1) * value
    assert type(scaled._terms[bytes((0,))][0]) is type(canonical)
    assert str(scaled) == f"{text}*I21"
    assert str(value + gen(3, 2, 1)) == f"{text} + I21"
