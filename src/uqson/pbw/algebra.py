"""Algebra elements in PBW normal form, with the recursive generator build.

An element is a linear combination of nondecreasing words in the ordered
generators I[k,l] (n >= k > l >= 1) with Laurent-polynomial coefficients.
Products are normalized eagerly through the straightening kernel, so equality
of elements is plain equality of term maps.
"""

from __future__ import annotations

from fractions import Fraction

from ..coeffring import LaurentPoly, _as_rational, cmul
from ..errors import IndexOutOfRange, RankMismatch, VariantMismatch
from . import _straighten
from ._rules import PLUS, check_rank, check_variant, gen_code, gen_pairs, rule_table


def _coeff_raw(value):
    """Raw {doubled exponent: rational} form of a scalar, or None if not one.
    An integral Fraction is stored as its int, as LaurentPoly stores it."""
    if isinstance(value, LaurentPoly):
        return value.exp2_dict()
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return {0: _as_rational(value)} if value else {}
    return None


def add_into(terms, value, negate=False):
    """Add an element or a scalar, negated if `negate`, into the term map
    `terms`, which the caller owns, and return it. No dict of `value` is
    stored or changed: a new word gets a copy of its coefficients, and a
    stored word's coefficients are added to in place, in the order cadd
    adds them. So N parts added into one map cost their total size, where a
    chain of N - 1 binary sums copies the running sum at each step."""
    parts = value._terms if isinstance(value, AlgebraElement) else {b"": _coeff_raw(value)}
    for w, c in parts.items():
        cur = terms.get(w)
        if cur is None:
            if c:
                terms[w] = {e: -x for e, x in c.items()} if negate else dict(c)
            continue
        for e, x in c.items():
            s = cur.get(e)
            if s is None:
                cur[e] = -x if negate else x
            else:
                s = s - x if negate else s + x
                if s:
                    cur[e] = s
                else:
                    del cur[e]
        if not cur:
            del terms[w]
    return terms


class AlgebraElement:
    """Immutable-by-convention element held as {word bytes: coeff dict}.

    Words store generator codes (index into gen_pairs(n)); coefficients are
    the kernel's {doubled exponent: rational} dicts. All public constructors
    and operators return fully normalized elements.
    """

    __slots__ = ("n", "variant", "_terms")

    def __init__(self, n, variant=PLUS, *, _terms=None):
        self.n = check_rank(n)
        self.variant = check_variant(variant)
        self._terms = {} if _terms is None else _terms

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, n, variant=PLUS):
        return cls(n, variant)

    @classmethod
    def one(cls, n, variant=PLUS):
        return cls(n, variant, _terms={b"": {0: 1}})

    @classmethod
    def scalar(cls, n, value, variant=PLUS):
        raw = _coeff_raw(value)
        if raw is None:
            raise TypeError(f"not a scalar: {value!r}")
        return cls(n, variant, _terms={b"": raw} if raw else {})

    @classmethod
    def generator(cls, n, k, l, variant=PLUS):
        """The basis generator I[k,l]; neighbors k = l+1 are the algebra generators."""
        check_rank(n)
        code = gen_code(n, k, l)
        return cls(n, variant, _terms={bytes((code,)): {0: 1}})

    @classmethod
    def from_word(cls, n, pairs, variant=PLUS):
        """Normal form of a product of generators given as (k, l) pairs."""
        check_rank(n)
        check_variant(variant)
        word = bytes(gen_code(n, k, l) for k, l in pairs)
        out = _straighten.straighten({word: {0: 1}}, rule_table(n, variant))
        return cls(n, variant, _terms=out)

    # -- views ---------------------------------------------------------------

    def is_zero(self):
        return not self._terms

    def __bool__(self):
        return bool(self._terms)

    def degree(self):
        """Largest word length present (0 for scalars and zero)."""
        return max((len(w) for w in self._terms), default=0)

    def support(self):
        """Monomials present, each a tuple of (k, l) pairs, in print order."""
        pairs = gen_pairs(self.n)
        return tuple(
            tuple(pairs[c] for c in w) for w in sorted(self._terms)
        )

    def coefficient(self, mono):
        """LaurentPoly coefficient of the monomial given as (k, l) pairs."""
        word = bytes(gen_code(self.n, k, l) for k, l in mono)
        raw = self._terms.get(word)
        return LaurentPoly.from_exp2(raw) if raw else LaurentPoly.zero()

    def items(self):
        """Sorted (monomial, LaurentPoly) pairs; monomials as (k, l) tuples."""
        pairs = gen_pairs(self.n)
        return [
            (tuple(pairs[c] for c in w), LaurentPoly.from_exp2(self._terms[w]))
            for w in sorted(self._terms)
        ]

    # -- ring operations -----------------------------------------------------

    def _check_compatible(self, other):
        if self.n != other.n:
            raise RankMismatch(f"rank mismatch: {self.n} vs {other.n}")
        if self.variant != other.variant:
            raise VariantMismatch(
                f"variant mismatch: {self.variant} vs {other.variant}"
            )

    def __eq__(self, other):
        if isinstance(other, AlgebraElement):
            return (
                self.n == other.n
                and self.variant == other.variant
                and self._terms == other._terms
            )
        raw = _coeff_raw(other)
        if raw is None:
            return NotImplemented
        return self._terms == ({b"": raw} if raw else {})

    __hash__ = None

    def _plus(self, other, negate):
        if isinstance(other, AlgebraElement):
            self._check_compatible(other)
        elif _coeff_raw(other) is None:
            return NotImplemented
        return AlgebraElement(
            self.n, self.variant, _terms=add_into(add_into({}, self), other, negate)
        )

    def __add__(self, other):
        return self._plus(other, False)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return AlgebraElement(
            self.n,
            self.variant,
            _terms={w: {e: -c for e, c in cd.items()} for w, cd in self._terms.items()},
        )

    def __sub__(self, other):
        return self._plus(other, True)

    def __rsub__(self, other):
        return self.__neg__().__add__(other)

    def _scaled(self, raw):
        if not raw:
            return AlgebraElement(self.n, self.variant)
        return AlgebraElement(
            self.n,
            self.variant,
            _terms={w: cmul(c, raw) for w, c in self._terms.items()},
        )

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            self._check_compatible(other)
            terms = _straighten.mul_terms(
                self._terms, other._terms, rule_table(self.n, self.variant)
            )
            return AlgebraElement(self.n, self.variant, _terms=terms)
        raw = _coeff_raw(other)
        if raw is None:
            return NotImplemented
        return self._scaled(raw)

    def __rmul__(self, other):
        raw = _coeff_raw(other)
        if raw is None:
            return NotImplemented
        return self._scaled(raw)

    def __pow__(self, exponent):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"exponent must be a nonnegative integer, got {exponent!r}")
        out = AlgebraElement.one(self.n, self.variant)
        for _ in range(exponent):
            out = out * self
        return out

    # -- text ----------------------------------------------------------------

    def __str__(self):
        from .printing import element_to_str

        return element_to_str(self)

    def __repr__(self):
        return f"<{self.variant} element of rank {self.n}: {self}>"


def qcommutator(a, b, power=1):
    """Deformed commutator q^(power/2)*a*b - q^(-power/2)*b*a.

    power is an integer; power=1 gives the bracket subscripted by q, power=-1
    the one subscripted by q^(-1), and power=0 the plain commutator.
    """
    if not isinstance(power, int):
        raise TypeError(f"power must be an integer, got {power!r}")
    left = LaurentPoly.from_exp2({power: 1}) * (a * b)
    right = LaurentPoly.from_exp2({-power: 1}) * (b * a)
    return left - right


def bracket_generator(n, k, l, variant=PLUS):
    """I[k,l] built by the defining recursion from neighbor generators.

    For k > l+1 this is the bracket of I[l+1,l] with the recursively built
    I[k,l+1], deformed by q for the plus variant and q^(-1) for the minus
    variant. Normalizing the result must reproduce the single basis
    generator, which the tests use as a self-consistency check.
    """
    check_rank(n)
    check_variant(variant)
    if not (1 <= l < k <= n):
        raise IndexOutOfRange(f"generator I[{k},{l}] is outside rank {n}")
    if k == l + 1:
        return AlgebraElement.generator(n, k, l, variant)
    power = 1 if variant == PLUS else -1
    inner = bracket_generator(n, k, l + 1, variant)
    neighbor = AlgebraElement.generator(n, l + 1, l, variant)
    return qcommutator(neighbor, inner, power)
