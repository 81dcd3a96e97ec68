"""Exact coefficient arithmetic for the deformed enveloping algebra.

Symbolic side: Laurent polynomials in q**(1/2) with rational coefficients.
Exponents are half-integers stored internally as doubled integers, so the
monomial q**Fraction(3, 2) sits at key 3 and q**2 at key 4; coefficients are
ints or fractions.Fraction and all symbolic arithmetic is exact.

Numeric side: evaluation of Laurent polynomials at arbitrary nonzero complex
points. The q-powers and q-brackets at a primitive root of unity, along the
fixed branch q**x := exp(x * 2*pi*i * t / k), live in `qnumeric`, so the
numeric verbs need not load this module or `fractions`; they are
re-exported here as the same objects.
"""

from __future__ import annotations

import cmath
from fractions import Fraction

from .errors import ZeroBase
from .qnumeric import (  # the numeric names are re-exported, the same objects
    RootOfUnity,
    _require_finite,
    qbracket_numeric,
    qpow_complex,
)

HALF = Fraction(1, 2)


def _as_rational(value):
    if isinstance(value, bool):
        raise TypeError("boolean is not a coefficient")
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else value
    raise TypeError(f"exact rational required, got {type(value).__name__}")


def _as_exp2(exponent):
    """Doubled internal exponent for a half-integer power of q."""
    if isinstance(exponent, int) and not isinstance(exponent, bool):
        return 2 * exponent
    e2 = Fraction(exponent) * 2
    if e2.denominator != 1:
        raise ValueError(f"exponent {exponent!r} is not a half-integer")
    return int(e2)


# Raw coefficient arithmetic on {doubled exponent: rational} dicts, shared by
# LaurentPoly and the straightening kernel. Results never store a zero
# coefficient, and the arguments are never modified.


def cadd(a, b):
    """Sum of two raw coefficient dicts."""
    if not a:
        return dict(b)
    if not b:
        return dict(a)
    out = dict(a)
    for e, c in b.items():
        s = out.get(e)
        if s is None:
            out[e] = c
        else:
            s = s + c
            if s:
                out[e] = s
            else:
                del out[e]
    return out


def cmul(a, b):
    """Product of two raw coefficient dicts."""
    out = {}
    if not a or not b:
        return out
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            s = out.get(e)
            s = ca * cb if s is None else s + ca * cb
            if s:
                out[e] = s
            else:
                del out[e]
    return out


def format_rational(r):
    if type(r) is int:
        return str(r)
    r = Fraction(r)
    if r.denominator == 1:
        return str(r.numerator)
    return f"{r.numerator}/{r.denominator}"


def format_qpower(e2):
    """Canonical text for q**(e2/2): 'q' for e2 == 2, else 'q^(...)'."""
    if e2 == 2:
        return "q"
    if e2 % 2 == 0:
        return f"q^({e2 // 2})"
    return f"q^({e2}/2)"


def format_laurent(items2):
    """Render sorted (doubled exponent, coefficient) pairs canonically.

    Terms are joined with ' + ' / ' - '; a leading negative term keeps a bare
    '-' prefix. Unit coefficients are dropped in front of q-powers.
    """
    if not items2:
        return "0"
    pieces = []
    for e2, c in items2:
        if type(c) is not int:
            c = Fraction(c)
        mag = abs(c)
        if e2 == 0:
            body = format_rational(mag)
        elif mag == 1:
            body = format_qpower(e2)
        else:
            body = f"{format_rational(mag)}*{format_qpower(e2)}"
        pieces.append((c < 0, body))
    return join_signed(pieces)


def join_signed(pieces):
    """Join (negative, body) pieces as 'a + b - c'; a negative first piece
    gets a bare '-' prefix."""
    parts = []
    for neg, body in pieces:
        if parts:
            parts.append(" - " if neg else " + ")
        elif neg:
            parts.append("-")
        parts.append(body)
    return "".join(parts)


class LaurentPoly:
    """Immutable Laurent polynomial in q**(1/2) over the rationals."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None, *, _raw=None):
        if _raw is not None:
            self._terms = _raw
            return
        clean = {}
        for exponent, coeff in (terms or {}).items():
            e2 = _as_exp2(exponent) if not isinstance(exponent, int) else 2 * exponent
            coeff = _as_rational(coeff)
            if coeff:
                clean[e2] = coeff
        self._terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_exp2(cls, raw):
        """Build from an internal {doubled exponent: rational} mapping."""
        clean = {int(e2): _as_rational(c) for e2, c in raw.items() if c}
        return cls(_raw=clean)

    @classmethod
    def zero(cls):
        return cls(_raw={})

    @classmethod
    def one(cls):
        return cls(_raw={0: 1})

    @classmethod
    def const(cls, r):
        r = _as_rational(r)
        return cls(_raw={0: r} if r else {})

    @classmethod
    def q(cls, exponent=1):
        """The monomial q**exponent for a half-integer exponent."""
        return cls(_raw={_as_exp2(exponent): 1})

    # -- views -------------------------------------------------------------

    def items2(self):
        """Sorted (doubled exponent, coefficient) pairs."""
        return tuple(sorted(self._terms.items()))

    def terms(self):
        """Mapping from half-integer exponent (Fraction) to coefficient."""
        return {Fraction(e2, 2): Fraction(c) for e2, c in sorted(self._terms.items())}

    def exp2_dict(self):
        """Copy of the internal doubled-exponent dict (kernel interchange)."""
        return dict(self._terms)

    def is_zero(self):
        return not self._terms

    def __bool__(self):
        return bool(self._terms)

    # -- ring operations ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return LaurentPoly.const(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return LaurentPoly(_raw=cadd(self._terms, other._terms))

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly(_raw={e2: -c for e2, c in self._terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return LaurentPoly(_raw=cmul(self._terms, other._terms))

    __rmul__ = __mul__

    def __pow__(self, power):
        if not isinstance(power, int) or power < 0:
            raise ValueError("only nonnegative integer powers")
        out = LaurentPoly.one()
        base = self
        while power:
            if power & 1:
                out = out * base
            base = base * base
            power >>= 1
        return out

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset((e2, Fraction(c)) for e2, c in self._terms.items()))

    def evaluate(self, q):
        """Evaluate at a nonzero complex point.

        Half-integer exponents use the principal square root of q, so the
        value is sum(c * sqrt(q)**e2) over the internal doubled exponents.
        """
        q = _require_finite(q)
        if q == 0:
            raise ZeroBase("cannot evaluate at q = 0")
        s = cmath.sqrt(q)
        total = 0j
        for e2, c in sorted(self._terms.items()):
            total += complex(Fraction(c)) * s**e2
        return total

    def __str__(self):
        return format_laurent(self.items2())

    def __repr__(self):
        return f"LaurentPoly({str(self)})"


def qnumber(a):
    """The symbolic q-number [a] = (q**a - q**-a) / (q - q**-1) for integer a.

    [0] = 0, [1] = 1, [2] = q + q**-1 and generally [a] = q**(a-1) + q**(a-3)
    + ... + q**(1-a). A proper half-integer argument has no Laurent-polynomial
    bracket (the division leaves a remainder), so it is rejected.
    """
    a = Fraction(a)
    if a.denominator == 2:
        raise ValueError(
            f"[{a}] is not a Laurent polynomial in q**(1/2); "
            "use qbracket_numeric for half-integer arguments"
        )
    if a.denominator != 1:
        raise ValueError(f"q-number argument must be an integer or half-integer, got {a}")
    n = a.numerator
    if n == 0:
        return LaurentPoly.zero()
    sign = 1
    if n < 0:
        sign, n = -1, -n
    return LaurentPoly(_raw={2 * (n - 1 - 2 * i): sign for i in range(n)})
