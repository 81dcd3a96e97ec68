"""The representation build over coefficient fields other than cmath's.

`reps._shift_operator(omega, field, s)` computes every coefficient through
the field's bracket, qpow_sum, sqrt and i, so these tests run the same
build, unmodified, over fields of their own:

- fields that keep cmath's values but take the other square root of some
  bracket values: the defining relations close whenever each value keeps
  one root everywhere, and break when one value gets two;
- cmath's own field on gauged parameters, c_j times a k-th root of unity,
  against the conjugated operators, within a bound derived from the
  roundings that differ;
- a 50-digit mpmath field whose numbers carry a first-order bound on the
  double build's relative error, which every entry of the double build
  must meet.

Complex arithmetic error constants, in units of u = 2^-53, first order:
a product rounds by at most sqrt(2) gamma_2 (Higham, Accuracy and Stability
of Numerical Algorithms, Lemma 3.5), and a quotient by CPython's Smith
algorithm by (3 sqrt(2) + 4) u: each part of a * conj(b) / b_r carries at
most three roundings of terms bounded by |a||b| / |b_r|, and the real
divisor b_r + b_i (b_i / b_r), whose terms share a sign, three more.
"""

from __future__ import annotations

import cmath
import math
import random

import mpmath
import pytest

from uqson.cli import _default_rep_tol
from uqson.params import ParamsOmega, random_generic_params, variable_slots
from uqson.qnumeric import qpow_complex
from uqson.reps import (
    _UNIT_ROUNDOFF,
    _ComplexField,
    _shift_operator,
    build_representation,
    relation_residual,
)

MUL = 2 * math.sqrt(2)  # sqrt(2) gamma_2 / u
DIV = 3 * math.sqrt(2) + 4


def gamma(m):
    """gamma_m = m u / (1 - m u), for a real rounding count m."""
    return m * _UNIT_ROUNDOFF / (1 - m * _UNIT_ROUNDOFF)


def build_over(omega, field):
    return [_shift_operator(omega, field, s) for s in range(1, omega.n)]


def worst_residual(omega, field):
    report = relation_residual(build_over(omega, field), omega.root)
    return max(entry["residual"] for entry in report)


# -- the branch rule -------------------------------------------------------------


class _FlippedRoots(_ComplexField):
    """cmath's field, taking the other square root of a seeded half of the
    distinct bracket values. A value is keyed by its parts rounded to 8
    digits, so that [x] and [x + k], equal exactly but not in bits, get the
    same root."""

    def __init__(self, root, seed):
        super().__init__(root)
        self.flips, self._rng = {}, random.Random(seed)

    def sqrt(self, v):
        key = (round(v.real, 8), round(v.imag, 8))
        if key not in self.flips:
            self.flips[key] = self._rng.random() < 0.5
        return -cmath.sqrt(v) if self.flips[key] else cmath.sqrt(v)


class _EverySeventhRootNegated(_ComplexField):
    """cmath's field, negating every 7th square root it takes, so that one
    bracket value gets both roots."""

    def __init__(self, root):
        super().__init__(root)
        self.calls = 0

    def sqrt(self, v):
        self.calls += 1
        return -cmath.sqrt(v) if self.calls % 7 == 0 else cmath.sqrt(v)


BRANCH_CASES = [(3, 3), (4, 3), (4, 4), (5, 3), (4, 5)]


@pytest.mark.parametrize("n,k", BRANCH_CASES)
def test_relations_close_on_any_root_kept_per_bracket_value(n, k):
    # The rule in shift_coeff's docstring: each bracket value keeps one root
    # wherever it appears. Which root is free: cmath's branch is not needed.
    # Keying the flip on the exact bits of the value would give [x] and
    # [x + k] different roots, which breaks the relations at n >= 4.
    # Measured at seed 0: the worst residual equals cmath's in every case,
    # at most 9.6e-13, more than 10^3 below rep-verify's default tolerance.
    omega = random_generic_params(n, k, 0)
    field = _FlippedRoots(omega.root, 0)
    assert build_over(omega, field) != build_representation(omega)
    assert 0 < sum(field.flips.values()) < len(field.flips)
    tol = _default_rep_tol(omega.dimension())
    flipped = worst_residual(omega, field)
    print(f"({n},{k}): worst residual {flipped:.3g} with flipped roots, "
          f"{worst_residual(omega, _ComplexField(omega.root)):.3g} with cmath's")
    assert flipped < tol


@pytest.mark.parametrize("n,k", BRANCH_CASES)
def test_relations_break_when_a_bracket_value_gets_two_roots(n, k):
    # measured at seed 0: worst residuals from 1.9 to 2.4e2, more than 10^9
    # above rep-verify's default tolerance
    omega = random_generic_params(n, k, 0)
    assert worst_residual(omega, _EverySeventhRootNegated(omega.root)) > _default_rep_tol(
        omega.dimension())


# -- the gauge of c -----------------------------------------------------------------


# Each entry of I_{s+1,s} that shifts slot (j, s) up is c_j S / den, and
# down -S / (c_j den), with S and den computed the same way in both builds.
# With c_j' = fl(c_j zeta), the gauged build rounds c_j', the product and
# the quotient; the conjugate zeta * entry rounds the entry's product and
# quotient and the product by zeta: 4 products and 2 quotients going up.
# Going down, c_j' and c_j' den are products and the rest quotients, with
# entry / zeta: 3 products and 3 quotients. Every other entry is the same
# computation in both builds.
GAUGE_BOUND = gamma(max(4 * MUL + 2 * DIV, 3 * MUL + 3 * DIV))


@pytest.mark.parametrize("n,k", [(3, 3), (3, 4), (3, 5), (4, 3), (4, 4), (4, 5), (5, 3)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_root_of_unity_times_c_conjugates_by_the_digit_phase(n, k, seed):
    # c_j -> zeta c_j gives D T_i D^-1 with D = diag(zeta^v), v the basis
    # vector's digit of slot j: an up shift of slot j raises v by 1 mod k,
    # and zeta^k = 1. Measured at (3,3) to (5,3), seeds 0-2, every slot,
    # zeta = q and q^(k-1): at most 5.0 u relative, a margin of 6.7.
    omega = random_generic_params(n, k, seed)
    ops = build_representation(omega)
    slots = variable_slots(n)
    worst = 0.0
    for p, slot in enumerate(slots):
        stride = k ** (len(slots) - 1 - p)
        for power in (1, k - 1):
            zeta = qpow_complex(power, omega.root)
            c = {**omega.c, slot: omega.c[slot] * zeta}
            gauged = build_representation(ParamsOmega(n, omega.root, omega.m_top, omega.h, c))
            for op, gop in zip(ops, gauged):
                assert [e[:2] for e in gop.entries] == [e[:2] for e in op.entries]
                for (r, col, v), (_, _, got) in zip(op.entries, gop.entries):
                    phase = ((r // stride) % k - (col // stride) % k) % k
                    if phase == 0:
                        assert got == v
                        continue
                    assert phase in (1, k - 1)
                    want = v * zeta if phase == 1 else v / zeta
                    worst = max(worst, abs(got - want) / abs(want))
    print(f"({n},{k}) seed {seed}: worst {worst / _UNIT_ROUNDOFF:.2f} u, "
          f"margin {GAUGE_BOUND / worst:.3g}")
    assert worst <= GAUGE_BOUND


# -- a 50-digit twin ---------------------------------------------------------------


_MP = mpmath.MPContext()
_MP.dps = 50


class _Bounded:
    """A 50-digit value v of the build, with m: to first order, the double
    build's value of the same expression lies within m u of v, relative.
    A product by exactly 1 or i is exact in binary floating point."""

    __slots__ = ("v", "m")

    def __init__(self, v, m):
        self.v, self.m = v, m

    def _exact(self):
        return self.m == 0 and (self.v == 1 or self.v == 1j)

    def __mul__(self, other):
        other = _bounded(other)
        rounding = 0 if self._exact() or other._exact() else MUL
        return _Bounded(self.v * other.v, self.m + other.m + rounding)

    def __truediv__(self, other):
        other = _bounded(other)
        return _Bounded(self.v / other.v, self.m + other.m + DIV)

    def __rmul__(self, other):
        return _bounded(other) * self

    def __rtruediv__(self, other):
        return _bounded(other) / self

    def __neg__(self):
        return _Bounded(-self.v, self.m)

    def __radd__(self, other):
        # the build adds an entry only to the 0 of an empty cell
        if other != 0:
            return NotImplemented
        return self

    def __ne__(self, other):
        return self.v != other


def _bounded(x):
    """A double of the build's input (c, or 1 + 0j) as an exact value."""
    return x if isinstance(x, _Bounded) else _Bounded(_MP.mpc(x), 0.0)


class _Mp50Field:
    """The coefficients at 50 digits, at the same double arguments x as the
    double build, with q^x = exp(x * 2 pi i t / k) on the same branch.

    Bound of a double q^{+-x}: its exponent x L, with L = 2 pi i t / k
    rounded three times and the product once per part, is within 4 |x L| u,
    and cmath.exp adds at most 5 u (libm's exp, cos and sin within 1 ulp,
    and a product). A sum or difference of the two powers scales that by its
    condition number kappa = (|q^x| + |q^-x|) / |q^x +- q^-x| and rounds
    once more. A bracket also divides by q - q^-1, bounded in the same way.
    cmath.sqrt halves its argument's error and adds at most 3 u (hypot, a
    sum, sqrt, and a quotient)."""

    def __init__(self, root):
        self.log = _MP.mpc(0, 2) * _MP.pi * root.t / root.order
        self.i = _Bounded(_MP.mpc(0, 1), 0.0)
        self._unit = self._sum(1, -1)  # q - q^-1
        self._memo = {}

    def _sum(self, x, sign):
        a = _MP.mpc(x) * self.log
        up, down = _MP.exp(a), _MP.exp(-a)
        value = up + sign * down
        kappa = (abs(up) + abs(down)) / abs(value)
        return _Bounded(value, float(kappa * (4 * abs(a) + 5) + 1))

    def bracket(self, x, label=None):
        key = (b"[", x)
        if key not in self._memo:
            self._memo[key] = self._sum(x, -1) / self._unit
        return self._memo[key]

    def qpow_sum(self, x, label):
        key = (b"+", x)
        if key not in self._memo:
            self._memo[key] = self._sum(x, 1)
        return self._memo[key]

    def sqrt(self, b):
        return _Bounded(_MP.sqrt(b.v), b.m / 2 + 3)


@pytest.mark.parametrize("n,k", [(3, 3), (3, 4), (4, 3), (4, 4), (4, 5), (5, 3), (5, 4)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_entries_match_a_50_digit_build_within_their_bound(n, k, seed):
    # measured over these cases: at most 86 u relative, a margin of 6.0
    omega = random_generic_params(n, k, seed)
    field = _Mp50Field(omega.root)
    margin = math.inf
    for s, op in enumerate(build_representation(omega), 1):
        twin = _shift_operator(omega, field, s)
        assert [e[:2] for e in twin.entries] == [e[:2] for e in op.entries]
        for (_, _, v), (_, _, exact) in zip(op.entries, twin.entries):
            err = float(abs(v - exact.v) / abs(exact.v))
            bound = gamma(exact.m)
            assert err <= bound
            if err:
                margin = min(margin, bound / err)
    print(f"({n},{k}) seed {seed}: worst margin {margin:.3g}")
