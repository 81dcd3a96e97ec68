"""q-powers and q-brackets at a primitive root of unity, in floating point.

The numeric verbs (params-sample, rep-build, rep-verify, rep-commutant)
need only these and not the exact Laurent ring, so they live apart from
`coeffring`, which re-exports them. The branch is fixed:
q**x := exp(x * 2*pi*i * t / k).
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple

from .errors import DegenerateDenominator


def _require_finite(z):
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"non-finite complex value {z!r}")
    return z


class RootOfUnity(namedtuple("RootOfUnity", "order t")):
    """A primitive root of unity q = exp(2*pi*i * t / order), gcd(t, order) = 1.

    The pair fixes not just the value of q but the branch of q**x for all
    complex x: q**x := exp(x * 2*pi*i * t / order).
    """

    __slots__ = ()

    def __new__(cls, order, t=1):
        if not isinstance(order, int) or order < 2:
            raise ValueError(f"order must be an integer >= 2, got {order!r}")
        if not isinstance(t, int) or t < 1:
            raise ValueError(f"t must be a positive integer, got {t!r}")
        if math.gcd(t, order) != 1:
            raise ValueError(f"t = {t} is not coprime to order = {order}")
        return super().__new__(cls, order, t)

    @property
    def log(self):
        """The fixed logarithm of q: 2*pi*i * t / order."""
        return 2j * math.pi * self.t / self.order

    def value(self):
        return cmath.exp(self.log)


def qpow_complex(x, root):
    """q**x along the fixed branch of the given root of unity.

    Satisfies the exponential law q**(x+y) = q**x * q**y exactly in exact
    arithmetic and to rounding error in floats, and q**order = 1.
    """
    return cmath.exp(_require_finite(x) * root.log)


def qbracket_numeric(x, root):
    """[x] = (q**x - q**-x) / (q - q**-1) at a root of unity, complex x allowed.

    The order-2 root has q = -1 where the denominator vanishes identically,
    so every bracket is undefined there.
    """
    if root.order == 2:
        raise DegenerateDenominator("q - q**-1 = 0 at the order-2 root q = -1")
    x = _require_finite(x)
    denom = qpow_complex(1, root) - qpow_complex(-1, root)
    return (qpow_complex(x, root) - qpow_complex(-x, root)) / denom
