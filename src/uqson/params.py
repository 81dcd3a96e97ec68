"""Representation parameters: validation, genericity checks and seeded sampling.

Only the standard library is used here, so `params-sample` needs no numeric
stack. `reps` imports variable_slots, _ZERO_TOL (the vanishing-denominator
test of its _ComplexField) and random_generic_params, which the benchmark
launcher patches there; import every other name from here.
"""

from __future__ import annotations

import cmath
import random
from collections import namedtuple

from .errors import DegenerateParameter, ParameterSamplingError, RankMismatch
from .qnumeric import RootOfUnity

# denominators with magnitude below this are treated as vanished
_ZERO_TOL = 1e-12
# how far sampled and checked parameters keep from the degenerate values
_GENERIC_MARGIN = 1e-3


def variable_slots(n):
    """Variable tableau positions (i, s): rows s = n-1 down to 2, i ascending."""
    if not isinstance(n, int) or n < 3:
        raise RankMismatch(f"rank must be an integer >= 3, got {n!r}")
    return tuple((i, s) for s in range(n - 1, 1, -1) for i in range(1, s // 2 + 1))


def num_positive_roots(n):
    """N = sum of floor(s/2) for s = 2..n-1; the representation dimension is k^N."""
    return len(variable_slots(n))


def parameter_count(n):
    return n * (n - 1) // 2


def _as_complex(value, what):
    z = complex(value)
    if not (cmath.isfinite(z)):
        raise ValueError(f"{what} must be finite, got {value!r}")
    return z


class ParamsOmega(namedtuple("ParamsOmega", "n root m_top h c")):
    """Representation parameters: top row, h shifts, c scalars, root order.

    The constructor validates structure only (index ranges, counts, nonzero
    c); genericity of the h values is a separate check (assert_generic) so
    that deliberately degenerate constructions remain expressible.
    """

    __slots__ = ()

    def __new__(cls, n, root, m_top, h, c):
        slots = set(variable_slots(n))  # refuses a bad rank first
        if not isinstance(root, RootOfUnity):
            raise TypeError("root must be a RootOfUnity")
        m_top = tuple(_as_complex(v, "m_top entry") for v in m_top)
        if len(m_top) != n // 2:
            raise ValueError(f"m_top needs {n // 2} entries for n={n}, got {len(m_top)}")
        for name, table in (("h", h), ("c", c)):
            keys = set(table)
            if keys != slots:
                missing = sorted(slots - keys)
                extra = sorted(keys - slots)
                raise ValueError(
                    f"{name} slots mismatch: missing {missing}, unexpected {extra}"
                )
        h = {k: _as_complex(v, f"h{k}") for k, v in h.items()}
        c_clean = {}
        for k, v in c.items():
            z = _as_complex(v, f"c{k}")
            if abs(z) <= _ZERO_TOL:
                raise DegenerateParameter(f"c{k} must be nonzero")
            c_clean[k] = z
        total = len(m_top) + len(h) + len(c_clean)
        assert total == parameter_count(n), "parameter inventory broken"
        return super().__new__(cls, n, root, m_top, h, c_clean)

    @property
    def order_k(self):
        return self.root.order

    def dimension(self):
        return self.order_k ** num_positive_roots(self.n)


def _dist_to_integers(z):
    return abs(complex(z) - round(z.real))


def _dist_to_half_integers(z):
    shifted = complex(z) - 0.5
    return abs(shifted - round(shifted.real))


def assert_generic(omega):
    """Check the h genericity preconditions with a safety margin.

    Pairwise sums and differences within each h row must stay _GENERIC_MARGIN
    away from the integers; the h_{p,2p+1} entries must stay _GENERIC_MARGIN
    away from half-integers; c values must stay away from zero. Raises
    DegenerateParameter naming the first violated condition.
    """
    n = omega.n
    for s in range(2, n):
        row = [(i, omega.h[(i, s)]) for i in range(1, s // 2 + 1)]
        for a in range(len(row)):
            for b in range(a + 1, len(row)):
                (ia, ha), (ib, hb) = row[a], row[b]
                if _dist_to_integers(ha - hb) <= _GENERIC_MARGIN:
                    raise DegenerateParameter(
                        f"h({ia},{s}) - h({ib},{s}) is within {_GENERIC_MARGIN} of an integer"
                    )
                if _dist_to_integers(ha + hb) <= _GENERIC_MARGIN:
                    raise DegenerateParameter(
                        f"h({ia},{s}) + h({ib},{s}) is within {_GENERIC_MARGIN} of an integer"
                    )
    for (i, s), value in omega.h.items():
        if s == 2 * i + 1 and _dist_to_half_integers(value) <= _GENERIC_MARGIN:
            raise DegenerateParameter(
                f"h({i},{s}) is within {_GENERIC_MARGIN} of a half-integer"
            )
    for key, value in omega.c.items():
        if abs(value) <= _GENERIC_MARGIN:
            raise DegenerateParameter(f"c{key} is within {_GENERIC_MARGIN} of zero")
    return True


def _sample_real_part(rng):
    while True:
        x = rng.random()
        if min(abs(x), abs(x - 0.5), abs(x - 1.0)) > _GENERIC_MARGIN:
            return x


def _sample_imag_part(rng, used):
    for _ in range(1000):
        y = rng.uniform(0.05, 0.25)
        if all(abs(y - u) > _GENERIC_MARGIN for u in used):
            used.append(y)
            return y
    raise ParameterSamplingError("could not separate imaginary parts")


def random_generic_params(n, order_k, seed, t=1):
    """Deterministic generic parameter draw for the given root of unity.

    Real parts are uniform on (0,1) away from {0, 1/2, 1}; every parameter
    gets a distinct positive imaginary part, which keeps all bracket
    denominators away from zero for every admissible t. c values live on the
    annulus 0.5 <= |c| <= 2.
    """
    root = RootOfUnity(order_k, t)
    rng = random.Random(seed)
    for _ in range(200):
        used_imag = []
        m_top = tuple(
            complex(_sample_real_part(rng), _sample_imag_part(rng, used_imag))
            for _ in range(n // 2)
        )
        h = {}
        c = {}
        for slot in variable_slots(n):
            h[slot] = complex(
                _sample_real_part(rng), _sample_imag_part(rng, used_imag)
            )
            mag = rng.uniform(0.5, 2.0)
            phase = rng.uniform(0.0, 2.0 * cmath.pi)
            c[slot] = mag * cmath.exp(1j * phase)
        omega = ParamsOmega(n=n, root=root, m_top=m_top, h=h, c=c)
        try:
            assert_generic(omega)
        except DegenerateParameter:
            continue
        return omega
    raise ParameterSamplingError(
        f"no generic parameters found for n={n}, k={order_k}, seed={seed}"
    )
