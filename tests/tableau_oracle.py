"""Test oracle for the representation basis: one object per tableau.

`uqson.reps` builds its operators from index arithmetic on a mixed-radix
basis index (`_basis_table`). This module keeps the object path that index
arithmetic replaced: a `Tableau` per basis vector, its entries m and
l-coordinates read off by slot, and the cyclic shift of one entry. The tests
check the build's offsets, l-coordinates and shift targets against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from uqson.errors import IndexOutOfRange, UqsonError
from uqson.params import variable_slots


class TopRowShift(UqsonError, ValueError):
    """Attempted to shift an entry of the fixed top row of a tableau."""


@dataclass(frozen=True)
class Tableau:
    """One basis label: integer offsets above h, aligned with variable_slots."""

    n: int
    k: int
    offsets: tuple

    def __post_init__(self):
        slots = variable_slots(self.n)
        if len(self.offsets) != len(slots):
            raise ValueError(
                f"need {len(slots)} offsets for n={self.n}, got {len(self.offsets)}"
            )
        for off in self.offsets:
            if not isinstance(off, int) or not (0 <= off < self.k):
                raise ValueError(f"offset {off!r} outside 0..{self.k - 1}")


def enumerate_tableaux(omega):
    """All k^N tableaux in lexicographic offset order (first slot varies slowest)."""
    slots = variable_slots(omega.n)
    k = omega.order_k
    return [
        Tableau(omega.n, k, offs) for offs in product(range(k), repeat=len(slots))
    ]


def tableau_index(tab):
    """Position of the tableau in enumerate_tableaux order."""
    idx = 0
    for off in tab.offsets:
        idx = idx * tab.k + off
    return idx


def _slot_pos(n, i, s):
    slots = variable_slots(n)
    try:
        return slots.index((i, s))
    except ValueError:
        raise IndexOutOfRange(f"no variable entry at (i={i}, s={s}) for n={n}") from None


def m_value(omega, tab, i, s):
    """Entry m_{i,s}: fixed top row for s=n, h + offset otherwise."""
    if s == omega.n:
        if not (1 <= i <= omega.n // 2):
            raise IndexOutOfRange(f"top row has no entry i={i}")
        return omega.m_top[i - 1]
    pos = _slot_pos(omega.n, i, s)
    return omega.h[(i, s)] + tab.offsets[pos]


def l_value(omega, tab, i, s):
    """l-coordinate: m + p - i for s = 2p, m + p - i + 1 for s = 2p+1, summed
    left to right."""
    l = m_value(omega, tab, i, s) + s // 2 - i
    return l + 1 if s % 2 else l


def shift_tableau(omega, tab, i, s, direction):
    """Tableau with m_{i,s} shifted by +-1, wrapping offsets cyclically mod k."""
    if s == omega.n:
        raise TopRowShift("the top row is fixed and cannot be shifted")
    if direction not in (1, -1):
        raise ValueError(f"direction must be +1 or -1, got {direction!r}")
    pos = _slot_pos(omega.n, i, s)
    offs = list(tab.offsets)
    offs[pos] = (offs[pos] + direction) % tab.k
    return Tableau(tab.n, tab.k, tuple(offs))
