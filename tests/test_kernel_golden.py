"""Regression pin for the straightening kernel: the internal term maps of
seeded products must stay bit-identical, not merely equal in the ring.

Each case set is reduced to a canonical dump (words sorted, each coefficient
dict as sorted (doubled exponent, rational) items, reprs so int and Fraction
stay distinct) and compared by sha256. Any rewrite of the kernel in
`uqson.pbw._straighten` must reproduce these digests.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from uqson.pbw import MINUS, PLUS, AlgebraElement, gen_pairs, random_monomial

PRODUCT_DIGESTS = {
    (PLUS, 3): "029f5bfbed35b8f332a0c5f9bc5caa013420f8b094613037f40a55a94fd24353",
    (PLUS, 4): "612db7b77a3058467de2a91d0be06ea8e5d0043a6e25adbaf15f39480de13843",
    (PLUS, 5): "94f8fef4d6deca40b9d5ea820d7d7795855846eb2bbed649208d3860f6a797e8",
    (MINUS, 3): "0506eaeb41127be33bd3bd33a5e2dfd24a382fb9becc7f86bcbc1e9a53a2d340",
    (MINUS, 4): "26a7271b2561bd033cc6eff70982964410984a05208df5cbba1cca3cb1008d04",
    (MINUS, 5): "4a42edff90ac63bbb6b6a43553446e43404cc0e293b9e18464d4e4e5af439c2f",
}

REVERSED_WORD_DIGESTS = {
    PLUS: "9e167748575b1eeb73aa40cb6a3146446f959e18fa82cd01f9fec94dd74528d4",
    MINUS: "c806729f737cbcbd7104ca880858f000a35e70934353f94b016857580e8047f4",
}


def _digest(elements):
    h = hashlib.sha256()
    for e in elements:
        dump = [(w.hex(), sorted(c.items())) for w, c in sorted(e._terms.items())]
        h.update(repr(dump).encode())
        h.update(b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("variant, n", sorted(PRODUCT_DIGESTS))
def test_seeded_products_pinned(variant, n):
    rng = random.Random(1000 + n)
    products = []
    for _ in range(40):
        a = random_monomial(rng, n, 3, variant)
        b = random_monomial(rng, n, 3, variant)
        products.append(a * b)
    assert _digest(products) == PRODUCT_DIGESTS[(variant, n)]


@pytest.mark.parametrize("variant", sorted(REVERSED_WORD_DIGESTS))
def test_reversed_word_pinned(variant):
    # fully reversed word: maximal inversion count for n=4
    acc = AlgebraElement.one(4, variant)
    for k, l in list(gen_pairs(4))[::-1]:
        acc = acc * AlgebraElement.generator(4, k, l, variant)
    assert _digest([acc]) == REVERSED_WORD_DIGESTS[variant]
