"""Embedding into the standard quantum special-linear algebra and the rank-3
composition onto weight-basis irreps.

Numeric expectations come from closed forms evaluated with raw cmath (the
X-image diagonal i/(q^(1/2)+q^(-1/2)), bracket products for the ladder
entries); symbolic embedding checks assert exact zero matrices.
"""

from __future__ import annotations

import cmath
import random

import numpy as np
import pytest

from uqson import djembed
from uqson.coeffring import LaurentPoly
from uqson.djembed import (
    psi_images,
    sample_generic_q,
    sl2_irrep,
    tilde_I,
    vector_rep_sln,
    verify_embedding,
    verify_psi,
)
from uqson.errors import DegenerateQ, IndexOutOfRange
from uqson.pbw import MAX_RANK
from uqson.pbw.classical import ExactMatrix
from uqson.pbw.verify import all_pass

from test_pbw import relations_with_generator


# -- vector representation and tilde images -----------------------------------


def test_vector_rep_constructs_with_self_checks():
    # construction runs E/F/K relation self-checks internally
    for n in (3, 4, 5):
        rep = vector_rep_sln(n)
        assert rep.n == n


def test_tilde_matrix_is_antisymmetric_unit_pair():
    rep = vector_rep_sln(3)
    t2 = tilde_I(2, rep)
    assert str(t2[1, 0]) == "1"
    assert str(t2[0, 1]) == "-1"
    entries = [str(t2.get((r, c), LaurentPoly.zero())) for r in range(3) for c in range(3)]
    assert entries.count("0") == 7
    with pytest.raises(IndexOutOfRange):
        tilde_I(1, rep)
    with pytest.raises(IndexOutOfRange):
        tilde_I(4, rep)


@pytest.mark.parametrize("n,checks", [(3, 4), (4, 8), (5, 13), (12, 76), (MAX_RANK, 274)])
def test_embedding_verifies_symbolically(n, checks):
    report = verify_embedding(n)
    assert len(report) == checks
    assert all_pass(report)
    names = [e["check"] for e in report]
    assert f"embed[{n}] serre-a[2]" in names
    assert f"embed[{n}] classical-limit I21" in names
    assert all(e["mode"] == "symbolic" for e in report)


@pytest.mark.parametrize("n,j,cell", [
    (4, 2, (3, 0)), (4, 3, (2, 3)), (4, 4, (3, 0)),
    (5, 2, (3, 0)), (5, 3, (2, 3)), (5, 4, (1, 2)), (5, 5, (1, 4)),
])
def test_embedding_flags_exactly_the_relations_of_a_wrong_tilde(monkeypatch, n, j, cell):
    # one entry of one tilde image off by 1: exactly the relations holding
    # I[j,j-1] and its classical limit must fail, through the sparse
    # residuals' .any()
    def perturbed(jj, rep):
        t = tilde_I(jj, rep)
        if jj == j:
            t = ExactMatrix({**t, cell: t.get(cell, LaurentPoly.zero()) + LaurentPoly.one()})
        return t

    monkeypatch.setattr(djembed, "tilde_I", perturbed)
    failed = [e["check"] for e in verify_embedding(n) if not e["pass"]]
    expected = [f"embed[{n}] {name}" for name in relations_with_generator(n, j)]
    assert failed == expected + [f"embed[{n}] classical-limit I{j}{j - 1}"]


# -- weight-basis irreps -------------------------------------------------------


def test_sl2_irrep_small_cases():
    q = 1.2 * cmath.exp(0.3j)
    zero = sl2_irrep(0, q)
    assert zero.E.shape == (1, 1) and zero.E[0, 0] == 0

    one = sl2_irrep(1, q)
    s = cmath.sqrt(q)
    assert abs(one.E[0, 1] - 1) < 1e-12  # sqrt([1][1]) = 1
    assert abs(one.qH[0, 0] - s) < 1e-12
    assert abs(one.qH[1, 1] - 1 / s) < 1e-12

    two = sl2_irrep(2, q)
    b2 = (q**2 - q**-2) / (q - 1 / q)
    expected = cmath.sqrt(b2)  # sqrt([1][2]) = sqrt([2])
    assert abs(two.E[0, 1] - expected) < 1e-12
    assert abs(two.E[1, 2] - expected) < 1e-12
    assert np.allclose(two.F, two.E.T)


def test_sl2_irrep_rejects_low_order_roots_of_unity():
    with pytest.raises(DegenerateQ):
        sl2_irrep(1, 1.0)
    with pytest.raises(DegenerateQ):
        sl2_irrep(3, 1j)  # order 4 <= twoJ + 1
    sl2_irrep(2, 1j)  # order 4 > 3 is fine
    with pytest.raises(DegenerateQ):
        sl2_irrep(0, 0.0)
    with pytest.raises(ValueError):
        sl2_irrep(-1, 2.0)


def test_psi_x_image_diagonal_golden():
    q = 1.3 * cmath.exp(0.4j)
    X, Y = psi_images(sl2_irrep(1, q))
    s = cmath.sqrt(q)
    assert abs(X[0, 0] - 1j / (s + 1 / s)) < 1e-12
    assert abs(X[1, 1] + 1j / (s + 1 / s)) < 1e-12
    assert abs(X[0, 1]) == 0.0
    # Y carries the off-diagonal ladder difference, column-scaled
    assert abs(Y[0, 0]) == 0.0 and abs(Y[1, 1]) == 0.0


@pytest.mark.parametrize("twoJ", range(0, 9))
def test_psi_relations_close_on_every_irrep(twoJ):
    rng = random.Random(500 + twoJ)
    for i in range(10):
        q = sample_generic_q(rng, on_circle=(i % 2 == 0), min_order=twoJ + 1)
        report = verify_psi(twoJ, q)
        assert all_pass(report), report
        assert max(e["residual"] for e in report) < 1e-10


def test_psi_report_shape():
    report = verify_psi(2, 0.8 * cmath.exp(1.1j))
    assert [e["check"] for e in report] == ["psi twoJ=2 serre-a", "psi twoJ=2 serre-b"]
    assert all(e["mode"] == "numeric" for e in report)


# -- q sampling ------------------------------------------------------------------


def test_sample_generic_q_determinism_and_margins():
    a = sample_generic_q(random.Random(3), on_circle=True, min_order=15)
    b = sample_generic_q(random.Random(3), on_circle=True, min_order=15)
    assert a == b
    assert abs(abs(a) - 1) < 1e-12
    assert all(abs(a**m - 1) > 1e-6 for m in range(1, 16))
    off = sample_generic_q(random.Random(4), on_circle=False)
    assert abs(abs(off) - 1) > 0.1
