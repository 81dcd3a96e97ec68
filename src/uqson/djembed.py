"""Embedding and composition checks on explicit representation matrices.

The tilde elements F_{j-1} - q q^{-H_{j-1}} E_{j-1} are verified to satisfy
every defining relation of the deformed orthogonal algebra inside the vector
representation of the standard quantum algebra, with exact Laurent
coefficients in sparse `ExactMatrix` cells and no numpy. The rank-3
composition map (X from the Cartan part, Y from E - F) is verified
numerically on the standard weight-basis irreps, in numpy.

Each half imports what it computes with in the functions that use it: the
exact ring, `fractions` and `pbw.classical` for the embedding, numpy for the
composition. So psi-verify loads no exact code and embed-verify no numpy.
"""

from __future__ import annotations

import cmath
from collections import namedtuple
from operator import matmul

from .errors import DegenerateQ, IndexOutOfRange, SingularDenominator
from .pbw._relations import defining_relation_residuals
from .pbw._rules import check_rank


# -- vector representation of the standard quantum algebra --------------------


class SlnRepMatrices(namedtuple("SlnRepMatrices", "n E F K Kinv")):
    """Vector-representation matrices as ExactMatrix cells holding exact
    LaurentPoly entries."""

    __slots__ = ()


def _self_check_sln(rep):
    """Constructor check of the quantum-algebra relations, denominator-free."""
    from .coeffring import LaurentPoly, qnumber

    n = rep.n
    qq = qnumber(2)
    qdiff = LaurentPoly.q(1) - LaurentPoly.q(-1)
    qpow = LaurentPoly.q

    def check(residual, what):
        if residual.any():
            raise AssertionError(f"vector representation self-check failed: {what}")

    cartan = {0: 2, 1: -1}
    for i in range(n - 1):
        for j in range(n - 1):
            a = cartan.get(abs(i - j), 0)
            lhs = rep.K[i] @ rep.E[j] @ rep.Kinv[i]
            check(lhs - qpow(a) * rep.E[j], f"KEK i={i} j={j}")
            lhs = rep.K[i] @ rep.F[j] @ rep.Kinv[i]
            check(lhs - qpow(-a) * rep.F[j], f"KFK i={i} j={j}")
            lhs = qdiff * (rep.E[i] @ rep.F[j] - rep.F[j] @ rep.E[i])
            if i == j:
                lhs = lhs - (rep.K[i] - rep.Kinv[i])
            check(lhs, f"EF i={i} j={j}")
            if abs(i - j) == 1:
                for fam in (rep.E, rep.F):
                    a2b = fam[i] @ fam[i] @ fam[j]
                    aba = fam[i] @ fam[j] @ fam[i]
                    ba2 = fam[j] @ (fam[i] @ fam[i])
                    check(a2b - qq * aba + ba2, f"serre i={i} j={j}")
            elif i != j:
                for tag, fam in (("EE", rep.E), ("FF", rep.F)):
                    check(fam[i] @ fam[j] - fam[j] @ fam[i], f"{tag} i={i} j={j}")


def vector_rep_sln(n):
    """Standard vector representation; E_i, F_i elementary, K_i diagonal."""
    from .coeffring import LaurentPoly
    from .pbw.classical import ExactMatrix

    if n < 2:
        raise IndexOutOfRange(f"need n >= 2, got {n}")
    one = LaurentPoly.one()
    qp, qm = LaurentPoly.q(1), LaurentPoly.q(-1)

    def diagonal(i, first, second):
        cells = {(r, r): one for r in range(n)}
        cells[i, i], cells[i + 1, i + 1] = first, second
        return ExactMatrix(cells)

    rep = SlnRepMatrices(
        n=n,
        E=[ExactMatrix({(i, i + 1): one}) for i in range(n - 1)],
        F=[ExactMatrix({(i + 1, i): one}) for i in range(n - 1)],
        K=[diagonal(i, qp, qm) for i in range(n - 1)],
        Kinv=[diagonal(i, qm, qp) for i in range(n - 1)],
    )
    _self_check_sln(rep)
    return rep


def tilde_I(j, rep):
    """The element F_{j-1} - q * q^{-H_{j-1}} * E_{j-1} in the representation."""
    from .coeffring import LaurentPoly

    if not (2 <= j <= rep.n):
        raise IndexOutOfRange(f"tilde index {j} outside 2..{rep.n}")
    return rep.F[j - 2] - LaurentPoly.q(1) * (rep.Kinv[j - 2] @ rep.E[j - 2])


def poly_at_one(poly):
    """Exact rational value of a Laurent polynomial at q = 1."""
    from fractions import Fraction

    return sum((Fraction(c) for _, c in poly.items2()), Fraction(0))


def verify_embedding(n):
    """Exact symbolic check of every defining relation on the tilde images,
    plus the q=1 specialization against the classical antisymmetric
    generators. Returns report entries with mode 'symbolic'. The rank is
    checked first, so a rank above MAX_RANK builds nothing."""
    from .coeffring import qnumber
    from .pbw.classical import ExactMatrix, classical_generator

    check_rank(n)
    rep = vector_rep_sln(n)
    tildes = [tilde_I(j, rep) for j in range(2, n + 1)]
    checks = [
        (name, not resid.any())
        for name, _, resid in defining_relation_residuals(n, tildes, qnumber(2), matmul)
    ]
    for j, tilde in enumerate(tildes, start=2):
        at_one = ExactMatrix({cell: poly_at_one(entry) for cell, entry in tilde.items()})
        checks.append((f"classical-limit I{j}{j - 1}", at_one == classical_generator(n, j, j - 1)))
    return [
        {"check": f"embed[{n}] {name}", "mode": "symbolic", "pass": ok, "residual": None}
        for name, ok in checks
    ]


# -- weight-basis irreps and the rank-3 composition ---------------------------


class Sl2IrrepMatrices(namedtuple("Sl2IrrepMatrices", "twoJ q E F qH qHinv")):
    """Weight-basis irrep matrices as complex128 numpy arrays."""

    __slots__ = ()


def sl2_irrep(twoJ, q):
    """Standard (twoJ+1)-dimensional weight-basis irrep.

    qH carries the half-integer weight spectrum q^((twoJ-2r)/2) so that
    [E, F] = (qH^2 - qH^-2)/(q - q^-1) holds, matching the target of the
    composition map. Raises DegenerateQ when q is a root of unity of order
    at most twoJ+1 (the irrep degenerates there).
    """
    import numpy as np

    if not isinstance(twoJ, int) or twoJ < 0:
        raise ValueError(f"twoJ must be a nonnegative integer, got {twoJ!r}")
    q = complex(q)
    if q == 0:
        raise DegenerateQ("q must be nonzero")
    for m in range(1, twoJ + 2):
        if abs(q ** m - 1) < 1e-9:
            raise DegenerateQ(f"q is a root of unity of order {m} <= twoJ+1")
    dim = twoJ + 1
    sqrt_q = cmath.sqrt(q)

    def bracket(a):
        return (q ** a - q ** (-a)) / (q - 1 / q)

    E = np.zeros((dim, dim), dtype=np.complex128)
    F = np.zeros((dim, dim), dtype=np.complex128)
    for r in range(1, dim):
        entry = cmath.sqrt(bracket(r) * bracket(twoJ + 1 - r))
        E[r - 1, r] = entry
        F[r, r - 1] = entry
    qH = np.diag(np.array([sqrt_q ** (twoJ - 2 * r) for r in range(dim)]))
    qHinv = np.diag(np.array([sqrt_q ** (2 * r - twoJ) for r in range(dim)]))

    # weight-basis self-check, denominators cleared
    lhs = (q - 1 / q) * (E @ F - F @ E)
    rhs = qH @ qH - qHinv @ qHinv
    scale = max(np.abs(E).max(), 1.0) ** 2
    if np.abs(lhs - rhs).max() > 1e-10 * scale:
        raise AssertionError("weight-basis self-check failed: EF commutator")
    step = qH @ E @ qHinv - q * E
    if np.abs(step).max() > 1e-10 * scale:
        raise AssertionError("weight-basis self-check failed: qH grading")
    return Sl2IrrepMatrices(twoJ=twoJ, q=q, E=E, F=F, qH=qH, qHinv=qHinv)


def psi_images(irrep):
    """X from the Cartan part, Y from (E - F) divided by qH + qH^-1."""
    import numpy as np

    q = irrep.q
    denom = q - 1 / q
    if abs(denom) < 1e-12:
        raise SingularDenominator("q - q^(-1) vanishes")
    X = (1j / denom) * (irrep.qH - irrep.qHinv)
    diag = np.diagonal(irrep.qH + irrep.qHinv)
    if np.abs(diag).min() < 1e-12:
        raise SingularDenominator("q^H + q^-H is not invertible")
    Y = (irrep.E - irrep.F) / diag[np.newaxis, :]
    return X, Y


def verify_psi(twoJ, q, tol=1e-10):
    """Residuals of both rank-3 defining relations on the psi images."""
    import numpy as np

    irrep = sl2_irrep(twoJ, q)
    X, Y = psi_images(irrep)
    q = irrep.q
    report = []
    for _, kind, resid in defining_relation_residuals(3, [X, Y], q + 1 / q, matmul):
        worst = float(np.abs(resid).max()) if resid.size else 0.0
        report.append({
            "check": f"psi twoJ={twoJ} {kind}",
            "mode": "numeric",
            "pass": bool(worst < tol),
            "residual": worst,
        })
    return report


def sample_generic_q(rng, on_circle, min_order=12):
    """One random q avoiding roots of unity of order <= min_order.

    on_circle picks |q| = 1 (phase bounded away from 1); otherwise the
    modulus lands in [0.4, 0.85] or [1.15, 2.5], where no power returns
    to 1 at all. rng is a random.Random instance.
    """
    bound = max(int(min_order), 12)
    for _ in range(1000):
        if on_circle:
            theta = rng.uniform(0.05, 2 * cmath.pi - 0.05)
            q = cmath.exp(1j * theta)
        else:
            mod = rng.uniform(1.15, 2.5)
            if rng.random() < 0.5:
                mod = 1 / mod
            q = mod * cmath.exp(1j * rng.uniform(0.0, 2 * cmath.pi))
        if all(abs(q ** m - 1) > 1e-6 for m in range(1, bound + 1)):
            return q
    raise DegenerateQ("could not sample a q clear of low-order roots of unity")
