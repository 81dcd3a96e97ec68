"""Root-of-unity representations: tableau bookkeeping, operator assembly,
relation residuals, irreducibility, and the JSON interchange formats.

The l-coordinate oracle values are recomputed inline from the shift rules
(l = m + p - i for even rows 2p, l = m + p - i + 1 for odd rows 2p+1), and
the build's shift targets and l-coordinates are checked against the
one-object-per-tableau path in `tableau_oracle`.
"""

from __future__ import annotations

import hashlib
import json
import struct
from operator import matmul

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqson import jsonio, reps
from uqson.coeffring import RootOfUnity, qbracket_numeric
from uqson.errors import (
    DegenerateDenominator,
    DegenerateParameter,
    DimensionMismatch,
    IndexOutOfRange,
    RankMismatch,
)
from uqson.pbw.verify import defining_relation_instances, defining_relation_residuals
from uqson.params import (
    ParamsOmega,
    assert_generic,
    num_positive_roots,
    parameter_count,
    random_generic_params,
    variable_slots,
)
from uqson.reps import (
    _DENSE_RESIDUAL_MAX_DIM,
    SparseOperator,
    _ComplexField,
    _FlatSparse,
    build_representation,
    commutant_certificate,
    commutant_dimension,
    relation_residual,
)

from commutant_oracle import _sylvester_dimension
from tableau_oracle import (
    Tableau,
    TopRowShift,
    enumerate_tableaux,
    l_value,
    m_value,
    shift_tableau,
    tableau_index,
)
from test_pbw import relations_with_generator


def operators_by_name(omega):
    return {op.name: op for op in build_representation(omega)}


def max_column_nonzeros(op):
    """The most stored entries in one column of the SparseOperator `op`."""
    counts = {}
    for _, c, _ in op.entries:
        counts[c] = counts.get(c, 0) + 1
    return max(counts.values(), default=0)


def worst_residual(omega):
    report = relation_residual(build_representation(omega), omega.root)
    return max(entry["residual"] for entry in report)


# -- tableau bookkeeping -------------------------------------------------------


def test_variable_slot_inventory():
    assert variable_slots(3) == ((1, 2),)
    assert variable_slots(4) == ((1, 3), (1, 2))
    assert variable_slots(5) == ((1, 4), (2, 4), (1, 3), (1, 2))
    assert num_positive_roots(3) == 1
    assert num_positive_roots(4) == 2
    assert num_positive_roots(5) == 4
    assert num_positive_roots(6) == 6
    for n in range(3, 9):
        assert parameter_count(n) == n * (n - 1) // 2


def test_tableau_validation():
    Tableau(4, 3, (0, 2))
    with pytest.raises(ValueError):
        Tableau(4, 3, (0,))  # wrong slot count
    with pytest.raises(ValueError):
        Tableau(4, 3, (0, 3))  # offset out of range
    with pytest.raises(ValueError):
        Tableau(4, 3, (0, -1))


def test_enumeration_count_and_index_round_trip():
    omega = random_generic_params(5, 3, 11)
    tabs = enumerate_tableaux(omega)
    assert len(tabs) == 3 ** num_positive_roots(5)
    for pos, tab in enumerate(tabs):
        assert tableau_index(tab) == pos


def test_m_and_l_values_against_shift_rules():
    omega = random_generic_params(4, 3, 5)
    tab = Tableau(4, 3, (2, 1))
    h13, h12 = omega.h[(1, 3)], omega.h[(1, 2)]
    assert m_value(omega, tab, 1, 3) == h13 + 2
    assert m_value(omega, tab, 1, 2) == h12 + 1
    assert m_value(omega, tab, 1, 4) == omega.m_top[0]
    assert m_value(omega, tab, 2, 4) == omega.m_top[1]
    # even row 2p: l = m + p - i; odd row 2p+1: l = m + p - i + 1
    assert l_value(omega, tab, 1, 2) == (h12 + 1) + 1 - 1
    assert l_value(omega, tab, 1, 3) == (h13 + 2) + 1 - 1 + 1
    assert l_value(omega, tab, 1, 4) == omega.m_top[0] + 2 - 1
    assert l_value(omega, tab, 2, 4) == omega.m_top[1] + 2 - 2
    with pytest.raises(IndexOutOfRange):
        m_value(omega, tab, 3, 4)
    with pytest.raises(IndexOutOfRange):
        l_value(omega, tab, 2, 2)


def test_shift_wraps_cyclically_and_top_row_is_fixed():
    omega = random_generic_params(4, 3, 5)
    tab = Tableau(4, 3, (0, 2))
    up = shift_tableau(omega, tab, 1, 2, +1)
    assert up.offsets == (0, 0)  # 2 + 1 wraps to 0 at k = 3
    down = shift_tableau(omega, tab, 1, 3, -1)
    assert down.offsets == (2, 2)
    with pytest.raises(TopRowShift):
        shift_tableau(omega, tab, 1, 4, +1)
    with pytest.raises(ValueError):
        shift_tableau(omega, tab, 1, 2, 2)


@pytest.mark.parametrize("n, k", [(4, 5), (5, 3), (6, 3)])
def test_shift_targets_and_i21_diagonal_match_tableau_oracle(n, k):
    omega = random_generic_params(n, k, 0)
    tabs = enumerate_tableaux(omega)
    ops = build_representation(omega)
    # generic parameters leave no shift coefficient zero, so the off-diagonal
    # support of I_{s+1,s} is exactly the +-1 shifts of every row-s entry
    for s, op in enumerate(ops, 1):
        expected = {
            (tableau_index(shift_tableau(omega, tab, i, s, d)), tableau_index(tab))
            for tab in tabs
            for i in range(1, s // 2 + 1)
            for d in (1, -1)
        }
        assert {(r, c) for r, c, _ in op.entries if r != c} == expected
    # row 1 has no entry, so I21 is the diagonal i [l_{1,2}]: this checks the
    # build's l-coordinate of the slot that varies fastest at every tableau
    want = [(tableau_index(tab), tableau_index(tab),
             1j * qbracket_numeric(l_value(omega, tab, 1, 2), omega.root)) for tab in tabs]
    assert list(ops[0].entries) == want


def _bits(z):
    return struct.pack("<dd", z.real, z.imag)


@pytest.mark.parametrize("first", [0.0, -0.0])
def test_bracket_memo_keys_on_the_bits_of_x(first):
    # 0j == -0j, but [-0+0j] = 0j and [-0-0j] = -0j: a memo keyed on the
    # value would hand the first zero's bracket to the second
    root = RootOfUnity(5, 1)
    field = _ComplexField(root)
    for imag in (first, -first, first):
        x = complex(-0.0, imag)
        assert _bits(field.bracket(x)) == _bits(qbracket_numeric(x, root))
    assert len(field._memo) == 2


def test_denominator_checks_run_on_a_memo_hit():
    field = _ComplexField(RootOfUnity(3, 1))
    assert abs(field.bracket(3 + 0j)) < 1e-15  # a numerator zero is legitimate
    for _ in range(2):
        with pytest.raises(DegenerateParameter, match=r"^vanishing denominator bracket \[l\] = "):
            field.bracket(3 + 0j, "l")
    for _ in range(2):  # q^l + q^-l = 2 cos(pi/2) = 0 at k = 3
        with pytest.raises(DegenerateParameter, match=r"^vanishing denominator q\^l\+q\^-l"):
            field.qpow_sum(0.75 + 0j, "l_1,2")


def test_an_overflowing_q_power_is_a_degenerate_parameter():
    # q^x = exp(2 pi i x / 3) overflows once |Im x| passes about 339
    root = RootOfUnity(3, 1)
    message = r"^q-power overflows in bracket \[\(0\.4-400j\)\]$"
    with pytest.raises(DegenerateParameter, match=message):
        _ComplexField(root).bracket(complex(0.4, -400))
    message = r"^q-power overflows in q\^l\+q\^-l at \(0\.4\+400j\)$"
    with pytest.raises(DegenerateParameter, match=message):
        _ComplexField(root).qpow_sum(complex(0.4, 400), "l_1,2")


# -- parameter container --------------------------------------------------------


def test_params_structural_validation():
    base = random_generic_params(4, 3, 1)
    with pytest.raises(RankMismatch):
        ParamsOmega(n=2, root=base.root, m_top=(), h={}, c={})
    with pytest.raises(ValueError):
        ParamsOmega(n=4, root=base.root, m_top=base.m_top[:1], h=base.h, c=base.c)
    missing_h = dict(base.h)
    missing_h.pop((1, 2))
    with pytest.raises(ValueError):
        ParamsOmega(n=4, root=base.root, m_top=base.m_top, h=missing_h, c=base.c)
    extra_c = dict(base.c)
    extra_c[(9, 9)] = 1.0
    with pytest.raises(ValueError):
        ParamsOmega(n=4, root=base.root, m_top=base.m_top, h=base.h, c=extra_c)
    zero_c = dict(base.c)
    zero_c[(1, 2)] = 0.0
    with pytest.raises(DegenerateParameter):
        ParamsOmega(n=4, root=base.root, m_top=base.m_top, h=base.h, c=zero_c)
    assert base.dimension() == 9


@pytest.mark.parametrize("n", [2, 2.0, "3"])
def test_params_refuse_a_bad_rank_before_anything_else(n):
    # the m_top of rank 4 has the wrong length for each n, and "3" // 2 would
    # raise TypeError: the rank check must run first
    base = random_generic_params(4, 3, 1)
    with pytest.raises(RankMismatch) as err:
        ParamsOmega(n=n, root=base.root, m_top=base.m_top, h=base.h, c=base.c)
    assert str(err.value) == f"rank must be an integer >= 3, got {n!r}"


def test_assert_generic_flags_each_condition():
    base = random_generic_params(5, 3, 2)

    # same-row difference an integer
    h = dict(base.h)
    h[(1, 4)] = h[(2, 4)] + 2.0
    with pytest.raises(DegenerateParameter):
        assert_generic(ParamsOmega(n=5, root=base.root, m_top=base.m_top, h=h, c=base.c))
    # same-row sum an integer
    h = dict(base.h)
    h[(1, 4)] = 3.0 - h[(2, 4)]
    with pytest.raises(DegenerateParameter):
        assert_generic(ParamsOmega(n=5, root=base.root, m_top=base.m_top, h=h, c=base.c))
    # h_{p,2p+1} half-integral
    h = dict(base.h)
    h[(1, 3)] = 0.5
    with pytest.raises(DegenerateParameter):
        assert_generic(ParamsOmega(n=5, root=base.root, m_top=base.m_top, h=h, c=base.c))
    # near-zero c (passes construction, fails the margin check)
    c = dict(base.c)
    c[(1, 2)] = 1e-4
    with pytest.raises(DegenerateParameter):
        assert_generic(ParamsOmega(n=5, root=base.root, m_top=base.m_top, h=base.h, c=c))
    assert assert_generic(base) is True


def test_random_generic_params_is_deterministic():
    a = random_generic_params(4, 3, 42)
    b = random_generic_params(4, 3, 42)
    assert a == b
    assert a != random_generic_params(4, 3, 43)
    assert random_generic_params(3, 5, 1, t=2).root == RootOfUnity(5, 2)


# -- operators -------------------------------------------------------------------


def test_generator_order_and_names():
    omega = random_generic_params(5, 3, 3)
    ops = build_representation(omega)
    assert [op.name for op in ops] == ["I21", "I32", "I43", "I54"]
    assert all(op.dim == 81 for op in ops)


def test_sparsity_bounds():
    ops = operators_by_name(random_generic_params(5, 3, 9))
    # odd family I_{2p+1,2p}: at most 2p entries per column (one up, one
    # down per j <= p)
    assert max_column_nonzeros(ops["I32"]) <= 2
    assert max_column_nonzeros(ops["I54"]) <= 4
    # even family I_{2p,2p-1}: 2(p-1) shifts plus one diagonal entry
    assert max_column_nonzeros(ops["I21"]) <= 1
    assert max_column_nonzeros(ops["I43"]) <= 3


def test_odd_operator_generic_column_count_is_exactly_2p():
    # generic parameters keep every shift coefficient nonzero
    omega = random_generic_params(5, 3, 9)
    assert max_column_nonzeros(operators_by_name(omega)["I54"]) == 4


def test_rank3_even_operator_is_purely_diagonal():
    omega = random_generic_params(3, 5, 4)
    op = operators_by_name(omega)["I21"]
    assert all(r == c for r, c, _ in op.entries)


@pytest.mark.parametrize(
    "n,k,expected",
    [(3, 3, 3), (3, 5, 5), (4, 3, 9), (5, 3, 81)],
)
def test_dimension_law_buildable_cases(n, k, expected):
    omega = random_generic_params(n, k, 77)
    ops = build_representation(omega)
    assert ops[0].dim == expected == omega.dimension()


def test_dimension_law_order_two_basis_exists_but_operators_degenerate():
    omega = random_generic_params(4, 2, 77)
    assert len(enumerate_tableaux(omega)) == 4 == omega.dimension()
    with pytest.raises(DegenerateDenominator):
        build_representation(omega)


@pytest.mark.parametrize(
    "n,k,tol",
    [(3, 3, 1e-9), (3, 5, 1e-9), (4, 3, 1e-9), (5, 3, 1e-7)],
)
def test_relation_residuals_single_seed(n, k, tol):
    omega = random_generic_params(n, k, 123)
    assert worst_residual(omega) < tol


def test_relation_residuals_rank_6():
    # (6,3), 729 dims: row 5 is the first odd row with two entries, so this is
    # the residual check of shift_coeff's odd-s same-row denominator bracket
    omega = random_generic_params(6, 3, 0)
    assert omega.dimension() == 729
    assert worst_residual(omega) < 1e-7


def test_relation_residuals_at_4096_dims():
    # (6,4): one dense matrix would take 268 MB, so only the sparse path runs here
    omega = random_generic_params(6, 4, 0)
    assert omega.dimension() == 4096 > _DENSE_RESIDUAL_MAX_DIM
    assert worst_residual(omega) < 1e-7


# sha256 over repr((name, entries)) of each generator of the (7,3) seed-0
# build, recorded before the build was tiled from per-generator local matrices
DIGEST_7_3 = "7f966398c446004cecce3929af4587caaec775cb28869f2afb44f2750e3f88c1"
# sha256 of its 63,864,251-byte rep-build file, recorded while json.dumps
# wrote representation files
FILE_DIGEST_7_3 = "1e7d4ffa299f97afd9c561d57e202b1e0509b36a5adb9441b2cd509611d42536"


def test_relation_residuals_at_19683_dims(tmp_path):
    # (7,3), the largest rung: the build is pinned bit for bit in process, and
    # the file rep-build writes from it by its digest
    omega = random_generic_params(7, 3, 0)
    ops = build_representation(omega)
    assert ops[0].dim == omega.dimension() == 19683
    digest = hashlib.sha256()
    for op in ops:
        digest.update(repr((op.name, op.entries)).encode())
    assert digest.hexdigest() == DIGEST_7_3
    path = tmp_path / "rep.json"
    jsonio.dump_rep(ops, path)
    with open(path, "rb") as fh:
        assert hashlib.file_digest(fh, "sha256").hexdigest() == FILE_DIGEST_7_3
    path.unlink()
    report = relation_residual(ops, omega.root)
    assert max(entry["residual"] for entry in report) < 1e-7


def dense_residual_oracle(ops, root):
    """(relation, max-entry residual) through dense products, the path
    relation_residual takes up to _DENSE_RESIDUAL_MAX_DIM."""
    q = root.value()
    dense = [op.to_dense() for op in ops]
    return [
        (name, float(np.abs(resid).max()))
        for name, _, resid in defining_relation_residuals(len(ops) + 1, dense, q + 1 / q, matmul)
    ]


def rounding_bounds(ops, root):
    """Per relation, how far two evaluations of its max-entry residual, in
    any summation order, may lie apart: 2 gamma_m max S (Higham, Accuracy
    and Stability of Numerical Algorithms, ch. 3), gamma_m = mu / (1 - mu)
    with u the unit roundoff, and S the sum over the relation's terms of the
    product of its factors' entrywise absolute values.

    Every product's right factor is a generator, so each entry of a product
    sums at most w nonzero terms, w the most stored entries in a
    generator's column; exact zeros add no rounding, so the dense path's
    d-term inner products round like w-term ones. A complex inner product
    of w terms carries gamma_{w+2} (Higham section 3.6), two in sequence
    gamma_{2w+4}, the scalar [2] adds sqrt(2) gamma_2 <= gamma_3 and the
    three sums gamma_3: m = 2w + 10. Each path lies within gamma_m S of the
    exact residual of the stored entries, so the two differ by at most
    twice that."""
    q = root.value()
    qq = abs(q + 1 / q)
    g = [np.abs(op.to_dense()) for op in ops]
    m = 2 * max(max_column_nonzeros(op) for op in ops) + 10
    gamma = m * reps._UNIT_ROUNDOFF / (1 - m * reps._UNIT_ROUNDOFF)
    bounds = []
    # the terms of defining_relation_residuals, each factor by its absolute value
    for _, kind, idx in defining_relation_instances(len(ops) + 1):
        if kind == "commute":
            a, b = (g[i - 2] for i in idx)
            terms = a @ b + b @ a
        else:
            a, b = g[idx[0] - 2], g[idx[0] - 1]
            if kind == "serre-b":
                a, b = b, a
            terms = a @ a @ b + qq * (a @ b @ a) + b @ a @ a + b
        bounds.append(2 * gamma * float(terms.max(initial=0.0)))
    return bounds


def assert_within_rounding_bounds(got, want, bounds):
    """The largest fraction of its rounding bound a relation's gap uses."""
    assert [e["relation"] for e in got] == [name for name, _ in want]
    used = [
        abs(entry["residual"] - value) / bound if entry["residual"] != value else 0.0
        for entry, (_, value), bound in zip(got, want, bounds)
    ]
    assert max(used) <= 1, f"residual paths use {max(used):.3g} of the rounding bound"
    return max(used)


def assert_residual_paths_agree(ops, root):
    got = relation_residual(ops, root)
    want = dense_residual_oracle(ops, root)
    used = assert_within_rounding_bounds(got, want, rounding_bounds(ops, root))
    print(f"residual paths at d={ops[0].dim}: {used:.2%} of the rounding bound used")
    return got, want


def test_a_gap_of_ten_rounding_bounds_fails_the_path_comparison():
    omega = random_generic_params(4, 17, 0)
    ops = build_representation(omega)
    want = dense_residual_oracle(ops, omega.root)
    bounds = rounding_bounds(ops, omega.root)
    for i, bound in enumerate(bounds):
        got = [{"relation": name, "residual": value} for name, value in want]
        assert assert_within_rounding_bounds(got, want, bounds) == 0.0
        got[i]["residual"] += 10 * bound
        with pytest.raises(AssertionError, match="residual paths use 10 of the rounding bound"):
            assert_within_rounding_bounds(got, want, bounds)


@pytest.mark.parametrize("n,k,dense", [(5, 4, True), (4, 17, False)],
                         ids=["d256-dense", "d289-sparse"])
def test_residual_paths_agree_at_the_cutoff(n, k, dense):
    omega = random_generic_params(n, k, 0)
    got, want = assert_residual_paths_agree(build_representation(omega), omega.root)
    if dense:
        # the dense path is the oracle itself, so the printed digits cannot
        # move; with sparse products serre-b[2] would read 1.721e-15, not 1.740e-15
        assert [e["residual"] for e in got] == [value for _, value in want]


@pytest.mark.parametrize("n,k", [(5, 5), (4, 17)])
def test_commutators_cancel_exactly_on_the_sparse_path(n, k):
    # a commute[i,j] residual is a*b - b*a for generators moving disjoint
    # rows: each entry of both products is one product of the same two
    # numbers, so it cancels only if x*y and y*x round alike
    omega = random_generic_params(n, k, 0)
    assert omega.dimension() > _DENSE_RESIDUAL_MAX_DIM
    report = relation_residual(build_representation(omega), omega.root)
    commute = [e["residual"] for e in report if e["relation"].startswith("commute")]
    assert commute and all(value == 0.0 for value in commute)


@pytest.mark.parametrize("w", [2, 3, 4])
def test_empty_generator_above_the_cutoff(w):
    # a residual with no stored entry reads 0, as the dense oracle's does
    omega = random_generic_params(4, 17, 0)
    ops = build_representation(omega)
    ops[w - 2] = SparseOperator(ops[w - 2].name, ops[w - 2].dim, ())
    got, _ = assert_residual_paths_agree(ops, omega.root)
    assert any(e["residual"] == 0.0 for e in got)


def test_sparse_residual_does_not_depend_on_the_dimension():
    # the (3,3) operators declared in 300 and in the largest dimension a
    # representation file may declare: the residual holds no array of length
    # d, and its flat cell indices row * d + col do not overflow
    omega = random_generic_params(3, 3, 0)
    ops = build_representation(omega)
    reports = [
        relation_residual([SparseOperator(op.name, dim, op.entries) for op in ops], omega.root)
        for dim in (300, reps._MAX_DIM)
    ]
    assert reports[0] == reports[1]
    assert max(e["residual"] for e in reports[0]) < 1e-9


def whole_matrix_residuals(ops, root):
    """Residuals of defining_relation_residuals over the whole _FlatSparse
    matrices, with no row blocks: the reference of the blocked residual."""
    q = root.value()
    mats = [_FlatSparse.from_operator(op) for op in ops]
    return [float(abs(resid).max(initial=0.0)) for _, _, resid
            in defining_relation_residuals(len(ops) + 1, mats, q + 1 / q, matmul)]


@pytest.mark.parametrize("budget", ["one-row", "default", "all-rows"])
@pytest.mark.parametrize("n,k", [(5, 5), (6, 3)])
def test_row_blocked_residual_is_bit_identical(monkeypatch, n, k, budget):
    # (X @ Y)[I] = X[I] @ Y sums each entry's terms in the same order, so
    # the blocks must reproduce every bit, whether a block holds one stored
    # row, a few or all of them
    omega = random_generic_params(n, k, 0)
    ops = build_representation(omega)
    if budget != "default":
        monkeypatch.setattr(reps, "_RESIDUAL_BLOCK_TERMS", 1 if budget == "one-row" else 2**62)
    blocks = sum(1 for _ in reps._row_blocks([_FlatSparse.from_operator(op) for op in ops]))
    if budget == "default":
        assert blocks > 1
    else:
        assert blocks == (omega.dimension() if budget == "one-row" else 1)
    got = [entry["residual"].hex() for entry in relation_residual(ops, omega.root)]
    assert got == [value.hex() for value in whole_matrix_residuals(ops, omega.root)]


@pytest.mark.parametrize("budget", [2**10, 2**12])
def test_row_blocks_bound_the_terms_of_every_sum(monkeypatch, budget):
    # at (6,3) the largest sum of the blocked residual takes 1.37 times the
    # budget in terms at 2^10 and 1.34 times at 2^12; over whole matrices
    # it takes 72,900. The first n - 1 sums are the conversions of the
    # whole generators, which the residual holds anyway
    omega = random_generic_params(6, 3, 0)
    ops = build_representation(omega)
    sizes, summed = [], reps._summed

    def counting(dim, cells, re, im):
        sizes.append(len(cells))
        return summed(dim, cells, re, im)

    monkeypatch.setattr(reps, "_summed", counting)
    monkeypatch.setattr(reps, "_RESIDUAL_BLOCK_TERMS", budget)
    relation_residual(ops, omega.root)
    assert max(sizes[len(ops):]) <= 2 * budget
    sizes.clear()
    monkeypatch.setattr(reps, "_RESIDUAL_BLOCK_TERMS", 2**62)
    relation_residual(ops, omega.root)
    assert max(sizes[len(ops):]) > 2 * budget


def flat_sparse_to_dense(m):
    assert (np.diff(m.cells) > 0).all()  # sorted, unique cells
    dense = np.zeros(m.dim * m.dim, dtype=np.complex128)
    dense[m.cells] = m.re + 1j * m.im
    return dense.reshape(m.dim, m.dim)


SMALL_INTS = st.integers(-3, 3)
SMALL_COMPLEX = st.builds(complex, SMALL_INTS, SMALL_INTS)


@st.composite
def triples(draw, dim):
    # (row, col, value) triples, unsorted and with repeated cells
    cell = st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1))
    return [(r, c, v) for (r, c), v in draw(st.lists(st.tuples(cell, SMALL_COMPLEX), max_size=12))]


def summed_dense(dim, entries):
    dense = np.zeros((dim, dim), dtype=np.complex128)
    for r, c, v in entries:
        dense[r, c] += v
    return dense


@settings(max_examples=200, deadline=None)
@given(data=st.data(), dim=st.integers(1, 6), scalar=SMALL_COMPLEX)
def test_flat_sparse_matches_dense_exactly(data, dim, scalar):
    # small-integer entries make every partial sum exact, so each result
    # must equal the dense one, whatever the summation order
    x_entries, y_entries = data.draw(triples(dim)), data.draw(triples(dim))
    x, y = (_FlatSparse.from_operator(SparseOperator("T", dim, tuple(e)))
            for e in (x_entries, y_entries))
    dx, dy = summed_dense(dim, x_entries), summed_dense(dim, y_entries)
    for got, want in [
        (x, dx),
        (x @ y, dx @ dy),
        (x @ y @ x, dx @ dy @ dx),
        (x + y, dx + dy),
        (x - y, dx - dy),
        (scalar * x, scalar * dx),
    ]:
        assert np.array_equal(flat_sparse_to_dense(got), want)
    assert abs(x - y).max(initial=0.0) == np.abs(dx - dy).max()


@pytest.mark.parametrize("w", [2, 3, 4])
def test_residual_paths_flag_the_same_relations_of_a_wrong_operator(w):
    # one entry of I[w,w-1] off by 1e-3, above the cutoff: both paths must flag
    # the same relations, all of them relations holding I[w,w-1]. Not every
    # such relation: I21 is diagonal, so serre-a[2] and commute[2,4] scale each
    # entry of I32 or I43 by a function of I21's diagonal that vanishes on it,
    # whatever the entry's value
    omega = random_generic_params(4, 17, 0)
    ops = build_representation(omega)
    op = ops[w - 2]
    i = len(op.entries) // 2
    r, c, v = op.entries[i]
    ops[w - 2] = SparseOperator(op.name, op.dim,
                                op.entries[:i] + ((r, c, v + 1e-3),) + op.entries[i + 1:])
    got, want = assert_residual_paths_agree(ops, omega.root)
    flagged = [e["relation"] for e in got if e["residual"] > 1e-6]
    assert flagged == [name for name, value in want if value > 1e-6]
    assert flagged and set(flagged) <= set(relations_with_generator(4, w))
    assert all(e["residual"] < 1e-10 for e in got if e["relation"] not in flagged)


def test_relation_report_names():
    omega = random_generic_params(4, 3, 123)
    report = relation_residual(build_representation(omega), omega.root)
    assert [e["relation"] for e in report] == [
        "serre-a[2]", "serre-b[2]", "serre-a[3]", "serre-b[3]", "commute[2,4]",
    ]


def test_t_variants_give_valid_representations():
    for t in (1, 2, 3, 4):
        omega = random_generic_params(3, 5, 7, t=t)
        assert worst_residual(omega) < 1e-9
    for t in (1, 2):
        omega = random_generic_params(5, 3, 7, t=t)
        assert worst_residual(omega) < 1e-7


@pytest.mark.parametrize("n,k", [(3, 3), (4, 3)])
def test_commutant_is_one_dimensional(n, k):
    omega = random_generic_params(n, k, 31)
    assert commutant_dimension(build_representation(omega)) == 1


def test_commutant_rejects_mixed_dimensions():
    a = build_representation(random_generic_params(3, 3, 1))
    b = build_representation(random_generic_params(3, 5, 1))
    with pytest.raises(DimensionMismatch):
        commutant_dimension(a + b)
    with pytest.raises(DimensionMismatch):
        relation_residual(a + b, RootOfUnity(3))


def test_an_empty_operator_list_is_refused():
    with pytest.raises(DimensionMismatch, match="^need at least one operator$"):
        relation_residual([], RootOfUnity(3))
    with pytest.raises(DimensionMismatch, match="^need at least one operator$"):
        commutant_certificate([])


def failing_eig(a):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


def test_certificate_is_uncertified_with_nan_margins_when_eig_fails(monkeypatch):
    monkeypatch.setattr(np.linalg, "eig", failing_eig)
    cert = commutant_certificate(build_representation(random_generic_params(3, 3, 0)))
    assert cert.dimension is None
    assert np.isnan([cert.gap, cert.cond, cert.commute_margin, cert.edge_margin]).all()


def test_commutant_certificate_refuses_a_dimension_above_its_limit(monkeypatch):
    # the (3,3) operators re-declared one past the limit are refused before
    # any dense matrix is made; (5,6) = 1296 stays below it
    def no_dense(op):
        raise AssertionError(f"{op.name} made dense")

    limit = reps._COMMUTANT_MAX_DIM
    ops = [SparseOperator(op.name, limit + 1, op.entries)
           for op in build_representation(random_generic_params(3, 3, 0))]
    monkeypatch.setattr(SparseOperator, "to_dense", no_dense)
    with pytest.raises(DimensionMismatch,
                       match=rf"dim = {limit + 1} is above its limit {limit} "):
        commutant_certificate(ops)
    assert 6**4 <= limit


def test_a_cell_split_in_two_entries_reads_as_their_sum_on_the_dense_path():
    # one cell's value v given as two entries of v/2: the dense path used to
    # keep the last entry, where the sparse path sums them
    omega = random_generic_params(3, 3, 0)
    ops = build_representation(omega)
    op = ops[1]
    (r, c, v), rest = op.entries[0], op.entries[1:]
    assert v != 0
    split = SparseOperator(op.name, op.dim, ((r, c, v / 2), (r, c, v / 2)) + rest)
    assert split.to_dense().view(np.uint64).tolist() == op.to_dense().view(np.uint64).tolist()
    assert op.dim <= _DENSE_RESIDUAL_MAX_DIM
    want = relation_residual(ops, omega.root)
    got = relation_residual([ops[0], split], omega.root)
    assert [(e["relation"], e["residual"].hex()) for e in got] == [
        (e["relation"], e["residual"].hex()) for e in want
    ]


def direct_sum(first, second):
    """Block-diagonal operators T1 (+) T2, generator by generator."""
    shift = first[0].dim
    return [
        SparseOperator(a.name, shift + b.dim, a.entries + tuple(
            (r + shift, c + shift, v) for r, c, v in b.entries
        ))
        for a, b in zip(first, second)
    ]


def permuted(ops, perm):
    """The operators in the basis reordered by e_j -> e_perm[j]."""
    return [
        SparseOperator(op.name, op.dim, tuple(sorted(
            (int(perm[r]), int(perm[c]), v) for r, c, v in op.entries
        )))
        for op in ops
    ]


def test_spectral_path_declines_on_isomorphic_direct_sum():
    # T (+) T: the generic element repeats every eigenvalue, and the
    # eigenbasis graph would give 2 where the commutant is 2x2 matrices = 4.
    # The gap gate declines, so T (+) T is uncertified at every d: at d = 6
    # from (3,3) and at d = 42 from (3,21). T0 (+) T1 has a simple spectrum,
    # and its smallest edge (about 31 beta) certifies 2
    small = build_representation(random_generic_params(3, 3, 0))
    t0, t1 = (build_representation(random_generic_params(3, 21, seed)) for seed in (0, 1))
    for first, second, dimension in ((small, small, None), (t0, t0, None), (t0, t1, 2)):
        cert = commutant_certificate(direct_sum(first, second))
        assert cert.dimension == dimension
        assert (cert.gap < 1e-12) == (first is second)
    assert _sylvester_dimension(direct_sum(small, small)) == 4


def test_spectral_path_splits_non_isomorphic_direct_sum():
    t1 = build_representation(random_generic_params(3, 3, 0))
    t2 = build_representation(random_generic_params(3, 3, 1))
    cert = commutant_certificate(direct_sum(t1, t2))
    assert cert.dimension == 2
    assert min(cert.commute_margin, cert.edge_margin) >= 1


@pytest.mark.parametrize("n,k", [(4, 8), (4, 10)])
@pytest.mark.parametrize("seed", range(12))
def test_even_order_splits_in_two_spectrally(n, k, seed):
    # two invariant subspaces (README, "Known limitation")
    cert = commutant_certificate(build_representation(random_generic_params(n, k, seed)))
    assert cert.dimension == 2


# the representations the benchmark's certify chains build (perfbench,
# CERTIFY_CASES without (4,2), which exits 3 at rep-build; CHAIN_SEEDS = 8)
@pytest.mark.parametrize("n,k", [(3, 3), (3, 5), (4, 3), (4, 5), (4, 7), (4, 4)])
def test_benchmark_certify_inputs_are_certified(n, k):
    for seed in range(8):
        ops = build_representation(random_generic_params(n, k, seed))
        assert commutant_certificate(ops).dimension is not None, seed


@pytest.mark.parametrize("n,k", [(4, 4), (4, 8)])
def test_certificate_refuses_a_coupling_below_the_edge_split(n, k):
    # T_i' = T_i + eps V E_rc V^-1 couples the two invariant subspaces with a
    # commutator of 10 beta, an entry the 1e-9 edge split counts as zero
    ops = build_representation(random_generic_params(n, k, 0))
    cert = commutant_certificate(ops)
    assert cert.dimension == 2
    d = ops[0].dim
    beta = cert.cond**2 * d * reps._UNIT_ROUNDOFF
    dense = [op.to_dense() for op in ops]
    v = np.linalg.eig(reps._generic_element(dense))[1]
    v_inv = np.linalg.inv(v)
    weight = sum(np.abs(v_inv @ t @ v) for t in dense)
    labels = reps._component_labels(weight > reps._EDGE_THRESHOLD * weight.max())
    r, c = 0, int(np.flatnonzero(labels != labels[0])[0])
    coupling = np.outer(v[:, r], v_inv[c, :])
    eps = 10 * beta * max(np.abs(t).max() for t in dense) / np.abs(coupling).max()
    assert eps < reps._EDGE_THRESHOLD * weight.max()
    perturbed = []
    for op, t in zip(ops, dense):
        t = t + eps * coupling
        perturbed.append(SparseOperator(op.name, d, tuple(
            (int(i), int(j), complex(t[i, j])) for i, j in zip(*np.nonzero(t))
        )))
    after = commutant_certificate(perturbed)
    assert after.dimension != 2
    if (n, k) == (4, 4):
        # the lower-bound check declines, so the input is uncertified; the
        # oracle's rank threshold of 1e-8 lies far above the coupling
        assert after.dimension is None and after.commute_margin < 1
        assert _sylvester_dimension(perturbed) == 2


@pytest.mark.parametrize("n,k", [(3, 3), (3, 4), (3, 5), (4, 3), (4, 4), (4, 5)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_spectral_path_matches_sylvester_oracle(n, k, seed):
    ops = build_representation(random_generic_params(n, k, seed))
    assert commutant_certificate(ops).dimension == _sylvester_dimension(ops)


@pytest.mark.parametrize("entries,dim,certified,exact", [
    # one 1x1 operator: the commutant is all of C
    ([((0, 0, 2.0),)], 1, 1, 1),
    # zero operators: A = 0 has no gap, so the certificate declines, though
    # every 3x3 matrix commutes
    ([(), ()], 3, None, 9),
    # one diagonal operator with distinct entries: the diagonal matrices
    ([((0, 0, 1.0), (1, 1, 2.0), (2, 2, 3.5))], 3, 3, 3),
], ids=["one-1x1", "zero-operators", "distinct-diagonal"])
def test_commutant_certificate_on_degenerate_inputs(entries, dim, certified, exact):
    ops = [SparseOperator(f"T{i}", dim, e) for i, e in enumerate(entries)]
    assert commutant_certificate(ops).dimension == certified
    assert _sylvester_dimension(ops) == exact


@settings(max_examples=15, deadline=None)
@given(case=st.sampled_from([(3, 5), (4, 3), (4, 4)]), data=st.data())
def test_commutant_invariant_under_basis_permutation(case, data):
    ops = build_representation(random_generic_params(*case, 0))
    perm = np.array(data.draw(st.permutations(range(ops[0].dim))))
    before = commutant_certificate(ops)
    after = commutant_certificate(permuted(ops, perm))
    assert after.dimension == before.dimension


def test_diagonal_vanishes_exactly_where_l_is_zero():
    # with h(1,2) = 0 the column family at offset 0 has l_{1,2} = 0, which
    # kills the diagonal coefficient of the rank-3 even operator exactly
    base = random_generic_params(4, 3, 6)
    h = dict(base.h)
    h[(1, 2)] = 0.0
    omega = ParamsOmega(n=4, root=base.root, m_top=base.m_top, h=h, c=base.c)
    op = operators_by_name(omega)["I21"]
    diag_cols = {c for r, c, _ in op.entries if r == c}
    tabs = enumerate_tableaux(omega)
    slot = variable_slots(4).index((1, 2))
    for col, tab in enumerate(tabs):
        if tab.offsets[slot] == 0:
            assert col not in diag_cols
        else:
            assert col in diag_cols


# -- JSON interchange -------------------------------------------------------------


def test_params_json_round_trip():
    omega = random_generic_params(4, 5, 13, t=2)
    data = json.loads(jsonio.dumps_json(jsonio.params_to_json(omega)))
    back = jsonio.params_from_json(data)
    assert back == omega
    assert back.root.t == 2


def test_rep_json_round_trip(tmp_path):
    ops = build_representation(random_generic_params(3, 3, 13))
    jsonio.dump_rep(ops, tmp_path / "rep.json")
    back = jsonio.rep_from_json(jsonio.load_json(tmp_path / "rep.json"))
    assert back == ops


def test_dumps_json_is_byte_deterministic():
    omega = random_generic_params(4, 3, 13)
    blob = jsonio.dumps_json(jsonio.params_to_json(omega))
    assert blob == jsonio.dumps_json(jsonio.params_to_json(omega))
    assert blob.endswith("\n")
    # key order is canonical regardless of insertion order
    assert json.dumps(json.loads(blob), indent=2, sort_keys=True) + "\n" == blob


def test_malformed_files_raise_value_error():
    with pytest.raises(ValueError):
        jsonio.params_from_json({"n": 4})
    with pytest.raises(ValueError):
        jsonio.rep_from_json({"dim": 3})
    with pytest.raises(ValueError):
        jsonio.complex_from_json({"re": 1.0})
    with pytest.raises(ValueError):
        jsonio.complex_from_json({"re": 1.0, "im": 0.0, "abs": 1.0})
