"""Irreducible representations at roots of unity built from tableau data.

The basis of the k^N-dimensional space is labelled by tableaux whose variable
entries range cyclically over k values above the h parameters. Each generator
I_{s+1,s} acts by shifting one entry of row s up or down (mod k) with
coefficients that are ratios of q-brackets of l-coordinates, plus a diagonal
term for odd s. They are computed through one field object, _ComplexField,
which tests replace with their own. Matrix columns are indexed by the source
tableau, read as a mixed-radix number in base k. A generator reads only three
rows of the tableau, so its matrix is one small local matrix tiled over the
other digits.

Building needs only the standard library; numpy, the package's only
dependency, is imported by the code that computes with matrices (to_dense,
the residual and the commutant). The residual above _DENSE_RESIDUAL_MAX_DIM
multiplies _FlatSparse matrices, which are numpy code, block by block over
the stored rows, so its working memory follows _RESIDUAL_BLOCK_TERMS and not
the dimension. The commutant certificate diagonalizes a generic element and
checks its eigenbasis graph after the fact; an input it declines is reported
uncertified, and a dimension above _COMMUTANT_MAX_DIM is refused.
"""

from __future__ import annotations

import cmath
import math
import struct
from collections import namedtuple
from itertools import product
from operator import matmul

from .errors import DegenerateParameter, DimensionMismatch
from .params import (  # random_generic_params: the benchmark launcher times it as reps.sample
    _ZERO_TOL,
    random_generic_params,
    variable_slots,
)
from .qnumeric import qbracket_numeric, qpow_complex


def _l_from_m(m, i, s):
    """l-coordinate of the entry m_{i,s}: m + p - i for s = 2p, m + p - i + 1
    for s = 2p+1. The sums run left to right; regrouping them, as in
    m + (p - i), changes the last bit of the operator entries."""
    l = m + s // 2 - i
    return l + 1 if s % 2 else l


# -- coefficient field ---------------------------------------------------------


# memo key: the bits of a complex value, plus a tag naming the function
_KEY = struct.Struct("<cdd").pack


class _ComplexField:
    """The numbers the build computes with: complex floats at the root of
    unity `root`, reached only through bracket, qpow_sum, sqrt and i.

    Each [x] and q^x + q^-x is computed once, kept under the bits of x:
    0j == -0j, yet cmath.sqrt(-1+0j) and cmath.sqrt(-1-0j) fall on opposite
    branches, and [-0+0j] = 0j while [-0-0j] = -0j. A labelled value is a
    denominator factor: on every call, a memo hit included, a vanishing one
    raises DegenerateParameter naming it, the label (str.format template,
    *fields) formatted only then; so does an overflowing q-power. Values
    stay scalar cmath: numpy's complex division differs in the last bit.
    """

    i = 1j
    sqrt = staticmethod(cmath.sqrt)

    def __init__(self, root):
        self.root, self._memo = root, {}

    def bracket(self, x, label=None):
        return self._value(b"[", x, label, "bracket [{x}]", "bracket [{name}] = [{x}]")

    def qpow_sum(self, x, label):
        return self._value(b"+", x, label, "q^l+q^-l at {x}", "q^l+q^-l at {name} = {x}")

    def _value(self, tag, x, label, at_x, named):
        key = _KEY(tag, x.real, x.imag)
        try:
            v = self._memo[key]
        except KeyError:
            try:  # module globals, looked up per call: a tracer's patch sees them
                v = self._memo[key] = (
                    qbracket_numeric(x, self.root) if tag == b"[" else
                    qpow_complex(x, self.root) + qpow_complex(-x, self.root))
            except OverflowError as exc:
                raise DegenerateParameter("q-power overflows in " + at_x.format(x=x)) from exc
        if label is not None and abs(v) < _ZERO_TOL:
            name = label[0].format(*label[1:])
            raise DegenerateParameter("vanishing denominator " + named.format(name=name, x=x))
        return v


def shift_coeff(field, s, j, upper, row, lower):
    """Coefficient for shifting entry j of row s, from the l-coordinates of
    rows s+1, s and s-1 of the source basis vector (sequences indexed from
    entry 1). It is a square root of

      prod_{i<=(s+1)/2} [l_{i,s+1}+l_{j,s}] [l_{i,s+1}-l_{j,s}-e]
    * prod_{i<=(s-1)/2} [l_{i,s-1}+l_{j,s}] [l_{i,s-1}-l_{j,s}-e]
    / prod_{i != j, i<=s/2} [l_{i,s}+l_{j,s}] [l_{i,s}-l_{j,s}]
                            [l_{i,s}+l_{j,s}+-1] [l_{i,s}-l_{j,s}-1],

    bounds rounded down, with e = 1 and +1 for even s, e = 0 and -1 for odd s.

    The root is taken factor by factor, not of the assembled quotient: the
    defining relations close only when the same bracket factor carries the
    same root wherever it appears across the shift and diagonal operators.
    Each difference factor is first put in a canonical orientation (higher
    row first; within a row, lower index first); a reversed factor [x] is
    evaluated as i*sqrt([-x]), which squares back to [x]. Numerator zeros
    are legitimate (the matrix entry vanishes); denominator zeros mean the
    parameters are degenerate.
    """

    def sqrt_bracket(x, label=None):
        return field.sqrt(field.bracket(x, label))

    e = 1 - s % 2
    pm = 1 if e else -1
    lj = row[j - 1]
    num = 1 + 0j
    for li in upper:
        num *= sqrt_bracket(li + lj) * sqrt_bracket(li - lj - e)
    for li in lower:
        # row s-1 sits below row s: reorient the difference
        num *= sqrt_bracket(li + lj) * (field.i * sqrt_bracket(lj - li + e))
    den = 1 + 0j
    for i, li in enumerate(row, 1):
        if i == j:
            continue
        den *= sqrt_bracket(li + lj, ("l_{},{}+l_{},{}", i, s, j, s))
        den *= sqrt_bracket(li + lj + pm, ("l_{},{}+l_{},{}{:+d}", i, s, j, s, pm))
        if i < j:
            den *= sqrt_bracket(li - lj, ("l_{},{}-l_{},{}", i, s, j, s))
            den *= sqrt_bracket(li - lj - 1, ("l_{},{}-l_{},{}-1", i, s, j, s))
        else:
            den *= field.i * sqrt_bracket(lj - li, ("l_{},{}-l_{},{}", j, s, i, s))
            den *= field.i * sqrt_bracket(lj - li + 1, ("l_{},{}-l_{},{}+1", j, s, i, s))
    return num / den


def diagonal_coeff(field, s, upper, row, lower):
    """Diagonal coefficient of I_{s+1,s} for odd s, from the l-coordinates of
    rows s+1, s and s-1:
    prod_i [l_{i,s+1}] * prod_i [l_{i,s-1}] / prod_i [l_{i,s}] [l_{i,s}-1].
    """
    num = 1 + 0j
    for li in (*upper, *lower):
        num *= field.bracket(li)
    den = 1 + 0j
    for i, li in enumerate(row, 1):
        den *= field.bracket(li, ("l_{},{}", i, s))
        den *= field.bracket(li - 1, ("l_{},{}-1", i, s))
    return num / den


# -- operators ----------------------------------------------------------------


class SparseOperator(namedtuple("SparseOperator", "name dim entries")):
    """One representation matrix as sorted (row, col, value) triples."""

    __slots__ = ()

    def to_dense(self):
        """The d x d matrix, the values of a repeated cell summed, as every
        residual and certificate path reads them."""
        import numpy as np

        flat = _FlatSparse.from_operator(self)
        m = np.zeros(self.dim * self.dim, dtype=np.complex128)
        m.real[flat.cells] = flat.re
        m.imag[flat.cells] = flat.im
        return m.reshape(self.dim, self.dim)


def _shift_operator(omega, field, s):
    """Matrix of the generator I_{s+1,s}: each entry of row s shifted up and
    down by one, cyclically mod k, plus a diagonal term for odd s.

    It reads only rows s+1, s and s-1, whose w slots are consecutive in
    variable_slots: digits lo..lo+w-1 of the basis index (first slot
    slowest). So its matrix is 1 (x) M (x) 1, with M built once over the k^w
    local offset tuples and tiled over the outer and inner digits, in (row,
    col) order. Besides the diagonal term, the two families differ only in
    the shift denominators: q^l + q^-l for even s, [2l-1][l] up and
    [2l-1][l-1] down for odd s.
    """
    n, k = omega.n, omega.order_k
    slots = variable_slots(n)
    lo = next(pos for pos, (_, r) in enumerate(slots) if r <= s + 1)
    local = [(i, r) for i, r in slots[lo:] if r >= s - 1]
    w = len(local)
    lvals = [[_l_from_m(omega.h[slot] + off, *slot) for off in range(k)] for slot in local]
    rows = {r: [p for p, (_, t) in enumerate(local) if t == r] for r in (s + 1, s, s - 1)}
    top = [_l_from_m(m, i, n) for i, m in enumerate(omega.m_top, 1)]

    def row_l(r, offs):
        return top if r == n else [lvals[p][offs[p]] for p in rows[r]]

    cells = {}

    def add(r, c, val):
        if val != 0:
            cells[(r, c)] = cells.get((r, c), 0) + val

    for col, offs in enumerate(product(range(k), repeat=w)):
        upper, row, lower = row_l(s + 1, offs), row_l(s, offs), row_l(s - 1, offs)
        for j, p in enumerate(rows[s], 1):
            lj = row[j - 1]
            if s % 2 == 0:
                den_up = den_down = field.qpow_sum(lj, ("l_{},{}", j, s))
            else:
                shared = field.bracket(2 * lj - 1, ("2l_{},{}-1", j, s))
                den_up = shared * field.bracket(lj, ("l_{},{}", j, s))
                den_down = shared * field.bracket(lj - 1, ("l_{},{}-1", j, s))
            cj = omega.c[(j, s)]
            off, step = offs[p], k ** (w - 1 - p)
            add(col + ((off + 1) % k - off) * step, col,
                cj * shift_coeff(field, s, j, upper, row, lower) / den_up)
            down_row = list(row)
            down_row[j - 1] = lvals[p][(off - 1) % k]
            add(col + ((off - 1) % k - off) * step, col,
                -shift_coeff(field, s, j, upper, down_row, lower) / (cj * den_down))
        if s % 2:
            add(col, col, field.i * diagonal_coeff(field, s, upper, row, lower))
    inner, dim = k ** (len(slots) - lo - w), k ** len(slots)
    m_rows = {}  # the rows of M, its indices scaled by the inner digits
    for (r, c), v in sorted(cells.items()):
        if v != 0:
            m_rows.setdefault(r * inner, []).append((c * inner, v))
    entries = tuple(
        (base + r + i, base + c + i, v)
        for base in range(0, dim, k ** w * inner)
        for r, cols in m_rows.items()
        for i in range(inner)
        for c, v in cols
    )
    return SparseOperator(f"I{s + 1}{s}", dim, entries)


def build_representation(omega):
    """Operators for the neighbor generators in order (I21, I32, ..., I_{n,n-1}).

    One _ComplexField serves every generator, so its memo computes each
    bracket and q-power sum once: the same few l-coordinates recur across
    columns and generators. A dimension above _MAX_DIM, which no
    representation file may declare, is refused before anything is built.
    """
    dim = omega.dimension()
    if dim > _MAX_DIM:
        raise DimensionMismatch(f"dim = {dim} is not in 1..{_MAX_DIM}, "
                                "the dimensions a representation file may declare")
    field = _ComplexField(omega.root)
    return [_shift_operator(omega, field, s) for s in range(1, omega.n)]


# -- verification --------------------------------------------------------------


def _common_dim(ops):
    if not ops:
        raise DimensionMismatch("need at least one operator")
    dims = {op.dim for op in ops}
    if len(dims) != 1:
        raise DimensionMismatch(f"operators have mixed dimensions {sorted(dims)}")
    return dims.pop()


def _summed(dim, cells, re, im):
    """The _FlatSparse matrix with the value re[j] + 1j * im[j] at flat cell
    cells[j], the values of a repeated cell summed in the order given."""
    import numpy as np

    order = np.argsort(cells, kind="stable")
    cells = cells[order]
    first = np.ones(len(cells), dtype=bool)
    np.not_equal(cells[1:], cells[:-1], out=first[1:])
    if first.all():
        return _FlatSparse(dim, cells, re[order], im[order])
    # seg[i] is the 1-based rank of cells[i] among the distinct cells; bincount
    # adds the values of each cell one by one, in the order given, to 0.0
    seg = np.empty_like(order)
    seg[order] = np.cumsum(first)
    return _FlatSparse(dim, cells[np.flatnonzero(first)],
                       np.bincount(seg, re)[1:], np.bincount(seg, im)[1:])


# Largest dimension whose flat cell indices row * dim + col fit in int64
_MAX_DIM = math.isqrt(2**63 - 1)


class _FlatSparse:
    """A d x d complex matrix as its stored cells: sorted, unique flat
    indices row * d + col (int64, so d * d < 2**63, as rep_from_json checks)
    and the real and imaginary parts of their values. It supports what
    defining_relation_residuals applies to its operands, X @ Y, X + Y, X - Y
    and c * X, and abs(X), the absolute values of the stored entries. Memory
    is O(nnz), with no array of length d.

    A row block (see row_block) holds the cells of some rows of a whole
    matrix and a reference to it. As a left operand and in sums it is those
    rows; as the right operand of @ it is the whole matrix, so that
    X[I] @ Y[I] gives (X @ Y)[I].

    Every value is formed from real operations on its parts: numpy's complex
    multiply may fuse them (FMA), so that x * y and y * x differ in the last
    bit, and a commutator of commuting operators would not cancel exactly.
    """

    __slots__ = ("dim", "cells", "re", "im", "whole", "_index")

    def __init__(self, dim, cells, re, im, whole=None):
        # whole is None for a whole matrix: a reference to itself would be a
        # cycle, and every temporary would wait for the garbage collector
        self.dim, self.cells, self.re, self.im = dim, cells, re, im
        self.whole, self._index = whole, None

    @staticmethod
    def from_operator(op):
        """Repeated or unsorted (row, col) triples are summed and sorted."""
        import numpy as np

        rows, cols, vals = zip(*op.entries) if op.entries else ((), (), ())
        cells = np.array(rows, dtype=np.int64) * op.dim + np.array(cols, dtype=np.int64)
        vals = np.array(vals, dtype=np.complex128)
        return _summed(op.dim, cells, vals.real.copy(), vals.imag.copy())

    def row_index(self):
        """(keys, bounds, cols) of the whole matrix, built on first use and
        kept: stored row keys[t] holds the cells bounds[t]:bounds[t + 1],
        whose columns are cols. The last key, d, is past every row."""
        whole = self if self.whole is None else self.whole
        if whole._index is None:
            import numpy as np

            d = whole.dim
            rows = whole.cells // d
            bounds = np.flatnonzero(np.diff(rows, prepend=-1, append=d))
            whole._index = (np.append(rows[bounds[:-1]], d),
                            np.append(bounds, len(rows)), whole.cells % d)
        return whole._index

    def row_block(self, first, stop):
        """The rows first..stop-1 of this whole matrix, as views."""
        keys, bounds, _ = self.row_index()
        lo, hi = bounds[keys.searchsorted([first, stop])]
        return _FlatSparse(self.dim, self.cells[lo:hi], self.re[lo:hi], self.im[lo:hi],
                           whole=self)

    def __matmul__(self, other):
        """Gustavson's row-by-row product: each entry (r, m) of self meets
        row m of other's whole matrix, found by binary search among its
        stored rows."""
        import numpy as np

        keys, bounds, cols = other.row_index()
        if other.whole is not None:
            other = other.whole
        mids = self.cells % self.dim
        t = np.searchsorted(keys, mids)
        lo = bounds[t]
        counts = np.where(keys[t] == mids, bounds[t + 1] - lo, 0)
        # one term per pair of an entry of self and an entry of the row of
        # other it meets; pos is the index of that entry of other
        pos = np.repeat(lo - (np.cumsum(counts) - counts), counts)
        pos += np.arange(len(pos))
        cells = np.repeat(self.cells - mids, counts)
        cells += cols[pos]
        xr, xi = np.repeat(self.re, counts), np.repeat(self.im, counts)
        yr, yi = other.re[pos], other.im[pos]
        re, im = xr * yr - xi * yi, xr * yi + xi * yr
        del pos, xr, xi, yr, yi  # not held while _summed sorts
        return _summed(self.dim, cells, re, im)

    def __add__(self, other):
        import numpy as np

        return _summed(self.dim, np.concatenate([self.cells, other.cells]),
                       np.concatenate([self.re, other.re]), np.concatenate([self.im, other.im]))

    def __sub__(self, other):
        return self + _FlatSparse(other.dim, other.cells, -other.re, -other.im)

    def __rmul__(self, scalar):
        c = complex(scalar)
        return _FlatSparse(self.dim, self.cells, c.real * self.re - c.imag * self.im,
                           c.real * self.im + c.imag * self.re)

    def __abs__(self):
        import numpy as np

        # numpy's complex absolute value, which differs from np.hypot in the
        # last bit, so that both residual paths measure a value alike
        values = np.empty(len(self.cells), dtype=np.complex128)
        values.real, values.imag = self.re, self.im
        return np.abs(values)


# Largest dimension whose residual is taken with dense products. It is kept
# for the printed residual digits of small representations, the (4,4) known
# defect's among them, which the dense summation order fixes and the
# benchmark pool pins. Speed no longer needs it: in process the _FlatSparse
# residual took 9 ms at (5,4) = 256, against 52 ms dense (best of 5, 2-core
# machine), so a rebuild of the pool can drop the dense path. Above it,
# products of the _FlatSparse matrices (at most n - 1 nonzeros per column)
# replace the O(d^3) dense ones, taken over blocks of rows, so that the
# memory of a residual grows with _RESIDUAL_BLOCK_TERMS, not with d.
_DENSE_RESIDUAL_MAX_DIM = 256

# Budget of product terms per row block of the sparse residual. A row costs
# its stored entries, over all generators, times the longest stored row of
# any generator: a bound on the terms its entries give in products with one
# right factor, whose second product has at most that many times as many.
# A block ends where the running cost of the rows passes a multiple of the
# budget, so it costs less than the budget plus one row. Smaller blocks hold
# fewer temporaries and pay numpy's per-call overhead more often. Measured
# at seed 0 in process (2-core machine, timings within about 15%): at
# (6,3) = 729 the residual rose 2.4, 3.0, 4.5 and 7.2 MB above the loaded
# operators and numpy at 2^12, 2^13, 2^14 and 2^15 (14, 7, 4 and 2
# blocks); at (7,3) = 19683 it took 5.7, 4.5, 4.0 and 4.2 s at 2^13 to 2^16
# (303 to 38 blocks), and 5.2 s and 387 MB more in one block.
_RESIDUAL_BLOCK_TERMS = 2**14


def _row_blocks(mats):
    """Lists of row blocks of mats, one list per block of consecutive rows,
    cut from the stored rows by _RESIDUAL_BLOCK_TERMS; at least one list."""
    import numpy as np

    index = [m.row_index() for m in mats]
    rows = np.concatenate([keys[:-1] for keys, _, _ in index])
    lengths = np.concatenate([np.diff(bounds[:-1]) for _, bounds, _ in index])
    rows, inverse = np.unique(rows, return_inverse=True)
    widest = int(lengths.max(initial=0))
    cost = np.cumsum(np.bincount(inverse, lengths, minlength=len(rows)) * widest)
    firsts = rows[np.flatnonzero(np.diff(cost // _RESIDUAL_BLOCK_TERMS, prepend=-1))]
    edges = np.append(firsts, mats[0].dim).tolist() if len(rows) else [0, mats[0].dim]
    for first, stop in zip(edges, edges[1:]):
        yield [m.row_block(first, stop) for m in mats]


def relation_residual(ops, root):
    """Max-entry residual of every defining relation on the given operators,
    through dense products up to _DENSE_RESIDUAL_MAX_DIM and _FlatSparse
    ones above, taken block by block over the stored rows. (X @ Y)[I] =
    X[I] @ Y keeps each entry's terms and their order, every term of a
    relation starts with its left factor and its lone + b term is b
    itself, so the blocks give the residual of the whole matrices bit for
    bit."""
    import numpy as np

    from .pbw._relations import defining_relation_instances, defining_relation_residuals

    n = len(ops) + 1
    if _common_dim(ops) > _DENSE_RESIDUAL_MAX_DIM:
        blocks = _row_blocks([_FlatSparse.from_operator(op) for op in ops])
    else:
        blocks = [[op.to_dense() for op in ops]]
    q = root.value()
    names = [name for name, _, _ in defining_relation_instances(n)]
    worst = np.zeros(len(names))
    # products that overflow give inf and then nan residuals, which fail the
    # check; numpy need not also warn about them
    with np.errstate(over="ignore", invalid="ignore"):
        for gens in blocks:
            # initial: a residual with no stored entry is zero; np.maximum
            # keeps a nan, as the max over the whole matrix would
            worst = np.maximum(worst, [
                abs(resid).max(initial=0.0)
                for _, _, resid in defining_relation_residuals(n, gens, q + 1 / q, matmul)
            ])
    return [{"relation": name, "residual": float(value)} for name, value in zip(names, worst)]


# Spectral certificate constants. The gap and cond(V) gates and the edge
# threshold were set from the margins measured on 152 representations,
# d <= 81: (3,3)-(3,8), (4,3)-(4,7), (4,9) and (5,3), seeds 0-7, every
# primitive root at k = 5. See commutant_certificate.
_GENERIC_SEED = 1999
_MIN_GAP = 1e-7
_MAX_COND = 1e6
_EDGE_THRESHOLD = 1e-9
_UNIT_ROUNDOFF = 2.0**-53

# Largest dimension the certificate takes. Its dense d x d matrices peak at
# about 190 B * d^2 (+67 MiB of peak RSS in process at (5,5), d = 625, and
# +304 MiB at (5,6), d = 1296, seed 0), so this limit, (5,7) = 2401, needs
# about 1.1 GB, and 4096 would need 3.2 GB.
_COMMUTANT_MAX_DIM = 2401


class CommutantCertificate(namedtuple(
        "CommutantCertificate", "dimension gap cond commute_margin edge_margin")):
    """The commutant dimension, and how close its checks came to failing.
    Each margin is >= 1 where its check passed, and nan where the attempt
    stopped before reaching it. dimension is None when a check declined
    (uncertified). gap is min |w_i - w_j| / |A|_F over the generic element's
    eigenvalues, cond the 2-norm condition number of its eigenvector matrix
    V, commute_margin beta over the largest relative commutator of a
    component projector, and edge_margin the smallest entry counted as an
    edge over beta."""

    __slots__ = ()


def _component_labels(adj):
    """Connected component of each node of the undirected graph with
    adjacency `adj`, numbered 0, 1, ... in the order of their first nodes.

    Breadth-first on boolean rows, in numpy: a graph library would add its
    import to every CLI process that certifies a commutant.
    """
    import numpy as np

    d = adj.shape[0]
    labels = np.full(d, -1)
    count = 0
    for start in range(d):
        if labels[start] >= 0:
            continue
        seen = np.zeros(d, dtype=bool)
        frontier = np.zeros(d, dtype=bool)
        frontier[start] = True
        while frontier.any():
            seen |= frontier
            frontier = adj[frontier].any(axis=0) & ~seen
        labels[seen] = count
        count += 1
    return labels


def _generic_element(dense):
    """A fixed-seed complex combination A of the generators and all their
    pairwise products, assembled as sum_i T_i (c_i + sum_j c_ij T_j)."""
    import numpy as np

    d, m = dense[0].shape[0], len(dense)
    rng = np.random.default_rng(_GENERIC_SEED)
    coef = rng.standard_normal((m, m + 1)) + 1j * rng.standard_normal((m, m + 1))
    a = np.zeros((d, d), dtype=np.complex128)
    for i, t in enumerate(dense):
        poly = coef[i, m] * np.eye(d) + sum(coef[i, j] * dense[j] for j in range(m))
        a += t @ poly
    return a


def _eigenbasis_graph(dense):
    """The CommutantCertificate of the dense operators, from the eigenbasis of
    their generic element A (see commutant_certificate). If eig fails, all four
    margins are nan; if the gap or cond(V) rules V out, the two graph ones are."""
    import numpy as np

    nan = float("nan")
    d = dense[0].shape[0]
    a = _generic_element(dense)
    try:
        w, v = np.linalg.eig(a)
    except np.linalg.LinAlgError:
        return CommutantCertificate(None, nan, nan, nan, nan)
    spread = np.abs(w[:, None] - w[None, :])
    np.fill_diagonal(spread, np.inf)
    scale = float(np.linalg.norm(a))
    gap = float(spread.min()) / scale if scale else 0.0
    cond = float(np.linalg.cond(v))
    if not (gap >= _MIN_GAP and cond <= _MAX_COND):
        return CommutantCertificate(None, gap, cond, nan, nan)
    v_inv = np.linalg.inv(v)
    weight = sum(np.abs(v_inv @ (t @ v)) for t in dense)
    weight /= weight.max()  # A != 0 here, so some T_i is nonzero
    edges = (weight > _EDGE_THRESHOLD) & ~np.eye(d, dtype=bool)
    beta = cond**2 * d * _UNIT_ROUNDOFF
    edge_margin = float(weight[edges].min(initial=np.inf)) / beta
    labels = _component_labels(edges | edges.T)
    components = int(labels.max()) + 1
    worst = 0.0  # one component: P = I commutes exactly
    if components > 1:
        for c in range(components):
            part = labels == c
            p = v[:, part] @ v_inv[part, :]
            worst = max(worst, *(float(np.abs(p @ t - t @ p).max()) for t in dense))
        worst /= max(float(np.abs(t).max()) for t in dense)
    commute_margin = beta / worst if worst else float("inf")
    components = components if min(commute_margin, edge_margin) >= 1 else None
    return CommutantCertificate(components, gap, cond, commute_margin, edge_margin)


def commutant_certificate(ops):
    """Commutant dimension with its margins, decided spectrally.

    Spectral check (Burnside; the MeatAxe irreducibility test, Parker 1984,
    Holt and Rees 1994): take a generic element A of the algebra the
    operators generate and diagonalize it, A = V diag(w) V^-1. If w is
    simple, every X commuting with all T_i commutes with A and so is
    diagonal in that eigenbasis, X = V diag(x) V^-1; it commutes with T_i
    iff x_r = x_c wherever (V^-1 T_i V)_rc != 0. The dimension is the number
    of connected components of the graph on d nodes with an edge (r, c)
    wherever sum_i |(V^-1 T_i V)_rc|, relative to its largest entry, exceeds
    1e-9. This costs O(d^3).

    It first tests its precondition, each gate orders of magnitude from
    what was measured on the library's representations:
      - gap >= 1e-7: measured gaps are >= 2.4e-5 up to d = 81, and >= 6.7e-7
        at (4,10), seeds 0-11; the direct sum of two isomorphic copies,
        whose repeated spectrum would make the graph undercount, gives 3e-17,
        the rounding floor.
      - cond(V) <= 1e6: measured <= 1.2e3 up to d = 81, 5.7e3 at (5,6)
        seed 0. The gap is relative to the Frobenius norm |A|_F, and by
        Bauer-Fike the computed eigenvalues then lie within
        cond * eps * |A|_F ~ 2e-10 |A|_F of exact ones, far below the
        admitted gap, so a simple computed spectrum is simple.

    It then checks its graph after the fact, against the rounding estimate
    beta = cond(V)^2 * d * u, with u = 2^-53 the unit roundoff. V^-1 is
    computed with a relative error of order cond(V) * u, so products through
    V and V^-1 carry about cond(V)^2 * u, and each entry of a d-term sum adds
    up to gamma_d ~ d * u (Higham, Accuracy and Stability of Numerical
    Algorithms, ch. 3). beta is a first-order estimate, not a proven bound.
      - Lower bound: for each component c, the projector P_c =
        V[:, c] V^-1[c, :] commutes with every T_i within beta,
        max |P_c T_i - T_i P_c| / max |T_i| <= beta, so the components span
        invariant subspaces and commutant >= #components. A coupling between
        components that the 1e-9 split counted as zero shows here. With one
        component P_c = I, and the check is skipped.
      - Upper bound: the smallest edge is >= beta, so every edge is a nonzero
        of the exact V^-1 T_i V, not rounding, and commutant <= #components.
    commute_margin and edge_margin are these two ratios to beta. Measured at
    (4,8) and (4,10), seeds 0-11, the largest commutator is 0.43 beta and
    the smallest edge 2.5e4 beta.

    An input any check declines gets dimension None (uncertified), at every
    d, with the margins it reached: the certificate gives no answer it has
    not checked. A d above _COMMUTANT_MAX_DIM raises DimensionMismatch
    before anything is allocated.
    """
    dim = _common_dim(ops)  # refuses mixed dimensions and an empty list first
    if dim > _COMMUTANT_MAX_DIM:
        raise DimensionMismatch(f"commutant certificate: dim = {dim} is above its limit "
                                f"{_COMMUTANT_MAX_DIM} (its dense matrices need about "
                                "190 B * dim^2)")
    return _eigenbasis_graph([op.to_dense() for op in ops])


def commutant_dimension(ops):
    """Dimension of {X : XT = TX for all T}; 1 certifies irreducibility.

    Decided by commutant_certificate: the number of components of the
    eigenbasis graph when its checks pass, else None (uncertified).
    """
    return commutant_certificate(ops).dimension

