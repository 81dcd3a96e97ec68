"""Irreducible representations at roots of unity built from tableau data.

The basis of the k^N-dimensional space is labelled by tableaux whose variable
entries range cyclically over k values above the h parameters. Each generator
I_{s+1,s} acts by shifting one entry of row s up or down (mod k) with
coefficients that are ratios of q-brackets of l-coordinates, plus a diagonal
term for odd s. Matrix columns are indexed by the source tableau, read as a
mixed-radix number in base k. A generator reads only three rows of the
tableau, so its matrix is one small local matrix tiled over the other digits.

Building needs only the standard library; numpy is imported by the code that
computes with matrices (to_dense, to_csr, the residual and the commutant).
The residual above _DENSE_RESIDUAL_MAX_DIM multiplies _FlatSparse matrices,
which are numpy code. scipy is imported only by to_csr, which runs only in
the sparse Sylvester solve of the commutant.
"""

from __future__ import annotations

import cmath
import struct
from dataclasses import dataclass
from itertools import product
from operator import matmul

from .coeffring import qbracket_numeric, qpow_complex
from .errors import DegenerateParameter, DimensionMismatch
from .params import (  # the parameter layer, re-exported: these are the same objects
    _ZERO_TOL,
    ParamsOmega,
    _as_complex,
    _dist_to_half_integers,
    _dist_to_integers,
    _sample_imag_part,
    _sample_real_part,
    assert_generic,
    num_positive_roots,
    parameter_count,
    random_generic_params,
    variable_slots,
)


def _l_from_m(m, i, s):
    """l-coordinate of the entry m_{i,s}: m + p - i for s = 2p, m + p - i + 1
    for s = 2p+1. The sums run left to right; regrouping them, as in
    m + (p - i), changes the last bit of the operator entries."""
    l = m + s // 2 - i
    return l + 1 if s % 2 else l


# -- coefficient evaluation --------------------------------------------------


# memo key: the bits of a complex value, plus a tag naming the function
_KEY = struct.Struct("<cdd").pack


def _bracket(root, memo, x, label=None):
    """The q-bracket [x], computed once per build and kept in `memo`. With a
    label, [x] is a denominator factor and a vanishing value raises
    DegenerateParameter naming it, on every call, a memo hit included. The
    label is (str.format template, *fields), formatted only when raising.

    The key is the bits of x, not its value: 0j == -0j, yet cmath.sqrt(-1+0j)
    and cmath.sqrt(-1-0j) fall on opposite branches, and [-0+0j] = 0j while
    [-0-0j] = -0j. Brackets stay scalar cmath: numpy's complex division
    differs from CPython's in the last bit, and the build must reproduce it
    exactly.
    """
    key = _KEY(b"[", x.real, x.imag)
    try:
        v = memo[key]
    except KeyError:
        v = memo[key] = qbracket_numeric(x, root)
    if label is not None and abs(v) < _ZERO_TOL:
        name = label[0].format(*label[1:])
        raise DegenerateParameter(f"vanishing denominator bracket [{name}] = [{x}]")
    return v


def _qpow_sum(root, memo, x, label):
    """The denominator q^x + q^-x, memoized and checked like _bracket."""
    key = _KEY(b"+", x.real, x.imag)
    try:
        v = memo[key]
    except KeyError:
        v = memo[key] = qpow_complex(x, root) + qpow_complex(-x, root)
    if abs(v) < _ZERO_TOL:
        name = label[0].format(*label[1:])
        raise DegenerateParameter(f"vanishing denominator q^l+q^-l at {name} = {x}")
    return v


def shift_coeff(root, memo, s, j, upper, row, lower):
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
        return cmath.sqrt(_bracket(root, memo, x, label))

    e = 1 - s % 2
    pm = 1 if e else -1
    lj = row[j - 1]
    num = 1 + 0j
    for li in upper:
        num *= sqrt_bracket(li + lj) * sqrt_bracket(li - lj - e)
    for li in lower:
        # row s-1 sits below row s: reorient the difference
        num *= sqrt_bracket(li + lj) * (1j * sqrt_bracket(lj - li + e))
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
            den *= 1j * sqrt_bracket(lj - li, ("l_{},{}-l_{},{}", j, s, i, s))
            den *= 1j * sqrt_bracket(lj - li + 1, ("l_{},{}-l_{},{}+1", j, s, i, s))
    return num / den


def diagonal_coeff(root, memo, s, upper, row, lower):
    """Diagonal coefficient of I_{s+1,s} for odd s, from the l-coordinates of
    rows s+1, s and s-1:
    prod_i [l_{i,s+1}] * prod_i [l_{i,s-1}] / prod_i [l_{i,s}] [l_{i,s}-1].
    """
    num = 1 + 0j
    for li in upper:
        num *= _bracket(root, memo, li)
    for li in lower:
        num *= _bracket(root, memo, li)
    den = 1 + 0j
    for i, li in enumerate(row, 1):
        den *= _bracket(root, memo, li, ("l_{},{}", i, s))
        den *= _bracket(root, memo, li - 1, ("l_{},{}-1", i, s))
    return num / den


# -- operators ----------------------------------------------------------------


@dataclass(frozen=True)
class SparseOperator:
    """One representation matrix as sorted (row, col, value) triples."""

    name: str
    dim: int
    entries: tuple

    def to_dense(self):
        import numpy as np

        m = np.zeros((self.dim, self.dim), dtype=np.complex128)
        for r, c, v in self.entries:
            m[r, c] = v
        return m

    def to_csr(self):
        import numpy as np
        from scipy.sparse import csr_matrix

        if not self.entries:
            return csr_matrix((self.dim, self.dim), dtype=np.complex128)
        rows, cols, vals = zip(*self.entries)
        return csr_matrix(
            (np.array(vals, dtype=np.complex128), (rows, cols)),
            shape=(self.dim, self.dim),
        )

    def max_column_nonzeros(self):
        counts = {}
        for _, c, _ in self.entries:
            counts[c] = counts.get(c, 0) + 1
        return max(counts.values(), default=0)


def _shift_operator(omega, memo, s):
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
    n, k, root = omega.n, omega.order_k, omega.root
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
                den_up = den_down = _qpow_sum(root, memo, lj, ("l_{},{}", j, s))
            else:
                shared = _bracket(root, memo, 2 * lj - 1, ("2l_{},{}-1", j, s))
                den_up = shared * _bracket(root, memo, lj, ("l_{},{}", j, s))
                den_down = shared * _bracket(root, memo, lj - 1, ("l_{},{}-1", j, s))
            cj = omega.c[(j, s)]
            off, step = offs[p], k ** (w - 1 - p)
            add(col + ((off + 1) % k - off) * step, col,
                cj * shift_coeff(root, memo, s, j, upper, row, lower) / den_up)
            down_row = list(row)
            down_row[j - 1] = lvals[p][(off - 1) % k]
            add(col + ((off - 1) % k - off) * step, col,
                -shift_coeff(root, memo, s, j, upper, down_row, lower) / (cj * den_down))
        if s % 2:
            add(col, col, 1j * diagonal_coeff(root, memo, s, upper, row, lower))
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

    One memo of brackets and q-power sums serves every generator: the same
    few l-coordinates recur across columns and generators.
    """
    memo = {}
    return [_shift_operator(omega, memo, s) for s in range(1, omega.n)]


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


class _FlatSparse:
    """A d x d complex matrix as its stored cells: sorted, unique flat
    indices row * d + col (int64, so d * d < 2**63, as rep_from_json checks)
    and the real and imaginary parts of their values. It supports what
    defining_relation_residuals applies to its operands, X @ Y, X + Y, X - Y
    and c * X, and abs(X), the absolute values of the stored entries. Memory
    is O(nnz), with no array of length d, and scipy is not needed.

    Every value is formed from real operations on its parts: numpy's complex
    multiply may fuse them (FMA), so that x * y and y * x differ in the last
    bit, and a commutator of commuting operators would not cancel exactly.
    """

    __slots__ = ("dim", "cells", "re", "im")

    def __init__(self, dim, cells, re, im):
        self.dim, self.cells, self.re, self.im = dim, cells, re, im

    @staticmethod
    def from_operator(op):
        """Repeated or unsorted (row, col) triples are summed and sorted, as
        to_csr does."""
        import numpy as np

        rows, cols, vals = zip(*op.entries) if op.entries else ((), (), ())
        cells = np.array(rows, dtype=np.int64) * op.dim + np.array(cols, dtype=np.int64)
        vals = np.array(vals, dtype=np.complex128)
        return _summed(op.dim, cells, vals.real.copy(), vals.imag.copy())

    def __matmul__(self, other):
        """Gustavson's row-by-row product: each entry (r, m) of self meets
        row m of other, found by binary search among other's stored rows."""
        import numpy as np

        d = self.dim
        mids = self.cells % d
        # stored row keys[t] of other holds its cells bounds[t]:bounds[t + 1];
        # the last key, d, is past every row and matches no entry of self
        rows = other.cells // d
        bounds = np.flatnonzero(np.diff(rows, prepend=-1, append=d))
        keys = np.append(rows[bounds[:-1]], d)
        bounds = np.append(bounds, len(rows))
        t = np.searchsorted(keys, mids)
        lo = bounds[t]
        counts = np.where(keys[t] == mids, bounds[t + 1] - lo, 0)
        # one term per pair of an entry of self and an entry of the row of
        # other it meets; pos is the index of that entry of other
        pos = np.repeat(lo - (np.cumsum(counts) - counts), counts)
        pos += np.arange(len(pos))
        cells = np.repeat(self.cells - mids, counts) + (other.cells % d)[pos]
        xr, xi = np.repeat(self.re, counts), np.repeat(self.im, counts)
        yr, yi = other.re[pos], other.im[pos]
        return _summed(d, cells, xr * yr - xi * yi, xr * yi + xi * yr)

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
# replace the O(d^3) dense ones.
_DENSE_RESIDUAL_MAX_DIM = 256


def relation_residual(ops, root):
    """Max-entry residual of every defining relation on the given operators,
    through dense products up to _DENSE_RESIDUAL_MAX_DIM and _FlatSparse
    ones above."""
    import numpy as np

    from .pbw.verify import defining_relation_residuals

    n = len(ops) + 1
    if _common_dim(ops) > _DENSE_RESIDUAL_MAX_DIM:
        mats = [_FlatSparse.from_operator(op) for op in ops]
    else:
        mats = [op.to_dense() for op in ops]
    q = root.value()
    # products that overflow give inf and then nan residuals, which fail the
    # check; numpy need not also warn about them
    with np.errstate(over="ignore", invalid="ignore"):
        return [
            # initial: a sparse residual with no stored entry is zero
            {"relation": name, "residual": float(abs(resid).max(initial=0.0))}
            for name, _, resid in defining_relation_residuals(n, mats, q + 1 / q, matmul)
        ]


# Spectral certificate thresholds, set from the margins measured on 152
# representations, d <= 81: (3,3)-(3,8), (4,3)-(4,7), (4,9) and (5,3), seeds
# 0-7, every primitive root at k = 5. See commutant_certificate.
_GENERIC_SEED = 1999
_MIN_GAP = 1e-7
_MAX_COND = 1e6
_EDGE_THRESHOLD = 1e-9
_MIN_SEPARATION = 1e3


@dataclass(frozen=True)
class CommutantCertificate:
    """How the commutant dimension was decided, and how close it came to
    failing. The four margins describe the spectral attempt; they are nan
    where that attempt stopped before reaching them."""

    dimension: int
    path: str  # "spectral" or "sylvester"
    gap: float  # min |w_i - w_j| / |A|_F over the generic element's eigenvalues
    cond: float  # 2-norm condition number of its eigenvector matrix V
    zero_margin: float  # edge threshold / largest entry counted as zero
    edge_margin: float  # smallest entry counted as an edge / edge threshold


def _component_count(adj):
    """Connected components of the undirected graph with adjacency `adj`.

    Breadth-first on boolean rows: scipy.sparse.csgraph would add about
    0.36 s of import to every CLI process that certifies a commutant.
    """
    import numpy as np

    d = adj.shape[0]
    seen = np.zeros(d, dtype=bool)
    count = 0
    for start in range(d):
        if seen[start]:
            continue
        count += 1
        frontier = np.zeros(d, dtype=bool)
        frontier[start] = True
        while frontier.any():
            seen |= frontier
            frontier = adj[frontier].any(axis=0) & ~seen
    return count


def _eigenbasis_graph(dense):
    """Spectral attempt: (gap, cond, zero_margin, edge_margin, components).

    A is a fixed-seed complex combination of the generators and all their
    pairwise products, assembled as sum_i T_i (c_i + sum_j c_ij T_j).
    components is None when the gap or the conditioning already rules the
    eigenbasis out.
    """
    import numpy as np

    nan = float("nan")
    d, m = dense[0].shape[0], len(dense)
    rng = np.random.default_rng(_GENERIC_SEED)
    coef = rng.standard_normal((m, m + 1)) + 1j * rng.standard_normal((m, m + 1))
    a = np.zeros((d, d), dtype=np.complex128)
    for i, t in enumerate(dense):
        poly = coef[i, m] * np.eye(d) + sum(coef[i, j] * dense[j] for j in range(m))
        a += t @ poly
    try:
        w, v = np.linalg.eig(a)
    except np.linalg.LinAlgError:
        return nan, nan, nan, nan, None
    spread = np.abs(w[:, None] - w[None, :])
    np.fill_diagonal(spread, np.inf)
    scale = float(np.linalg.norm(a))
    gap = float(spread.min()) / scale if scale else 0.0
    cond = float(np.linalg.cond(v))
    if not (gap >= _MIN_GAP and cond <= _MAX_COND):
        return gap, cond, nan, nan, None
    conj = np.linalg.solve(v, np.hstack([t @ v for t in dense])).reshape(d, m, d)
    weight = np.abs(conj).sum(axis=1)
    weight /= weight.max()  # A != 0 here, so some T_i is nonzero
    off = ~np.eye(d, dtype=bool)
    edges = (weight > _EDGE_THRESHOLD) & off
    largest_zero = float(weight[off & ~edges].max(initial=0.0))
    smallest_edge = float(weight[edges].min(initial=np.inf))
    zero_margin = _EDGE_THRESHOLD / largest_zero if largest_zero else float("inf")
    edge_margin = smallest_edge / _EDGE_THRESHOLD
    return gap, cond, zero_margin, edge_margin, _component_count(edges | edges.T)


def commutant_certificate(ops):
    """Commutant dimension with the path that decided it and its margins.

    Spectral path (Burnside; the MeatAxe irreducibility test, Parker 1984,
    Holt and Rees 1994): take a generic element A of the algebra the
    operators generate and diagonalize it, A = V diag(w) V^-1. If w is
    simple, every X commuting with all T_i commutes with A and so is
    diagonal in that eigenbasis, X = V diag(x) V^-1; it commutes with T_i
    iff x_r = x_c wherever (V^-1 T_i V)_rc != 0. The dimension is the number
    of connected components of the graph on d nodes with an edge (r, c)
    wherever sum_i |(V^-1 T_i V)_rc|, relative to its largest entry, exceeds
    1e-9. This costs O(d^3).

    The path declines, and the Sylvester solve on d^2 unknowns decides,
    unless all of these hold. Each threshold sits orders of magnitude from
    what was measured on the library's representations (up to d = 81):
      - gap >= 1e-7: measured gaps are >= 2.4e-5; the direct sum of two
        isomorphic copies, whose repeated spectrum would make the graph
        undercount, gives 3e-17, the rounding floor.
      - cond(V) <= 1e6: measured <= 1.2e3. The gap is relative to the
        Frobenius norm |A|_F, and by Bauer-Fike the computed eigenvalues
        then lie within cond * eps * |A|_F ~ 2e-10 |A|_F of exact ones,
        far below the admitted gap, so a simple computed spectrum is simple.
      - both separation margins >= 1e3, i.e. every off-diagonal entry is
        <= 1e-12 or >= 1e-6: measured "zeros" are <= 1.2e-13 (the entries
        between the (4,4) and (4,6) invariant subspaces), measured edges
        >= 8.8e-5.
    """
    _common_dim(ops)
    gap, cond, zero_margin, edge_margin, components = _eigenbasis_graph(
        [op.to_dense() for op in ops]
    )
    if components is not None and min(zero_margin, edge_margin) >= _MIN_SEPARATION:
        return CommutantCertificate(
            components, "spectral", gap, cond, zero_margin, edge_margin
        )
    return CommutantCertificate(
        _sylvester_dimension(ops), "sylvester", gap, cond, zero_margin, edge_margin
    )


def commutant_dimension(ops):
    """Dimension of {X : XT = TX for all T}; 1 certifies irreducibility.

    Decided by commutant_certificate: an eigenbasis graph when its checked
    precondition holds, else the Sylvester solve.
    """
    return commutant_certificate(ops).dimension


def _sylvester_dimension(ops):
    """Commutant dimension from the stacked Sylvester system on d^2 unknowns.

    Singular values below 1e-8 * sigma_max count as zero. Small systems go
    through a dense SVD, larger ones through sparse eigensolves of the
    normal matrix. The fallback of commutant_certificate and its test oracle.
    """
    import numpy as np

    d = _common_dim(ops)
    d2 = d * d
    if d2 <= 1600:
        eye = np.eye(d)
        dense = [op.to_dense() for op in ops]
        blocks = [np.kron(eye, t) - np.kron(t.T, eye) for t in dense]
        m = np.vstack(blocks)
        if not m.any():
            return d2
        sigma = np.linalg.svd(m, compute_uv=False)
        smax = sigma[0]
        return int((sigma < 1e-8 * smax).sum())

    from scipy.sparse import identity, kron, vstack
    from scipy.sparse.linalg import eigsh, svds

    eye = identity(d, dtype=np.complex128, format="csr")
    blocks = []
    for op in ops:
        t = op.to_csr()
        blocks.append(kron(eye, t) - kron(t.T, eye))
    m = vstack(blocks).tocsr()
    if m.nnz == 0:
        return d2
    smax = float(svds(m, k=1, return_singular_vectors=False)[0])
    gram = (m.getH() @ m).tocsc()
    thresh = (1e-8 * smax) ** 2
    k = 8
    while True:
        vals = eigsh(
            gram,
            k=k,
            sigma=-(smax ** 2) * 1e-6,
            which="LM",
            return_eigenvectors=False,
        )
        count = int((vals <= thresh).sum())
        if count < k or k >= min(128, d2 - 1):
            return count
        k = min(k * 2, 128)
