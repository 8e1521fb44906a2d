"""Banded finite-difference operators on structured parameter grids.

Periodic axes get central-difference stencils that wrap; chart axes use the
same central stencils in the interior and one-sided stencils of matching
accuracy at the boundary rows (weights from Fornberg's recurrence).  The
weights are assembled once as the n x n matrix `diff_matrix` and cut into
row blocks of about BLOCK_ROWS rows: ceil(n / BLOCK_ROWS) near-equal
blocks, so an axis of at most BLOCK_ROWS nodes is one block holding the
whole matrix.  Each block keeps only the columns its rows reach, a slice,
or a sorted index array where a periodic axis wraps; the dense matrix is
not kept.  Applying an operator is one small gemm per block, written into
one preallocated output, so the work grows like n^2 * BLOCK_ROWS rather
than n^3.

Layout: a field is a scalar (n_u, n_v) array or a (4, n_u, n_v) array
of 4-vectors, components first (the `ambient` convention).  It enters as
one C-contiguous block (a strided one is copied into it), and the result
is a new C-contiguous block of the same shape.  One routine, `_apply`,
applies every operator along either axis: one gemm per component and per
block, W times the block's columns of the component, on the transposed
views of the component and its output along v.  So a component's bits
depend neither on the field's strides nor on its other components:
component k of a vector stencil is the scalar stencil of component k by
construction, on both axes.

The default design accuracy is 6th order for first and second derivatives
alike: the identity-verification tolerances sit below what 4th-order
truncation constants deliver on 64-node axes.
"""

import math
from functools import cache, cached_property
from typing import NamedTuple

import numpy as np

STENCIL_ACC = 6
# central stencil of first and second derivatives: STENCIL_ACC + 1 points
# give order STENCIL_ACC for both
CENTRAL_OFFSETS = np.arange(-(STENCIL_ACC // 2), STENCIL_ACC // 2 + 1)
# rows per block of a banded operator; an axis of n nodes has
# ceil(n / BLOCK_ROWS) near-equal blocks
BLOCK_ROWS = 64
# nodes at each end of a chart axis that carry the quadrature's end
# correction: its one-sided derivatives up to f^(5) are exact through degree 7
QUAD_END_NODES = 8


def fd_weights(xs, x0, m):
    """Finite-difference weights for the m-th derivative at x0 on nodes xs.

    Fornberg (1988); exact for polynomials of degree len(xs)-1.
    """
    xs = np.asarray(xs, float)
    n = len(xs)
    c = np.zeros((n, m + 1))
    c1 = 1.0
    c4 = xs[0] - x0
    c[0, 0] = 1.0
    for i in range(1, n):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = xs[i] - x0
        for j in range(i):
            c3 = xs[i] - xs[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, m]


def diff_matrix(n, h, m, periodic):
    """Dense n x n differentiation matrix for the m-th derivative (1 or 2), step h.

    n is at least 8, the GridSpec floor: the widest window, the one-sided
    second-derivative stencil, has STENCIL_ACC + 2 = 8 points.
    """
    offs = CENTRAL_OFFSETS
    r = offs[-1]
    w = fd_weights(offs * h, 0.0, m)
    width = STENCIL_ACC + m  # one-sided window: p-point stencil has order p - m
    D = np.zeros((n, n))
    for i in range(n):
        if periodic or r <= i < n - r:
            D[i, (i + offs) % n] = w
        else:
            lo = 0 if i < r else n - width
            D[i, lo:lo + width] = fd_weights(np.arange(lo, lo + width) * h, float(i) * h, m)
    return D


@cache
def _end_correction():
    """(QUAD_END_NODES,) weights, in units of the step h, that the trapezoid
    rule on a chart axis adds on its first nodes (and, reversed, on its
    last): Gregory's end correction (Fornberg, "Improving the accuracy of
    the trapezoidal rule", SIAM Review 63, 2021).

    By Euler-Maclaurin the trapezoid rule on [a, b] misses the integral by
    sum_k B_2k / (2k)! h^2k (f^(2k-1)(a) - f^(2k-1)(b)).  The correction is
    the k = 1, 2, 3 terms at each end, each derivative taken by the
    one-sided stencil on the end nodes, which is exact for degree below 8;
    there f^(7) is constant and the k >= 4 terms vanish, so the corrected
    rule is exact for polynomials of degree below 8.
    """
    nodes = np.arange(float(QUAD_END_NODES))
    bernoulli = (1.0 / 6.0, -1.0 / 30.0, 1.0 / 42.0)   # B_2, B_4, B_6
    c = sum(b / math.factorial(2 * k) * fd_weights(nodes, 0.0, 2 * k - 1)
            for k, b in enumerate(bernoulli, start=1))
    c.flags.writeable = False
    return c


class RowBlock(NamedTuple):
    """Rows r0:r1 of an operator: W holds their weights on the columns cols."""

    r0: int
    r1: int
    cols: object  # slice, or a sorted index array where a periodic axis wraps
    W: np.ndarray


@cache
def row_blocks(n, h, m, periodic):
    """diff_matrix(n, h, m, periodic) as a tuple of RowBlocks.

    Blocks with the same weights (the interior ones, where only the
    central stencil is used) share one W array.
    """
    D = diff_matrix(n, h, m, periodic)
    nb = -(-n // BLOCK_ROWS)
    edges = [i * n // nb for i in range(nb + 1)]
    blocks, weights = [], {}
    for r0, r1 in zip(edges[:-1], edges[1:]):
        cols = np.flatnonzero(np.any(D[r0:r1] != 0.0, axis=0))
        W = np.ascontiguousarray(D[r0:r1, cols])
        W = weights.setdefault((W.shape, W.tobytes()), W)
        if cols[-1] - cols[0] + 1 == len(cols):
            cols = slice(int(cols[0]), int(cols[-1]) + 1)
        blocks.append(RowBlock(r0, r1, cols, W))
    return tuple(blocks)


def _apply(blocks, F, axis):
    """The operator `blocks` along axis 0 (u) or 1 (v) of each component of F."""
    F = np.ascontiguousarray(F, float)
    out = np.empty_like(F)
    n_u, n_v = F.shape[-2:]
    for src, dst in zip(F.reshape(-1, n_u, n_v), out.reshape(-1, n_u, n_v)):
        if axis:
            src, dst = src.T, dst.T
        for b in blocks:
            np.matmul(b.W, src[b.cols], out=dst[b.r0:b.r1])
    return out


class GridCalc:
    """Differentiation and quadrature bound to one GridSpec, at STENCIL_ACC.

    Du, Dv, Duu and Dvv are the operators as row blocks (`row_blocks`),
    built once per (n, h, order, topology) and shared by every GridCalc.
    """

    def __init__(self, spec):
        self.spec = spec
        pu = spec.topology_u == "periodic"
        pv = spec.topology_v == "periodic"
        self.Du = row_blocks(spec.n_u, spec.h_u, 1, pu)
        self.Dv = row_blocks(spec.n_v, spec.h_v, 1, pv)
        self.Duu = row_blocks(spec.n_u, spec.h_u, 2, pu)
        self.Dvv = row_blocks(spec.n_v, spec.h_v, 2, pv)

    def du(self, F):
        return _apply(self.Du, F, 0)

    def dv(self, F):
        return _apply(self.Dv, F, 1)

    def duu(self, F):
        return _apply(self.Duu, F, 0)

    def dvv(self, F):
        return _apply(self.Dvv, F, 1)

    @cached_property
    def quad_weights(self):
        """Tensor-product quadrature weights (_axis_weights on each axis),
        formed on the first read and shared read-only after."""
        s = self.spec
        w = np.outer(self._axis_weights(s.n_u, s.h_u, s.topology_u),
                     self._axis_weights(s.n_v, s.h_v, s.topology_v))
        w.flags.writeable = False
        return w

    @staticmethod
    def _axis_weights(n, h, topology):
        """Equal weights h on a periodic axis, spectrally accurate there.
        On a chart axis the trapezoid rule with _end_correction() added on
        the QUAD_END_NODES nodes at each end, exact for polynomials of
        degree below QUAD_END_NODES.  GridSpec's floor of 8 nodes gives
        each end its window; on shorter axes than 2 QUAD_END_NODES the two
        windows overlap and their corrections add, which keeps the rule
        exact (at 8 nodes it is the closed 8-point Newton-Cotes rule)."""
        w = np.full(n, h)
        if topology == "chart":
            w[0] *= 0.5
            w[-1] *= 0.5
            c = h * _end_correction()
            w[:QUAD_END_NODES] += c
            w[-QUAD_END_NODES:] += c[::-1]
        return w
