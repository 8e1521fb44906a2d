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

Layout: a field enters as one C-contiguous block, components-first for a
4-vector field (the `ambient` storage convention; an interleaved field is
copied into it), and the result is stored the same way.  Each component
goes through its own gemm of the same shape as a scalar field's, so a
component's bits depend neither on the field's layout nor on its other
components: component k of a vector stencil is bitwise the scalar stencil
of component k.

The default design accuracy is 6th order for first and second derivatives
alike: the identity-verification tolerances sit below what 4th-order
truncation constants deliver on 64-node axes.
"""

from functools import lru_cache
from typing import NamedTuple

import numpy as np

STENCIL_ACC = 6
# central stencil of first and second derivatives: STENCIL_ACC + 1 points
# give order STENCIL_ACC for both
CENTRAL_OFFSETS = np.arange(-(STENCIL_ACC // 2), STENCIL_ACC // 2 + 1)
# rows per block of a banded operator; an axis of n nodes has
# ceil(n / BLOCK_ROWS) near-equal blocks
BLOCK_ROWS = 64


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
    D = np.zeros((n, n))
    if periodic:
        for i in range(n):
            D[i, (i + offs) % n] = w
        return D
    width = STENCIL_ACC + m  # one-sided window: p-point stencil has order p - m
    for i in range(n):
        if i - r >= 0 and i + r < n:
            D[i, i + offs] = w
        elif i < r:
            xs = np.arange(width)
            D[i, :width] = fd_weights(xs * h, float(i) * h, m)
        else:
            xs = np.arange(n - width, n)
            D[i, n - width:] = fd_weights(xs * h, float(i) * h, m)
    return D


class RowBlock(NamedTuple):
    """Rows r0:r1 of an operator: W holds their weights on the columns cols."""

    r0: int
    r1: int
    cols: object  # slice, or a sorted index array where a periodic axis wraps
    W: np.ndarray


@lru_cache(maxsize=None)
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


def _block(F):
    """F as one C-contiguous (c, n_u, n_v) array: c = 4 components-first for
    a 4-vector field, c = 1 for a scalar field."""
    F = np.asarray(F, float)
    if F.ndim == 3:
        return np.ascontiguousarray(F.transpose(2, 0, 1))
    return np.ascontiguousarray(F)[None]


def _field(out, like):
    """The (c, n_u, n_v) block out in the shape of the field like."""
    return out.transpose(1, 2, 0) if np.ndim(like) == 3 else out[0]


def _apply_u(blocks, F):
    C = _block(F)
    out = np.empty_like(C)
    for b in blocks:
        np.matmul(b.W, C[:, b.cols, :], out=out[:, b.r0:b.r1, :])
    return _field(out, F)


def _apply_v(blocks, F):
    # one gemm per component: along v numpy's batched matmul is slower
    # (15.5 against 10.8 ms on a 512 x 512 vector field, one BLAS thread)
    C = _block(F)
    out = np.empty_like(C)
    for src, dst in zip(C, out):
        for b in blocks:
            np.matmul(src[:, b.cols], b.W.T, out=dst[:, b.r0:b.r1])
    return _field(out, F)


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
        self._quad_weights = None

    def du(self, F):
        return _apply_u(self.Du, F)

    def dv(self, F):
        return _apply_v(self.Dv, F)

    def duu(self, F):
        return _apply_u(self.Duu, F)

    def dvv(self, F):
        return _apply_v(self.Dvv, F)

    def quad_weights(self):
        """Tensor-product quadrature weights (trapezoid on chart axes),
        formed on the first call and shared read-only after."""
        if self._quad_weights is None:
            s = self.spec
            self._quad_weights = np.outer(self._axis_weights(s.n_u, s.h_u, s.topology_u),
                                          self._axis_weights(s.n_v, s.h_v, s.topology_v))
            self._quad_weights.flags.writeable = False
        return self._quad_weights

    @staticmethod
    def _axis_weights(n, h, topology):
        w = np.full(n, h)
        if topology == "chart":
            w[0] *= 0.5
            w[-1] *= 0.5
        return w
