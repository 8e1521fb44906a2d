"""Dense finite-difference operators on structured parameter grids.

Periodic axes get circulant central-difference matrices; chart axes use the
same central stencils in the interior and one-sided stencils of matching
accuracy at the boundary rows (weights from Fornberg's recurrence).  All
operators are small dense matrices applied with tensordot, which keeps the
whole pipeline vectorized and deterministic.

Layout: a 4-vector field comes back components-first (the `ambient`
storage convention).  It still enters the gemm as the interleaved
(n, 4 m) matrix tensordot forms, and only the result is stored
components-first.  A per-component product (D @ F[..., k]) would skip
those copies, but OpenBLAS sums in an order that depends on the operand
shapes, so its results differ in the last bits from the interleaved gemm
(on random fields along u at n = 193 and along v at n = 32), and they
would reach every output file.  For the same reason a scalar field comes
back as tensordot leaves it, a transposed view along v: copied to C order
it would enter du(dv(F)) as an untransposed operand, which OpenBLAS sums
differently at some sizes (n = 32 and 100).

The default design accuracy is 6th order for first and second derivatives
alike: the identity-verification tolerances sit below what 4th-order
truncation constants deliver on 64-node axes.
"""

from functools import lru_cache

import numpy as np

from . import ambient

STENCIL_ACC = 6
# central stencil of first and second derivatives: STENCIL_ACC + 1 points
# give order STENCIL_ACC for both
CENTRAL_OFFSETS = np.arange(-(STENCIL_ACC // 2), STENCIL_ACC // 2 + 1)


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


@lru_cache(maxsize=None)
def diff_matrix(n, h, m, periodic):
    """Dense n x n differentiation matrix for the m-th derivative (1 or 2), step h."""
    offs = CENTRAL_OFFSETS
    r = offs[-1]
    w = fd_weights(offs * h, 0.0, m)
    D = np.zeros((n, n))
    if periodic:
        if n < len(offs):
            raise ValueError(f"periodic axis needs at least {len(offs)} nodes")
        for i in range(n):
            D[i, (i + offs) % n] = w
        return D
    width = STENCIL_ACC + m  # one-sided window: p-point stencil has order p - m
    if n < max(width, len(offs)):
        raise ValueError(f"chart axis needs at least {max(width, len(offs))} nodes")
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


def _apply_axis(D, F, axis):
    out = np.moveaxis(np.tensordot(D, np.moveaxis(F, axis, 0), axes=(1, 0)), 0, axis)
    if F.ndim == 3:
        return ambient.stack4(*np.moveaxis(out, -1, 0))
    return out


class GridCalc:
    """Differentiation and quadrature bound to one GridSpec, at STENCIL_ACC."""

    def __init__(self, spec):
        self.spec = spec
        pu = spec.topology_u == "periodic"
        pv = spec.topology_v == "periodic"
        self.Du = diff_matrix(spec.n_u, spec.h_u, 1, pu)
        self.Dv = diff_matrix(spec.n_v, spec.h_v, 1, pv)
        self.Duu = diff_matrix(spec.n_u, spec.h_u, 2, pu)
        self.Dvv = diff_matrix(spec.n_v, spec.h_v, 2, pv)

    def du(self, F):
        return _apply_axis(self.Du, np.asarray(F, float), 0)

    def dv(self, F):
        return _apply_axis(self.Dv, np.asarray(F, float), 1)

    def duu(self, F):
        return _apply_axis(self.Duu, np.asarray(F, float), 0)

    def dvv(self, F):
        return _apply_axis(self.Dvv, np.asarray(F, float), 1)

    def quad_weights(self):
        """Tensor-product quadrature weights (trapezoid on chart axes)."""
        return np.outer(self._axis_weights(self.spec.n_u, self.spec.h_u,
                                           self.spec.topology_u),
                        self._axis_weights(self.spec.n_v, self.spec.h_v,
                                           self.spec.topology_v))

    @staticmethod
    def _axis_weights(n, h, topology):
        w = np.full(n, h)
        if topology == "chart":
            w[0] *= 0.5
            w[-1] *= 0.5
        return w
