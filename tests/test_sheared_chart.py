"""Oracles that an orthogonal chart cannot see: clifford+bump(1,2) sheared.

Every catalog chart is orthogonal: F = <Xu, Xv> is 0, or O(eps^2) under a
bump.  So the F terms of Brioschi's formula and the g^uv terms of the
Laplace-Beltrami operator need a chart with a large F.  The SL(2,Z) shear
(u, v) -> (u + v, v) maps the torus onto itself, and nodes onto nodes; on
the bump its max|F| is 0.55.
"""

import numpy as np
import pytest

from contactgeom import build_analysis, laplace_beltrami, sample, verify_identity
from contactgeom.calculus import observed_order
from contactgeom.catalog import clifford, perturb

BUMP = perturb(clifford(), (1, 2), 0.05)
LEVELS = (32, 64)


def _takahashi(an):
    """max |Lap_g z + 2 z - 2 H e3| over the four components of z.

    Takahashi (1966): Lap_g z = -2 z + 2 H e3 on every surface in S^3, in
    the toolkit's signs.
    """
    z, e3 = an.grid.points, an.frames.e3
    return max(float(np.max(np.abs(laplace_beltrami(z[..., k], an.metric, an.grid)
                                   + 2.0 * z[..., k] - 2.0 * an.H * e3[..., k])))
               for k in range(4))


# (max error, its bound at 64^2).  Measured at 32^2 and 64^2: gauss 1.6e-3
# and 2.9e-5, Takahashi 4.8e-4 and 9.3e-6, both of order 5.7 or more.  With
# the F terms of Brioschi's formula dropped the gauss residual stays at
# 0.44, and with the g^uv terms of Laplace-Beltrami dropped Takahashi's
# stays at 3.4, whatever the grid.
ORACLES = {
    "gauss": (lambda an: verify_identity(an, "gauss").linf, 1e-4),
    "takahashi": (_takahashi, 5e-5),
}


@pytest.fixture(scope="module")
def sheared():
    """Analyses of the bump in the sheared chart at each of LEVELS."""
    return [build_analysis(sample(lambda U, V: BUMP.point(U + V, V),
                                  BUMP.default_spec(n)))
            for n in LEVELS]


def test_sheared_chart_is_not_orthogonal(sheared):
    assert np.max(np.abs(sheared[-1].metric.F)) > 0.5


@pytest.mark.parametrize("oracle", sorted(ORACLES))
def test_oracle_converges_in_the_sheared_chart(oracle, sheared):
    error, bound = ORACLES[oracle]
    errors = [error(an) for an in sheared]
    assert observed_order(LEVELS, errors) >= 4.0
    assert errors[-1] < bound
