"""Oracles that an orthogonal chart cannot see: bumped tori rechartered.

Every catalog chart is orthogonal: F = <Xu, Xv> is 0, or O(eps^2) under a
bump.  So the F terms of Brioschi's formula and the g^uv terms of the
Laplace-Beltrami operator need a chart with a large F.  Three bumped tori,
bump(1,2) x 0.05 on clifford, on the product torus at r = 0.6 and on
clifford tilted by 0.7 out of U(2), are each read in two charts that give
one:

* the SL(2,Z) shear (u, v) -> (u + v, v), which maps the torus onto
  itself, and nodes onto nodes; its max|F| is 0.55 (0.73 on the product
  torus);
* the smooth chart (u, v) -> (u + a sin v, v + a sin u), a = 0.3, whose
  Jacobian determinant 1 - a^2 cos u cos v is at least 0.91 and which
  moves every node off the base grid; its max|F| is 0.30.

Three oracles read each chart: the gauss identity, Takahashi's Lap_g z
and Gauss-Bonnet.  The shear's nodes are the base chart's, so its H, K and
beta are also compared with the base chart's node by node.  The tilted
torus without a bump is no convergence case: in the shear every oracle
reads roundoff (at most 7e-12 at 32^2 and 64^2).
"""

import numpy as np
import pytest

from contactgeom import build_analysis, laplace_beltrami, sample, verify_identity
from contactgeom.calculus import observed_order
from contactgeom.catalog import clifford, perturb, r_torus
from test_surface import _tilted_clifford

SURFACES = {
    "clifford+bump": perturb(clifford(), (1, 2), 0.05),
    "rtorus+bump": perturb(r_torus(0.6), (1, 2), 0.05),
    "tilted+bump": perturb(_tilted_clifford(0.7), (1, 2), 0.05),
}
LEVELS = (32, 64)
SMOOTH_A = 0.3


def _takahashi(an):
    """max |Lap_g z + 2 z - 2 H e3| over the four components of z.

    Takahashi (1966): Lap_g z = -2 z + 2 H e3 on every surface in S^3, in
    the toolkit's signs.
    """
    z, e3 = an.grid.points, an.frames.e3
    return max(float(np.max(np.abs(laplace_beltrami(z_k, an.metric, an.grid)
                                   + 2.0 * z_k - 2.0 * an.H * e3_k)))
               for z_k, e3_k in zip(z, e3))


def _gauss_bonnet(an):
    """|integral of K_int dA|: zero on a torus (Gauss-Bonnet)."""
    return abs(float(np.sum(an.K_int * an.metric.sqrt_det * an.grid.calc.quad_weights)))


ORACLES = {
    "gauss": lambda an: verify_identity(an, "gauss").linf,
    "takahashi": _takahashi,
    "gauss_bonnet": _gauss_bonnet,
}
# each oracle's bound at 64^2 in the shear, per surface.  Measured at 32^2
# and 64^2, all of order 5.5 or more:
#   clifford+bump  gauss 1.6e-3, 2.9e-5; Takahashi 4.8e-4, 9.3e-6;
#                  Gauss-Bonnet 8.4e-6, 1.7e-7 (and 4.7e-4 at 16^2)
#   rtorus+bump    gauss 2.0e-3, 3.6e-5; Takahashi 6.7e-4, 1.4e-5;
#                  Gauss-Bonnet 2.6e-5, 3.7e-7
#   tilted+bump    gauss and Gauss-Bonnet as clifford+bump (a rotation of
#                  S^3 keeps them); Takahashi 5.1e-4, 9.9e-6
# With the F terms of Brioschi's formula dropped the clifford+bump gauss
# residual stays at 0.44 and the Gauss-Bonnet integral at 0.22-0.24, and
# with the g^uv terms of Laplace-Beltrami dropped Takahashi's stays at 3.4,
# whatever the grid.
SHEAR_BOUNDS = {
    "clifford+bump": {"gauss": 1e-4, "takahashi": 5e-5, "gauss_bonnet": 1e-6},
    "rtorus+bump": {"gauss": 1.5e-4, "takahashi": 5e-5, "gauss_bonnet": 2e-6},
    "tilted+bump": {"gauss": 1e-4, "takahashi": 5e-5, "gauss_bonnet": 1e-6},
}
# each oracle's bound at 64^2 in the smooth chart, per surface.  Measured at
# 32^2 and 64^2 (and 128^2 on clifford+bump), all of order 5.7 or more:
#   clifford+bump  gauss 5.4e-4, 9.8e-6, 1.6e-7; Takahashi 1.8e-4, 3.2e-6,
#                  5.1e-8; Gauss-Bonnet 3.1e-6, 5.1e-8, 8.1e-10
#   rtorus+bump    gauss 6.4e-4, 1.2e-5; Takahashi 2.6e-4, 4.6e-6;
#                  Gauss-Bonnet 8.7e-6, 1.4e-7
#   tilted+bump    as clifford+bump
SMOOTH_BOUNDS = {
    "clifford+bump": {"gauss": 3e-5, "takahashi": 1e-5, "gauss_bonnet": 2e-7},
    "rtorus+bump": {"gauss": 4e-5, "takahashi": 2e-5, "gauss_bonnet": 5e-7},
    "tilted+bump": {"gauss": 3e-5, "takahashi": 1e-5, "gauss_bonnet": 2e-7},
}


def _analyses(surface, chart):
    """Analyses of SURFACES[surface] at each of LEVELS in the chart
    (U, V) -> chart(U, V)."""
    entry = SURFACES[surface]
    return [build_analysis(sample(lambda U, V: entry.point(*chart(U, V)),
                                  entry.default_spec(n)))
            for n in LEVELS]


@pytest.fixture(scope="module")
def surface():
    """The surface the chart fixtures read; a test parametrized over surface
    (`_cases`) reads each of SURFACES instead."""
    return "clifford+bump"


def _cases(names):
    """(surface, name) parameters over SURFACES; clifford+bump's cases are
    named by name alone."""
    return [pytest.param(surface, name, id=name if surface == "clifford+bump"
                         else f"{surface}-{name}")
            for surface in SURFACES for name in names]


@pytest.fixture(scope="module")
def sheared(surface):
    """Analyses of the surface in the sheared chart at each of LEVELS."""
    return _analyses(surface, lambda U, V: (U + V, V))


@pytest.fixture(scope="module")
def smooth(surface):
    """Analyses of the surface in the smooth chart at each of LEVELS."""
    return _analyses(surface, lambda U, V: (U + SMOOTH_A * np.sin(V), V + SMOOTH_A * np.sin(U)))


@pytest.fixture(scope="module")
def base(surface):
    """Analyses of the surface in its own chart at each of LEVELS."""
    return _analyses(surface, lambda U, V: (U, V))


# each field's bound at 64^2 for the node-by-node comparison, per surface.
# Measured max differences at 32^2 and 64^2:
#   clifford+bump  H 2.6e-4, 4.8e-6; K_ext 5.4e-4, 9.6e-6; K_int 1.1e-3,
#                  1.9e-5; beta 7.4e-5, 1.3e-6
#   rtorus+bump    H 5.1e-4, 1.0e-5; K_ext 6.8e-4, 1.3e-5; K_int 1.4e-3,
#                  2.5e-5; beta 7.4e-5, 1.3e-6
#   tilted+bump    H, K_ext, K_int as clifford+bump; beta 1.0e-4, 1.8e-6
NODE_BOUNDS = {
    "clifford+bump": {"H": 1e-5, "K_ext": 2e-5, "K_int": 4e-5, "beta": 3e-6},
    "rtorus+bump": {"H": 3e-5, "K_ext": 4e-5, "K_int": 8e-5, "beta": 3e-6},
    "tilted+bump": {"H": 1e-5, "K_ext": 2e-5, "K_int": 4e-5, "beta": 5e-6},
}


@pytest.mark.parametrize("surface, field", _cases(["H", "K_ext", "K_int", "beta"]),
                         scope="module")
def test_sheared_chart_matches_the_base_chart_node_by_node(field, surface, sheared, base):
    # node (i, j) of the shear (u + v, v) is node ((i + j) mod n, j) of the
    # base chart: the same point, and the shear keeps the orientation and the
    # contact form's w, so H, K and beta agree up to the stencils' error
    def values(an):
        return an.frames.beta if field == "beta" else getattr(an, field)

    errors = []
    for an_shear, an_base in zip(sheared, base):
        n = an_base.grid.spec.n_u
        i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        errors.append(float(np.max(np.abs(values(an_shear) - values(an_base)[(i + j) % n, j]))))
    assert observed_order(LEVELS, errors) >= 4.0
    assert errors[-1] < NODE_BOUNDS[surface][field]


def test_sheared_chart_is_not_orthogonal(sheared):
    assert np.max(np.abs(sheared[-1].metric.F)) > 0.5


def test_smooth_chart_is_not_orthogonal(smooth):
    assert np.max(np.abs(smooth[-1].metric.F)) > 0.25


@pytest.mark.parametrize("surface", sorted(set(SURFACES) - {"clifford+bump"}), scope="module")
def test_charts_of_the_other_tori_are_not_orthogonal(surface, sheared, smooth):
    assert np.max(np.abs(sheared[-1].metric.F)) > 0.5
    assert np.max(np.abs(smooth[-1].metric.F)) > 0.25


@pytest.mark.parametrize("surface, oracle", _cases(sorted(ORACLES)), scope="module")
def test_oracle_converges_in_the_sheared_chart(oracle, surface, sheared):
    errors = [ORACLES[oracle](an) for an in sheared]
    assert observed_order(LEVELS, errors) >= 4.0
    assert errors[-1] < SHEAR_BOUNDS[surface][oracle]


@pytest.mark.parametrize("surface, oracle", _cases(sorted(ORACLES)), scope="module")
def test_oracle_converges_in_the_smooth_chart(oracle, surface, smooth):
    errors = [ORACLES[oracle](an) for an in smooth]
    assert observed_order(LEVELS, errors) >= 4.0
    assert errors[-1] < SMOOTH_BOUNDS[surface][oracle]
