"""The scalar contact angle against the 4-vector legs it replaced.

beta's sine is the Kahler form <i Xu, Xv> / sqrt(det g) and its cosine
c2u <xi, Xu> + c2v <xi, Xv>; the frames form neither e2 nor e3 for them.
These tests form the legs the old way, e3 as the normalized cross4 normal
and <xi, e_k> as dots with xi = i z, and ask for agreement to a few
roundings, at masked nodes too.
"""

import numpy as np
import pytest

from contactgeom import ambient
from contactgeom.surface import _raw_frames, contact_angle_field
from test_ambient import jmul
from test_calculus import LAZY_CASES
from test_surface import _rotated_polar_cap

EPS = np.finfo(float).eps
# Each side is an O(1) value formed from unit and tangent vectors in a
# handful of roundings, so both lie a few eps from the exact value; the
# largest difference measured on these cases is 2.5 eps
SCALAR_TOL = 8 * EPS
# the 4x4 Gram matrix and determinant of (z, e1, e2, e3) add the errors
# of the four legs and, for det, LU's; the largest measured is 7 eps
FRAME_TOL = 16 * EPS

CASES = dict(LAZY_CASES, rotated_cap_9=lambda: _rotated_polar_cap(9, seed=5))


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request):
    grid = CASES[request.param]()
    return request.param, grid, contact_angle_field(grid)


def _cross4_normal(grid):
    Xu, Xv = grid.geometry[:2]
    n = ambient.cross4(grid.points, Xu, Xv)
    return n / ambient.norm(n)


def test_sin_beta_is_the_cross4_normal_component(case):
    name, grid, frames = case
    Xu, Xv, metric = grid.geometry
    xi = jmul(grid.points)
    xin = _raw_frames(grid.points, Xu, Xv, metric)[2]
    want = np.sum(xi * _cross4_normal(grid), 0)
    assert np.max(np.abs(xin - want)) <= SCALAR_TOL, name
    assert np.max(np.abs(np.sin(frames.beta) - want)) <= SCALAR_TOL, name


def test_cos_beta_is_the_e2_component(case):
    name, grid, frames = case
    Xu, Xv = grid.geometry[:2]
    xi = jmul(grid.points)
    c2u, c2v = frames.coeff2
    cos_beta = c2u * np.sum(Xu * xi, 0) + c2v * np.sum(Xv * xi, 0)
    want = np.sum(xi * frames.e2, 0)
    assert np.max(np.abs(cos_beta - want)) <= SCALAR_TOL, name
    assert np.max(np.abs(np.cos(frames.beta) - want)) <= SCALAR_TOL, name


def test_lazy_legs_are_an_oriented_orthonormal_frame(case):
    # det[z, e1, e2, e3] = +1 at every node, the masked ones included
    name, grid, frames = case
    # one 4x4 matrix per node, rows z, e1, e2, e3
    legs = np.moveaxis(np.stack([grid.points, frames.e1, frames.e2, frames.e3]),
                       (0, 1), (-2, -1))
    gram = legs @ np.swapaxes(legs, -1, -2)
    assert np.max(np.abs(gram - np.eye(4))) <= FRAME_TOL, name
    assert np.max(np.abs(np.linalg.det(legs) - 1.0)) <= FRAME_TOL, name
    assert np.array_equal(frames.e3, _cross4_normal(grid)), name
    assert frames.n_masked == (name.endswith("cap_9") or name == "past_the_equator_33")
