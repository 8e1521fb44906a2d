"""Metric, shape operator, curvatures, Laplace-Beltrami and the identity suite."""

import json
import math
import tracemalloc
import warnings
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactgeom import calculus
from contactgeom.ambient import dot
from contactgeom import (DegenerateContact, DegenerateParametrization,
                         GridSpec, build_analysis, frame_gradient,
                         gaussian_curvature_intrinsic,
                         laplace_beltrami, refinement_study, sample,
                         shape_operator, verify_identity)
from contactgeom.calculus import (IDENTITIES, ORDER_THRESHOLD, IdentityReport, Level,
                                  _along_legs, observed_order, tan_pole_distance)
from contactgeom.catalog import clifford, geodesic_sphere, perturb, r_torus
from contactgeom.cli import main
from contactgeom.gridops import GridCalc
from contactgeom.surface import FrameField, MetricField, contact_angle_field
from test_surface import _past_the_equator_chart, _rotated_polar_cap, _tilted_clifford

RNG = np.random.default_rng(11)


@pytest.fixture(scope="module")
def cliff64():
    grid = clifford().sample(n=64)
    return grid, build_analysis(grid)


@pytest.fixture(scope="module")
def sphere64():
    grid = geodesic_sphere().sample(n=64)
    return grid, build_analysis(grid)


# ---------------------------------------------------------------- metric

def test_metric_clifford_diagonal(cliff64):
    grid, an = cliff64
    assert np.max(np.abs(an.metric.E - 0.5)) < 1e-14
    assert np.max(np.abs(an.metric.G - 0.5)) < 1e-14
    assert np.max(np.abs(an.metric.F)) < 1e-14


def test_metric_sphere_round(sphere64):
    grid, an = sphere64
    theta = grid.spec.mesh()[0]
    assert np.max(np.abs(an.metric.E - 1.0)) < 1e-12
    assert np.max(np.abs(an.metric.G - np.sin(theta) ** 2)) < 1e-12
    assert np.max(np.abs(an.metric.F)) < 1e-12
    assert np.all(an.metric.det > 0)


def test_analysis_reads_the_grid_metric(sphere64):
    grid, an = sphere64
    assert an.metric is grid.geometry[2]


def test_metric_forms_its_derived_fields_once(sphere64):
    _, an = sphere64
    m = an.metric
    assert m.det is m.det and m.sqrt_det is m.sqrt_det
    assert _same_bits(m.det, m.E * m.G - m.F * m.F)
    assert _same_bits(m.sqrt_det, np.sqrt(m.E * m.G - m.F * m.F))


# ---------------------------------------------------------- shape operator

def test_shape_operator_clifford(cliff64):
    _, an = cliff64
    target = np.array([[0.0, -1.0], [-1.0, 0.0]])
    assert np.max(np.abs(an.shape.S - target)) < 1e-6
    assert np.max(np.abs(an.shape.H)) < 1e-8
    assert np.max(np.abs(an.shape.det + 1.0)) < 1e-6
    S = an.shape.S
    assert np.max(np.abs(S[..., 0, 1] - S[..., 1, 0])[an.valid]) < 1e-7


def test_shape_operator_sphere_vanishes(sphere64):
    _, an = sphere64
    assert np.max(np.abs(an.shape.S)) < 5e-6
    assert np.max(np.abs(an.shape.H)) < 5e-6


def test_r_torus_mean_curvature():
    grid = r_torus(np.pi / 3).sample(n=64)
    an = build_analysis(grid)
    expected = (np.tan(np.pi / 3) - 1.0 / np.tan(np.pi / 3)) / 2.0
    assert abs(expected - (np.sqrt(3) - 1 / np.sqrt(3)) / 2) < 1e-15
    assert np.max(np.abs(np.abs(an.shape.H) - abs(expected))) < 1e-4


# ------------------------------------------------------------- curvature

def test_gaussian_curvature_clifford(cliff64):
    _, an = cliff64
    assert np.max(np.abs(an.K_int)) < 2e-6
    assert np.max(np.abs(an.K_ext)) < 1e-6


def test_gaussian_curvature_sphere(sphere64):
    _, an = sphere64
    assert np.max(np.abs(an.K_int - 1.0)) < 2e-5
    assert np.max(np.abs(an.K_ext - 1.0)) < 2e-5


def test_flat_metric_gives_zero_at_roundoff():
    grid = clifford().sample(n=32)
    flat = MetricField(E=np.ones((32, 32)), F=np.zeros((32, 32)),
                       G=np.ones((32, 32)))
    K = gaussian_curvature_intrinsic(flat, grid)
    assert np.max(np.abs(K)) < 1e-13


def test_brioschi_applies_nine_stencils(monkeypatch):
    # first partials of E, F and G, E_vv, G_uu, and F_uv as du of the F_v
    # already formed: nine applications, not the ten of a second dv(F)
    grid = geodesic_sphere().sample(n=16)
    metric = grid.geometry[2]
    calls = []
    for name in ("du", "dv", "duu", "dvv"):
        def counted(x, name=name, op=getattr(grid.calc, name)):
            calls.append(name)
            return op(x)
        monkeypatch.setattr(grid.calc, name, counted)
    gaussian_curvature_intrinsic(metric, grid)
    assert sorted(calls) == ["du"] * 4 + ["duu"] + ["dv"] * 3 + ["dvv"]


def test_degenerate_metric_names_node():
    # MetricField is the one Gram check: a determinant below GRAM_DET_TOL or
    # a NaN entry raises, naming the node
    for node, value in (((3, 5), 0.0), ((3, 5), 1e-11), ((6, 2), np.nan)):
        E = np.ones((8, 8))
        E[node] = value
        E[7, 7] = 2.0 * value  # a second bad node, not the worst
        with pytest.raises(DegenerateParametrization) as exc:
            MetricField(E=E, F=np.zeros((8, 8)), G=np.ones((8, 8)))
        assert exc.value.node == node
        assert str(node) in str(exc.value)


def test_intrinsic_extrinsic_agreement_128():
    for entry in (clifford(), geodesic_sphere()):
        grid = entry.sample(n=128)
        an = build_analysis(grid)
        assert np.max(np.abs(an.K_int - an.K_ext)) < 5e-5


@pytest.fixture(scope="module")
def bump48():
    grid = perturb(clifford(), (1, 2), 0.05).sample(n=48)
    return grid, build_analysis(grid)


ANGLE = st.floats(0.0, 2.0 * np.pi)


@given(ANGLE, ANGLE, ANGLE, ANGLE)
@settings(max_examples=25, deadline=None)
def test_unitary_motion_keeps_beta_and_K(bump48, phi, theta, alpha, gamma):
    # z -> Az with A in U(2) commutes with z -> iz, so it carries the Reeb
    # field and the adapted frame along; a generic SO(4) rotation changes beta
    grid, an = bump48
    a, b = np.cos(theta) * np.exp(1j * alpha), np.sin(theta) * np.exp(1j * gamma)
    A = np.exp(1j * phi) * np.array([[a, -np.conj(b)], [b, np.conj(a)]])
    # (z1, z2) at each node, then A applied to it
    w = np.moveaxis(grid.points[0::2] + 1j * grid.points[1::2], 0, -1) @ A.T
    w1, w2 = np.moveaxis(w, -1, 0)
    moved = build_analysis(grid.with_points(np.stack([w1.real, w1.imag, w2.real, w2.imag])))
    assert np.max(np.abs(moved.frames.beta - an.frames.beta)) < 1e-13
    assert np.max(np.abs(moved.K_ext - an.K_ext)) < 1e-12


def _quaternion_product(p, right):
    """4x4 matrix of x -> p x (right=False) or x -> x p (right=True) on
    R^4 = H, with x = z1 + z2 j, so left multiplication by i is J."""
    a, b, c, d = p
    s = -1.0 if right else 1.0
    return np.array([[a, -b, -c, -d], [b, a, -s * d, s * c],
                     [c, s * d, a, -s * b], [d, -s * c, s * b, a]])


def _unit_quaternion(t1, t2, t3):
    return np.array([np.cos(t1) * np.cos(t2), np.cos(t1) * np.sin(t2),
                     np.sin(t1) * np.cos(t3), np.sin(t1) * np.sin(t3)])


@given(ANGLE, ANGLE, ANGLE, ANGLE, ANGLE, ANGLE)
@settings(max_examples=25, deadline=None)
def test_rotation_keeps_H_and_K_and_moves_beta_off_U2(bump48, a1, a2, a3,
                                                      b1, b2, b3):
    # every R in SO(4) is x -> p x q for unit quaternions p, q.  Right
    # multiplication commutes with the complex structure (left
    # multiplication by i), and so does p = cos t + i sin t; R is in U(2)
    # exactly when p has no j, k part.  |H| and K are SO(4)-invariant (FD
    # tangents are linear in the points, so to roundoff: <= 4e-14 measured);
    # beta turns with the Reeb field, by at least |p_jk| somewhere
    # (>= 1.3 |p_jk| over 150 draws) and by up to pi after wrapping.
    grid, an = bump48
    p, q = _unit_quaternion(a1, a2, a3), _unit_quaternion(b1, b2, b3)
    R = _quaternion_product(p, False) @ _quaternion_product(q, True)
    moved = build_analysis(grid.with_points(
        np.moveaxis(np.moveaxis(grid.points, 0, -1) @ R.T, -1, 0)))
    assert np.max(np.abs(np.abs(moved.H) - np.abs(an.H))) < 1e-12
    assert np.max(np.abs(moved.K_ext - an.K_ext)) < 1e-12
    turn = np.angle(np.exp(1j * (moved.frames.beta - an.frames.beta)))
    assert np.max(np.abs(turn)) >= np.hypot(p[2], p[3]) - 1e-12


# ---------------------------------------------------------- frame gradient

def test_frame_gradient_constant_field(cliff64):
    grid, an = cliff64
    g1, g2 = frame_gradient(np.full((64, 64), 0.37), an.frames, grid)
    assert np.max(np.abs(g1)) < 1e-12
    assert np.max(np.abs(g2)) < 1e-12


def test_frame_gradient_clifford_beta(cliff64):
    grid, an = cliff64
    beta1, beta2 = an.grad_beta
    assert np.max(np.abs(beta1)) < 1e-9
    assert np.max(np.abs(beta2)) < 1e-9


def test_frame_gradient_sphere_analytic(sphere64):
    grid, an = sphere64
    # beta = pi/2 - theta and e1 = +X_theta, so d beta(e1) = -1, d beta(e2) = 0
    beta1, beta2 = an.grad_beta
    assert np.max(np.abs(beta1 + 1.0)) < 1e-6
    assert np.max(np.abs(beta2)) < 1e-6


# --------------------------------------------------------- Laplace-Beltrami

def test_laplace_constant_zero(sphere64):
    grid, an = sphere64
    lap = laplace_beltrami(np.full((64, 64), 1.234), an.metric, grid)
    assert np.max(np.abs(lap)) < 1e-10


def test_laplace_sphere_eigenfunction():
    grid = geodesic_sphere().sample(n=128)
    metric = grid.geometry[2]
    theta = grid.spec.mesh()[0]
    f = np.cos(theta)
    lap = laplace_beltrami(f, metric, grid)
    assert np.max(np.abs(lap + 2.0 * np.cos(theta))) < 1e-4


def test_laplace_linear_field_flat_chart():
    # exact flat torus metric on a chart-topology grid: linear fields are
    # harmonic and every stencil (one-sided rows included) is exact on them
    spec = GridSpec(32, 32, (0.0, 2.0), (0.0, 2.0), "chart", "chart")
    c = np.sqrt(2) / 2

    def patch(U, V):
        return np.stack([c * np.cos(U), c * np.sin(U),
                         c * np.cos(V), c * np.sin(V)])

    grid = sample(patch, spec)
    flat = MetricField(E=np.full((32, 32), 0.5), F=np.zeros((32, 32)),
                       G=np.full((32, 32), 0.5))
    U, _ = grid.spec.mesh()
    lap = laplace_beltrami(0.7 * U, flat, grid)
    assert np.max(np.abs(lap)) < 1e-8


def test_laplace_self_adjoint_periodic():
    grid = clifford().sample(n=32)
    metric = grid.geometry[2]
    w = grid.calc.quad_weights
    a = RNG.normal(size=(32, 32))
    b = RNG.normal(size=(32, 32))
    la = laplace_beltrami(a, metric, grid)
    lb = laplace_beltrami(b, metric, grid)
    s1 = np.sum(a * lb * metric.sqrt_det * w)
    s2 = np.sum(b * la * metric.sqrt_det * w)
    assert abs(s1 - s2) < 1e-8


# ------------------------------------------------------------- quadrature

def test_chart_quadrature_is_exact_below_degree_8():
    # Gregory's end correction on the 8 nodes at each end of a chart axis;
    # below 16 nodes the two windows overlap and their corrections add
    for n in (8, 9, 15, 16, 17, 40):
        x = np.linspace(-1.0, 1.0, n)
        w = GridCalc._axis_weights(n, x[1] - x[0], "chart")
        errors = [abs(w @ x ** k - (2.0 / (k + 1) if k % 2 == 0 else 0.0))
                  for k in range(9)]
        assert max(errors[:8]) < 1e-14, (n, errors)
        assert errors[8] > 1e-10, (n, errors)


def test_axis_weights_periodic_equal():
    assert np.array_equal(GridCalc._axis_weights(32, 0.25, "periodic"), np.full(32, 0.25))


def test_chart_quadrature_on_8_nodes_is_newton_cotes():
    # the two windows cover the same 8 nodes: the closed 8-point rule
    newton_cotes = np.array([751, 3577, 1323, 2989, 2989, 1323, 3577, 751]) * 7 / 17280
    assert np.allclose(GridCalc._axis_weights(8, 1.0, "chart"), newton_cotes,
                       rtol=0, atol=1e-15)


def test_sphere_area_falls_at_order_4_or_more():
    # the chart axis theta in [0.2, pi - 0.2]; the trapezoid rule read
    # -8.0e-3, -1.9e-3 and -4.8e-4 at 32..128 (order 2)
    exact = 4.0 * math.pi * math.cos(0.2)
    errors = [abs(build_analysis(geodesic_sphere().sample(n=n)).area - exact)
              for n in (32, 64, 128)]
    roundoff = 1e-13
    for coarse, fine in zip(errors, errors[1:]):
        assert fine <= coarse / 2.0 ** 4 + roundoff, errors


# ------------------------------------------------------------- identities

def test_curvature_identity_clifford(cliff64):
    grid, an = cliff64
    rep = verify_identity(an, "curvature")
    assert rep.linf < 1e-8


def test_curvature_identity_sphere_refines():
    rep = refinement_study(geodesic_sphere(), "curvature", [32, 64, 128])
    assert rep.order is not None and rep.order >= 1.7
    assert rep.passed


def test_curvature_identity_gauge_invariant():
    # flipping the e1 gauge flips beta to pi - beta but leaves the residual
    grid = geodesic_sphere().sample(n=32)
    an = build_analysis(grid)
    ff = contact_angle_field(grid)
    ff.e1, ff.e2 = -ff.e1, -ff.e2
    ff.coeff1, ff.coeff2 = [(-cu, -cv) for cu, cv in (ff.coeff1, ff.coeff2)]
    ff.beta = np.pi - ff.beta
    shape = shape_operator(grid, ff)
    beta1, beta2 = frame_gradient(ff.beta, ff, grid)
    K = gaussian_curvature_intrinsic(an.metric, grid)
    res_flipped = K - (1.0 - (beta1 + 1.0) ** 2 - beta2 ** 2)
    assert np.max(np.abs(res_flipped - an.res_curvature)) < 1e-9
    # H is gauge-invariant as well
    assert np.max(np.abs(shape.H - an.shape.H)) < 1e-12


def test_laplacian_identity_clifford_exact(cliff64):
    grid, an = cliff64
    rep = verify_identity(an, "laplacian")
    assert rep.linf < 1e-12
    assert rep.excluded == 0


def test_laplacian_identity_sphere_refines():
    rep = refinement_study(geodesic_sphere(), "laplacian", [32, 64, 128])
    assert rep.order is not None and rep.order >= 1.7
    assert rep.passed


def test_laplacian_forms_agree_algebraically():
    b1 = RNG.normal(size=1000)
    b2 = RNG.normal(size=1000)
    lhs = (b1 + 2.0) ** 2 + b2 ** 2
    rhs = (b1 ** 2 + b2 ** 2) + 4.0 * (b1 + 1.0)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_connection_identity_clifford(cliff64):
    grid, an = cliff64
    r1, r2 = an.res_connection
    assert np.max(np.abs(r1)) < 1e-7
    assert np.max(np.abs(r2)) < 1e-7


def test_connection_identity_sphere_refines():
    rep = refinement_study(geodesic_sphere(), "connection", [32, 64, 128])
    assert rep.order is not None and rep.order >= 1.7
    assert rep.levels[-1].linf < 1e-4


def _warned(f, x):
    """f(x) and the warnings it raised, as (category, message without the
    ufunc's name) pairs."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = f(x)
    return out, [(w.category, str(w.message).rsplit(" in ", 1)[0]) for w in caught]


def test_tan_pole_distance_is_the_remainder_form_bit_for_bit():
    # fmod plus remainder's fix-up must give the remainder form's bits, and
    # its warnings, at the points where the two could part: zeros and whole
    # turns of pi, the poles, large angles, and the non-finite values
    k = np.arange(0.0, 9.0)
    big = np.concatenate([np.geomspace(1e-300, 1e6, 97), RNG.uniform(0.0, 1e6, 200),
                          np.round(RNG.uniform(0.0, 1e6 / math.pi, 100)) * math.pi])
    base = np.concatenate([[0.0], k * math.pi, k * math.pi + math.pi / 2.0, big])
    near = np.concatenate([base, np.nextafter(base, np.inf), np.nextafter(base, -np.inf)])
    finite = np.concatenate([near, -near])
    assert np.any(np.signbit(finite) & (finite == 0.0))

    def reference(beta):
        return np.abs(np.remainder(beta, math.pi) - math.pi / 2.0)

    for x in (finite, np.array([np.nan]), np.array([np.inf]), np.array([-np.inf]),
              np.concatenate([finite, [np.nan, np.inf, -np.inf]])):
        got, got_warnings = _warned(tan_pole_distance, x)
        want, want_warnings = _warned(reference, x)
        assert _same_bits(got, want)
        assert got_warnings == want_warnings
    assert _warned(tan_pole_distance, finite)[1] == []
    assert _warned(tan_pole_distance, np.array([np.inf]))[1] == [
        (RuntimeWarning, "invalid value encountered")]


def _band_residuals_reference(grid, band):
    """Each identity's residual and kept nodes, re-derived per band from an analysis."""
    an = build_analysis(grid)
    pole = tan_pole_distance(an.frames.beta) < band
    valid = an.valid & ~pole
    tan_beta = np.where(pole, 0.0, np.tan(an.frames.beta))
    beta1, beta2 = an.grad_beta
    curv = an.K_int - (1.0 - (beta1 + 1.0) ** 2 - beta2 ** 2)
    lap = an.lap_beta + tan_beta * ((beta1 + 2.0) ** 2 + beta2 ** 2)
    # <D_{e_i} e2, e1> = c_iu <d_u e2, e1> + c_iv <d_v e2, e1>
    a_u = np.sum(grid.calc.du(an.frames.e2) * an.frames.e1, 0)
    a_v = np.sum(grid.calc.dv(an.frames.e2) * an.frames.e1, 0)
    comp = [cu * a_u + cv * a_v for cu, cv in (an.frames.coeff1, an.frames.coeff2)]
    res1 = comp[0] - tan_beta * beta2
    res2 = comp[1] - (-tan_beta * (beta1 + 2.0))
    conn = np.maximum(np.abs(res1), np.abs(res2))
    return {"curvature": (curv, an.valid), "laplacian": (lap, valid),
            "connection": (conn, valid), "gauss": (an.K_int - an.K_ext, an.valid)}


@pytest.mark.parametrize("identity", sorted(IDENTITIES))
def test_refinement_wide_band_excludes_pole_rows(identity, monkeypatch):
    # beta = arcsin(x2) comes within 0.2 of a tan pole at the chart edges,
    # so a 0.3 band drops whole rows of nodes there from the identities
    # where tan(beta) enters, and none from the others
    monkeypatch.setattr(calculus, "TAN_BAND", 0.3)
    excluded = []
    for n in (32, 64, 128):
        grid = geodesic_sphere().sample(n=n)
        rep = verify_identity(build_analysis(grid), identity)
        res, keep = _band_residuals_reference(grid, 0.3)[identity]
        assert rep.excluded == int(np.sum(~keep))
        assert rep.linf == float(np.max(np.abs(res[keep])))
        assert rep.l2 == float(np.sqrt(np.mean(res[keep] ** 2)))
        excluded.append(rep.excluded)
    assert excluded == ([128, 384, 1280] if IDENTITIES[identity].off_band
                        else [0, 0, 0])


@pytest.mark.parametrize("theta", [0.3, 0.7])
@pytest.mark.parametrize("identity", sorted(IDENTITIES))
def test_tilted_clifford_identities_converge(identity, theta):
    # the tilted Clifford torus is periodic and minimal with a beta that
    # varies along both axes, so every term of each identity is exercised
    # away from chart edges; all four converge at order 5.5-6.0 and read
    # Linf <= 6e-5 at 64^2.  A wrong beta term (beta_2^2 doubled in the
    # curvature identity, the +2 of (beta_1 + 2) dropped, tan(beta) beta_2
    # doubled in the connection identity) stops the convergence
    rep = refinement_study(_tilted_clifford(theta), identity, [32, 48, 64])
    assert rep.levels[-1].excluded == 0
    assert rep.order is not None and rep.order >= 4.0, rep.levels
    assert rep.levels[-1].linf <= IDENTITIES[identity].bound


def test_connection_constant_angle_r_torus():
    # with constant beta the components reduce to 0 and -2 tan(beta); here
    # beta = 0 identically so both vanish
    grid = r_torus(np.pi / 3).sample(n=64)
    an = build_analysis(grid)
    r1, r2 = an.res_connection
    assert np.max(np.abs(r1)) < 1e-4
    assert np.max(np.abs(r2)) < 1e-4


def _mean_abs_H(an):
    return float(np.mean(np.abs(an.H[an.valid])))


def test_minimality_summary():
    an = build_analysis(clifford().sample(n=64))
    assert an.max_H < 1e-8 and _mean_abs_H(an) <= an.max_H
    an = build_analysis(geodesic_sphere().sample(n=64))
    assert an.max_H < 5e-6 and _mean_abs_H(an) <= an.max_H
    an = build_analysis(r_torus(np.pi / 3).sample(n=64))
    expected = (np.sqrt(3) - 1 / np.sqrt(3)) / 2
    assert abs(an.max_H - expected) < 1e-4
    assert abs(_mean_abs_H(an) - expected) < 1e-4


def _d_field_contractions(grid, frames, field, legs):
    """Reference: <D_{e_i} field, e_j> with each derivative
    D_i = c_iu d_u field + c_iv d_v field formed as a 4-vector field first.
    Returns the array [i][j] and the per-node sum T of the absolute values of
    the eight products c * d * e that both orders add."""
    d_u, d_v = grid.calc.du(field), grid.calc.dv(field)
    out, size = [], []
    for cu, cv in (frames.coeff1, frames.coeff2):
        D = cu * d_u + cv * d_v
        out.append([np.sum(D * e, 0) for e in legs])
        size.append([np.abs(cu) * np.sum(np.abs(d_u * e), 0)
                     + np.abs(cv) * np.sum(np.abs(d_v * e), 0) for e in legs])
    return np.array(out), np.array(size)


# both orders add the same eight products, each of two roundings, so by the
# standard dot-product bound each lies within gamma_9 T of the exact sum and
# they differ by at most 2 gamma_9 T < 20 eps T
CONTRACTION_TOL = 20 * np.finfo(float).eps


CONTRACTION_CASES = {
    "bump_256": lambda: perturb(clifford(), (1, 2), 0.05).sample(n=256),
    "rotated_cap_65": lambda: _rotated_polar_cap(65, seed=5),
    "geodesic_sphere_64": lambda: geodesic_sphere().sample(n=64),
}


@pytest.mark.parametrize("case", sorted(CONTRACTION_CASES))
def test_leg_contractions_match_the_d_field_form(case):
    # S and the connection contract the frame legs with <d_u X, e_j> and
    # <d_v X, e_j> in place of forming D_{e_i} X; the reordered sum may
    # differ from the D-field form only by rounding
    grid = CONTRACTION_CASES[case]()
    an = build_analysis(grid)
    frames = an.frames
    ref, size = _d_field_contractions(grid, frames, frames.e3, (frames.e1, frames.e2))
    S = np.moveaxis(an.shape.S, (-2, -1), (0, 1))
    good = ~frames.mask
    assert np.all((np.abs(S + ref) <= CONTRACTION_TOL * size)[:, :, good])
    assert np.all(S[:, :, frames.mask] == 0.0)
    ref, size = _d_field_contractions(grid, frames, frames.e2, (frames.e1,))
    comp = np.array(_along_legs(frames, grid.calc, _e2_component(frames),
                                (frames.coeff1,))[0])
    assert np.all(np.abs(comp - ref[:, 0]) <= CONTRACTION_TOL * size[:, 0])


def _e2_component(frames):
    """k -> component k of e2, formed from its coordinates."""
    return partial(frames.leg_component, frames.coeff2)


def _whole_leg_contractions(frames, calc, X, legs):
    """Reference: the former whole-leg contraction.  d_u X and d_v X are
    formed as 4-vector fields and dot-ed with each formed leg; returns the
    pair (<D_{e1} X, leg>, <D_{e2} X, leg>) for each leg."""
    r_u = [dot(calc.du(X), leg) for leg in legs]
    r_v = [dot(calc.dv(X), leg) for leg in legs]
    return [[cu * f_u + cv * f_v for cu, cv in (frames.coeff1, frames.coeff2)]
            for f_u, f_v in zip(r_u, r_v)]


def test_observed_order_floor():
    assert observed_order([32, 64, 128], [1e-14, 2e-14, 1.5e-14]) is None


def test_refinement_needs_three_levels():
    with pytest.raises(ValueError):
        refinement_study(geodesic_sphere(), "curvature", [32, 64])


@pytest.mark.parametrize("identity", sorted(IDENTITIES))
def test_refinement_levels_are_verify_identity_results(identity):
    # the study re-packs nothing: each level is the single-grid Level
    entry = geodesic_sphere()
    rep = refinement_study(entry, identity, [32, 48, 64])
    assert rep.name == identity and len(rep.levels) == 3
    for n, lv in zip((32, 48, 64), rep.levels):
        an = build_analysis(entry.sample(entry.default_spec(n)))
        assert lv == verify_identity(an, identity)
        assert type(lv) is Level and lv.n == n
    assert rep.order == observed_order([32, 48, 64], [lv.linf for lv in rep.levels])


def test_identity_report_holds_only_its_levels_and_order():
    assert IdentityReport._fields == ("name", "levels", "order")
    assert Level._fields == ("n", "linf", "l2", "excluded", "node", "interior_linf")


def test_passed_reads_the_order_and_the_finest_level():
    bound = IDENTITIES["gauss"].bound

    def report(order, finest):
        levels = [Level(n, linf, 0.0, 0, (0, 0), None)
                  for n, linf in ((32, 1.0), (64, 1.0), (128, finest))]
        return IdentityReport("gauss", levels, order)

    assert report(ORDER_THRESHOLD, bound).passed is True
    assert report(None, bound).passed is True            # at the roundoff floor
    assert report(ORDER_THRESHOLD - 0.01, bound).passed is False
    assert report(6.0, 2.0 * bound).passed is False      # only the finest level counts


# ------------------------------------------------------------ edge report

@pytest.mark.parametrize("identity", sorted(IDENTITIES))
def test_sphere_linf_sits_on_a_chart_edge_row(identity):
    # the one-sided rows set every L-infinity; the interior one is smaller
    rep = refinement_study(geodesic_sphere(), identity, [32, 64, 128])
    for lv in rep.levels:
        assert lv.node[0] in (0, lv.n - 1), lv
        assert 0.0 <= lv.interior_linf < lv.linf, lv


def test_interior_linf_on_periodic_axes_is_the_linf(cliff64):
    _, an = cliff64
    rep = verify_identity(an, "curvature")
    assert rep.interior_linf == rep.linf
    assert abs(an.res_curvature[rep.node]) == rep.linf


def test_verify_report_locates_without_changing_the_norms():
    an = build_analysis(geodesic_sphere().sample(n=32))
    res = an.res_laplacian.copy()
    rep = verify_identity(an, "laplacian")
    assert np.array_equal(an.res_laplacian, res)    # no cached field mutated
    keep = IDENTITIES["laplacian"].kept(an)
    assert rep.linf == float(np.max(np.abs(res[keep])))
    assert rep.l2 == float(np.sqrt(np.mean(res[keep] ** 2)))
    assert rep.interior_linf == float(np.max(np.abs(res[3:-3][keep[3:-3]])))


def test_interior_linf_is_none_without_an_interior_kept_node():
    spec = GridSpec(8, 8, (0.0, 1.0), (0.0, 1.0), "chart", "chart")
    valid = np.zeros((8, 8), bool)
    valid[:3] = valid[-3:] = True
    res = np.arange(64.0).reshape(8, 8)
    an = SimpleNamespace(grid=SimpleNamespace(spec=spec), valid=valid, res_curvature=res)
    rep = verify_identity(an, "curvature")
    assert rep.interior_linf is None
    assert rep.node == (7, 7) and rep.linf == 63.0


def test_verify_writes_the_edge_report(tmp_path):
    assert main(["verify", "--surface", "geodesic_sphere", "--identity", "curvature",
                 "--refine", "32,48,64", "--out", str(tmp_path)]) == 0
    rep = json.loads((tmp_path / "identity_curvature.json").read_text())
    for lv in rep["levels"]:
        assert set(lv) == set(Level._fields)
        row = lv["node"][0]
        assert min(row, lv["n"] - 1 - row) < calculus.EDGE_ROWS, lv
        assert lv["interior_linf"] < lv["linf"]


@pytest.mark.xfail(strict=True, reason="the order fit reads float64 roundoff as "
                   "truncation error (order 0.73 at 64..512); remove once it knows "
                   "the roundoff floor")
def test_verify_laplacian_sphere_to_512_passes(tmp_path):
    assert main(["verify", "--surface", "geodesic_sphere", "--identity", "laplacian",
                 "--refine", "64,128,256,512", "--out", str(tmp_path)]) == 0


# ------------------------------------------------------- lazy analysis

def _eager_analysis(grid, band):
    """Reference: every field of an analysis formed up front, in one pass."""
    frames = contact_angle_field(grid)
    metric = grid.geometry[2]
    shape = shape_operator(grid, frames)
    K_int = gaussian_curvature_intrinsic(metric, grid)
    K_ext = 1.0 + shape.det
    gb = frame_gradient(frames.beta, frames, grid)
    beta1, beta2 = gb
    lap = laplace_beltrami(frames.beta, metric, grid)
    tan_band = np.abs(np.remainder(frames.beta, np.pi) - np.pi / 2.0) < band

    res_curv = K_int - (1.0 - (beta1 + 1.0) ** 2 - beta2 ** 2)
    tan_beta = np.where(tan_band, 0.0, np.tan(frames.beta))
    res_lap = lap + tan_beta * ((beta1 + 2.0) ** 2 + beta2 ** 2)

    comp, = _along_legs(frames, grid.calc, _e2_component(frames), (frames.coeff1,))
    res_conn = (comp[0] - tan_beta * beta2, comp[1] - (-tan_beta * (beta1 + 2.0)))
    return dict(frames=frames, metric=metric, shape=shape, K_int=K_int,
                K_ext=K_ext, grad_beta=gb, lap_beta=lap, tan_band=tan_band,
                res_curvature=res_curv, res_laplacian=res_lap,
                res_connection=res_conn)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# the frames' values, read by name: e2, e3 and sign_mismatches are formed on
# first read, and the grid they are formed from is no value of the frames
FRAME_FIELDS = ("e1", "e2", "e3", "beta", "coeff1", "coeff2", "mask",
                "n_masked", "sign_mismatches")


def _arrays(name, value):
    """(label, array) pairs of an analysis field, taken apart to its arrays."""
    if isinstance(value, FrameField):
        return [(f"{name}.{k}", getattr(value, k)) for k in FRAME_FIELDS]
    if isinstance(value, tuple):
        return [(f"{name}[{k}]", v) for k, v in enumerate(value)]
    if hasattr(value, "__dict__"):
        return [(f"{name}.{k}", v) for k, v in vars(value).items()]
    return [(name, value)]


def _cap(A, B):
    out = np.zeros((4,) + A.shape)
    out[0] = np.sqrt(1.0 - A ** 2 - B ** 2)
    out[2] = A
    out[3] = B
    return out


LAZY_CASES = {
    "clifford": lambda: clifford().sample(n=32),
    "rtorus_0.9": lambda: r_torus(0.9).sample(n=32),
    "geodesic_sphere": lambda: geodesic_sphere().sample(n=32),
    "clifford_bump": lambda: perturb(clifford(), (1, 2), 0.05).sample(n=32),
    "masked_cap_9": lambda: sample(_cap, GridSpec(9, 9, (-0.3, 0.3), (-0.3, 0.3),
                                                  "chart", "chart")),
    # the sign -1 with beta turned through pi around a masked node
    "past_the_equator_33": _past_the_equator_chart,
}


@pytest.mark.parametrize("band", [calculus.TAN_BAND, 0.3])
@pytest.mark.parametrize("case", sorted(LAZY_CASES))
def test_lazy_analysis_matches_eager_reference_bitwise(case, band, monkeypatch):
    grid = LAZY_CASES[case]()
    monkeypatch.setattr(calculus, "TAN_BAND", band)
    ref = _eager_analysis(grid, band)
    an = build_analysis(grid)
    if case in ("masked_cap_9", "past_the_equator_33"):
        assert an.frames.n_masked == 1
    if case == "geodesic_sphere" and band == 0.3:
        assert np.any(an.tan_band)
    checked = 0
    for name, value in ref.items():
        want = dict(_arrays(name, value))
        got = dict(_arrays(name, getattr(an, name)))
        assert got.keys() == want.keys()
        for label in want:
            assert _same_bits(got[label], want[label]), f"{case}: {label} differs"
        checked += len(want)
    # the metric counts five: E, F, G and its cached det and sqrt_det (the
    # inverse is formed by laplace_beltrami on each call, and not kept)
    assert checked == 26
    assert an.grid is grid


def _cached_inverse_laplacian(fieldvals, metric, grid):
    """The former laplace_beltrami, which read g^-1 cached on the metric."""
    calc = grid.calc
    d = metric.det
    iuu, iuv, ivv = metric.G / d, -metric.F / d, metric.E / d
    sg = metric.sqrt_det
    fu = calc.du(fieldvals)
    fv = calc.dv(fieldvals)
    pu = sg * (iuu * fu + iuv * fv)
    pv = sg * (iuv * fu + ivv * fv)
    return (calc.du(pu) + calc.dv(pv)) / sg


LAPLACIAN_CASES = {
    # the shear (u + v, v) of clifford+bump(1,2): max|F| is 0.55, so the
    # g^uv terms weigh as much as the others
    "sheared_bump_32": lambda: sample(
        lambda U, V: perturb(clifford(), (1, 2), 0.05).point(U + V, V),
        clifford().default_spec(32)),
    "masked_cap_9": LAZY_CASES["masked_cap_9"],
}


@pytest.mark.parametrize("case", sorted(LAPLACIAN_CASES))
def test_laplace_beltrami_matches_the_cached_inverse_form_bitwise(case):
    # laplace_beltrami forms g^-1 in place on each call; its products and
    # sums are the former ones, so beta's Laplacian, willmore_G and the
    # Laplacian of a point component keep their bits
    grid = LAPLACIAN_CASES[case]()
    an = build_analysis(grid)
    metric = an.metric
    if case.startswith("sheared"):
        assert np.max(np.abs(metric.F)) > 0.5
    else:
        assert an.frames.n_masked == 1
    for f in (an.frames.beta, an.H, grid.points[1]):
        assert _same_bits(laplace_beltrami(f, metric, grid),
                          _cached_inverse_laplacian(f, metric, grid))
    assert _same_bits(an.lap_beta, _cached_inverse_laplacian(an.frames.beta, metric, grid))
    H = an.H
    assert _same_bits(an.willmore_G, _cached_inverse_laplacian(H, metric, grid)
                      + 2.0 * H * (H ** 2 - an.shape.det + 1.0))


ORACLE_CASES = {**CONTRACTION_CASES, **LAZY_CASES}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_component_contractions_match_the_whole_leg_form_bitwise(case):
    # S and the connection residuals sum their leg contractions one
    # component at a time and form no 4-vector leg or derivative; the
    # former whole-leg form (4-vector derivatives dot-ed with the formed
    # legs) is the oracle, bit for bit
    grid = ORACLE_CASES[case]()
    an = build_analysis(grid)
    frames = an.frames
    ref = _whole_leg_contractions(frames, grid.calc, frames.e3, (frames.e1, frames.e2))
    S = np.empty(frames.beta.shape + (2, 2))
    for j, comp in enumerate(ref):
        for i in range(2):
            S[..., i, j] = -comp[i]
    S[frames.mask] = 0.0
    assert _same_bits(an.shape.S, S)
    (c1, c2), = _whole_leg_contractions(frames, grid.calc, frames.e2, (frames.e1,))
    beta1, beta2 = an.grad_beta
    r1, r2 = an.res_connection
    assert _same_bits(r1, c1 - an.tan_beta * beta2)
    assert _same_bits(r2, c2 - (-an.tan_beta * (beta1 + 2.0)))


def _state(grid):
    """Reference: the descent's former per-grid state, formed in one pass.

    (frames, metric, shape, E, max|H|) with H taken as 0 on masked nodes.
    """
    frames = contact_angle_field(grid)
    metric = grid.geometry[2]
    shape = shape_operator(grid, frames)
    H = np.where(frames.mask, 0.0, shape.H)
    E = float(np.sum(H ** 2 * metric.sqrt_det * grid.calc.quad_weights))
    return frames, metric, shape, E, float(np.max(np.abs(H)))


def _willmore_gradient(grid, frames, metric, shape):
    """Reference: the former nodal first variation of E, H = 0 on masked nodes."""
    H = np.where(frames.mask, 0.0, shape.H)
    return laplace_beltrami(H, metric, grid) + 2.0 * H * (H ** 2 - shape.det + 1.0)


FLOW_FIELD_CASES = {
    "clifford_bump": LAZY_CASES["clifford_bump"],
    "rtorus_0.9": LAZY_CASES["rtorus_0.9"],
    "rotated_cap_9": lambda: _rotated_polar_cap(9, seed=5),
}


@pytest.mark.parametrize("case", sorted(FLOW_FIELD_CASES))
def test_descent_fields_match_former_state_bitwise(case):
    grid = FLOW_FIELD_CASES[case]()
    frames, metric, shape, E, maxH = _state(grid)
    an = build_analysis(grid)
    assert an.frames.n_masked == (case == "rotated_cap_9")
    assert _same_bits(an.energy, E) and type(an.energy) is float
    assert _same_bits(an.max_H, maxH) and type(an.max_H) is float
    assert _same_bits(an.H, np.where(frames.mask, 0.0, shape.H))
    assert _same_bits(an.willmore_G, _willmore_gradient(grid, frames, metric, shape))


KERNELS = ("shape_operator", "frame_gradient", "laplace_beltrami")


@pytest.fixture
def kernel_calls(monkeypatch):
    """Count the calls of each field kernel the analysis forms, and list the
    analyses formed: (calls, analyses)."""
    calls = dict.fromkeys(KERNELS, 0)
    analyses = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    class Recorded(calculus.SurfaceAnalysis):
        def __init__(self, grid):
            super().__init__(grid)
            analyses.append(self)

    for name in KERNELS:
        monkeypatch.setattr(calculus, name, counted(name, getattr(calculus, name)))
    monkeypatch.setattr(calculus, "SurfaceAnalysis", Recorded)
    return calls, analyses


def _formed_connections(analyses):
    """Whether each analysis formed its connection residuals: a cached_property
    stores each field it forms in the instance __dict__."""
    return ["res_connection" in vars(an) for an in analyses]


# the kernels each identity must not form; every other kernel runs once a level
UNREAD = {
    "curvature": {"shape_operator", "laplace_beltrami"},
    "laplacian": {"shape_operator"},
    "connection": {"shape_operator", "laplace_beltrami"},
    "gauss": {"frame_gradient", "laplace_beltrami"},
}


@pytest.mark.parametrize("identity", sorted(UNREAD))
def test_verify_forms_only_what_its_identity_reads(identity, kernel_calls, tmp_path):
    calls, analyses = kernel_calls
    levels = [16, 20, 24]
    main(["verify", "--surface", "geodesic_sphere", "--identity", identity,
          "--refine", ",".join(map(str, levels)), "--out", str(tmp_path)])
    assert (tmp_path / f"identity_{identity}.json").exists()
    assert calls == {k: 0 if k in UNREAD[identity] else len(levels)
                     for k in KERNELS}
    assert _formed_connections(analyses) == [identity == "connection"] * len(levels)
    # the leg contractions read e1 and e2 one component at a time, so no
    # identity forms either leg
    assert [{"e1", "e2"} & set(vars(an.frames)) for an in analyses] == (
        [set()] * len(levels))


def test_analyze_never_forms_connection_residuals(kernel_calls, tmp_path):
    calls, analyses = kernel_calls
    assert main(["analyze", "--surface", "rtorus", "--param", "r=0.9",
                 "--grid", "16x16", "--out", str(tmp_path)]) == 0
    assert calls == {"shape_operator": 1, "frame_gradient": 1,
                     "laplace_beltrami": 1}
    assert _formed_connections(analyses) == [False]


def test_analysis_forms_each_field_once(kernel_calls):
    calls, analyses = kernel_calls
    an = build_analysis(geodesic_sphere().sample(n=16))
    assert calls == dict.fromkeys(KERNELS, 0)
    assert _formed_connections(analyses) == [False]
    for _ in range(2):
        an.shape, an.K_ext, an.res_curvature, an.res_laplacian, an.res_connection
    assert calls == dict.fromkeys(KERNELS, 1)
    assert _formed_connections(analyses) == [True]
    assert an.res_connection is an.res_connection
    assert an.K_int is an.K_int


def _traced_peak_fields(fn, spec):
    """The traced peak of fn(), in scalar fields of spec's grid (8 n_u n_v
    bytes); the stencils, cached per grid shape, are built untraced first,
    so the reading does not depend on which test built them."""
    GridCalc(spec)
    tracemalloc.start()
    try:
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (spec.n_u * spec.n_v * 8)


# traced peak of sampling the sphere at 256² and reading one identity's
# residual, in scalar fields of that grid (512 KiB each), 5 % above the
# reading: 32.1 (curvature), 29.4 (laplacian), 31.3 (connection) and 35.3
# (gauss).  A cached inverse metric read 34.1 for laplacian; keeping a
# second tangent pair, all nine Brioschi partials and eight row entries
# alive together, and S beside e3's derivative read 54.8, 46.0, 48.4 and
# 56.0 (13.7, 11.5, 12.1 and 14.0 4-vector fields)
WORKING_SET_FIELDS = {"curvature": 33.7, "laplacian": 30.8, "connection": 32.8,
                      "gauss": 37.0}


@pytest.mark.parametrize("identity", sorted(WORKING_SET_FIELDS))
def test_identity_working_set_at_256(identity):
    entry = geodesic_sphere()
    spec = entry.default_spec(256)
    peak = _traced_peak_fields(
        lambda: verify_identity(build_analysis(entry.sample(spec)), identity), spec)
    assert peak < WORKING_SET_FIELDS[identity]


# traced peak of sampling the sphere at 128² and reading one identity's
# residual, in scalar fields of that grid (128 KiB each).  Forming the
# legs e1 and e2 and e3's or e2's 4-vector derivatives read 45.2 (gauss)
# and 39.3 (connection); summing the contractions one component at a time
# reads 35.3 and 31.3
LEG_CONTRACTION_FIELDS = {"gauss": 37.0, "connection": 33.0}


@pytest.mark.parametrize("identity", sorted(LEG_CONTRACTION_FIELDS))
def test_leg_contraction_working_set_at_128(identity):
    entry = geodesic_sphere()
    spec = entry.default_spec(128)
    peak = _traced_peak_fields(
        lambda: verify_identity(build_analysis(entry.sample(spec)), identity), spec)
    assert peak < LEG_CONTRACTION_FIELDS[identity]


def test_analyze_working_set_at_256(tmp_path):
    # traced peak of one analyze of clifford+bump(1,2) at 256², in scalar
    # fields: 43.2.  Stacking fields.csv as one (256, 256, 12) table, and
    # keeping the inverse metric cached on the analysis, read 60.9
    spec = clifford().default_spec(256)
    argv = ["analyze", "--surface", "clifford", "--param", "eps=0.05",
            "--grid", "256x256", "--out", str(tmp_path)]
    codes = []
    peak = _traced_peak_fields(lambda: codes.append(main(argv)), spec)
    assert codes == [0]
    assert peak < 52.0


def test_degenerate_input_raises_on_first_field_read():
    spec = GridSpec(8, 8, (-1e-5, 1e-5), (-1e-5, 1e-5), "chart", "chart")
    an = build_analysis(sample(_cap, spec))
    with pytest.raises(DegenerateContact):
        an.frames
    with pytest.raises(DegenerateContact):
        an.res_curvature

    def const(U, V):
        out = np.zeros((4,) + U.shape)
        out[0] = 1.0
        return out

    an = build_analysis(sample(const, GridSpec(8, 8)))
    with pytest.raises(DegenerateParametrization):
        an.metric
    with pytest.raises(DegenerateParametrization):
        an.K_int
