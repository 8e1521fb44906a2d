"""Metric, shape operator, curvatures, Laplace-Beltrami and the identity suite."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactgeom import calculus
from contactgeom import (DegenerateContact, DegenerateMetric,
                         DegenerateParametrization, GridSpec, build_analysis,
                         first_fundamental_form, frame_gradient,
                         gaussian_curvature_intrinsic,
                         laplace_beltrami, refinement_study, sample,
                         shape_operator, verify_curvature_identity,
                         verify_laplacian_identity, verify_minimality)
from contactgeom.calculus import (TAN_BAND_DEFAULT, _connection_residuals,
                                  gaussian_curvature_extrinsic, observed_order,
                                  refinement_passed, tan_pole_distance)
from contactgeom.catalog import clifford, geodesic_sphere, perturb, r_torus
from contactgeom.cli import main
from contactgeom.surface import MetricField, contact_angle_field
from test_surface import _rotated_polar_cap

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
    assert an.metric is first_fundamental_form(grid)


# ---------------------------------------------------------- shape operator

def test_shape_operator_clifford(cliff64):
    _, an = cliff64
    target = np.array([[0.0, -1.0], [-1.0, 0.0]])
    assert np.max(np.abs(an.shape.S - target)) < 1e-6
    assert np.max(np.abs(an.shape.H)) < 1e-8
    assert np.max(np.abs(an.shape.det + 1.0)) < 1e-6
    assert an.shape.symmetry_defect < 1e-7


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


def test_degenerate_metric_names_node():
    E = np.ones((8, 8))
    E[3, 5] = 0.0
    with pytest.raises(DegenerateMetric) as exc:
        MetricField(E=E, F=np.zeros((8, 8)), G=np.ones((8, 8)))
    assert exc.value.node == (3, 5)
    assert "(3, 5)" in str(exc.value)


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
    w = (grid.points[..., 0::2] + 1j * grid.points[..., 1::2]) @ A.T
    moved = build_analysis(grid.with_points(
        np.stack([w[..., 0].real, w[..., 0].imag, w[..., 1].real, w[..., 1].imag], -1)))
    assert np.max(np.abs(moved.frames.beta - an.frames.beta)) < 1e-13
    assert np.max(np.abs(moved.K_ext - an.K_ext)) < 1e-12


# ---------------------------------------------------------- frame gradient

def test_frame_gradient_constant_field(cliff64):
    grid, an = cliff64
    g = frame_gradient(np.full((64, 64), 0.37), an.frames, grid)
    assert np.max(np.abs(g.beta1)) < 1e-12
    assert np.max(np.abs(g.beta2)) < 1e-12


def test_frame_gradient_clifford_beta(cliff64):
    grid, an = cliff64
    assert np.max(np.abs(an.grad_beta.beta1)) < 1e-9
    assert np.max(np.abs(an.grad_beta.beta2)) < 1e-9


def test_frame_gradient_sphere_analytic(sphere64):
    grid, an = sphere64
    # beta = pi/2 - theta and e1 = +X_theta, so d beta(e1) = -1, d beta(e2) = 0
    assert np.max(np.abs(an.grad_beta.beta1 + 1.0)) < 1e-6
    assert np.max(np.abs(an.grad_beta.beta2)) < 1e-6


# --------------------------------------------------------- Laplace-Beltrami

def test_laplace_constant_zero(sphere64):
    grid, an = sphere64
    lap = laplace_beltrami(np.full((64, 64), 1.234), an.metric, grid)
    assert np.max(np.abs(lap)) < 1e-10


def test_laplace_sphere_eigenfunction():
    grid = geodesic_sphere().sample(n=128)
    metric = first_fundamental_form(grid)
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
                         c * np.cos(V), c * np.sin(V)], axis=-1)

    grid = sample(patch, spec)
    flat = MetricField(E=np.full((32, 32), 0.5), F=np.zeros((32, 32)),
                       G=np.full((32, 32), 0.5))
    U, _ = grid.spec.mesh()
    lap = laplace_beltrami(0.7 * U, flat, grid)
    assert np.max(np.abs(lap)) < 1e-8


def test_laplace_self_adjoint_periodic():
    grid = clifford().sample(n=32)
    metric = first_fundamental_form(grid)
    w = grid.calc.quad_weights()
    a = RNG.normal(size=(32, 32))
    b = RNG.normal(size=(32, 32))
    la = laplace_beltrami(a, metric, grid)
    lb = laplace_beltrami(b, metric, grid)
    s1 = np.sum(a * lb * metric.sqrt_det * w)
    s2 = np.sum(b * la * metric.sqrt_det * w)
    assert abs(s1 - s2) < 1e-8


# ------------------------------------------------------------- identities

def test_curvature_identity_clifford(cliff64):
    grid, an = cliff64
    rep = verify_curvature_identity(an)
    assert rep.linf < 1e-8


def test_curvature_identity_sphere_refines():
    rep = refinement_study(geodesic_sphere(), "curvature", [32, 64, 128])
    assert rep.order is not None and rep.order >= 1.7
    assert refinement_passed(rep)


def test_curvature_identity_gauge_invariant():
    # flipping the e1 gauge flips beta to pi - beta but leaves the residual
    grid = geodesic_sphere().sample(n=32)
    an = build_analysis(grid)
    ff = contact_angle_field(grid)
    ff.e1, ff.e2 = -ff.e1, -ff.e2
    ff.coeff1, ff.coeff2 = -ff.coeff1, -ff.coeff2
    ff.beta = np.pi - ff.beta
    shape = shape_operator(grid, ff)
    gb = frame_gradient(ff.beta, ff, grid)
    K = gaussian_curvature_intrinsic(an.metric, grid)
    res_flipped = K - (1.0 - (gb.beta1 + 1.0) ** 2 - gb.beta2 ** 2)
    assert np.max(np.abs(res_flipped - an.res_curvature)) < 1e-9
    # H is gauge-invariant as well
    assert np.max(np.abs(shape.H - an.shape.H)) < 1e-12


def test_laplacian_identity_clifford_exact(cliff64):
    grid, an = cliff64
    rep = verify_laplacian_identity(an)
    assert rep.linf < 1e-12
    assert rep.n_excluded == 0


def test_laplacian_identity_sphere_refines():
    rep = refinement_study(geodesic_sphere(), "laplacian", [32, 64, 128],
                           band=0.05)
    assert rep.order is not None and rep.order >= 1.7
    assert refinement_passed(rep)


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
    rep = refinement_study(geodesic_sphere(), "connection", [32, 64, 128],
                           band=0.05)
    assert rep.order is not None and rep.order >= 1.7
    assert rep.linf < 1e-4


def _band_residuals_reference(grid, band):
    """Laplacian and connection residuals re-derived per band from an analysis."""
    an = build_analysis(grid)
    pole = tan_pole_distance(an.frames.beta) < band
    valid = an.valid & ~pole
    tan_beta = np.where(pole, 0.0, np.tan(an.frames.beta))
    gb = an.grad_beta
    lap = an.lap_beta + tan_beta * ((gb.beta1 + 2.0) ** 2 + gb.beta2 ** 2)
    de2_u = grid.calc.du(an.frames.e2)
    de2_v = grid.calc.dv(an.frames.e2)
    comp = [np.sum((c[..., 0, None] * de2_u + c[..., 1, None] * de2_v)
                   * an.frames.e1, -1)
            for c in (an.frames.coeff1, an.frames.coeff2)]
    res1 = comp[0] - tan_beta * gb.beta2
    res2 = comp[1] - (-tan_beta * (gb.beta1 + 2.0))
    conn = np.maximum(np.abs(res1), np.abs(res2))
    return {"laplacian": (lap, valid), "connection": (conn, valid)}


@pytest.mark.parametrize("identity", ["laplacian", "connection"])
def test_refinement_wide_band_excludes_pole_rows(identity):
    # beta = arcsin(x2) comes within 0.2 of a tan pole at the chart edges,
    # so a 0.3 band drops whole rows of nodes there
    rep = refinement_study(geodesic_sphere(), identity, [32, 64, 128], band=0.3)
    assert [level[3] for level in rep.levels] == [128, 384, 1280]
    for (n, linf, _, excluded) in rep.levels:
        res, valid = _band_residuals_reference(geodesic_sphere().sample(n=n),
                                               0.3)[identity]
        assert excluded == int(np.sum(~valid))
        assert linf == float(np.max(np.abs(res[valid])))


def test_connection_constant_angle_r_torus():
    # with constant beta the components reduce to 0 and -2 tan(beta); here
    # beta = 0 identically so both vanish
    grid = r_torus(np.pi / 3).sample(n=64)
    an = build_analysis(grid)
    r1, r2 = an.res_connection
    assert np.max(np.abs(r1)) < 1e-4
    assert np.max(np.abs(r2)) < 1e-4


def test_minimality_summary():
    rep = verify_minimality(build_analysis(clifford().sample(n=64)))
    assert rep["max"] < 1e-8
    rep = verify_minimality(build_analysis(geodesic_sphere().sample(n=64)))
    assert rep["max"] < 5e-6
    grid = r_torus(np.pi / 3).sample(n=64)
    rep = verify_minimality(build_analysis(grid))
    expected = (np.sqrt(3) - 1 / np.sqrt(3)) / 2
    assert abs(rep["max"] - expected) < 1e-4


def test_observed_order_floor():
    assert observed_order([32, 64, 128], [1e-14, 2e-14, 1.5e-14]) is None


def test_refinement_needs_three_levels():
    with pytest.raises(ValueError):
        refinement_study(geodesic_sphere(), "curvature", [32, 64])


# ------------------------------------------------------- lazy analysis

def _eager_analysis(grid, band=TAN_BAND_DEFAULT):
    """Reference: every field of an analysis formed up front, in one pass."""
    frames = contact_angle_field(grid)
    metric = first_fundamental_form(grid)
    shape = shape_operator(grid, frames)
    K_int = gaussian_curvature_intrinsic(metric, grid)
    K_ext = gaussian_curvature_extrinsic(shape)
    gb = frame_gradient(frames.beta, frames, grid)
    lap = laplace_beltrami(frames.beta, metric, grid)
    tan_band = tan_pole_distance(frames.beta) < band

    res_curv = K_int - (1.0 - (gb.beta1 + 1.0) ** 2 - gb.beta2 ** 2)
    tan_beta = np.where(tan_band, 0.0, np.tan(frames.beta))
    res_lap = lap + tan_beta * ((gb.beta1 + 2.0) ** 2 + gb.beta2 ** 2)

    res_conn = _connection_residuals(grid, frames, gb, tan_beta)
    return dict(frames=frames, metric=metric, shape=shape, K_int=K_int,
                K_ext=K_ext, grad_beta=gb, lap_beta=lap, tan_band=tan_band,
                res_curvature=res_curv, res_laplacian=res_lap,
                res_connection=res_conn)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _arrays(name, value):
    """(label, array) pairs of an analysis field, taken apart to its arrays."""
    if isinstance(value, tuple):
        return [(f"{name}[{k}]", v) for k, v in enumerate(value)]
    if hasattr(value, "__dict__"):
        return [(f"{name}.{k}", v) for k, v in vars(value).items()]
    return [(name, value)]


def _cap(A, B):
    out = np.zeros(A.shape + (4,))
    out[..., 0] = np.sqrt(1.0 - A ** 2 - B ** 2)
    out[..., 2] = A
    out[..., 3] = B
    return out


LAZY_CASES = {
    "clifford": lambda: clifford().sample(n=32),
    "rtorus_0.9": lambda: r_torus(0.9).sample(n=32),
    "geodesic_sphere": lambda: geodesic_sphere().sample(n=32),
    "clifford_bump": lambda: perturb(clifford(), (1, 2), 0.05).sample(n=32),
    "masked_cap_9": lambda: sample(_cap, GridSpec(9, 9, (-0.3, 0.3), (-0.3, 0.3),
                                                  "chart", "chart")),
}


@pytest.mark.parametrize("band", [TAN_BAND_DEFAULT, 0.3])
@pytest.mark.parametrize("case", sorted(LAZY_CASES))
def test_lazy_analysis_matches_eager_reference_bitwise(case, band):
    grid = LAZY_CASES[case]()
    ref = _eager_analysis(grid, band)
    an = build_analysis(grid, band)
    if case == "masked_cap_9":
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
    assert checked == 25
    assert an.band == band and an.grid is grid


def _state(grid):
    """Reference: the descent's former per-grid state, formed in one pass.

    (frames, metric, shape, E, max|H|) with H taken as 0 on masked nodes.
    """
    frames = contact_angle_field(grid)
    metric = first_fundamental_form(grid)
    shape = shape_operator(grid, frames)
    H = np.where(frames.mask, 0.0, shape.H)
    E = float(np.sum(H ** 2 * metric.sqrt_det * grid.calc.quad_weights()))
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


KERNELS = ("shape_operator", "frame_gradient", "laplace_beltrami",
           "_connection_residuals")


@pytest.fixture
def kernel_calls(monkeypatch):
    """Count the calls of each field kernel the analysis forms."""
    calls = dict.fromkeys(KERNELS, 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in KERNELS:
        monkeypatch.setattr(calculus, name, counted(name, getattr(calculus, name)))
    return calls


# the kernels each identity must not form; every other kernel runs once a level
UNREAD = {
    "curvature": {"shape_operator", "laplace_beltrami", "_connection_residuals"},
    "laplacian": {"shape_operator", "_connection_residuals"},
    "connection": {"shape_operator", "laplace_beltrami"},
    "gauss": {"frame_gradient", "laplace_beltrami", "_connection_residuals"},
}


@pytest.mark.parametrize("identity", sorted(UNREAD))
def test_verify_forms_only_what_its_identity_reads(identity, kernel_calls, tmp_path):
    levels = [16, 20, 24]
    main(["verify", "--surface", "geodesic_sphere", "--identity", identity,
          "--refine", ",".join(map(str, levels)), "--out", str(tmp_path)])
    assert (tmp_path / f"identity_{identity}.json").exists()
    assert kernel_calls == {k: 0 if k in UNREAD[identity] else len(levels)
                            for k in KERNELS}


def test_analyze_never_forms_connection_residuals(kernel_calls, tmp_path):
    assert main(["analyze", "--surface", "rtorus", "--param", "r=0.9",
                 "--grid", "16x16", "--out", str(tmp_path)]) == 0
    assert kernel_calls == {"shape_operator": 1, "frame_gradient": 1,
                            "laplace_beltrami": 1, "_connection_residuals": 0}


def test_analysis_forms_each_field_once(kernel_calls):
    an = build_analysis(geodesic_sphere().sample(n=16))
    assert kernel_calls == dict.fromkeys(KERNELS, 0)
    for _ in range(2):
        an.shape, an.K_ext, an.res_curvature, an.res_laplacian, an.res_connection
    assert kernel_calls == dict.fromkeys(KERNELS, 1)
    assert an.res_connection is an.res_connection
    assert an.K_int is an.K_int


def test_degenerate_input_raises_on_first_field_read():
    spec = GridSpec(8, 8, (-1e-5, 1e-5), (-1e-5, 1e-5), "chart", "chart")
    an = build_analysis(sample(_cap, spec))
    with pytest.raises(DegenerateContact):
        an.frames
    with pytest.raises(DegenerateContact):
        an.res_curvature

    def const(U, V):
        out = np.zeros(U.shape + (4,))
        out[..., 0] = 1.0
        return out

    an = build_analysis(sample(const, GridSpec(8, 8)))
    with pytest.raises(DegenerateParametrization):
        an.metric
    with pytest.raises(DegenerateParametrization):
        an.K_int
