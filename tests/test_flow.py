"""Area, Willmore energy, flow steps, descent and the rigidity probes."""

import re

import numpy as np
import pytest

from contactgeom import (DegenerateParametrization, FlowConfig, StepTooLarge,
                         area, build_analysis, calculus, clifford, descend,
                         descend_r_family, flow, flow_step, geodesic_sphere,
                         perturb, r_torus, theorem_probe, willmore_energy)
from contactgeom.cli import main
from contactgeom.flow import MAX_HALVINGS, FlowReport, _moved_points
from contactgeom.gridops import GridCalc


def test_area_clifford():
    grid = clifford().sample(n=64)
    assert abs(area(grid) - 2.0 * np.pi ** 2) < 1e-6


def test_area_r_torus_family():
    for r in (0.4, 0.9):
        grid = r_torus(r).sample(n=64)
        assert abs(area(grid) - 4.0 * np.pi ** 2 * np.sin(r) * np.cos(r)) < 1e-6


def test_area_minimum_grid_positive():
    grid = clifford().sample(n=8)
    assert area(grid) > 0


def test_willmore_zero_on_minimal():
    assert willmore_energy(clifford().sample(n=64)) < 1e-10


def test_willmore_r_torus_closed_form():
    for r in (0.4, 0.6, np.pi / 4, 1.0):
        grid = r_torus(r).sample(n=128)
        h = (np.tan(r) - 1.0 / np.tan(r)) / 2.0
        expected = 4.0 * np.pi ** 2 * np.sin(r) * np.cos(r) * h ** 2
        assert abs(willmore_energy(grid) - expected) < 1e-6


def test_willmore_family_matches_closed_form_across_bracket():
    for r in np.linspace(0.3, 1.2, 7):
        grid = r_torus(float(r)).sample(n=128)
        h = (np.tan(r) - 1.0 / np.tan(r)) / 2.0
        expected = 4.0 * np.pi ** 2 * np.sin(r) * np.cos(r) * h ** 2
        assert abs(willmore_energy(grid) - expected) < 1e-6


def test_willmore_positive_after_bump():
    grid = perturb(clifford(), (1, 2), 0.05).sample(n=32)
    assert willmore_energy(grid) > 1e-4


def test_flow_step_identity():
    grid = clifford().sample(n=16)
    moved = flow_step(grid, np.zeros((16, 16)), 1.0)
    assert np.max(np.abs(moved.points - grid.points)) < 1e-15


def test_flow_step_constant_displacement_moves_along_family():
    # a constant normal displacement of the flat torus lands on a nearby
    # product torus r = pi/4 - c + O(c^2) under this orientation convention
    grid = clifford().sample(n=32)
    c = 0.01
    moved = flow_step(grid, np.full((32, 32), c), 1.0)
    assert np.max(np.abs(np.linalg.norm(moved.points, axis=-1) - 1)) < 1e-14
    r_new = np.pi / 4 - c
    target = r_torus(r_new).sample(n=32)
    assert np.max(np.abs(moved.points - target.points)) < 5.0 * c ** 2


def _smooth_displacement(grid, seed):
    """Random sum of the modes cos(pu + qv + phi), p, q in 0..3."""
    rng = np.random.default_rng(seed)
    U, V = grid.spec.mesh()
    return sum(rng.standard_normal() * np.cos(p * U + q * V + rng.uniform(0, 2 * np.pi))
               for p in range(4) for q in range(4))


def test_nodal_gradient_matches_directional_differences():
    # all 16 modes are summed so psi overlaps the bump's (1, 2) mode; a
    # single mode can be orthogonal to the gradient, with dE ~ 0
    for seed in range(3):
        gaps = []
        for n in (32, 64):
            grid = perturb(clifford(), (1, 2), 0.05).sample(n=n)
            an = build_analysis(grid)
            psi = _smooth_displacement(grid, seed)
            dE = np.sum(an.willmore_G * an.metric.sqrt_det
                        * grid.calc.quad_weights() * psi)
            delta = 1e-5
            Ep, Em = (willmore_energy(grid.with_points(
                _moved_points(grid.points, an.frames.e3, s * delta * psi)))
                for s in (1.0, -1.0))
            dE_fd = (Ep - Em) / (2.0 * delta)
            gaps.append(abs(dE - dE_fd) / abs(dE_fd))
        assert gaps[0] < 1e-3
        assert gaps[1] < 0.1 * gaps[0]


def test_willmore_gradient_r_torus_closed_form():
    # G is constant on a product torus, and a constant displacement c moves
    # r to r - c, so integral G dA = dE/dc = -dE/dr
    for r in (0.4, 0.6, 1.0):
        grid = r_torus(r).sample(n=32)
        an = build_analysis(grid)
        assert np.ptp(an.willmore_G) < 1e-11
        dE_dc = (4.0 * np.pi ** 2 * np.cos(2 * r) * (1.0 + np.sin(2 * r) ** 2)
                 / np.sin(2 * r) ** 2)
        total = np.sum(an.willmore_G * an.metric.sqrt_det * grid.calc.quad_weights())
        assert abs(total - dE_dc) < 1e-5 * abs(dE_dc)


def test_flow_step_too_large():
    # psi = 1 drives the flat torus onto the circle (e^{iu}, 0): the
    # v-direction degenerates and the step must be rejected
    grid = clifford().sample(n=16)
    with pytest.raises(StepTooLarge) as info:
        flow_step(grid, np.ones((16, 16)), 1.0)
    exc = info.value
    assert isinstance(exc.__cause__, DegenerateParametrization)
    found = re.search(r"determinant (\S+) at node \((\d+), (\d+)\)", str(exc))
    assert found is not None
    assert float(found.group(1)) < 1e-10
    assert exc.node == (int(found.group(2)), int(found.group(3)))
    assert exc.node == exc.__cause__.node


def test_line_search_trial_differentiates_moved_points_once(monkeypatch):
    # the Gram check and the trial's state share one tangent computation
    moved_arrays = []
    counts = {}

    def recorded(points, e3, psi):
        moved = _moved_points(points, e3, psi)
        moved_arrays.append(moved)
        counts[id(moved)] = 0
        return moved

    du = GridCalc.du

    def counted(self, f):
        if any(f is m for m in moved_arrays):
            counts[id(f)] += 1
        return du(self, f)

    monkeypatch.setattr(flow, "_moved_points", recorded)
    monkeypatch.setattr(GridCalc, "du", counted)
    grid = perturb(clifford(), (1, 2), 0.05).sample(n=32)
    rep, _ = descend(grid, FlowConfig(max_iter=3, tol=1e-9))
    assert rep.iterations == 3
    assert len(moved_arrays) >= 3
    assert all(counts[id(m)] == 1 for m in moved_arrays)


def test_flow_forms_frames_once_per_analysed_grid(monkeypatch, tmp_path):
    # the start grid and every line-search trial that passes the Gram check
    # are analysed once; the probe reads the final analysis
    framed, checked = [], []
    frames_of, check = calculus.contact_angle_field, flow._check_step

    def counted(grid):
        framed.append(grid)
        return frames_of(grid)

    def recorded(grid, moved):
        checked.append(check(grid, moved))
        return checked[-1]

    monkeypatch.setattr(calculus, "contact_angle_field", counted)
    monkeypatch.setattr(flow, "_check_step", recorded)
    assert main(["flow", "--surface", "clifford", "--param", "eps=0.05",
                 "--grid", "32x32", "--out", str(tmp_path)]) == 0
    assert len(checked) >= 8
    assert len(framed) == 1 + len(checked)
    assert all(a is b for a, b in zip(framed[1:], checked))


@pytest.mark.parametrize("kwargs", [{"step": 0.0}, {"step": float("nan")},
                                    {"tol": -1.0}, {"max_iter": -3},
                                    {"step": 1e300}, {"step": float("inf")},
                                    {"step": 2.0 ** MAX_HALVINGS * (1 + 2 ** -52)}])
def test_flow_config_rejects_out_of_range_values(kwargs):
    with pytest.raises(ValueError):
        FlowConfig(**kwargs)


@pytest.mark.filterwarnings("error")
def test_largest_step_still_converges():
    # MAX_HALVINGS halvings take the largest accepted step down to 1
    grid = perturb(clifford(), (1, 2), 0.05).sample(n=16)
    rep, _ = descend(grid, FlowConfig(step=2.0 ** MAX_HALVINGS))
    assert rep.converged


def test_descend_already_minimal():
    grid = clifford().sample(n=32)
    rep, final = descend(grid, FlowConfig(max_iter=10, tol=1e-3))
    assert rep.converged
    assert rep.iterations == 0
    assert rep.final_max_H < 1e-8


def test_descend_requires_compact():
    grid = geodesic_sphere().sample(n=32)
    with pytest.raises(ValueError):
        descend(grid, FlowConfig())


def test_descend_zero_steps_not_converged():
    grid = perturb(clifford(), (1, 2), 0.05).sample(n=32)
    rep, _ = descend(grid, FlowConfig(max_iter=0, tol=1e-3))
    assert not rep.converged
    assert rep.iterations == 0


def test_r_only_descent_recovers_quarter_pi():
    rep, grid = descend_r_family(np.pi / 4 + 0.1, n=32)
    assert rep.converged
    assert abs(rep.r_final - np.pi / 4) < 1e-6
    assert rep.energy[-1] < 1e-12


def test_full_descent_from_bump(flow_run):
    rep, final = flow_run
    assert rep.converged
    assert rep.iterations <= 8
    assert rep.final_max_H < 1e-3
    # accepted backtracking steps decrease the energy strictly
    diffs = np.diff(rep.energy)
    assert np.all(diffs < 0)


def test_theorem_probe_pass_chain(flow_run):
    rep, final = flow_run
    probe = theorem_probe(rep, final)
    assert probe["status"] == "pass"
    assert probe["beta_spread"] < 5e-3
    assert probe["K_inf"] < 5e-3


def test_nodal_descent_converges_at_64():
    # a 16x16 control space stalled here at max|H| ~ 5.5e-3
    grid = perturb(clifford(), (1, 2), 0.05).sample(n=64)
    rep, final = descend(grid, FlowConfig())
    assert rep.converged
    assert theorem_probe(rep, final)["status"] == "pass"


def test_theorem_probe_not_applicable_on_sphere():
    an = build_analysis(geodesic_sphere().sample(n=32))
    rep = FlowReport(converged=True, iterations=0, energy=[an.energy],
                     final_max_H=an.max_H, beta_max=0.0, beta_mean=0.0,
                     beta_spread=0.0)
    probe = theorem_probe(rep, an)
    assert probe["status"] == "not_applicable"


def test_theorem_probe_inconclusive():
    grid = perturb(clifford(), (1, 2), 0.05).sample(n=32)
    rep, final = descend(grid, FlowConfig(max_iter=0))
    probe = theorem_probe(rep, final)
    assert probe["status"] == "inconclusive"


@pytest.fixture(scope="session")
def flow_run():
    grid = perturb(clifford(), (1, 2), 0.05).sample(n=32)
    return descend(grid, FlowConfig(step=1.0, max_iter=500, tol=1e-3))
