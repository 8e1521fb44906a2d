"""Area, Willmore energy, the normal move, descent and the rigidity probes."""

import json
import re

import numpy as np
import pytest

from contactgeom import (DegenerateParametrization, FlowConfig,
                         build_analysis, calculus, cli, clifford, descend, flow,
                         geodesic_sphere, perturb, r_torus, theorem_probe)
from contactgeom.cli import main
from contactgeom.flow import FlowReport, _check_step
from contactgeom.gridops import GridCalc
from contactgeom.surface import GridSpec, _moved_points, sample


def test_area_clifford():
    grid = clifford().sample(n=64)
    assert abs(build_analysis(grid).area - 2.0 * np.pi ** 2) < 1e-6


def test_area_r_torus_family():
    for r in (0.4, 0.9):
        grid = r_torus(r).sample(n=64)
        assert abs(build_analysis(grid).area - 4.0 * np.pi ** 2 * np.sin(r) * np.cos(r)) < 1e-6


def test_area_minimum_grid_positive():
    grid = clifford().sample(n=8)
    assert build_analysis(grid).area > 0


def test_willmore_zero_on_minimal():
    assert build_analysis(clifford().sample(n=64)).energy < 1e-10


def test_willmore_r_torus_closed_form():
    for r in (0.4, 0.6, np.pi / 4, 1.0):
        grid = r_torus(r).sample(n=128)
        h = (np.tan(r) - 1.0 / np.tan(r)) / 2.0
        expected = 4.0 * np.pi ** 2 * np.sin(r) * np.cos(r) * h ** 2
        assert abs(build_analysis(grid).energy - expected) < 1e-6


def test_willmore_family_matches_closed_form_across_bracket():
    for r in np.linspace(0.3, 1.2, 7):
        grid = r_torus(float(r)).sample(n=128)
        h = (np.tan(r) - 1.0 / np.tan(r)) / 2.0
        expected = 4.0 * np.pi ** 2 * np.sin(r) * np.cos(r) * h ** 2
        assert abs(build_analysis(grid).energy - expected) < 1e-6


def test_willmore_positive_after_bump():
    grid = perturb(clifford(), (1, 2), 0.05).sample(n=32)
    assert build_analysis(grid).energy > 1e-4


def _normal_move(grid, psi):
    """The grid's points moved along its normals by psi, the one normal move
    of the catalog's bumps and the descent's trials."""
    return _moved_points(grid.points, build_analysis(grid).frames.e3, psi)


def test_flow_step_identity():
    grid = clifford().sample(n=16)
    moved = _normal_move(grid, np.zeros((16, 16)))
    assert np.max(np.abs(moved - grid.points)) < 1e-15


def test_flow_step_constant_displacement_moves_along_family():
    # a constant normal displacement of the flat torus lands on a nearby
    # product torus r = pi/4 - c + O(c^2) under this orientation convention
    grid = clifford().sample(n=32)
    c = 0.01
    moved = _normal_move(grid, np.full((32, 32), c))
    assert np.max(np.abs(np.linalg.norm(moved, axis=0) - 1)) < 1e-14
    r_new = np.pi / 4 - c
    target = r_torus(r_new).sample(n=32)
    assert np.max(np.abs(moved - target.points)) < 5.0 * c ** 2


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
                        * grid.calc.quad_weights * psi)
            delta = 1e-5
            Ep, Em = (build_analysis(grid.with_points(
                _moved_points(grid.points, an.frames.e3, s * delta * psi))).energy
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
        total = np.sum(an.willmore_G * an.metric.sqrt_det * grid.calc.quad_weights)
        assert abs(total - dE_dc) < 1e-5 * abs(dE_dc)


def test_flow_step_too_large():
    # psi = 1 drives the flat torus onto the circle (e^{iu}, 0): the
    # v-direction degenerates and the line search's check rejects the step
    grid = clifford().sample(n=16)
    with pytest.raises(DegenerateParametrization) as info:
        _check_step(grid, _normal_move(grid, np.ones((16, 16))))
    exc = info.value
    found = re.search(r"determinant (\S+) at node \((\d+), (\d+)\)", str(exc))
    assert found is not None
    assert float(found.group(1)) < 1e-10
    assert exc.node == (int(found.group(2)), int(found.group(3)))


def test_line_search_halves_a_collapsed_trial(monkeypatch):
    # the first trial, psi = 1, collapses the flat torus as above; the search
    # halves it and goes on until t * max|psi| is below eps: 53 trials at
    # t = 1 .. 2^-52, none of which lowers the energy of the minimal torus
    outcomes = []

    def recorded(grid, moved):
        try:
            cand = _check_step(grid, moved)
        except DegenerateParametrization:
            outcomes.append("collapsed")
            raise
        outcomes.append("moved")
        return cand

    monkeypatch.setattr(flow, "_check_step", recorded)
    an = build_analysis(clifford().sample(n=16))
    assert flow._line_search(an, np.ones((16, 16)), -1.0) is None
    assert outcomes[0] == "collapsed"
    assert len(outcomes) == 53


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
    # tol 1e-12 is out of reach in 8 steps, so the run makes 8 trials or more
    assert main(["flow", "--surface", "clifford", "--param", "eps=0.05",
                 "--grid", "32x32", "--steps", "8", "--tol", "1e-12",
                 "--out", str(tmp_path)]) == 5
    assert len(checked) >= 8
    assert len(framed) == 1 + len(checked)
    assert all(a is b for a, b in zip(framed[1:], checked))


@pytest.mark.parametrize("kwargs", [{"tol": 0.0}, {"tol": float("nan")},
                                    {"tol": -1.0}, {"max_iter": -3},
                                    {"tol": float("inf")}])
def test_flow_config_rejects_out_of_range_values(kwargs):
    with pytest.raises(ValueError):
        FlowConfig(**kwargs)


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
    assert rep.message == "iteration cap reached"


def test_full_descent_from_bump(flow_run):
    rep, final = flow_run
    assert rep.converged
    assert rep.iterations <= 8
    assert rep.final_max_H < 1e-3
    # accepted backtracking steps decrease the energy strictly
    diffs = np.diff([E for _, E, _, _ in rep.trace])
    assert np.all(diffs < 0)


def test_theorem_probe_pass_chain(flow_run):
    rep, final = flow_run
    probe = theorem_probe(rep, final)
    assert probe["status"] == "pass"
    assert probe["beta_spread"] < 5e-3
    assert probe["K_inf"] < 5e-3


@pytest.mark.parametrize("n, eps", [(32, 0.045), (32, 0.05), (32, 0.055),
                                    (64, 0.05)])
def test_bump_descent_takes_three_steps(monkeypatch, n, eps):
    # the first step is Newton's at Clifford, so across the benchmark's band
    # the descent makes 3 steps of one accepted trial each: 4 analyses
    analysed = []
    build = flow.build_analysis

    def counted(grid):
        analysed.append(grid)
        return build(grid)

    monkeypatch.setattr(flow, "build_analysis", counted)
    grid = perturb(clifford(), (1, 2), eps).sample(n=n)
    rep, final = descend(grid, FlowConfig())
    assert rep.converged
    assert rep.iterations == 3
    assert len(analysed) == 4
    assert theorem_probe(rep, final)["status"] == "pass"


def _preconditioned_gradient(an):
    return -flow.STEP_SCALE * flow._precondition(
        an.willmore_G * an.metric.sqrt_det)


def _close(a, b):
    return np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))


def _record_directions(monkeypatch, flip=False):
    """Record (g, memory size, direction) of every L-BFGS direction; with
    flip, directions formed from a non-empty memory point uphill."""
    formed = []
    lbfgs = flow._lbfgs_direction

    def recorded(g, w, memory):
        d = lbfgs(g, w, memory)
        if flip and memory:
            d = -d
        formed.append((g, len(memory), d))
        return d

    monkeypatch.setattr(flow, "_lbfgs_direction", recorded)
    return formed


def _record_searches(monkeypatch, stall):
    """Record the analysis each line search starts from; stall(k) makes the
    k-th search (counted from 1) fail as if no trial passed."""
    started = []
    search = flow._line_search

    def recorded(an, direction, slope):
        started.append(an)
        return None if stall(len(started)) else search(an, direction, slope)

    monkeypatch.setattr(flow, "_line_search", recorded)
    return started


def test_first_direction_is_the_scaled_preconditioned_gradient(monkeypatch):
    formed = _record_directions(monkeypatch)
    grid = perturb(clifford(), (1, 2), 0.05).sample(n=32)
    descend(grid, FlowConfig(max_iter=1))
    _, held, d = formed[0]
    assert held == 0
    assert _close(d, _preconditioned_gradient(build_analysis(grid)))


@pytest.mark.parametrize("mode, tol", [((1, 2), 1e-2), ((2, 3), 3e-2),
                                       ((3, 1), 3e-2)])
def test_first_direction_is_newtons_step_at_clifford(mode, tol):
    # H0 = STEP_SCALE * P(. / w) inverts the Hessian of E at the Clifford
    # torus, so from a small bump the first direction takes the bump off;
    # the scale (2 pi / 16)^2 would take off 4 % of it
    n, eps = 32, 1e-3
    grid = perturb(clifford(), mode, eps).sample(n=n)
    an = build_analysis(grid)
    w = grid.calc.quad_weights
    d = flow._lbfgs_direction(an.willmore_G * an.metric.sqrt_det * w, w, [])
    u = 2.0 * np.pi * np.arange(n) / n
    bump = eps * np.outer(np.sin(mode[0] * u), np.sin(mode[1] * u))
    assert np.max(np.abs(d + bump)) < tol * eps


def test_line_search_stops_at_the_roundoff_of_the_points(monkeypatch):
    # trial k moves a point by at most 2^-k * 1e-10, below eps from k = 19 on
    trials = []

    def recorded(points, e3, psi):
        trials.append(psi)
        return _moved_points(points, e3, psi)

    monkeypatch.setattr(flow, "_moved_points", recorded)
    an = build_analysis(clifford().sample(n=16))
    assert flow._line_search(an, np.full((16, 16), 1e-10), -1e30) is None
    assert len(trials) == 19


def test_every_direction_descends(monkeypatch):
    formed = _record_directions(monkeypatch)
    grid = perturb(clifford(), (1, 2), 0.05).sample(n=32)
    rep, _ = descend(grid, FlowConfig(max_iter=8, tol=1e-12))
    assert rep.iterations == 8
    assert len(formed) == 8  # one direction per iteration
    assert max(held for _, held, _ in formed) == flow.LBFGS_MEMORY
    assert all(float(np.sum(g * d)) < 0 for g, _, d in formed)


def _hopf_torus(a):
    """e^{it} (cos r(s), sin r(s) e^{is}) over r(s) = pi/4 + a sin 2s: it
    holds the Reeb fibres, so beta and K vanish, but H does not."""
    def point(T, S):
        r = np.pi / 4 + a * np.sin(2.0 * S)
        return np.stack([np.cos(r) * np.cos(T), np.cos(r) * np.sin(T),
                         np.sin(r) * np.cos(T + S), np.sin(r) * np.sin(T + S)])
    return point


def _hopf_grid(a, n=32):
    period = (0.0, 2.0 * np.pi)
    return sample(_hopf_torus(a),
                  GridSpec(n, n, period, period, "periodic", "periodic"))


def test_descent_from_a_hopf_torus():
    grid = _hopf_grid(0.1)
    assert build_analysis(grid).max_H > 0.5
    rep, final = descend(grid, FlowConfig(tol=1e-6))
    assert rep.converged
    assert rep.iterations <= 60
    assert theorem_probe(rep, final)["status"] == "pass"


def test_newtons_step_is_held_to_its_slope_from_a_hopf_torus():
    # Newton's first step from here has slope 3.1 and reaches 1.1; held to
    # NEWTON_SLOPE the descent reaches tol 1e-5 in 41 steps, where the
    # unheld step's descent ends its 400-step cap at max|H| 2.7e-5
    rep, final = descend(_hopf_grid(0.2, n=64), FlowConfig(tol=1e-5,
                                                          max_iter=150))
    assert rep.converged
    assert theorem_probe(rep, final)["status"] == "pass"


def test_empty_memory_direction_is_held_to_newton_slope():
    # the held direction is the unheld one shortened to slope NEWTON_SLOPE;
    # across the benchmark's bump band the slope is under it (0.15 at 0.055)
    an = build_analysis(_hopf_grid(0.15))
    w = an.grid.calc.quad_weights
    d = flow._lbfgs_direction(an.willmore_G * an.metric.sqrt_det * w, w, [])
    held = flow._within_newton_slope(d, an)
    a, b = calculus.frame_gradient(held, an.frames, an.grid)
    assert abs(np.sqrt(np.max(a ** 2 + b ** 2)) - flow.NEWTON_SLOPE) < 1e-9
    assert _close(held / np.max(np.abs(held)), d / np.max(np.abs(d)))
    bump = build_analysis(perturb(clifford(), (1, 2), 0.055).sample(n=32))
    d = flow._lbfgs_direction(bump.willmore_G * bump.metric.sqrt_det * w, w, [])
    assert flow._within_newton_slope(d, bump) is d


@pytest.mark.parametrize("mode", ["m=3,n=1", "m=1,n=3"])
def test_flow_from_a_steep_bump_passes_the_probe(mode, tmp_path):
    # Newton's unheld first step (slope 0.37) ended this start at |K| 9.2e-3
    params = [a for p in mode.split(",") for a in ("--param", p)]
    out = tmp_path / "out"
    assert main(["flow", "--surface", "clifford", "--param", "eps=0.1", *params,
                 "--grid", "32x32", "--out", str(out)]) == 0
    rep = json.loads((out / "flow_report.json").read_text())
    assert rep["converged"] and rep["probe"]["status"] == "pass"


def test_full_descent_from_a_product_torus(tmp_path, monkeypatch):
    # starts on both sides of the Clifford radius pi/4 reach |z1|^2 = 1/2
    finals = []

    def keep_final(grid, cfg):
        report, final = descend(grid, cfg)
        finals.append(final)
        return report, final

    monkeypatch.setattr(cli, "descend", keep_final)
    for r0 in (0.4, 0.70, np.pi / 4 + 0.1, 1.0):
        out = tmp_path / f"r{r0:.4f}"
        assert main(["flow", "--surface", "rtorus", "--param", f"r={r0!r}",
                     "--grid", "32x32", "--tol", "1e-6", "--out", str(out)]) == 0, r0
        rep = json.loads((out / "flow_report.json").read_text())
        assert rep["converged"] and rep["probe"]["status"] == "pass", r0
        assert rep["iterations"] <= 6, (r0, rep["iterations"])
        assert rep["energy_final"] < 1e-12, r0
        trace = (out / "trace.csv").read_text().splitlines()
        assert trace[0] == "iteration,energy,max_H,beta_spread"
        assert len(trace) == rep["iterations"] + 2  # header and the initial grid
        z = finals[-1].grid.points
        assert np.max(np.abs(z[0] ** 2 + z[1] ** 2 - 0.5)) < 1e-6, r0


@pytest.mark.parametrize("flip, stall, iterations, searches", [
    (False, lambda k: k == 3, 2, 3),  # the third search stalls, memory held
    (True, lambda k: False, 1, 1),    # the first direction from a memory is uphill
], ids=["stalled_search", "uphill_direction"])
def test_a_stalled_direction_ends_the_run(monkeypatch, flip, stall, iterations,
                                          searches):
    formed = _record_directions(monkeypatch, flip=flip)
    started = _record_searches(monkeypatch, stall=stall)
    grid = perturb(clifford(), (1, 2), 0.05).sample(n=32)
    rep, _ = descend(grid, FlowConfig(max_iter=10, tol=1e-12))
    assert rep.message == "line search stalled"
    assert rep.iterations == iterations
    assert len(formed) == iterations + 1    # one direction per iteration
    assert formed[-1][1] > 0                # the last one from a memory
    assert len(started) == searches         # none along an uphill one
    assert len({id(an) for an in started}) == len(started)  # none retried


@pytest.mark.parametrize("surface, max_iter, tol, converged, iterations, message", [
    (clifford(), 500, 1e-3, True, 0, "already at tolerance"),
    (perturb(clifford(), (1, 2), 0.05), 500, 1e-3, True, 5, "max|H| below 0.001"),
    (perturb(clifford(), (1, 2), 0.05), 1, 1e-12, False, 1, "iteration cap reached"),
])
def test_descent_stop_messages(surface, max_iter, tol, converged, iterations, message):
    # the stop is read from the analysis the descent ends on and its trace
    rep, _ = descend(surface.sample(n=16), FlowConfig(max_iter=max_iter, tol=tol))
    assert (rep.converged, rep.iterations, rep.message) == (converged, iterations,
                                                            message)
    assert rep.trace[-1].iteration == iterations


def test_descent_stalls_at_the_roundoff_floor(tmp_path):
    # from this start no search is forced to stall: max|H| falls below 1e-8,
    # then the searches reach the roundoff of the points before tol 1e-10.
    # The iteration count depends on the last bits of BLAS, so it is bounded,
    # not pinned
    grid = perturb(clifford(), (1, 2), 0.055).sample(n=32)
    rep, _ = descend(grid, FlowConfig(tol=1e-10))
    assert (rep.converged, rep.message) == (False, "line search stalled")
    assert rep.iterations < FlowConfig.max_iter
    assert rep.final_max_H < 1e-8
    out = tmp_path / "out"
    assert main(["flow", "--surface", "clifford", "--param", "eps=0.055",
                 "--grid", "32x32", "--tol", "1e-10", "--out", str(out)]) == 5
    rep = json.loads((out / "flow_report.json").read_text())
    assert rep["message"] == "line search stalled"
    lines = (out / "trace.csv").read_text().splitlines()
    assert len(lines) == rep["iterations"] + 2  # header and the initial grid
    assert all(np.isfinite(float(x)) for line in lines[1:] for x in line.split(","))


def test_theorem_probe_not_applicable_on_sphere():
    an = build_analysis(geodesic_sphere().sample(n=32))
    rep = FlowReport(converged=True, trace=[(0, an.energy, an.max_H, 0.0)],
                     beta_max=0.0)
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
    return descend(grid, FlowConfig(max_iter=500, tol=1e-3))
