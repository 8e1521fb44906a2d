"""CLI exit codes and file outputs."""

import json
import math

import numpy as np
import pytest

from contactgeom import cli, contact_angle_field, flow, load_samples
from contactgeom.calculus import (IdentityReport, ShapeOperatorField,
                                  build_analysis)
from contactgeom.cli import main
from contactgeom.sampleio import FIELDS_CSV_HEADER, write_samples
from contactgeom.surface import GridSpec, SurfaceGrid


def run(argv):
    return main(argv)


def test_analyze_clifford(tmp_path, capsys):
    out = tmp_path / "o"
    assert run(["analyze", "--surface", "clifford", "--grid", "64x64",
                "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["format_version"] == "1"
    assert abs(report["fields"]["beta"]["max"]) < 1e-10
    assert abs(report["fields"]["beta"]["min"]) < 1e-10
    assert report["masked"]["degenerate"] == 0
    assert report["masked"]["tan_band"] == 0
    assert abs(report["area"] - 2 * math.pi ** 2) < 1e-6
    csv = (out / "fields.csv").read_text().splitlines()
    assert csv[0] == FIELDS_CSV_HEADER
    assert len(csv) == 1 + 64 * 64


def test_analyze_sphere_beta_field(tmp_path):
    out = tmp_path / "o"
    assert run(["analyze", "--surface", "geodesic_sphere", "--grid", "64x64",
                "--out", str(out)]) == 0
    rows = np.loadtxt(out / "fields.csv", delimiter=",", skiprows=1)
    x2 = rows[:, 4]
    beta = rows[:, 6]
    assert np.max(np.abs(beta - np.arcsin(x2))) < 1e-8
    report = json.loads((out / "report.json").read_text())
    assert abs(report["fields"]["K_ext"]["max"] - 1.0) < 2e-5
    assert report["fields"]["H"]["max_abs"] < 5e-6


def _reference_fields_csv(grid):
    """fields.csv formatted node by node from build_analysis output."""
    an = build_analysis(grid)
    H = an.shape.H
    mcode = np.where(an.frames.mask, 1, np.where(an.tan_band, 2, 0))
    us, vs = grid.spec.us, grid.spec.vs
    lines = [FIELDS_CSV_HEADER]
    for i in range(grid.spec.n_u):
        for j in range(grid.spec.n_v):
            p = grid.points[i, j]
            row = [us[i], vs[j], p[0], p[1], p[2], p[3],
                   an.frames.beta[i, j], an.K_ext[i, j], H[i, j],
                   an.res_curvature[i, j],
                   0.0 if mcode[i, j] else an.res_laplacian[i, j]]
            lines.append(",".join("%.12e" % x for x in row)
                         + f",{int(mcode[i, j])}")
    return "\n".join(lines) + "\n"


def _polar_cap_file(path, n=17, half_width=0.3):
    """Sample file of the chart (sqrt(1-u^2-v^2), 0, u, v) of the great sphere.

    Its tangent plane is the contact plane at the centre node only.
    """
    spec = GridSpec(n, n, (-half_width, half_width), (-half_width, half_width),
                    "chart", "chart")
    U, V = spec.mesh()
    pts = np.stack([np.sqrt(1.0 - U ** 2 - V ** 2), 0.0 * U, U, V], axis=-1)
    write_samples(SurfaceGrid(spec, pts), str(path))
    return str(path)


def test_fields_csv_matches_node_by_node_reference(tmp_path):
    cap = _polar_cap_file(tmp_path / "cap.s3")
    cases = [(["--surface", "rtorus", "--param", "r=0.9", "--grid", "32x32"],
              cli._load_surface("rtorus", {"r": 0.9}, (32, 32)), {0}),
             (["--surface", cap], load_samples(cap), {0, 1})]
    for k, (argv, grid, codes) in enumerate(cases):
        out = tmp_path / f"o{k}"
        assert run(["analyze", *argv, "--out", str(out)]) == 0
        text = (out / "fields.csv").read_text()
        assert text == _reference_fields_csv(grid)
        assert {int(ln.rsplit(",", 1)[1]) for ln in text.splitlines()[1:]} == codes
        report = json.loads((out / "report.json").read_text())
        assert report["willmore_energy"] == float(
            "%.12e" % flow.willmore_energy(grid))


def test_analyze_evaluates_H_a_fixed_number_of_times(tmp_path, monkeypatch):
    # ShapeOperatorField.H rebuilds the whole array on every access, so a
    # per-node read would make the writer quadratic in the node count
    calls = []
    H = ShapeOperatorField.H

    def counted(self):
        calls.append(1)
        return H.fget(self)

    monkeypatch.setattr(ShapeOperatorField, "H", property(counted))
    counts = []
    for n in (16, 32):
        calls.clear()
        assert run(["analyze", "--surface", "rtorus", "--param", "r=0.9",
                    "--grid", f"{n}x{n}", "--out", str(tmp_path / str(n))]) == 0
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_analyze_over_masked_file_exits_2_and_writes_nothing(tmp_path, capsys):
    # every node of a 1e-5-wide cap is contact-degenerate; the analysis
    # raises when analyze first reads its frames, before any file is written
    cap = _polar_cap_file(tmp_path / "cap.s3", n=9, half_width=1e-5)
    out = tmp_path / "o"
    assert run(["analyze", "--surface", cap, "--out", str(out)]) == 2
    assert "contact-degenerate" in capsys.readouterr().err
    assert not out.exists()


def test_analyze_unknown_surface(tmp_path):
    assert run(["analyze", "--surface", "nosuch", "--out", str(tmp_path)]) == 2


def test_analyze_bad_grid_arg(tmp_path):
    assert run(["analyze", "--surface", "clifford", "--grid", "64",
                "--out", str(tmp_path)]) == 2


def test_fields_csv_round_trips_through_loader(tmp_path):
    out = tmp_path / "o"
    assert run(["analyze", "--surface", "clifford", "--grid", "32x32",
                "--out", str(out)]) == 0
    grid = load_samples(str(out / "fields.csv"))
    assert grid.spec.topology_u == "periodic"
    ff = contact_angle_field(grid)
    assert np.max(np.abs(ff.beta)) < 1e-6


def test_analyze_accepts_sample_file(tmp_path):
    out = tmp_path / "o"
    run(["analyze", "--surface", "clifford", "--grid", "32x32", "--out", str(out)])
    out2 = tmp_path / "o2"
    assert run(["analyze", "--surface", str(out / "fields.csv"),
                "--out", str(out2)]) == 0
    report = json.loads((out2 / "report.json").read_text())
    assert abs(report["fields"]["beta"]["max"]) < 1e-6


def test_analyze_off_sphere_file(tmp_path):
    bad = tmp_path / "bad.s3"
    bad.write_text("S3SAMPLES v1 8 8 periodic periodic 0 6.283185307179586"
                   " 0 6.283185307179586\n"
                   + "\n".join("0.9 0.0 0.0 0.0 0.1 0.1" for _ in range(64)) + "\n")
    assert run(["analyze", "--surface", str(bad), "--out", str(tmp_path)]) == 3


def test_verify_curvature_sphere(tmp_path):
    assert run(["verify", "--surface", "geodesic_sphere", "--identity",
                "curvature", "--refine", "32,64,128", "--out", str(tmp_path)]) == 0
    rep = json.loads((tmp_path / "identity_curvature.json").read_text())
    assert rep["passed"] is True
    assert rep["observed_order"] >= 1.7
    assert len(rep["levels"]) == 3


def test_verify_laplacian_clifford_floor(tmp_path):
    assert run(["verify", "--surface", "clifford", "--identity", "laplacian",
                "--refine", "32,64,128", "--out", str(tmp_path)]) == 0
    rep = json.loads((tmp_path / "identity_laplacian.json").read_text())
    assert rep["at_floor"] is True
    assert rep["linf"] < 1e-10


def test_verify_needs_three_levels(tmp_path):
    assert run(["verify", "--surface", "clifford", "--identity", "curvature",
                "--refine", "64", "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("argv", [
    ["verify", "--surface", "clifford", "--identity", "gauss", "--refine", "32,x,64"],
    ["verify", "--surface", "clifford", "--identity", "gauss", "--refine", "4,6,8"],
    ["flow", "--surface", "clifford", "--step", "0"],
    ["flow", "--surface", "clifford", "--tol", "-1"],
    ["flow", "--surface", "clifford", "--steps", "-3"],
    ["verify", "--surface", "geodesic_sphere", "--identity", "laplacian",
     "--refine", "16,24,32", "--band", "-1"],
    ["verify", "--surface", "geodesic_sphere", "--identity", "laplacian",
     "--refine", "16,24,32", "--band", "nan"],
    ["flow", "--surface", "clifford", "--step", "1e300"],
], ids=["refine-token", "refine-below-8", "step-0", "tol-negative", "steps-negative",
        "band-negative", "band-nan", "step-1e300"])
def test_malformed_flags_exit_2_and_write_nothing(argv, tmp_path, capsys):
    out = tmp_path / "o"
    assert run(argv + ["--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_verify_bad_param_value(tmp_path):
    assert run(["verify", "--surface", "rtorus", "--param", "r=abc",
                "--identity", "gauss", "--refine", "32,64,128",
                "--out", str(tmp_path)]) == 2


def test_verify_fails_on_non_minimal_surface(tmp_path):
    # the curvature identity presumes minimality; on a bumped torus the
    # residual does not converge and the order/bound check must exit 4
    assert run(["verify", "--surface", "clifford", "--param", "eps=0.1",
                "--identity", "curvature", "--refine", "32,64,128",
                "--out", str(tmp_path)]) == 4
    rep = json.loads((tmp_path / "identity_curvature.json").read_text())
    assert rep["passed"] is False


def test_verify_gauss_both_surfaces(tmp_path):
    for surface in ("clifford", "geodesic_sphere"):
        assert run(["verify", "--surface", surface, "--identity", "gauss",
                    "--refine", "32,64,128", "--out", str(tmp_path)]) == 0


def test_flow_r_only(tmp_path):
    assert run(["flow", "--surface", "rtorus", "--param", "r=0.885",
                "--mode", "r-only", "--grid", "32x32", "--out", str(tmp_path)]) == 0
    rep = json.loads((tmp_path / "flow_report.json").read_text())
    assert abs(rep["r_final"] - math.pi / 4) < 1e-6
    assert rep["converged"] is True
    trace = (tmp_path / "trace.csv").read_text().splitlines()
    assert trace[0] == "iteration,energy,max_H,beta_spread"


def test_flow_zero_steps_exit_5(tmp_path):
    assert run(["flow", "--surface", "clifford", "--param", "eps=0.05",
                "--grid", "32x32", "--steps", "0", "--out", str(tmp_path)]) == 5
    rep = json.loads((tmp_path / "flow_report.json").read_text())
    assert rep["converged"] is False
    assert rep["probe"]["status"] == "inconclusive"


def test_verify_and_flow_outputs_are_finite_checked(tmp_path, monkeypatch):
    def nan_study(entry, identity, levels, band):
        return IdentityReport(identity, math.nan, 0.0,
                              levels=[(32, math.nan, 0.0, 0)], order=2.0)

    monkeypatch.setattr(cli, "refinement_study", nan_study)
    with pytest.raises(ValueError, match="identity_gauss.json"):
        run(["verify", "--surface", "clifford", "--identity", "gauss",
             "--refine", "32,64,128", "--out", str(tmp_path)])
    descend_r_family = cli.descend_r_family

    def nan_trace(*args, **kwargs):
        report, grid = descend_r_family(*args, **kwargs)
        it, E, maxH, _ = report.trace[-1]
        report.trace[-1] = (it, E, maxH, math.nan)
        return report, grid

    monkeypatch.setattr(cli, "descend_r_family", nan_trace)
    with pytest.raises(ValueError, match="beta_spread in trace.csv"):
        run(["flow", "--surface", "rtorus", "--param", "r=0.885", "--mode",
             "r-only", "--grid", "32x32", "--out", str(tmp_path)])
    monkeypatch.setattr(cli, "theorem_probe",
                        lambda report, grid: {"status": "pass", "K_inf": math.nan})
    with pytest.raises(ValueError, match="flow_report.json"):
        run(["flow", "--surface", "rtorus", "--param", "r=0.885", "--mode",
             "r-only", "--grid", "32x32", "--out", str(tmp_path)])

    def nan_analysis(grid):
        an = build_analysis(grid)
        an.K_ext[3, 5] = math.nan
        return an

    monkeypatch.setattr(cli, "build_analysis", nan_analysis)
    with pytest.raises(ValueError,
                       match=r"non-finite K in fields.csv at node \(3, 5\)"):
        run(["analyze", "--surface", "rtorus", "--param", "r=0.9",
             "--grid", "16x16", "--out", str(tmp_path)])
    assert not list(tmp_path.glob("*.json"))
    assert not list(tmp_path.glob("*.csv"))


def test_catalog_list(capsys):
    assert run(["catalog", "list"]) == 0
    text = capsys.readouterr().out
    for name in ("clifford", "geodesic_sphere", "rtorus"):
        assert name in text


def test_catalog_list_json(capsys):
    assert run(["catalog", "list", "--json"]) == 0
    entries = json.loads(capsys.readouterr().out)
    assert {e["name"] for e in entries} == {"clifford", "geodesic_sphere", "rtorus"}
    rt = next(e for e in entries if e["name"] == "rtorus")
    assert "r" in rt["params"]


def test_catalog_unknown_subcommand():
    assert run(["catalog", "nosuch"]) == 2


def test_json_outputs_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        run(["analyze", "--surface", "rtorus", "--param", "r=0.9",
             "--grid", "32x32", "--out", str(out)])
    assert (a / "report.json").read_text() == (b / "report.json").read_text()
    assert (a / "fields.csv").read_text() == (b / "fields.csv").read_text()
