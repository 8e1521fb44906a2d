"""CLI exit codes and file outputs."""

import ctypes
import io
import json
import math
import os
import pathlib
import re
import shlex
import subprocess
import sys

import numpy as np
import pytest

from contactgeom import (ContactGeomError, OffSphere, ParseError, RangeError,
                         catalog, cli, clifford, contact_angle_field)
from contactgeom.calculus import (IdentityReport, Level, ShapeOperatorField,
                                  build_analysis, refinement_study)
from contactgeom.cli import main
from contactgeom.flow import FlowConfig, TraceRow, descend
from contactgeom.sampleio import FIELDS_CSV_HEADER, read_samples, write_samples
from contactgeom.surface import GridSpec, SurfaceGrid


ROOT = pathlib.Path(__file__).resolve().parents[1]


def run(argv):
    return main(argv)


def _readme_command_lines():
    """The `contactgeom ...` lines of README's "Command line" block."""
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Command line\n+```bash\n(.*?)```", readme, re.S).group(1)
    return [line for line in block.splitlines() if line.startswith("contactgeom ")]


@pytest.mark.parametrize("line", _readme_command_lines())
def test_readme_command_lines_exit_0(line, tmp_path):
    argv = shlex.split(line)[1:]
    if "--out" in argv:
        argv[argv.index("--out") + 1] = str(tmp_path)
    assert run(argv) == 0


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
            p = grid.points[:, i, j]
            row = [us[i], vs[j], p[0], p[1], p[2], p[3],
                   an.frames.beta[i, j], an.K_ext[i, j], H[i, j],
                   0.0 if mcode[i, j] == 1 else an.res_curvature[i, j],
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
    pts = np.stack([np.sqrt(1.0 - U ** 2 - V ** 2), 0.0 * U, U, V])
    write_samples(SurfaceGrid(spec, pts), str(path))
    return str(path)


def test_fields_csv_matches_node_by_node_reference(tmp_path):
    cap = _polar_cap_file(tmp_path / "cap.s3")
    cases = [(["--surface", "rtorus", "--param", "r=0.9", "--grid", "32x32"],
              cli._load_surface("rtorus", [("r", 0.9)], (32, 32)), {0}),
             (["--surface", cap], read_samples(cap), {0, 1})]
    for k, (argv, grid, codes) in enumerate(cases):
        out = tmp_path / f"o{k}"
        assert run(["analyze", *argv, "--out", str(out)]) == 0
        text = (out / "fields.csv").read_text()
        assert text == _reference_fields_csv(grid)
        assert {int(ln.rsplit(",", 1)[1]) for ln in text.splitlines()[1:]} == codes
        report = json.loads((out / "report.json").read_text())
        assert report["willmore_energy"] == float(
            "%.12e" % build_analysis(grid).energy)


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


# three analyze calls in one fresh interpreter: the minor faults of each,
# then whether glibc accepted both thresholds
REPEATED_ANALYZE = """
import resource, sys
from contactgeom import cli
faults = []
for _ in range(3):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    assert cli.main(sys.argv[1:]) == 0
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(*faults, cli._keep_freed_memory())
"""


def test_repeated_analyze_reuses_the_memory_it_freed(tmp_path):
    # main fixes glibc's mmap and trim thresholds before any work, so the
    # fields one command frees stay in the heap for the next; at glibc's
    # dynamic thresholds each repeat at 128^2 faulted in about 2k pages.
    # A fresh interpreter, since the heap this suite has grown can hide
    # a threshold left unset
    argv = ["analyze", "--surface", "clifford", "--grid", "128x128", "--out", str(tmp_path)]
    if not (sys.platform.startswith("linux") and hasattr(ctypes.CDLL(None), "mallopt")):
        assert run(argv) == 0
        return
    proc = subprocess.run([sys.executable, "-c", REPEATED_ANALYZE, *argv],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert proc.returncode == 0, proc.stderr
    *faults, accepted = proc.stdout.splitlines()[-1].split()
    # glibc accepted both (some versions refuse an mmap threshold above 32 MiB)
    assert accepted == "True"
    assert max(int(n) for n in faults[1:]) < 200, faults


def test_analyze_over_masked_file_exits_2_and_writes_nothing(tmp_path, capsys):
    # every node of a 1e-5-wide cap is contact-degenerate; the analysis
    # raises when analyze first reads its frames, before any file is written
    cap = _polar_cap_file(tmp_path / "cap.s3", n=9, half_width=1e-5)
    out = tmp_path / "o"
    assert run(["analyze", "--surface", cap, "--out", str(out)]) == 2
    assert "contact-degenerate" in capsys.readouterr().err
    assert not out.exists()


def test_analyze_with_no_node_off_the_tan_band_exits_2(tmp_path, capsys):
    # on a 1e-3-wide cap every node but the degenerate centre lies within
    # the analysis' 1e-3 band of a tan pole, so the laplacian identity has
    # no node to measure; the error names the node nearest a pole
    cap = _polar_cap_file(tmp_path / "cap.s3", n=17, half_width=5e-4)
    out = tmp_path / "o"
    assert run(["analyze", "--surface", cap, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "laplacian identity" in err and "nearest a pole" in err
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
    grid = read_samples(str(out / "fields.csv"))
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
    # named by its file name, as a native sample file is
    assert report["surface"] == "samples:fields.csv"


def test_one_sample_file_in_two_directories_gives_identical_reports(tmp_path):
    # the report names the file, not the directory it was read from
    grid = clifford().sample(n=16)
    outputs = []
    for folder in ("a", "bb"):
        (tmp_path / folder).mkdir()
        path = tmp_path / folder / "c.s3"
        write_samples(grid, str(path))
        out = tmp_path / folder / "o"
        assert run(["analyze", "--surface", str(path), "--out", str(out)]) == 0
        outputs.append([(out / name).read_bytes()
                        for name in ("report.json", "fields.csv")])
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0][0])["surface"] == "samples:c.s3"


def test_analyze_off_sphere_file(tmp_path):
    bad = tmp_path / "bad.s3"
    bad.write_text("S3SAMPLES v1 8 8 periodic periodic 0 6.283185307179586"
                   " 0 6.283185307179586\n"
                   + "\n".join("0.9 0.0 0.0 0.0 0.1 0.1" for _ in range(64)) + "\n")
    assert run(["analyze", "--surface", str(bad), "--out", str(tmp_path)]) == 3


def test_nan_sample_coordinate_is_off_sphere(tmp_path):
    path = tmp_path / "nan.s3"
    write_samples(clifford().sample(n=8), str(path))
    lines = path.read_text().splitlines()
    row = 1 + 8 * 2 + 6  # node (2, 6), after the header line
    cells = lines[row].split()
    cells[4] = "nan"  # its x2
    lines[row] = " ".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(OffSphere) as err:
        read_samples(str(path))
    assert err.value.node == (2, 6)
    out = tmp_path / "o"
    assert run(["analyze", "--surface", str(path), "--out", str(out)]) == 3
    assert not out.exists()


def _exits_3_naming(path, line, tmp_path, capsys):
    """analyze on the path exits 3 with one error line naming the file line
    (when there is one), and writes nothing."""
    out = tmp_path / "o"
    assert run(["analyze", "--surface", str(path), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    if line is not None:
        assert err.startswith(f"error: line {line}: ")
    assert not out.exists()


@pytest.mark.parametrize("fault, line", [("nan u", 2), ("u and v swapped", 3)])
def test_sample_file_u_v_columns_must_be_the_header_nodes(fault, line, tmp_path, capsys):
    # the u/v columns of a native file repeat its header's grid; node (0, 1)
    # is the first whose u and v differ
    path = tmp_path / "bad.s3"
    write_samples(clifford().sample(n=16), str(path))
    lines = path.read_text().splitlines()
    for k in range(1, len(lines)):
        toks = lines[k].split()
        toks[:2] = ["nan", toks[1]] if fault == "nan u" else [toks[1], toks[0]]
        lines[k] = " ".join(toks)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as err:
        read_samples(str(path))
    assert err.value.line == line
    _exits_3_naming(path, line, tmp_path, capsys)


@pytest.mark.parametrize("fmt, line", [("native", 1), ("fields.csv", 33)])
def test_a_grid_under_8_nodes_exits_3_in_either_format(fmt, line, tmp_path, capsys):
    # the first four u-rows of an 8x8 clifford file: a 4x8 chart-by-periodic
    # grid, which a native header states and a fields.csv's rows imply; either
    # way it is too small, named at the header or at the last row
    grid = clifford().sample(n=8)
    path = tmp_path / "small.s3"
    write_samples(grid, str(path))
    rows = [ln.split() for ln in path.read_text().splitlines()[1:33]]
    if fmt == "native":
        head = ("S3SAMPLES v1 4 8 chart periodic 0 %.12e 0 %.12e"
                % (grid.spec.us[3], 2.0 * np.pi))
        text = [head] + [" ".join(t) for t in rows]
    else:
        text = [FIELDS_CSV_HEADER] + [",".join(t + ["0.0"] * 5 + ["0"]) for t in rows]
    path.write_text("\n".join(text) + "\n")
    with pytest.raises(ParseError, match="at least 8 nodes") as err:
        read_samples(str(path))
    assert err.value.line == line
    _exits_3_naming(path, line, tmp_path, capsys)


@pytest.mark.parametrize("fault", ["directory", "not UTF-8"])
def test_unreadable_sample_path_exits_3(fault, tmp_path, capsys):
    path = tmp_path / "samples.s3"
    if fault == "directory":
        path.mkdir()
        line = None
    else:
        write_samples(clifford().sample(n=8), str(path))
        lines = path.read_bytes().split(b"\n")
        lines[4] = lines[4].replace(b"e+00", b"\xe9+00", 1)  # latin-1 e-acute
        path.write_bytes(b"\n".join(lines))
        line = 5
    with pytest.raises(ParseError) as err:
        read_samples(str(path))
    assert err.value.line == line
    _exits_3_naming(path, line, tmp_path, capsys)


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
    ["flow", "--surface", "clifford", "--param", "eps=0.05", "--step", "1"],
    ["flow", "--surface", "clifford", "--tol", "-1"],
    ["flow", "--surface", "clifford", "--param", "eps=0.05", "--tol", "inf"],
    ["flow", "--surface", "clifford", "--steps", "-3"],
    ["verify", "--surface", "geodesic_sphere", "--identity", "laplacian",
     "--refine", "16,24,32", "--band", "-1"],
    ["verify", "--surface", "geodesic_sphere", "--identity", "laplacian",
     "--refine", "16,24,32", "--band", "nan"],
    ["verify", "--surface", "geodesic_sphere", "--identity", "laplacian",
     "--refine", "16,24,32", "--band", "0.05"],
    ["analyze", "--surface", "clifford", "--param", "eps=nan", "--grid", "16x16"],
    ["analyze", "--surface", "clifford", "--param", "eps=0.05", "--param", "m=1e400",
     "--grid", "16x16"],
    ["analyze", "--surface", "clifford", "--param", "eps=0.05", "--param", "m=2.7",
     "--grid", "16x16"],
    ["verify", "--surface", "geodesic_sphere", "--identity", "gauss",
     "--refine", "32,32,32"],
    ["verify", "--surface", "geodesic_sphere", "--identity", "gauss",
     "--refine", "64,32,16"],
    ["analyze", "--surface", "clifford", "--param", "eps=0.05", "--param", "M=3",
     "--grid", "16x16"],
    ["analyze", "--surface", "geodesic_sphere", "--param", "r=0.3", "--grid", "16x16"],
    ["analyze", "--surface", "clifford", "--param", "m=2.5", "--grid", "16x16"],
    ["analyze", "--surface", "clifford", "--param", "m=nan", "--param", "eps=0",
     "--grid", "16x16"],
    ["flow", "--surface", "rtorus", "--param", "r=0.885", "--mode", "full",
     "--grid", "16x16"],
    ["verify", "--surface", "clifford", "--param", "eps=0.1", "--identity",
     "laplacian", "--refine", "32,64,128", "--band", "10"],
    ["analyze", "--surface", "clifford", "--param", "foo", "--grid", "16x16"],
    ["verify", "--surface", "clifford", "--param", "foo", "--identity", "gauss",
     "--refine", "32,64,128"],
    ["flow", "--surface", "clifford", "--param", "foo", "--grid", "16x16"],
    ["analyze", "--surface", "clifford", "--param", "eps=0.05",
     "--param", "amplitude=0.15", "--grid", "16x16"],
    ["analyze", "--surface", "clifford", "--param", "eps=0.05",
     "--param", "eps=0.1", "--grid", "16x16"],
    ["verify", "--surface", "geodesic_sphere", "--identity", "gauss",
     "--ref", "16,24,32"],
    ["analyze", "--surface", "clifford", "--param", "eps=0.1", "--param", "n=9",
     "--grid", "16x16"],
    ["verify", "--surface", "clifford", "--param", "eps=0.05", "--param", "m=5",
     "--identity", "gauss", "--refine", "8,16,32"],
    ["flow", "--surface", "clifford", "--param", "eps=0.19", "--param", "m=7",
     "--param", "n=9", "--grid", "16x16"],
], ids=["refine-token", "refine-below-8", "flow-step-retired", "tol-negative",
        "tol-inf", "steps-negative", "band-negative", "band-nan", "band-retired",
        "eps-nan", "mode-1e400",
        "mode-fractional", "refine-repeated", "refine-decreasing",
        "param-unknown", "param-not-on-sphere",
        "mode-fractional-unbumped", "mode-nan-eps-0", "flow-mode-retired",
        "band-excludes-every-node", "param-no-equals-analyze",
        "param-no-equals-verify", "param-no-equals-flow", "param-eps-and-amplitude",
        "param-repeated", "refine-abbreviated", "mode-unresolved-analyze",
        "mode-unresolved-verify", "mode-unresolved-flow"])
def test_malformed_flags_exit_2_and_write_nothing(argv, tmp_path, capsys):
    out = tmp_path / "o"
    assert run(argv + ["--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_sample_file_takes_no_parameters(tmp_path, capsys):
    path = tmp_path / "clifford.s3"
    write_samples(clifford().sample(n=16), str(path))
    out = tmp_path / "o"
    assert run(["analyze", "--surface", str(path), "--param", "r=0.9",
                "--param", "eps=0.1", "--out", str(out)]) == 2
    assert "takes no parameters, got 'r'" in capsys.readouterr().err
    assert not out.exists()


def test_sample_file_takes_no_grid(tmp_path, capsys):
    # a sample file carries its grid; --grid would be silently ignored
    path = tmp_path / "clifford.s3"
    write_samples(clifford().sample(n=16), str(path))
    out = tmp_path / "o"
    assert run(["analyze", "--surface", str(path), "--grid", "32x32",
                "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: a sample file takes no --grid\n"
    assert not out.exists()


@pytest.mark.parametrize("name", ["clifford", "sphere"])
def test_a_catalog_name_wins_over_a_path_of_that_name(name, tmp_path, monkeypatch):
    # the first run writes the directory ./<name>; the second still builds
    # the catalog entry instead of reading that directory as a sample file
    monkeypatch.chdir(tmp_path)
    for _ in range(2):
        assert run(["analyze", "--surface", name, "--grid", "16x16", "--out", name]) == 0
    report = json.loads((tmp_path / name / "report.json").read_text())
    assert report["surface"] == catalog.build(name).name


@pytest.mark.parametrize("argv", [
    ["analyze", "--surface", "clifford", "--grid", "16x16"],
    ["verify", "--surface", "clifford", "--identity", "gauss", "--refine", "16,24,32"],
    ["flow", "--surface", "clifford", "--param", "eps=0.05", "--grid", "16x16"],
], ids=["analyze", "verify", "flow"])
@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
def test_out_that_is_not_a_directory_exits_2_before_any_work(argv, under, tmp_path,
                                                             capsys, monkeypatch):
    # refused while the arguments are parsed: nothing is built or written
    def unreachable(*args, **kwargs):
        raise AssertionError("a surface was built")

    monkeypatch.setattr(catalog, "build", unreachable)
    path = tmp_path / "taken"
    path.write_text("keep\n")
    out = path / "o" if under else path
    assert run(argv + ["--out", str(out)]) == 2
    assert f"{path} is not a directory" in capsys.readouterr().err
    assert path.read_text() == "keep\n"


# each argument check of the package, its call and the command line that
# reaches it (None: no command reaches it; --identity's choices stand
# before refinement_study's own check)
RANGE_CHECKS = {
    "grid-size": (lambda: GridSpec(4, 8), "at least 8 nodes",
                  ["analyze", "--surface", "clifford", "--grid", "4x4"]),
    "grid-topology": (lambda: GridSpec(8, 8, topology_u="klein"), "topology must be",
                      None),
    "grid-range": (lambda: GridSpec(8, 8, (1.0, 1.0)), "finite and increasing", None),
    "flow-tol": (lambda: FlowConfig(tol=-1.0), "tol must be positive",
                 ["flow", "--surface", "clifford", "--tol", "-1"]),
    "flow-steps": (lambda: FlowConfig(max_iter=-3), "max_iter must be non-negative",
                   ["flow", "--surface", "clifford", "--steps", "-3"]),
    "flow-topology": (lambda: descend(catalog.build("sphere").sample(n=16)),
                      "doubly periodic",
                      ["flow", "--surface", "sphere", "--grid", "16x16"]),
    "refine-count": (lambda: refinement_study(clifford(), "gauss", [16, 32]),
                     "at least 3 grid levels",
                     ["verify", "--surface", "clifford", "--identity", "gauss",
                      "--refine", "16,32"]),
    "refine-order": (lambda: refinement_study(clifford(), "gauss", [32, 16, 8]),
                     "increase strictly",
                     ["verify", "--surface", "clifford", "--identity", "gauss",
                      "--refine", "32,16,8"]),
    "refine-identity": (lambda: refinement_study(clifford(), "nosuch", [8, 16, 32]),
                        "unknown identity 'nosuch'", None),
    "catalog-name": (lambda: catalog.build("nosuch"), "unknown catalog surface 'nosuch'",
                     ["analyze", "--surface", "nosuch"]),
}


@pytest.mark.parametrize("check", RANGE_CHECKS)
def test_argument_checks_raise_range_error_and_exit_2(check, tmp_path, capsys):
    call, message, argv = RANGE_CHECKS[check]
    with pytest.raises(RangeError, match=message) as exc:
        call()
    assert isinstance(exc.value, ValueError) and isinstance(exc.value, ContactGeomError)
    if argv is None:
        return
    out = tmp_path / "o"
    assert run(argv + ["--out", str(out)]) == 2
    # one error: line, the message as the package raised it
    assert capsys.readouterr() == ("", f"error: {exc.value}\n")
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


def test_verify_and_flow_write_the_built_surface_name(tmp_path, capsys):
    # each command names the surface it built, as analyze does: the bump
    # and the alias resolved, not the --surface argument
    commands = (("analyze", ["--grid", "16x16"], "report.json"),
                ("verify", ["--identity", "gauss", "--refine", "16,24,32"],
                 "identity_gauss.json"),
                ("flow", ["--grid", "16x16", "--steps", "0"], "flow_report.json"))
    # the descent needs a doubly periodic surface, so the sphere takes no flow
    for argv, label, ran in (
            (["--surface", "clifford", "--param", "eps=0.05"],
             "clifford+bump(1,2)x0.05", commands),
            (["--surface", "sphere"], "geodesic_sphere", commands[:2]),
            (["--surface", "r_torus"], "rtorus", commands)):
        names = []
        for command, extra, name in ran:
            out = tmp_path / label / command
            run([command, *argv, *extra, "--out", str(out)])
            names.append(json.loads((out / name).read_text())["surface"])
        assert names == [label] * len(ran)
        assert f"verify gauss on {label}:" in capsys.readouterr().out


def test_bump_names_keep_every_digit_of_eps(tmp_path):
    # the two amplitudes agree to six significant digits, so "%g" gave both
    # the name clifford+bump(1,2)x0.0501182
    names = []
    for eps in ("0.050118216247002564", "0.0501182"):
        out = tmp_path / eps
        assert run(["analyze", "--surface", "clifford", "--param", f"eps={eps}",
                    "--grid", "16x16", "--out", str(out)]) == 0
        names.append(json.loads((out / "report.json").read_text())["surface"])
    assert names == ["clifford+bump(1,2)x0.050118216247002564",
                     "clifford+bump(1,2)x0.0501182"]


def test_flow_zero_steps_exit_5(tmp_path):
    assert run(["flow", "--surface", "clifford", "--param", "eps=0.05",
                "--grid", "32x32", "--steps", "0", "--out", str(tmp_path)]) == 5
    rep = json.loads((tmp_path / "flow_report.json").read_text())
    assert rep["converged"] is False
    assert rep["probe"]["status"] == "inconclusive"


def test_flow_files_are_the_trace_rows(tmp_path):
    assert run(["flow", "--surface", "clifford", "--param", "eps=0.05",
                "--grid", "16x16", "--steps", "2", "--out", str(tmp_path)]) == 5
    header, *lines = (tmp_path / "trace.csv").read_text().splitlines()
    assert header.split(",") == list(TraceRow._fields)
    first, last = ({k: float(v) for k, v in zip(TraceRow._fields, line.split(","))}
                   for line in (lines[0], lines[-1]))
    rep = json.loads((tmp_path / "flow_report.json").read_text())
    assert len(lines) == rep["iterations"] + 1 == 3
    assert rep["energy_initial"] == first["energy"]
    assert rep["energy_final"] == last["energy"]
    assert rep["final_max_H"] == last["max_H"]
    assert rep["beta"]["spread"] == last["beta_spread"]
    assert last["iteration"] == rep["iterations"]


def test_verify_and_flow_outputs_are_finite_checked(tmp_path, monkeypatch):
    def nan_study(entry, identity, levels):
        return IdentityReport(identity, [Level(32, math.nan, 0.0, 0, (0, 0), 0.0)], 2.0)

    monkeypatch.setattr(cli, "refinement_study", nan_study)
    with pytest.raises(ValueError, match="identity_gauss.json"):
        run(["verify", "--surface", "clifford", "--identity", "gauss",
             "--refine", "32,64,128", "--out", str(tmp_path)])
    descend = cli.descend

    def nan_trace(*args, **kwargs):
        report, final = descend(*args, **kwargs)
        report.trace[-1] = report.trace[-1]._replace(beta_spread=math.nan)
        return report, final

    monkeypatch.setattr(cli, "descend", nan_trace)
    with pytest.raises(ValueError, match="beta_spread in trace.csv"):
        run(["flow", "--surface", "rtorus", "--param", "r=0.885",
             "--grid", "32x32", "--out", str(tmp_path)])
    # the trace feeds flow_report.json, so the probe's NaN needs a finite one
    monkeypatch.setattr(cli, "descend", descend)
    monkeypatch.setattr(cli, "theorem_probe",
                        lambda report, grid: {"status": "pass", "K_inf": math.nan})
    with pytest.raises(ValueError, match="flow_report.json"):
        run(["flow", "--surface", "rtorus", "--param", "r=0.885",
             "--grid", "32x32", "--out", str(tmp_path)])

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


def _first_non_finite(columns):
    """(node, column) the (n_u, n_v, c) stacked table's argwhere names first."""
    shape = np.broadcast_shapes(*(np.shape(c) for c in columns))
    table = np.stack([np.broadcast_to(c, shape) for c in columns], axis=-1)
    *node, col = (int(k) for k in np.argwhere(~np.isfinite(table))[0])
    return tuple(node), col


# the non-finite cells of each case, and the node and column the message names
FINITE_CASES = {
    # K (column 7) at an earlier node than beta (column 6): the node decides
    "two columns, two nodes": ([((3, 6), "beta", np.nan), ((3, 5), "K", np.inf)],
                               ((3, 5), "K")),
    # H and beta at one node: the leftmost column
    "two columns, one node": ([((2, 1), "H", np.nan), ((2, 1), "beta", -np.inf),
                               ((5, 0), "u", np.nan)],
                              ((2, 1), "beta")),
    # the sparse u column, an (n_u, 1) array, is non-finite on all of u-row 1
    "a broadcast column": ([((1, 4), "res_laplacian", np.nan), ((1, 0), "K", np.nan),
                            ((1, 0), "u", np.inf)],
                           ((1, 0), "u")),
}


@pytest.mark.parametrize("case", sorted(FINITE_CASES))
def test_finite_check_names_the_first_node_then_the_leftmost_column(case):
    cells, (node, name) = FINITE_CASES[case]
    names = FIELDS_CSV_HEADER.split(",")
    U, V = GridSpec(8, 8).mesh(sparse=True)
    rng = np.random.default_rng(5)
    columns = ([U, V] + [rng.standard_normal((8, 8)) for _ in names[2:-1]]
               + [np.zeros((8, 8), np.uint8)])
    for ij, col, value in cells:
        columns[names.index(col)][ij] = value
    # the node and column a stacked (n_u, n_v, 12) table's argwhere names
    assert _first_non_finite(columns) == (node, names.index(name))
    with pytest.raises(ValueError) as exc:
        cli._check_finite_columns(columns, names, "fields.csv")
    assert str(exc.value) == f"non-finite {name} in fields.csv at node {node}"
    cli._check_finite_columns([np.nan_to_num(c) for c in columns], names, "fields.csv")


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


@pytest.mark.parametrize("entry", catalog.describe(), ids=lambda e: e["name"])
def test_catalog_schema_oracle(entry, tmp_path, capsys):
    # walks the listing, so a new entry or parameter is checked as listed
    name, params = entry["name"], entry["params"]
    assert run(["catalog", "list", "--json"]) == 0
    listed = {e["name"]: set(e["params"]) for e in json.loads(capsys.readouterr().out)}
    assert listed[name] == set(params)
    periodic = entry["topology"] == ["periodic", "periodic"]
    assert ({"eps", "m", "n"} <= set(params)) == periodic

    def rejected(param, value, named):
        out = tmp_path / "o"
        code = run(["analyze", "--surface", name, "--param", f"{param}={value}",
                    "--grid", "8x8", "--out", str(out)])
        return code == 2 and named in capsys.readouterr().err and not out.exists()

    for param, meta in params.items():
        catalog.build(name, [(param, meta["default"])])
        lo, hi = meta["range"]
        bad = ["nan", "inf", "-inf", repr(lo), repr(hi), "abc"]
        bad += ["2.5"] if meta["integer"] else []
        assert [v for v in bad
                if not rejected(param, v, f"{name} parameter {param} = ")] == []
    others = {p for e in catalog.describe() for p in e["params"]} | {"amplitude", "foo"}
    assert [p for p in sorted(others - set(params))
            if not rejected(p, "0.1", f"unknown parameter {p!r}")] == []


def test_catalog_unknown_subcommand():
    assert run(["catalog", "nosuch"]) == 2


def test_json_outputs_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        run(["analyze", "--surface", "rtorus", "--param", "r=0.9",
             "--grid", "32x32", "--out", str(out)])
    assert (a / "report.json").read_text() == (b / "report.json").read_text()
    assert (a / "fields.csv").read_text() == (b / "fields.csv").read_text()


def _files(out):
    """{name: bytes} of every file under out."""
    return {p.relative_to(out).as_posix(): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file()}


def test_main_builds_its_parser_once(tmp_path, monkeypatch):
    assert run(["catalog", "list"]) == 0
    built = []
    init = cli.argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli.argparse.ArgumentParser, "__init__", spy)
    assert run(["catalog", "list", "--json"]) == 0
    assert run(["analyze", "--surface", "clifford", "--grid", "16x16",
                "--out", str(tmp_path)]) == 0
    assert run(["verify", "--surface", "nosuch", "--identity", "gauss"]) == 2
    assert run(["flow", "--grid", "16by16"]) == 2
    assert built == []
    assert cli.build_parser.cache_info().currsize == 1
    # the cached parser binds no command: a patched one is the one that runs
    monkeypatch.setattr(cli, "cmd_catalog", lambda args: 7)
    assert run(["catalog", "list"]) == 7


def test_main_calls_share_no_state(tmp_path):
    bumped, plain = tmp_path / "bumped", tmp_path / "plain"
    assert run(["analyze", "--surface", "clifford", "--param", "eps=0.05",
                "--grid", "16x16", "--out", str(bumped)]) == 0
    assert run(["analyze", "--surface", "clifford", "--grid", "16x16",
                "--out", str(plain)]) == 0
    assert json.loads((bumped / "report.json").read_text())["surface"].startswith(
        "clifford+bump")
    assert json.loads((plain / "report.json").read_text())["surface"] == "clifford"


def test_a_parse_error_leaves_the_next_call_as_it_was(tmp_path):
    argv = ["verify", "--surface", "clifford", "--identity", "gauss",
            "--refine", "16,20,24"]
    cli.build_parser.cache_clear()
    assert run(argv + ["--out", str(tmp_path / "alone")]) == 0
    assert run(["verify", "--surface", "clifford", "--identity", "gauss",
                "--refine", "16,x,24", "--out", str(tmp_path / "bad")]) == 2
    assert run(argv + ["--out", str(tmp_path / "after")]) == 0
    assert not (tmp_path / "bad").exists()
    assert _files(tmp_path / "after") == _files(tmp_path / "alone")


def test_write_table_builds_its_word_tables_once():
    from contactgeom import sampleio
    tables = (sampleio._digit_words, sampleio._lead_words, sampleio._digit_tail)
    for table in tables:
        table.cache_clear()
    grid = clifford().sample(n=8)
    U, V = grid.spec.mesh(sparse=True)
    columns = [U, V, *grid.points, *np.ones((5, 8, 8)), np.zeros((8, 8))]
    texts = []
    for _ in range(2):
        fh = io.StringIO()
        sampleio.write_table(fh, columns, sampleio.FIELDS_ROW_FMT)
        texts.append(fh.getvalue())
    assert texts[0] == texts[1]
    for table in tables:
        info = table.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1), table
    assert not sampleio._digit_words().flags.writeable
