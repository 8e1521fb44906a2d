"""Catalog entries, perturbations, and sample-file round trips."""

import numpy as np
import pytest

from contactgeom import (OffSphere, ParseError, RangeError, build_analysis,
                         clifford, contact_angle_field, geodesic_sphere,
                         perturb, r_torus)
from contactgeom.catalog import build, describe
from contactgeom.sampleio import FIELDS_CSV_HEADER, read_samples, write_samples
from contactgeom.surface import sample, tangent_fields

RNG = np.random.default_rng(3)


def test_clifford_point_values():
    ent = clifford()
    c = np.sqrt(2) / 2
    p = ent.point(np.array(0.0), np.array(0.0))
    assert np.allclose(p, [c, 0, c, 0])
    U = RNG.uniform(0, 2 * np.pi, size=100)
    V = RNG.uniform(0, 2 * np.pi, size=100)
    pts = ent.point(U, V)
    z1 = np.hypot(pts[..., 0], pts[..., 1])
    z2 = np.hypot(pts[..., 2], pts[..., 3])
    assert np.max(np.abs(z1 - c)) < 1e-15
    assert np.max(np.abs(z2 - c)) < 1e-15


def test_clifford_ground_truth_beta():
    ent = clifford()
    assert ent.ground_truth["beta"] == 0.0
    ff = contact_angle_field(ent.sample(n=32))
    assert np.max(np.abs(ff.beta)) < 1e-12


def test_geodesic_sphere_on_y2_zero():
    ent = geodesic_sphere()
    grid = ent.sample(n=32)
    assert np.max(np.abs(grid.points[..., 3])) == 0.0
    # angle at the equator row: x2=0 gives beta = 0 under the signed convention
    ff = contact_angle_field(grid)
    x2 = grid.points[..., 2]
    beta_truth = ent.ground_truth["beta"](grid.points)
    assert np.max(np.abs(ff.beta - beta_truth)) < 1e-10


def test_geodesic_sphere_e1_closed_form():
    ent = geodesic_sphere()
    grid = ent.sample(n=32)
    ff = contact_angle_field(grid)
    pts = grid.points
    x1, y1, x2 = pts[..., 0], pts[..., 1], pts[..., 2]
    denom = np.sqrt(1 - x2 ** 2)
    e1_closed = np.stack([-x1 * x2 / denom, -y1 * x2 / denom, denom,
                          np.zeros_like(x1)], axis=-1)
    dots = np.abs(np.sum(ff.e1 * e1_closed, -1))
    assert np.max(np.abs(dots - 1.0)) < 1e-10  # matches up to sign


def test_analytic_partials_match_fd():
    for ent in (clifford(), geodesic_sphere(), r_torus(0.9)):
        grid = ent.sample(n=64)
        fd = sample(lambda U, V: ent.point(U, V), grid.spec)
        Xu_a, Xv_a = tangent_fields(grid)
        Xu_f, Xv_f = tangent_fields(fd)
        assert np.max(np.abs(Xu_a - Xu_f)) < 1e-7
        assert np.max(np.abs(Xv_a - Xv_f)) < 1e-7


def test_r_torus_matches_clifford_at_quarter_pi():
    a = r_torus(np.pi / 4).sample(n=16)
    b = clifford().sample(n=16)
    assert np.max(np.abs(a.points - b.points)) < 1e-15


def test_r_torus_mean_curvature_value():
    ent = r_torus(np.pi / 3)
    assert ent.ground_truth["H_abs"] == pytest.approx(0.5773502691896257, abs=1e-12)


def test_r_torus_range_error():
    with pytest.raises(RangeError):
        r_torus(0.01)
    with pytest.raises(RangeError):
        r_torus(np.pi / 2)


def test_perturb_identity_at_zero():
    base = clifford()
    ent = perturb(base, (1, 2), 0.0)
    g0 = base.sample(n=16)
    g1 = ent.sample(g0.spec)
    assert np.max(np.abs(g0.points - g1.points)) < 1e-15


def test_perturb_positive_energy():
    ent = perturb(clifford(), (1, 2), 0.05)
    assert ent.d1 is None
    grid = ent.sample(n=32)
    assert grid.partials is None
    assert build_analysis(grid).energy > 1e-4


@pytest.mark.parametrize("eps, name", [(0.05, "clifford+bump(1,2)x0.05"),
                                       (-0.1, "clifford+bump(1,2)x-0.1"),
                                       (1e-05, "clifford+bump(1,2)x1e-05")])
def test_short_bump_amplitudes_keep_their_names(eps, name):
    assert perturb(clifford(), (1, 2), eps).name == name


def test_perturb_amplitude_guard():
    with pytest.raises(RangeError, match="clifford parameter eps = 0.5"):
        perturb(clifford(), (1, 1), 0.5)
    with pytest.raises(RangeError):
        perturb(geodesic_sphere(), (1, 1), 0.05)  # not doubly periodic


def test_blend_build_registry():
    assert build("rtorus", [("r", 0.9)]).ground_truth["area"] == pytest.approx(
        2 * np.pi ** 2 * np.sin(1.8))
    assert build("r_torus", []).name == "rtorus"
    with pytest.raises(KeyError):
        build("nosuch")
    pert = build("clifford", [("eps", 0.05)])
    assert "bump" in pert.name
    listing = describe()
    assert {e["name"] for e in listing} == {"clifford", "geodesic_sphere", "rtorus"}


# ------------------------------------------------------------- sample files

def test_sample_file_round_trip(tmp_path):
    grid = clifford().sample(n=32)
    path = tmp_path / "clifford.s3"
    write_samples(grid, str(path))
    lines = path.read_text().splitlines()
    us, vs = grid.spec.us, grid.spec.vs
    assert lines[1:] == [
        " ".join("%.12e" % x for x in (us[i], vs[j], *grid.points[i, j]))
        for i in range(32) for j in range(32)]
    back = read_samples(str(path))
    assert back.spec.topology_u == "periodic"
    assert back.spec.n_u == 32 and back.spec.n_v == 32
    assert np.max(np.abs(back.points - grid.points)) < 1e-12
    ff0 = contact_angle_field(grid)
    ff1 = contact_angle_field(back)
    assert np.max(np.abs(ff0.beta - ff1.beta)) < 1e-6


def test_sample_file_chart_round_trip(tmp_path):
    grid = geodesic_sphere().sample(n=32)
    path = tmp_path / "sphere.s3"
    write_samples(grid, str(path))
    back = read_samples(str(path))
    assert back.spec.topology_u == "chart"
    assert back.spec.topology_v == "periodic"
    ff0 = contact_angle_field(grid)
    ff1 = contact_angle_field(back)
    assert np.max(np.abs(ff0.beta - ff1.beta)) < 1e-6


def test_sample_file_wrong_columns(tmp_path):
    path = tmp_path / "bad.s3"
    grid = clifford().sample(n=8)
    write_samples(grid, str(path))
    lines = path.read_text().splitlines()
    lines[3] = "0.0 1.0 2.0"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as err:
        read_samples(str(path))
    assert err.value.line == 4


def test_sample_file_off_sphere_names_node(tmp_path):
    path = tmp_path / "bad.s3"
    grid = clifford().sample(n=8)
    pts = grid.points.copy()
    pts[2, 3] *= 0.9
    write_samples(grid.with_points(pts), str(path))
    with pytest.raises(OffSphere) as err:
        read_samples(str(path))
    assert err.value.node == (2, 3)


def test_sample_file_bad_header(tmp_path):
    path = tmp_path / "bad.s3"
    path.write_text("NOTAFORMAT\n")
    with pytest.raises(ParseError):
        read_samples(str(path))


def _sample_file_lines(fmt, tmp_path):
    """Lines of an 8x8 clifford sample file, native or fields.csv, and the separator."""
    grid = clifford().sample(n=8)
    path = tmp_path / "clifford.s3"
    write_samples(grid, str(path))
    lines = path.read_text().splitlines()
    if fmt == "native":
        return lines, " "
    # the analyzer's columns after the point are not read back
    return [FIELDS_CSV_HEADER] + [",".join(ln.split() + ["0.0"] * 5 + ["0"])
                                  for ln in lines[1:]], ","


@pytest.mark.parametrize("fault", ["bad token", "wrong column count"])
@pytest.mark.parametrize("fmt", ["native", "fields.csv"])
def test_sample_file_error_names_file_line_after_blank_line(tmp_path, fmt, fault):
    lines, sep = _sample_file_lines(fmt, tmp_path)
    lines.insert(3, "")
    toks = lines[9].split(sep)
    if fault == "bad token":
        toks[3] = "0x10"
    else:
        toks = toks[:-1]
    lines[9] = sep.join(toks)
    path = tmp_path / "bad.s3"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as err:
        read_samples(str(path))
    assert err.value.line == 10
    assert str(err.value).startswith("line 10: ")


def test_sample_file_ragged_rows_fail_at_first_short_row(tmp_path):
    # a 5-token row then a 7-token row keep the total count of tokens
    lines, _ = _sample_file_lines("native", tmp_path)
    lines[5] = lines[5].rsplit(" ", 1)[0]
    lines[6] = lines[6] + " 0.0"
    path = tmp_path / "bad.s3"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as err:
        read_samples(str(path))
    assert err.value.line == 6
    assert "found 5" in str(err.value)


@pytest.mark.parametrize("fault, line, message", [
    ("non-uniform spacing", 27, "non-uniform node spacing"),
    ("non-tensor grid", 16, "not a tensor-product grid"),
    ("short u-block", 26, "rectangular"),
    ("single u-block", 10, "rectangular"),
])
def test_fields_csv_grid_error_names_offending_row(tmp_path, fault, line, message):
    # after the header and one blank line, data row r sits on file line r + 3
    lines, _ = _sample_file_lines("fields.csv", tmp_path)
    rows = [ln.split(",") for ln in lines[1:]]
    if fault == "non-uniform spacing":
        for toks in rows[24:32]:  # the fourth u-block of 8
            toks[0] = repr(float(toks[0]) + 0.01)
    elif fault == "non-tensor grid":
        rows[13][1] = repr(float(rows[13][1]) + 0.01)
    elif fault == "short u-block":
        del rows[20]  # row 23 is now the first row of the fourth u-block
    else:
        rows = rows[:8]
    path = tmp_path / "bad.csv"
    path.write_text("\n".join([lines[0], ""] + [",".join(t) for t in rows]) + "\n")
    with pytest.raises(ParseError) as err:
        read_samples(str(path))
    assert err.value.line == line
    assert message in str(err.value)


@pytest.mark.parametrize("fmt", ["native", "fields.csv"])
def test_sample_file_reader_accepts_every_float_token(tmp_path, fmt):
    # float() reads digit-group underscores; every token of the file is
    # rewritten that way and must give the same points bit for bit
    lines, sep = _sample_file_lines(fmt, tmp_path)
    plain = tmp_path / "plain.s3"
    plain.write_text("\n".join(lines) + "\n")
    grouped = [lines[0]]
    for ln in lines[1:]:
        toks = ln.split(sep)
        grouped.append(sep.join([t.replace("e", "_0e") for t in toks[:6]] + toks[6:]))
    path = tmp_path / "grouped.s3"
    path.write_text("\n".join(grouped) + "\n")
    assert "_" in grouped[1]
    assert np.array_equal(read_samples(str(path)).points,
                          read_samples(str(plain)).points)


@pytest.mark.parametrize("fmt", ["native", "fields.csv"])
def test_a_well_formed_sample_file_is_read_in_one_pass(tmp_path, fmt, monkeypatch):
    # only a file the one np.loadtxt cannot read is read again line by line;
    # a whitespace-only line, which that read rejects in a fields.csv, takes
    # the line-by-line path to the same points
    lines, _ = _sample_file_lines(fmt, tmp_path)
    plain = tmp_path / "plain.s3"
    plain.write_text("\n".join(lines) + "\n")
    spaced = tmp_path / "spaced.s3"
    spaced.write_text("\n".join(lines[:3] + ["  "] + lines[3:]) + "\n")
    want = read_samples(str(spaced)).points

    def read_lines(path):
        raise AssertionError(f"{path} read line by line")

    monkeypatch.setattr("contactgeom.sampleio._read_lines", read_lines)
    assert np.array_equal(read_samples(str(plain)).points, want)
