"""Catalog entries, perturbations, and sample-file round trips."""

import re

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
    z1 = np.hypot(pts[0], pts[1])
    z2 = np.hypot(pts[2], pts[3])
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
    assert np.max(np.abs(grid.points[3])) == 0.0
    # angle at the equator row: x2=0 gives beta = 0 under the signed convention
    ff = contact_angle_field(grid)
    x2 = grid.points[2]
    beta_truth = ent.ground_truth["beta"](grid.points)
    assert np.max(np.abs(ff.beta - beta_truth)) < 1e-10


def test_geodesic_sphere_e1_closed_form():
    ent = geodesic_sphere()
    grid = ent.sample(n=32)
    ff = contact_angle_field(grid)
    pts = grid.points
    x1, y1, x2 = pts[0], pts[1], pts[2]
    denom = np.sqrt(1 - x2 ** 2)
    e1_closed = np.stack([-x1 * x2 / denom, -y1 * x2 / denom, denom,
                          np.zeros_like(x1)])
    dots = np.abs(np.sum(ff.e1 * e1_closed, 0))
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
    with pytest.raises(RangeError, match="unknown catalog surface 'nosuch'"):
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
        " ".join("%.12e" % x for x in (us[i], vs[j], *grid.points[:, i, j]))
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
    pts[:, 2, 3] *= 0.9
    write_samples(grid.with_points(pts), str(path))
    with pytest.raises(OffSphere) as err:
        read_samples(str(path))
    assert err.value.node == (2, 3)


def test_sample_file_bad_header(tmp_path):
    # each header fault is named at line 1
    path = tmp_path / "bad.s3"
    for text, msg in [
            ("NOTAFORMAT\n", "header"),
            ("", "empty file"),
            ("S3SAMPLES v2 8 8 periodic periodic 0 1 0 1\n",
             "unsupported format version 'v2'"),
            ("S3SAMPLES v1 8.0 8 periodic periodic 0 1 0 1\n",
             "node counts must be integers")]:
        path.write_text(text)
        with pytest.raises(ParseError, match=re.escape(msg)) as err:
            read_samples(str(path))
        assert err.value.line == 1, text


def _sample_file_lines(fmt, tmp_path, grid=None):
    """Lines of a sample file of grid (default an 8x8 clifford), native or
    fields.csv, and the separator."""
    grid = clifford().sample(n=8) if grid is None else grid
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
    ("non-uniform spacing", 27, "is not node (3, 0) of the 8x8 grid"),
    ("non-tensor grid", 16, "is not node (1, 5) of the 8x8 grid"),
    ("short u-block", 65, "expected 56 rows, found 63"),
    ("single u-block", 10, "grids need at least 8 nodes per axis"),
    ("nan first u", 3, "(u, v) = (nan, 0.0) is not node (0, 0) of the 8x8 grid"),
], ids=["non-uniform spacing", "non-tensor grid", "short u-block", "single u-block",
        "nan first u"])
def test_fields_csv_grid_error_names_offending_row(tmp_path, fault, line, message):
    # after the header and one blank line, data row r sits on file line r + 3.
    # The grid is the first run (8 v-nodes), the whole runs and the last row:
    # a row off its node is named by the node check, a count that is not
    # whole runs at the last data row, and a grid GridSpec refuses at the
    # last data row.  A u that is not finite neither starts nor ends a run,
    # so a NaN first u leaves the grid 8x8 and fails the node check
    lines, _ = _sample_file_lines("fields.csv", tmp_path)
    rows = [ln.split(",") for ln in lines[1:]]
    if fault == "non-uniform spacing":
        for toks in rows[24:32]:  # the fourth u-block of 8
            toks[0] = repr(float(toks[0]) + 0.01)
    elif fault == "non-tensor grid":
        rows[13][1] = repr(float(rows[13][1]) + 0.01)
    elif fault == "short u-block":
        del rows[20]
    elif fault == "single u-block":
        rows = rows[:8]
    else:
        rows[0][0] = "nan"
    path = tmp_path / "bad.csv"
    path.write_text("\n".join([lines[0], ""] + [",".join(t) for t in rows]) + "\n")
    with pytest.raises(ParseError) as err:
        read_samples(str(path))
    assert err.value.line == line
    assert message in str(err.value)


@pytest.mark.parametrize("fmt, message", [("native", "expected 64 rows, found 63"),
                                          ("fields.csv", "expected 56 rows, found 63")])
def test_row_count_error_names_the_last_data_row(tmp_path, fmt, message):
    # the last row dropped and three blank lines after the rest: the row
    # count is refused at the last data row (line 64), not the file's last
    # line (67)
    lines, _ = _sample_file_lines(fmt, tmp_path)
    path = tmp_path / "short.s3"
    path.write_text("\n".join(lines[:-1] + [""] * 3) + "\n")
    with pytest.raises(ParseError) as err:
        read_samples(str(path))
    assert err.value.line == 64
    assert message in str(err.value)


MUTATIONS = ("non-finite token", "shifted token", "truncated", "reversed", "dropped row")


def _mutated(lines, sep, kind, rng):
    """The file text of an 8x8 grid's lines with their data rows mutated by
    kind: a u or v token made NaN or infinite or moved by 1e-3..1, the rows
    cut after whole u-rows or inside a row, their order reversed, or one row
    left out.  A third of the rows picked are the first and the last, from
    which a fields.csv's grid is read."""
    rows = [ln.split(sep) for ln in lines[1:]]
    r = int(rng.choice([0, len(rows) - 1, rng.integers(len(rows))]))
    c = int(rng.integers(2))
    tail = []
    if kind == "non-finite token":
        rows[r][c] = rng.choice(["nan", "inf", "-inf"])
    elif kind == "shifted token":
        rows[r][c] = repr(float(rows[r][c]) + rng.choice([-1.0, 1.0]) * rng.uniform(1e-3, 1.0))
    elif kind == "truncated":  # inside row r, or after the whole u-rows before it
        half = sep.join(rows[r])[:len(sep.join(rows[r])) // 2]
        rows, tail = (rows[:r], [half]) if c else (rows[:r - r % 8], [])
    elif kind == "reversed":
        rows.reverse()
    else:
        del rows[r]
    return "\n".join([lines[0]] + [sep.join(t) for t in rows] + tail) + "\n"


@pytest.mark.parametrize("fmt", ["native", "fields.csv"])
@pytest.mark.parametrize("surface", ["periodic", "chart"])
def test_mutated_sample_files_raise_only_typed_errors(tmp_path, fmt, surface):
    # every mutated file is refused with a ParseError naming a line of the
    # file, or an OffSphere naming a node; a bare ValueError or IndexError
    # fails the test, as GridSpec's did for a fields.csv of reversed rows
    grid = (clifford() if surface == "periodic" else geodesic_sphere()).sample(n=8)
    lines, sep = _sample_file_lines(fmt, tmp_path, grid)
    rng = np.random.default_rng(11 if fmt == "native" else 12)
    path = tmp_path / "mutated.s3"
    for trial in range(150):
        kind = MUTATIONS[trial % len(MUTATIONS)]
        text = _mutated(lines, sep, kind, rng)
        path.write_text(text)
        with pytest.raises((ParseError, OffSphere)) as err:
            read_samples(str(path))
        if err.type is ParseError:
            assert 1 <= err.value.line <= text.count("\n"), (kind, trial)
        else:
            assert err.value.node is not None, (kind, trial)


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
