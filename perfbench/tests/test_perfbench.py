"""Tests of the benchmark's own code: tracer arithmetic, output checks, inputs.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from contactgeom import cli, contact_angle_field, load_samples  # noqa: E402
from contactgeom import calculus, surface  # noqa: E402
from workloads import CheckFailed  # noqa: E402


def spans_from(rows):
    return [tracing.Span(name, parent, start, end) for name, parent, start, end in rows]


# -- tracer ------------------------------------------------------------------

def test_self_time_subtracts_union_of_children():
    spans = spans_from([
        ("root", -1, 0.0, 10.0),
        ("a", 0, 1.0, 4.0),
        ("b", 0, 3.0, 6.0),     # overlaps a: [1, 6] is covered once
        ("a.kid", 1, 2.0, 3.0),
        ("late", 0, 9.0, 12.0),  # clipped to the parent's end at 10
    ])
    assert tracing.self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0])


def test_self_time_of_leaf_is_its_duration():
    spans = spans_from([("x", -1, 2.0, 2.5), ("y", -1, 3.0, 3.25)])
    assert tracing.self_times(spans) == pytest.approx([0.5, 0.25])


def test_inclusive_time_counts_recursion_once():
    spans = spans_from([
        ("f", -1, 0.0, 4.0),
        ("g", 0, 1.0, 3.0),
        ("f", 1, 1.5, 2.5),     # nested inside an outer f
    ])
    assert tracing.inclusive_times(spans) == pytest.approx([4.0, 2.0, 0.0])


def test_aggregate_sums_layers_and_divides_by_ops():
    spans = spans_from([
        ("cli.main", -1, 0.0, 6.0),
        ("flow._state", 0, 1.0, 3.0),
        ("surface.contact_angle_field", 1, 1.5, 2.5),
        ("flow._state", 0, 3.0, 5.0),
    ])
    counters = {"flow.iterations": 1}
    got = layers.aggregate(spans, counters, n_ops=2)
    assert got["cli.self_s"] == pytest.approx(1.0)        # (6 - 4) / 2
    assert got["flow.state_s"] == pytest.approx(2.0)      # inclusive, (2 + 2) / 2
    assert got["flow.self_s"] == pytest.approx(1.5)       # (1 + 2) / 2
    assert got["flow.state_calls"] == pytest.approx(1.0)
    assert got["surface.frames_calls"] == pytest.approx(0.5)
    assert got["flow.iterations"] == pytest.approx(0.5)


def test_absent_targets_are_reported_not_raised():
    tr = tracing.Tracer()
    original = surface.contact_angle_field
    tr.install(["flow._no_such_function", "nosuchmodule.f",
                "calculus.ShapeOperatorField.no_such_attr",
                "surface.contact_angle_field"])
    try:
        assert tr.absent == ["flow._no_such_function", "nosuchmodule.f",
                             "calculus.ShapeOperatorField.no_such_attr"]
        assert surface.contact_angle_field is not original
    finally:
        tr.uninstall()
    assert surface.contact_angle_field is original
    # metrics of absent functions read 0 instead of failing
    got = layers.aggregate([], {}, n_ops=1)
    assert got["flow.gradient_calls"] == 0 and got["flow.accept_ratio"] == 0.0


def test_reexported_names_are_wrapped_and_restored():
    tr = tracing.Tracer()
    original = calculus.build_analysis
    tr.install(["calculus.build_analysis"])
    try:
        assert cli.build_analysis is calculus.build_analysis
        assert cli.build_analysis is not original
    finally:
        tr.uninstall()
    assert cli.build_analysis is original and calculus.build_analysis is original


def test_counted_property_counts_calls_without_spans():
    tr = tracing.Tracer()
    tr.install(["calculus.shape_operator"], counted=layers.COUNTED)
    try:
        shape = calculus.ShapeOperatorField(S=np.zeros((3, 3, 2, 2)),
                                            mask=np.zeros((3, 3), bool))
        for _ in range(3):
            assert shape.H.shape == (3, 3)
    finally:
        tr.uninstall()
    assert tr.counters == {"calculus.ShapeOperatorField.H": 3}
    assert tr.spans == []
    assert isinstance(vars(calculus.ShapeOperatorField)["H"], property)


# -- output checks -----------------------------------------------------------

@pytest.fixture(scope="module")
def analyze_out(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("analyze") / "o")
    code = cli.main(["analyze", "--surface", "clifford", "--param", "eps=0.05",
                     "--grid", "32x32", "--out", out])
    return out, code


def copy_of(src, tmp_path):
    dst = str(tmp_path / "copy")
    shutil.copytree(src, dst)
    return dst


def test_check_analyze_accepts_a_correct_output(analyze_out):
    out, code = analyze_out
    assert workloads.check_analyze(out, code, 32, 32, masked=0) == {}


def test_check_analyze_rejects_non_finite_json(analyze_out, tmp_path):
    out = copy_of(analyze_out[0], tmp_path)
    path = os.path.join(out, "report.json")
    with open(path) as fh:
        text = fh.read()
    area = json.loads(text)["area"]
    with open(path, "w") as fh:
        fh.write(text.replace(f'"area": {area!r}', '"area": NaN'))
    with pytest.raises(CheckFailed, match="non-finite"):
        workloads.check_analyze(out, 0, 32, 32, masked=0)


def test_check_analyze_rejects_wrong_masked_count(analyze_out):
    with pytest.raises(CheckFailed, match="masked.degenerate"):
        workloads.check_analyze(analyze_out[0], 0, 32, 32, masked=1)


def test_check_analyze_rejects_missing_fields_row(analyze_out, tmp_path):
    out = copy_of(analyze_out[0], tmp_path)
    path = os.path.join(out, "fields.csv")
    with open(path) as fh:
        lines = fh.read().splitlines()
    with open(path, "w") as fh:
        fh.write("\n".join(lines[:-1]) + "\n")
    with pytest.raises(CheckFailed, match="rows"):
        workloads.check_analyze(out, 0, 32, 32, masked=0)


def test_check_analyze_rejects_a_nonzero_exit(analyze_out):
    with pytest.raises(CheckFailed, match="exited"):
        workloads.check_analyze(analyze_out[0], 3, 32, 32, masked=0)


def write_identity(out, identity, levels, order, passed):
    os.makedirs(out, exist_ok=True)
    payload = {"levels": [{"n": n, "linf": li, "l2": li, "excluded": 0}
                          for n, li in levels],
               "observed_order": order, "at_floor": False, "passed": passed}
    with open(os.path.join(out, f"identity_{identity}.json"), "w") as fh:
        json.dump(payload, fh)


def test_check_verify_counts_the_order_failure(tmp_path):
    out = str(tmp_path)
    levels = [(64, 1e-9), (128, 9e-10), (256, 7e-10), (512, 5.8e-10)]
    write_identity(out, "laplacian", levels, 0.93, False)
    assert workloads.check_verify(out, "laplacian", 4) == {
        "calculus.order_check_failures": 1}
    write_identity(out, "gauss", levels, 6.0, True)
    assert workloads.check_verify(out, "gauss", 0) == {
        "calculus.order_check_failures": 0}


def test_check_verify_rejects_bad_outputs(tmp_path):
    out = str(tmp_path)
    write_identity(out, "curvature", [(64, 1e-5), (128, float("nan")),
                                      (256, 1e-7), (512, 1e-8)], 6.0, True)
    with pytest.raises(CheckFailed):
        workloads.check_verify(out, "curvature", 0)
    write_identity(out, "curvature", [(64, 1e-1), (128, 1e-2),
                                      (256, 1e-3), (512, 2e-4)], 3.0, False)
    with pytest.raises(CheckFailed, match="above"):
        workloads.check_verify(out, "curvature", 4)
    write_identity(out, "curvature", [(64, 1e-5), (128, 1e-6),
                                      (256, 1e-7), (512, 1e-8)], 3.3, True)
    with pytest.raises(CheckFailed, match="exited"):
        workloads.check_verify(out, "curvature", 2)
    with pytest.raises(CheckFailed, match="disagrees"):
        workloads.check_verify(out, "curvature", 4)


def test_check_flow(tmp_path):
    out = str(tmp_path)
    report = {"converged": True, "iterations": 8, "probe": {"status": "pass"}}
    with open(os.path.join(out, "flow_report.json"), "w") as fh:
        json.dump(report, fh)
    assert workloads.check_flow(out, 0) == {"flow.iterations": 8}
    report["probe"]["status"] = "fail"
    with open(os.path.join(out, "flow_report.json"), "w") as fh:
        json.dump(report, fh)
    with pytest.raises(CheckFailed, match="probe"):
        workloads.check_flow(out, 0)


# -- seeded inputs -----------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 1, 7, 12345])
def test_rotated_cap_has_exactly_one_masked_node(seed, tmp_path):
    path = str(tmp_path / "cap.s3")
    workloads.write_cap_samples(path, seed)
    frames = contact_angle_field(load_samples(path))
    centre = workloads.CAP_N // 2
    assert frames.n_masked == 1
    assert frames.mask[centre, centre]


def test_inputs_depend_only_on_the_seed(tmp_path):
    paths = [str(tmp_path / f"{k}.s3") for k in range(3)]
    for path, seed in zip(paths, (5, 5, 6)):
        workloads.write_cap_samples(path, seed)
    data = [open(p, "rb").read() for p in paths]
    assert data[0] == data[1] != data[2]
    amps = [workloads.bump_amplitude(s) for s in (5, 5, 6)]
    assert amps[0] == amps[1] != amps[2]
    assert all(0.045 <= a <= 0.055 for a in amps)


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, str(tmp_path / "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), str(tmp_path))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "analyze_cap193", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=str(tmp_path),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
