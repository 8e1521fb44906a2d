"""Every demo script, and README's library quickstart, runs to completion
against the source tree; demo 01's printed claims hold."""

import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
# the suite's filterwarnings, which do not reach a subprocess
WARNINGS_AS_ERRORS = ["-W", "error::RuntimeWarning", "-W", "error::DeprecationWarning"]
DEMOS = sorted((ROOT / "demos").glob("[0-9][0-9]_*.py"))


def test_demos_are_found():
    assert [p.name[:2] for p in DEMOS] == ["01", "02", "03", "04", "05"]


def _run(demo, tmp_path):
    # TMPDIR keeps the files a demo writes under pytest's tmp_path
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    proc = subprocess.run([sys.executable, *WARNINGS_AS_ERRORS, str(demo)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_zero(demo, tmp_path):
    _run(demo, tmp_path)
    # a demo's scratch files go with it
    assert list(tmp_path.glob("contactgeom_demo_*")) == []


def test_demo_01_frame_is_orthonormal_and_its_derivative_second_order(tmp_path):
    # the canonical frame's Gram matrix is the identity, and the residual of
    # D f3 = -w2 f1 + w1 f2 along a great circle is O(h^2): each halving of
    # h divides it by about 4
    out = _run(DEMOS[0], tmp_path)
    gram = re.search(r"Gram matrix <f_i, f_j>:\n(.*?)\n\n", out, re.S).group(1)
    assert np.array_equal(np.array(re.findall(r"-?[\d.]+", gram), float), np.eye(3).ravel())
    rows = [(float(h), float(r)) for h, r in re.findall(r"h = (\S+): residual = (\S+)", out)]
    assert len(rows) == 3
    for (h, r), (h_half, r_half) in zip(rows, rows[1:]):
        assert h_half == h / 2 and 3.5 <= r / r_half <= 4.5


def test_demo_05_reads_its_fields_csv_back(tmp_path):
    # the fields.csv that demo 05's analyze writes reads back to the points
    # of the sample file it analyzed
    out = _run(DEMOS[4], tmp_path)
    dev = re.search(r"fields\.csv read back: max point deviation from the sample file = (\S+)",
                    out)
    assert dev and float(dev.group(1)) < 1e-12


def test_readme_quickstart_runs(tmp_path):
    # a name the package retires cannot stay in the README's example
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Library quickstart\n+```python\n(.*?)```", readme, re.S)
    assert block and "build_analysis" in block.group(1)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, *WARNINGS_AS_ERRORS, "-c", block.group(1)],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "'status': 'pass'" in proc.stdout
