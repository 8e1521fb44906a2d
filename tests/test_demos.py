"""Every demo script, and README's library quickstart, runs to completion
against the source tree."""

import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("[0-9][0-9]_*.py"))


def test_demos_are_found():
    assert [p.name[:2] for p in DEMOS] == ["01", "02", "03", "04", "05"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_zero(demo, tmp_path):
    # TMPDIR keeps the files a demo writes under pytest's tmp_path
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    # a demo's scratch files go with it
    assert list(tmp_path.glob("contactgeom_demo_*")) == []


def test_readme_quickstart_runs(tmp_path):
    # a name the package retires cannot stay in the README's example
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Library quickstart\n+```python\n(.*?)```", readme, re.S)
    assert block and "build_analysis" in block.group(1)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", block.group(1)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "'status': 'pass'" in proc.stdout
