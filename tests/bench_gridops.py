"""Stencil micro-benchmark: du, dv, duu and dvv of `gridops.GridCalc` on
scalar and 4-vector fields at 32², 193², 256² and 512², on periodic and on
chart axes.

The sizes are the benchmark's grids: `flow_bump32`, `analyze_cap193`,
`analyze_bump256` and the finest `verify_sphere512` level.  Tier-1 collects
only test_*.py, so this module runs when named.  From the repository root,
with one BLAS thread (the variables must be set before numpy loads):

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1 \\
        python -m pytest tests/bench_gridops.py --benchmark-only

pytest-benchmark groups the timings by grid and topology; add
--benchmark-json=<file> to keep them, and --benchmark-compare to set a
saved run beside a new one.
"""

import numpy as np
import pytest

from contactgeom.gridops import GridCalc
from contactgeom.surface import GridSpec

OPERATORS = ("du", "dv", "duu", "dvv")


@pytest.mark.parametrize("components", [False, True], ids=["scalar", "vector"])
@pytest.mark.parametrize("operator", OPERATORS)
@pytest.mark.parametrize("topology", ["periodic", "chart"])
@pytest.mark.parametrize("n", [32, 193, 256, 512])
def test_stencil(benchmark, n, topology, operator, components):
    calc = GridCalc(GridSpec(n, n, topology_u=topology, topology_v=topology))
    shape = (4, n, n) if components else (n, n)
    F = np.random.default_rng(n).normal(size=shape)
    benchmark.group = f"{n}x{n} {topology}"
    out = benchmark(getattr(calc, operator), F)
    assert out.shape == shape
