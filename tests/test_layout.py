"""Components-first storage of 4-vector fields, and the stencils applied to it.

Every 4-vector field keeps its (..., 4) shape but is one C-contiguous
(4, ...) block underneath, so each component x[..., k] is contiguous; the
stencils must give bit for bit what the interleaved gemm gives.
"""

import numpy as np
import pytest

from contactgeom import FlowConfig, clifford, descend, perturb
from contactgeom.calculus import build_analysis
from contactgeom.catalog import build, names
from contactgeom.gridops import GridCalc
from contactgeom.sampleio import read_samples, write_samples
from contactgeom.surface import GridSpec, sample
from test_ambient import _components_first
from test_calculus import _cap

RNG = np.random.default_rng(14)


def _is_components_first(x):
    return all(x[..., k].flags.c_contiguous for k in range(4))


def test_vector_fields_are_stored_components_first(tmp_path):
    grids = {name: build(name).sample(n=32) for name in names()}
    grids["bump"] = perturb(clifford(), (1, 2), 0.05).sample(n=32)
    # _cap is a plain callable returning an interleaved array
    grids["cap"] = sample(_cap, GridSpec(17, 17, (-0.3, 0.3), (-0.3, 0.3),
                                         "chart", "chart"))
    path = tmp_path / "cap.s3"
    write_samples(grids["cap"], path)
    grids["cap file"] = read_samples(path)
    rep, final = descend(perturb(clifford(), (1, 2), 0.05).sample(n=16),
                         FlowConfig(max_iter=1, tol=1e-12))
    assert rep.iterations == 1
    grids["flow final"] = final.grid
    masked = {}
    for label, grid in grids.items():
        frames = build_analysis(grid).frames
        masked[label] = frames.n_masked
        Xu, Xv = grid.geometry[:2]
        fields = {"points": grid.points, "Xu": Xu, "Xv": Xv, "e1": frames.e1,
                  "e2": frames.e2, "e3": frames.e3,
                  "du e3": grid.calc.du(frames.e3), "dv e3": grid.calc.dv(frames.e3)}
        for name, x in fields.items():
            assert x.shape == grid.points.shape, (label, name)
            assert _is_components_first(x), (label, name)
    # the cap's centre is contact-degenerate, so its frames take the masked fill
    assert masked["cap"] == masked["cap file"] == 1


def _interleaved(D, F, axis):
    """The stencil as tensordot applies it to F's own layout: for a C-ordered
    4-vector field the interleaved (n, 4 m) gemm."""
    return np.moveaxis(np.tensordot(D, np.moveaxis(F, axis, 0), axes=(1, 0)), 0, axis)


@pytest.mark.parametrize("topology", ["periodic", "chart"])
@pytest.mark.parametrize("n", [32, 64, 193, 256])
def test_stencils_on_components_first_fields_match_interleaved_gemm(n, topology):
    # the stencils read a components-first field and must sum exactly as the
    # interleaved gemm does; BLAS orders its sums by operand shape, so a
    # per-component product would not
    calc = GridCalc(GridSpec(n, n, topology_u=topology, topology_v=topology))
    F = RNG.normal(size=(n, n, 4)) * 10.0 ** RNG.integers(-6, 6, size=(n, n, 4))
    Fcf = _components_first(F)
    s = np.ascontiguousarray(F[..., 0])
    for op, D, axis in ((calc.du, calc.Du, 0), (calc.dv, calc.Dv, 1),
                        (calc.duu, calc.Duu, 0), (calc.dvv, calc.Dvv, 1)):
        got = op(Fcf)
        want = _interleaved(D, F, axis)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), op.__name__
        assert _is_components_first(got), op.__name__
        assert op(s).tobytes() == _interleaved(D, s, axis).tobytes(), op.__name__
    # the Brioschi mixed partial reads du of dv's result in the layout
    # tensordot gives it
    want = _interleaved(calc.Du, _interleaved(calc.Dv, s, 1), 0)
    assert calc.du(calc.dv(s)).tobytes() == want.tobytes()
