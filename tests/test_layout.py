"""Components-first storage of 4-vector fields, and the stencils applied to it.

Every 4-vector field is one C-contiguous (4, n_u, n_v) array, in shape as
in memory, so each component x[k] is contiguous.  The banded stencils give
each component the bits the scalar stencil gives it, and stay within the
gamma bound of the dense diff_matrix product and of two closed-form
oracles.
"""

import numpy as np
import pytest

from contactgeom import FlowConfig, clifford, descend, perturb
from contactgeom.calculus import build_analysis
from contactgeom.catalog import build, names
from contactgeom.gridops import (BLOCK_ROWS, CENTRAL_OFFSETS, GridCalc, diff_matrix,
                                  fd_weights, row_blocks)
from contactgeom.sampleio import read_samples, write_samples
from contactgeom.surface import GridSpec, sample
from test_calculus import _cap

RNG = np.random.default_rng(14)


def test_vector_fields_are_stored_components_first(tmp_path):
    grids = {name: build(name).sample(n=32) for name in names()}
    grids["bump"] = perturb(clifford(), (1, 2), 0.05).sample(n=32)
    # _cap is a plain callable returning a (4, n_u, n_v) array
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
            assert x.shape == (4, grid.spec.n_u, grid.spec.n_v), (label, name)
            assert x.flags.c_contiguous, (label, name)
    # the cap's centre is contact-degenerate, so its frames take the masked fill
    assert masked["cap"] == masked["cap file"] == 1


EPS = np.finfo(float).eps
# the gamma_k bound for the at most 8-term sums a stencil row and a dense
# diff_matrix row form: each side is within 8 eps (|D| |F|) of the exact sum
BOUND = 16 * EPS


def _along(D, F, axis):
    """D applied along axis (0 = u, 1 = v) of the scalar field F."""
    return D @ F if axis == 0 else F @ D.T


def _stencils(calc):
    """(name, operator, derivative order, axis) for the four stencils."""
    return (("du", calc.du, 1, 0), ("dv", calc.dv, 1, 1),
            ("duu", calc.duu, 2, 0), ("dvv", calc.dvv, 2, 1))


def _dense(spec, m, axis):
    if axis == 0:
        return diff_matrix(spec.n_u, spec.h_u, m, spec.topology_u == "periodic")
    return diff_matrix(spec.n_v, spec.h_v, m, spec.topology_v == "periodic")


def _field(n, components):
    """A random scalar (n, n) field, or with components a (4, n, n) one."""
    shape = (n, n, 4) if components else (n, n)
    F = RNG.normal(size=shape) * 10.0 ** RNG.integers(-6, 6, size=shape)
    return np.ascontiguousarray(np.moveaxis(F, -1, 0)) if components else F


def _bound_violations(calc, F):
    """Per stencil, the nodes where it is off the dense diff_matrix product by
    more than BOUND * (|D| |F|), component by component."""
    out = {}
    for name, op, m, axis in _stencils(calc):
        D = _dense(calc.spec, m, axis)
        got = op(F)
        parts = list(zip(got, F)) if F.ndim == 3 else [(got, F)]
        out[name] = sum(int(np.sum(np.abs(g - _along(D, f, axis))
                                   > BOUND * _along(np.abs(D), np.abs(f), axis)))
                        for g, f in parts)
    return out


@pytest.mark.parametrize("topology", ["periodic", "chart"])
@pytest.mark.parametrize("n", [32, 65, 193])
def test_vector_stencil_is_the_scalar_stencil_of_each_component(n, topology):
    # each component goes through its own gemm, so its bits depend neither on
    # the field's strides nor on the other components
    calc = GridCalc(GridSpec(n, n, topology_u=topology, topology_v=topology))
    F = _field(n, components=True)
    # the same field with its components innermost in memory
    strided = np.moveaxis(np.ascontiguousarray(np.moveaxis(F, 0, -1)), -1, 0)
    for name, op, _, _ in _stencils(calc):
        got = op(F)
        assert got.shape == F.shape and got.flags.c_contiguous, name
        assert op(strided).tobytes() == got.tobytes(), name
        for k in range(4):
            want = op(F[k])
            assert want.flags.c_contiguous, name
            assert got[k].tobytes() == want.tobytes(), (name, k)


@pytest.mark.parametrize("topology", ["periodic", "chart"])
@pytest.mark.parametrize("n", [16, 17, 32, 64, 65, 193, 256, 512])
def test_stencils_match_dense_diff_matrix_within_gamma_bound(n, topology):
    # row blocks and the dense matrix sum the same at most 8 products in
    # possibly different orders; vector fields up to 256 nodes, scalar ones
    # at 512
    calc = GridCalc(GridSpec(n, n, topology_u=topology, topology_v=topology))
    fields = [_field(n, components=False)]
    if n <= 256:
        fields.append(_field(n, components=True))
    for F in fields:
        assert _bound_violations(calc, F) == {"du": 0, "dv": 0, "duu": 0, "dvv": 0}


def _shifted(blocks, n):
    """blocks with every column window moved by one column, inward at the end."""
    out = []
    for b in blocks:
        if isinstance(b.cols, slice):
            step = -1 if b.cols.stop == n else 1
            cols = slice(b.cols.start + step, b.cols.stop + step)
        else:
            cols = (b.cols + 1) % n
        out.append(b._replace(cols=cols))
    return tuple(out)


@pytest.mark.parametrize("topology", ["periodic", "chart"])
def test_off_by_one_block_windows_break_the_bound(topology):
    # the bound test above must see a block window off by one column
    n = 193
    calc = GridCalc(GridSpec(n, n, topology_u=topology, topology_v=topology))
    calc.Du, calc.Dv = _shifted(calc.Du, n), _shifted(calc.Dv, n)
    calc.Duu, calc.Dvv = _shifted(calc.Duu, n), _shifted(calc.Dvv, n)
    violations = _bound_violations(calc, _field(n, components=False))
    assert all(count > n for count in violations.values()), violations


@pytest.mark.parametrize("n", [8, 9, 16, 17, 193, 512])
def test_chart_stencils_are_exact_on_polynomials(n):
    # an oracle independent of diff_matrix, checked on every row, the rows on
    # both sides of each block edge included: the 7-point central and the
    # 7- and 8-point one-sided stencils are exact for degree <= 6.  Column j
    # samples t^(j mod 7), t = (i - c) / s with s a power of two, so every
    # sample is t^d rounded once.  At the GridSpec floor (8, 9) the one-sided
    # windows of both ends overlap, the 8-point one spans the whole axis, and
    # the axis is one block; 16 is the last one-block axis, 17 the first of two
    spec = GridSpec(n, n, (0.2, np.pi - 0.2), (-1.0, 2.0), "chart", "chart")
    calc = GridCalc(spec)
    assert (len(calc.Du) > 1) == (len(calc.Dv) > 1) == (n > BLOCK_ROWS)
    c, s = n // 2, 2.0 ** np.ceil(np.log2(n / 2))
    t = ((np.arange(n) - c) / s)[:, None]
    d = np.arange(n) % 7

    def power(k):
        return np.where(d >= k, t ** np.maximum(d - k, 0), 0.0)

    for name, op, m, axis in _stencils(calc):
        h = spec.h_u if axis == 0 else spec.h_v
        F = power(0)
        exact = (d * power(1) / (s * h) if m == 1
                 else d * (d - 1) * power(2) / (s * h) ** 2)
        if axis == 1:
            F, exact = np.ascontiguousarray(F.T), exact.T
        tol = BOUND * _along(np.abs(_dense(spec, m, axis)), np.abs(F), axis)
        bad = np.argwhere(np.abs(op(F) - exact) > tol)
        assert bad.size == 0, (name, bad[:5])


@pytest.mark.parametrize("n", [32, 193, 512])
def test_periodic_stencils_match_their_symbol_on_cosines(n):
    # a periodic stencil with weights w_j maps cos(k u) to
    # sigma_c(k) cos(k u) - sigma_s(k) sin(k u), sigma_c(k) = sum w_j cos(k j h)
    # and sigma_s(k) = sum w_j sin(k j h).  Samples and symbols are formed in
    # long double, so a sample is cos(k u) rounded once; the second term of
    # the bound is the long double error of the samples.  At 32, the flow's
    # grid, the axis is two blocks and both wrap
    spec = GridSpec(n, n)
    calc = GridCalc(spec)
    if n == 32:
        assert [isinstance(b.cols, slice) for b in calc.Du] == [False, False]
    pi = 4 * np.arctan(np.longdouble(1))
    k = (np.arange(n) % 3 + 1)[None, :]
    theta = 2 * pi * ((np.arange(n)[:, None] * k) % n) / n
    F = np.cos(theta).astype(float)
    for name, op, m, axis in _stencils(calc):
        w = np.asarray(fd_weights(CENTRAL_OFFSETS * spec.h_u, 0.0, m), np.longdouble)
        jh = np.outer(np.arange(1, 4), CENTRAL_OFFSETS) * (2 * pi / n)
        sigma_c, sigma_s = (np.cos(jh) @ w)[k - 1], (np.sin(jh) @ w)[k - 1]
        symbol = (sigma_c * np.cos(theta) - sigma_s * np.sin(theta)).astype(float)
        D = np.abs(_dense(spec, m, axis))
        f, want = (F, symbol) if axis == 0 else (np.ascontiguousarray(F.T), symbol.T)
        tol = (BOUND * _along(D, np.abs(f), axis)
               + 8 * np.finfo(np.longdouble).eps * _along(D, np.ones_like(f), axis))
        bad = np.argwhere(np.abs(op(f) - want) > tol)
        assert bad.size == 0, (name, bad[:5])


@pytest.mark.parametrize("periodic", [True, False])
@pytest.mark.parametrize("m", [1, 2])
def test_interior_blocks_share_one_weight_pair(m, periodic):
    # a 512-node axis is 32 blocks of 16 rows; the 30 between the end blocks
    # hold the central stencil alone and share one W and one WT, so the
    # transposes add one small array per operator, not one per block
    blocks = row_blocks(512, 0.1, m, periodic)
    assert len(blocks) == 512 // BLOCK_ROWS
    interior = blocks[1:-1]
    assert len({id(b.W) for b in interior}) == len({id(b.WT) for b in interior}) == 1
    for b in blocks:
        assert b.WT.flags.c_contiguous
        assert b.WT.tobytes() == np.ascontiguousarray(b.W.T).tobytes()


def test_cached_stencil_weights_are_read_only():
    # row_blocks is cached per (n, h, m, topology), so a write into one of its
    # arrays would change every later stencil with those arguments
    for b in row_blocks(512, 0.1, 1, False):
        for weights in (b.W, b.WT):
            with pytest.raises(ValueError, match="read-only"):
                weights[0, 0] = 1.0
