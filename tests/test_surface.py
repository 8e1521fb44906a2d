"""Grids, sampling, tangent pairs, adapted frames and the contact angle."""

import collections
import tracemalloc

import numpy as np
import pytest

from contactgeom import ambient
from contactgeom import (DegenerateContact, DegenerateParametrization, GridSpec,
                         OffSphere, contact_angle_field, sample, tangent_fields)
from contactgeom.ambient import cross4, dot
from contactgeom.catalog import (CatalogEntry, build, clifford, geodesic_sphere,
                                 names, perturb, r_torus)
from contactgeom.gridops import GridCalc
from contactgeom.surface import (DEGENERACY_TOL, SEED_TOL, SurfaceGrid, _raw_frames,
                                 _sign_mismatches)
from test_ambient import _same_bits, jmul, perp

RNG = np.random.default_rng(7)


def _cross4_frames(z, Xu, Xv):
    """Independent e2 oracle: the 4D cross product cross4(z, e3, e1), flipped
    node by node so that (e1, e2) is positively oriented against (Xu, Xv).

    Returns (e1, e2, e3, mask, xi) with e1, e3 and the mask as
    _reference_raw_frames forms them from the cross4 normal.
    """
    e1, e3, mask, xi = _reference_raw_frames(z, Xu, Xv)
    cand = cross4(z, e3, e1)
    orient = dot(Xu, e1) * dot(Xv, cand) - dot(Xu, cand) * dot(Xv, e1)
    e2 = np.where(orient[..., None] >= 0, cand, -cand)
    return e1, e2, e3, mask, xi


def _adapted_frame(z, Xu, Xv):
    """Per-node oracle: (e1, e2, e3, beta) at one point, no grid flood fill.

    The local sign rule <e1, Xu> >= 0 fixes e1; DegenerateContact is raised
    when the tangent plane coincides with the contact plane.
    """
    e1, e2, e3, mask, xi = _cross4_frames(z, Xu, Xv)
    if bool(np.any(mask)):
        raise DegenerateContact("tangent plane equals the contact plane")
    if float(dot(e1, Xu)) < 0:
        e1, e2 = -e1, -e2
    return e1, e2, e3, float(np.arctan2(dot(xi, e3), dot(xi, e2)))


def test_gridspec_validation():
    with pytest.raises(ValueError):
        GridSpec(4, 64)
    with pytest.raises(ValueError):
        GridSpec(16, 16, topology_u="moebius")
    spec = GridSpec(16, 16, (0.0, 1.0), (0.0, 2.0), "chart", "periodic")
    assert spec.h_u == pytest.approx(1.0 / 15)
    assert spec.h_v == pytest.approx(2.0 / 16)
    # GridSpec owns the node floor: 7 nodes fail on either axis and topology
    for topology in ("periodic", "chart"):
        for n_u, n_v in ((7, 8), (8, 7)):
            with pytest.raises(ValueError, match="at least 8 nodes"):
                GridSpec(n_u, n_v, topology_u=topology, topology_v=topology)
    # 8 nodes carry the widest window, the 8-point one-sided second
    # derivative, and each operator is exact on a quadratic
    calc = GridCalc(GridSpec(8, 8, (0.0, 1.0), (0.0, 2.0), "chart", "chart"))
    U, V = calc.spec.mesh()
    for op, f, want in ((calc.du, U ** 2, 2.0 * U), (calc.dv, V ** 2, 2.0 * V),
                        (calc.duu, U ** 2, 2.0 + 0.0 * U),
                        (calc.dvv, V ** 2, 2.0 + 0.0 * V)):
        assert np.max(np.abs(op(f) - want)) < 1e-9


def test_sample_clifford_unit_norms():
    grid = clifford().sample(n=64)
    assert grid.points.shape == (64, 64, 4)
    assert np.max(np.abs(np.linalg.norm(grid.points, axis=-1) - 1)) < 1e-15


def test_sample_sphere_chart_topologies():
    grid = geodesic_sphere().sample(n=64)
    assert grid.spec.topology_u == "chart"
    assert grid.spec.topology_v == "periodic"
    assert grid.spec.u_range == (0.2, np.pi - 0.2)
    assert np.max(np.abs(grid.points[..., 3])) == 0.0  # y2 = 0 everywhere


def test_sample_off_sphere_rejected():
    spec = GridSpec(8, 8)

    def bad(U, V):
        out = np.zeros(U.shape + (4,))
        out[..., 0] = 2.0
        return out

    with pytest.raises(OffSphere):
        sample(bad, spec)


@pytest.mark.parametrize("bad", [1e-6, np.nan])
def test_sample_names_worst_non_tangent_partial(bad):
    # fv leaves the tangent space at two nodes; (5, 2) is the worse one, or
    # the first NaN in row-major order
    entry = clifford()

    def d1(U, V):
        fu, fv = entry.d1(U, V)
        p = entry.point(U, V)
        fv = fv.copy()
        fv[5, 2] += bad * p[5, 2]
        fv[6, 1] += 0.5 * bad * p[6, 1]
        return fu, fv

    with pytest.raises(OffSphere) as err:
        sample(collections.namedtuple("Bent", "point d1")(entry.point, d1),
               entry.default_spec(8))
    assert err.value.node == (5, 2)
    assert "fv" in str(err.value) and "node (5, 2)" in str(err.value)


def test_tangent_pair_clifford_lengths():
    grid = clifford().sample(n=32)
    Xu, Xv = tangent_fields(grid)
    assert np.max(np.abs(np.linalg.norm(Xu, axis=-1) - np.sqrt(2) / 2)) < 1e-14
    assert np.max(np.abs(np.linalg.norm(Xv, axis=-1) - np.sqrt(2) / 2)) < 1e-14


def test_finite_difference_matches_analytic_tangents():
    entry = clifford()
    grid = entry.sample(n=64)
    fd_grid = sample(lambda U, V: entry.point(U, V), grid.spec)
    assert fd_grid.partials is None
    Xu_a, Xv_a = tangent_fields(grid)
    Xu_f, Xv_f = tangent_fields(fd_grid)
    assert np.max(np.abs(Xu_a - Xu_f)) < 1e-6
    assert np.max(np.abs(Xv_a - Xv_f)) < 1e-6


def _counted_dots(monkeypatch):
    calls = []
    dot = ambient.dot

    def counted(a, b):
        calls.append(1)
        return dot(a, b)

    monkeypatch.setattr(ambient, "dot", counted)
    return calls


def test_geometry_reads_the_stored_tangent_pair(monkeypatch):
    # sample projects the analytic partials once, in place, with the dots
    # its tangency check reads; geometry hands out that pair and forms the
    # Gram matrix alone: three dots and the four scalar fields E, F, G, det
    n = 64
    field = n * n * 4 * 8
    grid = geodesic_sphere().sample(n=n)
    dots = _counted_dots(monkeypatch)
    tracemalloc.start()
    try:
        Xu, Xv, _ = grid.geometry
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert Xu is grid.partials["fu"] and Xv is grid.partials["fv"]
    assert len(dots) == 3
    assert peak < 1.75 * field   # a second tangent pair would be 2 fields
    assert np.max(np.abs(dot(Xu, grid.points))) < 1e-15


def test_fd_tangent_convergence_order():
    entry = geodesic_sphere()
    errs = []
    ns = [32, 64, 128]
    for n in ns:
        grid = entry.sample(n=n)
        fd_grid = sample(lambda U, V: entry.point(U, V), grid.spec)
        Xu_a, _ = tangent_fields(grid)
        Xu_f, _ = tangent_fields(fd_grid)
        errs.append(np.max(np.abs(Xu_a - Xu_f)))
    slope = np.polyfit(np.log(1.0 / np.array(ns)), np.log(errs), 1)[0]
    assert slope >= 3.5


def test_constant_map_degenerate():
    spec = GridSpec(8, 8)

    def const(U, V):
        out = np.zeros(U.shape + (4,))
        out[..., 0] = 1.0
        return out

    with pytest.raises(DegenerateParametrization):
        tangent_fields(sample(const, spec))


def test_adapted_frame_clifford_angle_zero():
    grid = clifford().sample(n=16)
    Xu, Xv = tangent_fields(grid)
    beta = _adapted_frame(grid.points[2, 9], Xu[2, 9], Xv[2, 9])[3]
    assert abs(beta) < 1e-14


def test_adapted_frame_sphere_values():
    # at x2 = 0.5 the signed contact angle is arcsin(1/2) = pi/6
    th = np.arccos(0.5)
    z = np.array([np.sin(th), 0.0, 0.5, 0.0])
    Xt = np.array([np.cos(th), 0.0, -np.sin(th), 0.0])
    Xp = np.array([0.0, np.sin(th), 0.0, 0.0])
    beta = _adapted_frame(z, Xt, Xp)[3]
    assert beta == pytest.approx(np.pi / 6, abs=1e-12)

    # at the equator the angle vanishes and e1 is the chart-pole direction,
    # matching (1/sqrt(1-x2^2))(-x1 x2, -y1 x2, 1-x2^2, 0) up to sign
    z = np.array([1.0, 0.0, 0.0, 0.0])
    Xt = np.array([0.0, 0.0, -1.0, 0.0])
    Xp = np.array([0.0, 1.0, 0.0, 0.0])
    e1, _, _, beta = _adapted_frame(z, Xt, Xp)
    assert beta == pytest.approx(0.0, abs=1e-14)
    closed_form = np.array([0.0, 0.0, 1.0, 0.0])
    assert min(np.linalg.norm(e1 - closed_form),
               np.linalg.norm(e1 + closed_form)) < 1e-14


def test_adapted_frame_orthonormal_and_reconstructs():
    grid = geodesic_sphere().sample(n=32)
    ff = contact_angle_field(grid)
    for e in (ff.e1, ff.e2, ff.e3):
        assert np.max(np.abs(np.linalg.norm(e, axis=-1) - 1)) < 1e-10
    assert np.max(np.abs(np.sum(ff.e1 * ff.e2, -1))) < 1e-10
    assert np.max(np.abs(np.sum(ff.e1 * ff.e3, -1))) < 1e-10
    assert np.max(np.abs(np.sum(ff.e2 * ff.e3, -1))) < 1e-10
    xi = jmul(grid.points)   # xi = i z
    # e1 lies in the contact plane; cos(beta) = <xi, e2>
    assert np.max(np.abs(np.sum(ff.e1 * xi, -1))) < 1e-10
    assert np.max(np.abs(np.cos(ff.beta) - np.sum(xi * ff.e2, -1))) < 1e-10
    # rotation structure: e2 = sin(b) J e1 + cos(b) xi, e3 = -cos(b) J e1 + sin(b) xi
    Je1 = jmul(ff.e1)
    sb = np.sin(ff.beta)[..., None]
    cb = np.cos(ff.beta)[..., None]
    assert np.max(np.abs(ff.e2 - (sb * Je1 + cb * xi))) < 1e-8
    assert np.max(np.abs(ff.e3 - (-cb * Je1 + sb * xi))) < 1e-8


def test_angle_partition_of_unity():
    grid = geodesic_sphere().sample(n=32)
    ff = contact_angle_field(grid)
    xi = jmul(grid.points)   # xi = i z
    c2 = np.sum(xi * ff.e2, -1)
    c3 = np.sum(xi * ff.e3, -1)
    assert np.max(np.abs(c2 ** 2 + c3 ** 2 - 1.0)[~ff.mask]) < 1e-9


def test_contact_angle_field_clifford_zero():
    grid = clifford().sample(n=64)
    ff = contact_angle_field(grid)
    assert ff.n_masked == 0
    assert np.max(np.abs(ff.beta)) < 1e-10


def test_contact_angle_field_sphere_arcsin():
    grid = geodesic_sphere().sample(n=64)
    ff = contact_angle_field(grid)
    assert ff.n_masked == 0
    assert np.max(np.abs(ff.beta - np.arcsin(grid.points[..., 2]))) < 1e-8


def test_r_torus_angle_constant():
    grid = r_torus(np.pi / 3).sample(n=64)
    ff = contact_angle_field(grid)
    assert np.ptp(ff.beta) < 1e-10
    # hand evaluation at one node: xi lies in the tangent plane, so the
    # signed angle vanishes
    assert abs(ff.beta[0, 0]) < 1e-12


def test_gauge_covariance_under_recombination():
    entry = geodesic_sphere()
    grid = entry.sample(n=24)

    class Recombined:
        name = "recombined"

        def point(self, U, V):
            return entry.point(U, V)

        def d1(self, U, V):
            fu, fv = entry.d1(U, V)
            return 2.0 * fu + 0.3 * fv, 1.1 * fv  # orientation-preserving

    grid2 = sample(Recombined(), grid.spec)
    f1 = contact_angle_field(grid)
    f2 = contact_angle_field(grid2)
    assert np.max(np.abs(f1.beta - f2.beta)) < 1e-10
    assert np.max(np.abs(f1.e2 - f2.e2)) < 1e-10
    assert np.max(np.abs(f1.e3 - f2.e3)) < 1e-10
    assert np.max(np.abs(np.abs(np.sum(f1.e1 * f2.e1, -1)) - 1)) < 1e-10


def _polar_cap_chart():
    # graph chart of the great sphere y1 = 0 around (1,0,0,0), where the
    # tangent plane equals the contact plane at the center
    def point(A, B):
        out = np.empty(A.shape + (4,))
        out[..., 0] = np.sqrt(1.0 - A ** 2 - B ** 2)
        out[..., 1] = 0.0
        out[..., 2] = A
        out[..., 3] = B
        return out

    return point


def test_degenerate_contact_masked_and_single_point():
    spec = GridSpec(9, 9, (-0.3, 0.3), (-0.3, 0.3), "chart", "chart")
    grid = sample(_polar_cap_chart(), spec)
    ff = contact_angle_field(grid)
    assert ff.n_masked == 1          # exactly the center node (0, 0)
    assert ff.mask[4, 4]
    Xu, Xv = tangent_fields(grid)
    with pytest.raises(DegenerateContact):
        _adapted_frame(grid.points[4, 4], Xu[4, 4], Xv[4, 4])


def test_degenerate_fraction_guard():
    spec = GridSpec(8, 8, (-1e-5, 1e-5), (-1e-5, 1e-5), "chart", "chart")
    grid = sample(_polar_cap_chart(), spec)
    with pytest.raises(DegenerateContact) as err:
        contact_angle_field(grid)
    # the error names the first masked node in row-major order
    Xu, Xv, metric = grid.geometry
    xin = _raw_frames(grid.points, Xu, Xv, metric)[2]
    mask = np.abs(xin) > 1.0 - DEGENERACY_TOL
    first = tuple(int(k) for k in np.argwhere(mask)[0])
    assert err.value.node == first
    assert f"node {first}" in str(err.value)


def _flood_order(spec, mask):
    """BFS visit order and parents over unmasked nodes, neighbours in the
    order +u, -u, +v, -v; new components seeded at their smallest (i, j)."""
    def step(k, d, n, topology):
        return (k + d) % n if topology == "periodic" else min(max(k + d, 0), n - 1)

    n, m = spec.n_u, spec.n_v
    seen = mask.copy()
    order, parents = [], []
    for i0 in range(n):
        for j0 in range(m):
            if seen[i0, j0]:
                continue
            seen[i0, j0] = True
            order.append((i0, j0))
            parents.append(None)
            queue = collections.deque([(i0, j0)])
            while queue:
                i, j = queue.popleft()
                for nb in ((step(i, 1, n, spec.topology_u), j),
                           (step(i, -1, n, spec.topology_u), j),
                           (i, step(j, 1, m, spec.topology_v)),
                           (i, step(j, -1, m, spec.topology_v))):
                    if not seen[nb]:
                        seen[nb] = True
                        order.append(nb)
                        parents.append((i, j))
                        queue.append(nb)
    return order, parents


def _rotated_polar_cap(n, seed):
    # the polar cap moved by a Haar-random U(2) matrix; U(2) commutes with
    # z -> iz, so the centre stays the one contact-degenerate node
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    a = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    cap = _polar_cap_chart()

    def point(A, B):
        x = cap(A, B)
        w = np.stack([x[..., 0] + 1j * x[..., 1], x[..., 2] + 1j * x[..., 3]], -1) @ a.T
        return np.stack([w[..., 0].real, w[..., 0].imag,
                         w[..., 1].real, w[..., 1].imag], -1)

    grid = sample(point, GridSpec(n, n, (-0.3, 0.3), (-0.3, 0.3), "chart", "chart"))
    grid.label = f"rotated cap {n}x{n}"
    return grid


def test_adapted_frames_are_positively_oriented():
    # (z, e1, e2, e3) is an oriented orthonormal frame of R^4 at every
    # unmasked node: det[z, e1, e2, e3] = +1
    grids = [build(name).sample(n=32) for name in names()]
    grids += [perturb(clifford(), (1, 2), 0.05).sample(n=32),
              _rotated_polar_cap(65, seed=5)]
    for grid in grids:
        ff = contact_angle_field(grid)
        det = np.linalg.det(np.stack([grid.points, ff.e1, ff.e2, ff.e3], axis=-2))
        assert np.max(np.abs(det[~ff.mask] - 1.0)) < 1e-14, grid.label
    assert ff.n_masked == 1


def _square_loop(center, k):
    """Nodes of the square of half-width k around center, counterclockwise
    in (u, v), as an index pair."""
    i0, j0 = center
    side = range(-k, k)
    path = ([(i0 + t, j0 - k) for t in side] + [(i0 + k, j0 + t) for t in side]
            + [(i0 - t, j0 + k) for t in side] + [(i0 - k, j0 - t) for t in side])
    return tuple(np.array(path).T)


@pytest.mark.parametrize("seed", [1, 5, 7])
def test_e1_winds_once_around_the_cap(seed):
    # the cap's centre is a singular point of the characteristic foliation
    # of index +1: e1, one sign over the grid, turns once counterclockwise
    # around it on every square loop; a sign chosen node by node from
    # <e1, Xu> >= 0 flips e1 on part of each loop and breaks the count
    grid = _rotated_polar_cap(65, seed)
    ff = contact_angle_field(grid)
    centre = tuple(int(k) for k in np.argwhere(ff.mask)[0])
    assert ff.n_masked == 1 and centre == (32, 32)
    metric = grid.geometry[2]
    c1u, c1v = ff.coeff1
    # e1's angle from Xu in the oriented tangent plane
    phi = np.arctan2(c1v * metric.sqrt_det, metric.E * c1u + metric.F * c1v)
    for k in range(1, 33):
        p = phi[_square_loop(centre, k)]
        step = np.remainder(np.diff(p, append=p[:1]) + np.pi, 2.0 * np.pi) - np.pi
        assert abs(np.sum(step) / (2.0 * np.pi) - 1.0) < 1e-9, (seed, k)


def _past_the_equator_chart():
    # chart of the great sphere y1 = 0 around the contact-degenerate pole
    # (1, 0, 0, 0) that reaches past the equator x1 = 0; its gauge puts beta
    # through pi there, so the masked fill has to unwrap it
    def point(A, B):
        return np.stack([np.cos(A) * np.cos(B), np.zeros_like(A),
                         -np.sin(A), np.cos(A) * np.sin(B)], -1)

    grid = sample(point, GridSpec(33, 33, (-1.2, 1.2), (-2.0, 2.0), "chart", "chart"))
    grid.label = "past the equator"
    return grid


def _reference_raw_frames(z, Xu, Xv):
    """Reference raw frames, one full-grid pass per step: np.linalg.norm
    lengths, and e1 picked between the normalized 4-vector w and z_perp by
    a full-grid where.  The mask keeps the |w| < 1e-14 clause the package
    leaves out as implied by GRAM_DET_TOL, so a mask compared with the
    package's checks that claim.  Returns (e1, e3, mask, xi)."""
    xi = jmul(z)
    nraw = cross4(z, Xu, Xv)
    e3 = nraw / np.maximum(np.linalg.norm(nraw, axis=-1), 1e-300)[..., None]
    mask = np.abs(np.sum(xi * e3, -1)) > 1.0 - DEGENERACY_TOL
    w = np.sum(Xv * xi, -1)[..., None] * Xu - np.sum(Xu * xi, -1)[..., None] * Xv
    wn = np.linalg.norm(w, axis=-1)
    mask = mask | (wn < 1e-14)
    e1 = np.where(mask[..., None], perp(z), w / np.maximum(wn, 1e-300)[..., None])
    return e1, e3, mask, xi


def _gather_mismatches(spec, e1, mask):
    """Holonomy count by gathering each node's +u and +v neighbours; a chart
    axis' last node is its own neighbour, and <e1, e1> >= 0 never counts."""
    def ahead(n, topology):
        k = np.arange(n) + 1
        return k % n if topology == "periodic" else np.minimum(k, n - 1)

    up, vp = ahead(spec.n_u, spec.topology_u), ahead(spec.n_v, spec.topology_v)
    good = ~mask
    return (int(np.sum((np.sum(e1 * e1[up, :], -1) < 0) & good & good[up, :]))
            + int(np.sum((np.sum(e1 * e1[:, vp], -1) < 0) & good & good[:, vp])))


def _leg(grid, c):
    """c[0] Xu + c[1] Xv, the tangent field with (Xu, Xv)-coordinates c."""
    Xu, Xv = tangent_fields(grid)
    return c[0][..., None] * Xu + c[1][..., None] * Xv


def _quarter_turn(grid, c1):
    """c2 = J_g c1, the metric quarter turn of e1's coordinates c1."""
    metric = grid.geometry[2]
    E, F, G = metric.E, metric.F, metric.G
    c1u, c1v = c1
    return (-(F * c1u + G * c1v) / metric.sqrt_det,
            (E * c1u + F * c1v) / metric.sqrt_det)


def _reference_frames(grid):
    """Reference FrameField, node by node and with every quantity formed anew:
    the mask of _reference_raw_frames; the Reeb components a = <Xu, xi>,
    b = <Xv, xi> and the metric length |w| of w = b Xu - a Xv; the sign of
    e1 by continuity of w along the BFS tree (seeds take
    <w, Xu> = b E - a F >= 0, or <w, Xv> = b F - a G >= 0 when b E - a F
    is within SEED_TOL E sqrt(G) of zero); e1's coordinates
    c1 = sign (b, -a) / |w|, (1 / sqrt(E), 0) at masked nodes, e1 and e2 formed from c1 and its
    quarter turn; beta from the Kahler form of (Xu, Xv) and
    cos(beta) = sign |w| / sqrt(det g), unwrapped along the same tree, the
    masked nodes taking the first seed's sign; and the holonomy count by
    gathers."""
    Xu, Xv = tangent_fields(grid)
    metric = grid.geometry[2]
    E, F, G = metric.E, metric.F, metric.G
    _, e3, mask, xi = _reference_raw_frames(grid.points, Xu, Xv)
    a, b = np.sum(Xu * xi, -1), np.sum(Xv * xi, -1)
    wn = np.sqrt(b * b * E - 2.0 * a * b * F + a * a * G)
    w = b[..., None] * Xu - a[..., None] * Xv
    order, parents = _flood_order(grid.spec, mask)
    sign = np.ones(mask.shape)
    for node, par in zip(order, parents):
        if par is None:
            w_xu = b[node] * E[node] - a[node] * F[node]
            if abs(w_xu) <= SEED_TOL * E[node] * np.sqrt(G[node]):
                w_xu = b[node] * F[node] - a[node] * G[node]
            sign[node] = 1.0 if w_xu >= 0 else -1.0
        else:
            d = float(np.sum(w[node] * w[par], -1)) * sign[par]
            sign[node] = 1.0 if d >= 0 else -1.0
    sign[mask] = sign[order[0]]
    with np.errstate(divide="ignore", invalid="ignore"):
        coeff1 = (np.where(mask, 1.0 / np.sqrt(E), sign * b / wn),
                  np.where(mask, 0.0, -sign * a / wn))
    coeff2 = _quarter_turn(grid, coeff1)
    e1 = _leg(grid, coeff1)
    # sin(beta) = <i Xu, Xv> / sqrt(det g) and cos(beta) = <xi, e2> =
    # sign |w| / sqrt(det g), both formed from the tangent pair alone
    sin_beta = np.sum(jmul(Xu) * Xv, -1) / metric.sqrt_det
    beta = np.arctan2(sin_beta, sign * wn / metric.sqrt_det)
    for node, par in zip(order, parents):
        if par is not None:
            beta[node] += 2.0 * np.pi * np.round((beta[par] - beta[node]) / (2.0 * np.pi))
    return dict(e1=e1, e2=_leg(grid, coeff2), e3=e3, beta=beta, coeff1=coeff1,
                coeff2=coeff2, mask=mask,
                sign_mismatches=_gather_mismatches(grid.spec, e1, mask))


class _SphereLongitudeFirst:
    """The great sphere charted by phi = u in [-pi, pi), periodic, and
    theta = -v + 0.1 sin(u).

    The contact leg runs along X_theta = -Xv, so b = <Xv, xi> is +0.0 at
    most nodes.  The 0.1 sin(u) tilt gives the seed node (u = -pi) a
    contact leg with <w, Xu> = b E - a F = -3.9e-3, so the grid takes the
    sign -1 and beta crosses -pi along every row; with theta = -v alone
    (tilt 0), w is orthogonal to Xu, <w, Xu> a rounding residue, and the
    sign is read from <w, Xv>.
    """

    name = "sphere, longitude first"
    spec = GridSpec(16, 16, (-np.pi, np.pi), (-np.pi + 0.2, -0.2), "periodic", "chart")
    tilt = 0.1

    def point(self, U, V):
        return geodesic_sphere().point(-V + self.tilt * np.sin(U), U)

    def d1(self, U, V):
        f_theta, f_phi = geodesic_sphere().d1(-V + self.tilt * np.sin(U), U)
        return f_phi + (self.tilt * np.cos(U))[..., None] * f_theta, -f_theta


def _gauge_grids():
    """(unmasked, caps): every catalog surface, the r = 1 torus and the 32²
    bump; the 9² cap, the rotated 65² cap and the past-the-equator chart."""
    grids = [build(name).sample(n=32) for name in names()]
    grids += [r_torus(1.0).sample(n=32),
              perturb(clifford(), (1, 2), 0.05).sample(n=32)]
    caps = [sample(_polar_cap_chart(),
                   GridSpec(9, 9, (-0.3, 0.3), (-0.3, 0.3), "chart", "chart")),
            _rotated_polar_cap(65, seed=5), _past_the_equator_chart()]
    return grids, caps


def test_sign_fills_match_node_by_node_bfs():
    # the one global sign and the closed-form turns must give every field
    # of the node-by-node reference bit for bit, signed zeros included, on
    # unmasked grids and on the polar caps alike, with no holonomy
    grids, caps = _gauge_grids()
    for grid in grids + caps:
        ff = contact_angle_field(grid)
        ref = _reference_frames(grid)
        for name, want in ref.items():
            assert _same_bits(getattr(ff, name), want), (grid.label, name)
        assert ff.sign_mismatches == 0, grid.label
        # the caps, and only they, have a masked node
        assert ff.n_masked == (grid in caps), grid.label
    xi = jmul(grid.points)   # xi = i z
    assert np.sum(ff.beta != np.arctan2(dot(xi, ff.e3), dot(xi, ff.e2))) > 100


def test_signed_e1_coordinates_keep_the_dot_zero_sign():
    # c1 = s (b, -a) / |w| from the Kahler-form dots a and b; where b is
    # +0.0 the sign s = -1 turns c1u into -0.0, and no fix-up may change it
    grid = sample(_SphereLongitudeFirst(), _SphereLongitudeFirst.spec)
    ff = contact_angle_field(grid)
    ref = _reference_frames(grid)
    # the seed node's w has <w, Xu> < 0, so the whole grid takes -1
    Xu, Xv, metric = grid.geometry
    a, b, _, wn = _raw_frames(grid.points, Xu, Xv, metric)
    assert (b * metric.E - a * metric.F)[0, 0] < 0 <= dot(ff.e1, Xu)[0, 0]
    assert ff.n_masked == 0
    raw_e1 = (b / wn)[..., None] * Xu - (a / wn)[..., None] * Xv
    assert np.array_equal(ff.e1, -raw_e1)
    for name, want in ref.items():
        if name != "beta":
            assert _same_bits(getattr(ff, name), want), name
    zero = b == 0.0
    assert np.count_nonzero(zero) > 100 and not np.any(np.signbit(b[zero]))
    assert np.all(ff.coeff1[0][zero] == 0.0) and np.all(np.signbit(ff.coeff1[0][zero]))
    # beta is compared bit for bit in test_fast_unwrap_matches_bfs_across_the_cut
    assert np.max(np.abs(ff.beta - ref["beta"])) < 1e-14


def test_fast_unwrap_matches_bfs_across_the_cut():
    # beta crosses -pi along every row of this chart, so the unwrap adds
    # 2 pi turns; the closed form must add them as the BFS does,
    # beta + 2 pi K with an integer K, not as a running sum of corrections
    grid = sample(_SphereLongitudeFirst(), _SphereLongitudeFirst.spec)
    ff = contact_angle_field(grid)
    ref = _reference_frames(grid)
    assert ff.n_masked == 0
    xi = jmul(grid.points)   # xi = i z
    turns = np.round((ff.beta - np.arctan2(dot(xi, ff.e3), dot(xi, ff.e2))) / (2 * np.pi))
    assert np.count_nonzero(turns) > 100
    assert _same_bits(ff.beta, ref["beta"])


def test_seed_sign_survives_last_bit_changes_of_the_seed():
    # untilted, the chart's contact leg is orthogonal to Xu at every node, so
    # <w, Xu> = b E - a F at the seed is 0.0 or a residue of about 1e-34
    # whose sign a 1-ulp change of the seed's point or partials flips; that
    # sign would turn beta into pi - beta over the whole grid, so the seed
    # reads <w, Xv> instead
    chart = _SphereLongitudeFirst()
    chart.tilt = 0.0
    base = sample(chart, chart.spec)
    beta = contact_angle_field(base).beta
    residues = set()
    for name in ("points", "fu", "fv"):
        for k in range(4):
            for toward in (-np.inf, np.inf):
                points = base.points.copy()
                partials = {key: x.copy() for key, x in base.partials.items()}
                x = points if name == "points" else partials[name]
                x[0, 0, k] = np.nextafter(x[0, 0, k], toward)
                grid = SurfaceGrid(base.spec, points, partials)
                Xu, Xv, metric = grid.geometry
                a, b, _, _ = _raw_frames(grid.points, Xu, Xv, metric)
                residues.add(float(np.sign(b * metric.E - a * metric.F)[0, 0]))
                got = contact_angle_field(grid).beta
                assert np.max(np.abs(got - beta)) < 1e-12, (name, k, toward)
                assert _same_bits(got, _reference_frames(grid)["beta"])
    # the changes put the residue on both sides of zero
    assert {-1.0, 1.0} <= residues


def _tilted_clifford(theta):
    """Clifford's point and d1 rotated by theta in the plane of components 1
    and 2 (Im z1, Re z2): a rotation of S^3 outside U(2), so xi is no longer
    tangent to the torus and beta is not constant."""
    base = clifford()
    c, s = np.cos(theta), np.sin(theta)
    rot = np.array([[1, 0, 0, 0], [0, c, -s, 0], [0, s, c, 0], [0, 0, 0, 1]])
    return CatalogEntry(name=f"clifford tilted by {theta}",
                        point=lambda U, V: base.point(U, V) @ rot.T,
                        d1=lambda U, V: tuple(d @ rot.T for d in base.d1(U, V)))


def test_one_sign_keeps_beta_in_a_half_turn_past_singular_points():
    # the characteristic foliation of the tilted, bumped torus has singular
    # points between nodes, where e1 turns by more than a quarter turn over
    # one edge; a per-edge sign fill flips e1 there and along the rest of
    # the row (beta in [-4.56, 4.56] at 32^2, 266 mismatched edges).  With
    # one global sign cos(beta) >= 0 at every node, and only the edges next
    # to a singular point disagree (24 and 26)
    entry = perturb(_tilted_clifford(1.45), (1, 2), 0.15)
    for n in (32, 64):
        ff = contact_angle_field(entry.sample(n=n))
        assert ff.n_masked == 0, n
        assert np.all(np.abs(ff.beta) <= np.pi / 2), n
        assert ff.sign_mismatches < 40, n


@pytest.mark.parametrize("topology_u", ["periodic", "chart"])
@pytest.mark.parametrize("topology_v", ["periodic", "chart"])
def test_sign_mismatches_match_gather_count(topology_u, topology_v):
    # random unit e1 legs disagree across about half the edges, so the
    # slice count has to find every interior and wrap edge the gathers do
    rng = np.random.default_rng(13)
    total = 0
    for trial in range(8):
        n, m = (int(k) for k in rng.integers(8, 24, 2))
        spec = GridSpec(n, m, topology_u=topology_u, topology_v=topology_v)
        e1 = rng.normal(size=(n, m, 4))
        e1 /= np.linalg.norm(e1, axis=-1, keepdims=True)
        mask = rng.random((n, m)) < (0.0, 0.1, 0.5, 0.9)[trial % 4]
        count = _sign_mismatches(spec, e1, mask)
        assert count == _gather_mismatches(spec, e1, mask), (n, m, trial)
        total += count
    assert total > 0


def test_quarter_turn_e2_matches_cross4_oracle():
    # e2 is the metric quarter turn of e1; at unmasked nodes it agrees with
    # the cross4 construction, and its coordinates c2 are g-orthonormal to c1
    grids, caps = _gauge_grids()
    for grid in grids + caps:
        ff = contact_angle_field(grid)
        Xu, Xv = tangent_fields(grid)
        e1, e2, _, _, _ = _cross4_frames(grid.points, Xu, Xv)
        # the oracle's e1, the 4-vector w / |w|, is the package's up to the
        # global sign and rounding
        sign = np.sign(dot(e1, ff.e1))[..., None]
        good = ~ff.mask
        assert np.max(np.abs(sign * e1 - ff.e1)[good]) < 2e-15, grid.label
        assert np.max(np.abs(sign * e2 - ff.e2)[good]) < 2e-15, grid.label
        metric = grid.geometry[2]
        (c1u, c1v), (c2u, c2v) = ff.coeff1, ff.coeff2
        g12 = (metric.E * c1u * c2u + metric.G * c1v * c2v
               + metric.F * (c1u * c2v + c1v * c2u))
        g22 = metric.E * c2u ** 2 + metric.G * c2v ** 2 + 2.0 * metric.F * c2u * c2v
        assert np.max(np.abs(g12)[good]) < 1e-14, grid.label
        assert np.max(np.abs(g22 - 1.0)[good]) < 1e-14, grid.label


def test_frame_coordinates_are_stored_once():
    # each of e1's and e2's (Xu, Xv)-coordinates is one contiguous field of
    # its own, read as it is by the frame derivatives, not a strided view
    # into a stacked copy
    grids, caps = _gauge_grids()
    for grid in grids + caps:
        ff = contact_angle_field(grid)
        coords = [*ff.coeff1, *ff.coeff2]
        assert len(coords) == 4, grid.label
        for c in coords:
            assert c.shape == ff.beta.shape and c.flags.c_contiguous, grid.label
            assert c.base is None, grid.label
