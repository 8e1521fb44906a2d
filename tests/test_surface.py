"""Grids, sampling, tangent pairs, adapted frames and the contact angle."""

import collections

import numpy as np
import pytest

from contactgeom import (DegenerateContact, DegenerateParametrization, GridSpec,
                         OffSphere, contact_angle_field, reeb, sample,
                         tangent_fields)
from contactgeom.ambient import cross4, dot, jmul
from contactgeom.catalog import (build, clifford, geodesic_sphere, names,
                                 perturb, r_torus)
from contactgeom.surface import _flood_levels, _raw_frames

RNG = np.random.default_rng(7)


def _cross4_frames(z, Xu, Xv):
    """Independent e2 oracle: the 4D cross product cross4(z, e3, e1), flipped
    node by node so that (e1, e2) is positively oriented against (Xu, Xv).

    Returns (e1, e2, e3, mask, xi) with e1 and e3 as _raw_frames gives them.
    """
    e1, e3, mask, xi = _raw_frames(z, Xu, Xv)
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
    xi = reeb(grid.points)
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
    xi = reeb(grid.points)
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
    mask = contact_angle_field(grid, max_masked_fraction=1.0).mask
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


def _flatten_levels(levels, n_v):
    """The package's BFS levels as one (i, j) visit order with parents."""
    order, parents = [], []
    for nodes, par in levels:
        order += [divmod(int(k), n_v) for k in nodes]
        parents += ([None] * len(nodes) if par is None
                    else [divmod(int(k), n_v) for k in par])
    return order, parents


def _oracle_masks(rng, n, m, periodic_u, periodic_v):
    """Masks for the BFS oracle: none, random, grid-splitting, isolated nodes."""
    yield np.zeros((n, m), bool)
    for p in (0.05, 0.2, 0.5):
        yield rng.random((n, m)) < p
    # masked lines cut the grid into several components: one line splits a
    # chart axis, two lines split a periodic one
    split = np.zeros((n, m), bool)
    split[[n // 3] + ([2 * n // 3] if periodic_u else []), :] = True
    split[:, [m // 2] + ([m - 2] if periodic_v else [])] = True
    yield split
    # isolated unmasked nodes: every other node of every other row kept
    isolated = np.ones((n, m), bool)
    isolated[::2, ::2] = False
    isolated[0, :] = False
    yield isolated | (rng.random((n, m)) < 0.1)


@pytest.mark.parametrize("topology_u", ["periodic", "chart"])
@pytest.mark.parametrize("topology_v", ["periodic", "chart"])
def test_flood_levels_match_node_by_node_bfs(topology_u, topology_v):
    rng = np.random.default_rng(11)
    n_multi = n_single = 0
    for trial in range(6):
        n, m = (int(k) for k in rng.integers(8, 24, 2))
        spec = GridSpec(n, m, topology_u=topology_u, topology_v=topology_v)
        for mask in _oracle_masks(rng, n, m, topology_u == "periodic",
                                  topology_v == "periodic"):
            levels = _flood_levels(spec, mask)
            assert _flatten_levels(levels, m) == _flood_order(spec, mask)
            seeds = [k for k, (_, par) in enumerate(levels) if par is None]
            n_multi += len(seeds) > 1
            # a component of one node: its seed level is followed by another
            # seed level or by nothing
            n_single += any(k + 1 == len(levels) or levels[k + 1][1] is None
                            for k in seeds)
    assert n_multi >= 6 and n_single >= 6


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

    return sample(point, GridSpec(n, n, (-0.3, 0.3), (-0.3, 0.3), "chart", "chart"),
                  label=f"rotated cap {n}x{n}")


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


def _past_the_equator_chart():
    # chart of the great sphere y1 = 0 around the contact-degenerate pole
    # (1, 0, 0, 0) that reaches past the equator x1 = 0; its gauge puts beta
    # through pi there, so the masked fill has to unwrap it
    def point(A, B):
        return np.stack([np.cos(A) * np.cos(B), np.zeros_like(A),
                         -np.sin(A), np.cos(A) * np.sin(B)], -1)

    return sample(point, GridSpec(33, 33, (-1.2, 1.2), (-2.0, 2.0), "chart", "chart"),
                  label="past the equator")


def _quarter_turn(grid, e1):
    """e2 = c2u Xu + c2v Xv, where c2 = J_g c1 is the metric quarter turn of
    e1's (Xu, Xv)-coordinates c1."""
    Xu, Xv = tangent_fields(grid)
    metric = grid.geometry[2]
    E, F, G = metric.E, metric.F, metric.G
    r1, r2 = np.sum(Xu * e1, -1), np.sum(Xv * e1, -1)
    c1u = (G * r1 - F * r2) / metric.det
    c1v = (E * r2 - F * r1) / metric.det
    c2u = -(F * c1u + G * c1v) / metric.sqrt_det
    c2v = (E * c1u + F * c1v) / metric.sqrt_det
    return c2u[..., None] * Xu + c2v[..., None] * Xv


def _bfs_gauge(grid):
    """Reference gauge, node by node: e1's sign by continuity along the BFS
    tree (seeds take <e1, Xu> >= 0), e2 its quarter turn, beta unwrapped
    along the same tree."""
    Xu, Xv = tangent_fields(grid)
    e1, e3, mask, xi = _raw_frames(grid.points, Xu, Xv)
    e1_dot_xu = np.sum(e1 * Xu, -1)
    order, parents = _flood_order(grid.spec, mask)
    sign = np.ones(mask.shape)
    for node, par in zip(order, parents):
        if par is None:
            sign[node] = 1.0 if e1_dot_xu[node] >= 0 else -1.0
        else:
            d = float(np.sum(e1[node] * e1[par], -1)) * sign[par]
            sign[node] = 1.0 if d >= 0 else -1.0
    e1 = sign[..., None] * e1
    e2 = _quarter_turn(grid, e1)
    beta = np.arctan2(np.sum(xi * e3, -1), np.sum(xi * e2, -1))
    for node, par in zip(order, parents):
        if par is not None:
            beta[node] += 2.0 * np.pi * np.round((beta[par] - beta[node]) / (2.0 * np.pi))
    return e1, beta, int(sign[order[0]])


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
    # the unmasked grids take the vectorized fill, the polar caps the
    # level-by-level one; both must give the reference gauge bit for bit,
    # with no holonomy
    grids, caps = _gauge_grids()
    for grid in grids + caps:
        ff = contact_angle_field(grid)
        e1, beta, seed_sign = _bfs_gauge(grid)
        assert np.array_equal(ff.e1, e1), grid.label
        assert np.array_equal(ff.beta, beta), grid.label
        assert ff.seed_sign == seed_sign, grid.label
        assert ff.sign_mismatches == 0, grid.label
        # the caps, and only they, take the masked path
        assert ff.n_masked == (grid in caps), grid.label
    xi = reeb(grid.points)
    assert np.sum(ff.beta != np.arctan2(dot(xi, ff.e3), dot(xi, ff.e2))) > 100


def test_quarter_turn_e2_matches_cross4_oracle():
    # e2 is the metric quarter turn of e1; at unmasked nodes it agrees with
    # the cross4 construction, and its coordinates c2 are g-orthonormal to c1
    grids, caps = _gauge_grids()
    for grid in grids + caps:
        ff = contact_angle_field(grid)
        Xu, Xv = tangent_fields(grid)
        e1, e2, _, _, _ = _cross4_frames(grid.points, Xu, Xv)
        # the oracle's e1 is the package's up to the flood-fill sign
        sign = np.sign(dot(e1, ff.e1))[..., None]
        assert np.array_equal(sign * e1, ff.e1), grid.label
        good = ~ff.mask
        assert np.max(np.abs(sign * e2 - ff.e2)[good]) < 2e-15, grid.label
        metric = grid.geometry[2]
        c1, c2 = ff.coeff1, ff.coeff2
        g12 = (metric.E * c1[..., 0] * c2[..., 0] + metric.G * c1[..., 1] * c2[..., 1]
               + metric.F * (c1[..., 0] * c2[..., 1] + c1[..., 1] * c2[..., 0]))
        g22 = (metric.E * c2[..., 0] ** 2 + metric.G * c2[..., 1] ** 2
               + 2.0 * metric.F * c2[..., 0] * c2[..., 1])
        assert np.max(np.abs(g12)[good]) < 1e-14, grid.label
        assert np.max(np.abs(g22 - 1.0)[good]) < 1e-14, grid.label
