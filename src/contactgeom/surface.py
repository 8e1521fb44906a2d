"""Parametric immersions into S^3 on structured grids and their adapted frames.

The adapted frame at a non-degenerate surface point consists of

* e1: unit generator of the intersection of the tangent plane with the
  contact plane, sign fixed globally by a continuity flood fill seeded so
  that <e1, Xu> >= 0 at the seed node;
* e2: the metric quarter turn of e1, whose (Xu, Xv)-coordinates are
  J_g c1 = (-F c1u - G c1v, E c1u + F c1v) / sqrt(det g) for e1's
  coordinates c1; (e1, e2) is positively oriented relative to (Xu, Xv) by
  construction, and e2 takes its sign from e1;
* e3: the surface normal inside T S^3 completing (e1, e2, e3) to the
  orientation of the canonical frame (z_perp, i z_perp, i z).

The contact angle is stored as the smooth signed angle

    beta = atan2(<xi, e3>, <xi, e2>),

unwrapped along the flood fill, so that cos(beta) = <xi, e2> and
sin(beta) = <xi, e3> hold exactly and beta is differentiable wherever the
surface stays away from contact degeneracy.  Folding beta into [0, pi]
would destroy differentiability wherever the signed angle crosses zero
(the great sphere's equator, for instance), which is why the signed field
is the primitive object here.

Everything in this module is a pure function of its inputs; the only
sequential piece is the sign/unwrap propagation, which follows a fixed
spanning tree, so results never depend on evaluation order.  The tangent
pair and its Gram matrix (MetricField) are formed once per grid and cached
on it as SurfaceGrid.geometry; every consumer reads that copy.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import ambient
from .errors import (DegenerateContact, DegenerateMetric,
                     DegenerateParametrization, OffSphere)
from .gridops import GridCalc

OFF_SPHERE_TOL = 1e-6
GRAM_DET_TOL = 1e-10
DEGENERACY_TOL = 1e-9   # mask when |<xi, n>| > 1 - DEGENERACY_TOL

_TOPOLOGIES = ("periodic", "chart")


@dataclass(frozen=True)
class GridSpec:
    """Parameter rectangle and node counts for a structured grid.

    Periodic axes exclude the right endpoint (step = span / n); chart axes
    include both endpoints (step = span / (n - 1)).
    """

    n_u: int
    n_v: int
    u_range: tuple = (0.0, 2.0 * np.pi)
    v_range: tuple = (0.0, 2.0 * np.pi)
    topology_u: str = "periodic"
    topology_v: str = "periodic"

    def __post_init__(self):
        if self.n_u < 8 or self.n_v < 8:
            raise ValueError("grids need at least 8 nodes per axis")
        if self.topology_u not in _TOPOLOGIES or self.topology_v not in _TOPOLOGIES:
            raise ValueError(f"topology must be one of {_TOPOLOGIES}")
        if not (self.u_range[1] > self.u_range[0] and self.v_range[1] > self.v_range[0]):
            raise ValueError("parameter ranges must be increasing")

    @property
    def h_u(self):
        span = self.u_range[1] - self.u_range[0]
        return span / self.n_u if self.topology_u == "periodic" else span / (self.n_u - 1)

    @property
    def h_v(self):
        span = self.v_range[1] - self.v_range[0]
        return span / self.n_v if self.topology_v == "periodic" else span / (self.n_v - 1)

    @property
    def us(self):
        return self.u_range[0] + self.h_u * np.arange(self.n_u)

    @property
    def vs(self):
        return self.v_range[0] + self.h_v * np.arange(self.n_v)

    def mesh(self):
        return np.meshgrid(self.us, self.vs, indexing="ij")


@dataclass
class MetricField:
    """First fundamental form in the (Xu, Xv) basis."""

    E: np.ndarray
    F: np.ndarray
    G: np.ndarray

    def __post_init__(self):
        det = self.det
        if np.any(det <= 1e-12):
            ij = tuple(int(k) for k in np.unravel_index(np.argmin(det), det.shape))
            raise DegenerateMetric(
                f"metric determinant {det[ij]:.3e} at node {ij} is not positive",
                node=ij)

    @property
    def det(self):
        return self.E * self.G - self.F * self.F

    @property
    def inv(self):
        d = self.det
        return self.G / d, -self.F / d, self.E / d  # g^uu, g^uv, g^vv

    @property
    def sqrt_det(self):
        return np.sqrt(self.det)


class SurfaceGrid:
    """Grid of unit-sphere points with optional analytic parameter derivatives.

    partials, when present, is a dict with keys "fu" and "fv", each an
    (n_u, n_v, 4) array of first derivatives of the point map.
    """

    def __init__(self, spec, points, partials=None, label=""):
        points = np.asarray(points, float)
        if points.shape != (spec.n_u, spec.n_v, 4):
            raise ValueError(f"points shape {points.shape} does not match spec")
        self.spec = spec
        self.points = points
        self.partials = partials
        self.label = label

    @cached_property
    def calc(self):
        return GridCalc(self.spec)

    @cached_property
    def geometry(self):
        """(Xu, Xv, metric): the tangent pair and its Gram matrix; see tangent_fields."""
        if self.partials is not None:
            Xu = self.partials["fu"]
            Xv = self.partials["fv"]
        else:
            Xu = self.calc.du(self.points)
            Xv = self.calc.dv(self.points)
        z = self.points
        Xu = Xu - ambient.dot(Xu, z)[..., None] * z
        Xv = Xv - ambient.dot(Xv, z)[..., None] * z
        E = ambient.dot(Xu, Xu)
        F = ambient.dot(Xu, Xv)
        G = ambient.dot(Xv, Xv)
        det = E * G - F * F
        if np.any(det < GRAM_DET_TOL):
            ij = np.unravel_index(np.argmin(det), det.shape)
            raise DegenerateParametrization(
                f"tangent Gram determinant {det[ij]:.3e} at node "
                f"{tuple(int(k) for k in ij)}", node=tuple(int(k) for k in ij))
        return Xu, Xv, MetricField(E, F, G)

    def with_points(self, points, partials=None, label=None):
        return SurfaceGrid(self.spec, points, partials,
                           self.label if label is None else label)


def sample(definition, spec, label=None):
    """Evaluate an immersion definition on a grid and normalize onto S^3.

    definition is either a callable (U, V) -> (..., 4) or an object with a
    .point(U, V) method and an optional .d1(U, V) -> (fu, fv) method for
    analytic first partials.

    Raises OffSphere when any evaluated point deviates from unit norm by
    more than 1e-6 before normalization.
    """
    U, V = spec.mesh()
    point = getattr(definition, "point", definition)
    pts = np.asarray(point(U, V), float)
    norms = np.linalg.norm(pts, axis=-1)
    dev = np.abs(norms - 1.0)
    if np.any(dev > OFF_SPHERE_TOL):
        ij = np.unravel_index(np.argmax(dev), dev.shape)
        raise OffSphere(
            f"node {tuple(int(k) for k in ij)} is off S^3 by {dev[ij]:.3e} "
            f"(norm {norms[ij]:.6f}) before normalization",
            node=tuple(int(k) for k in ij))
    pts = pts / norms[..., None]

    partials = None
    d1 = getattr(definition, "d1", None)
    if d1 is not None:
        fu, fv = d1(U, V)
        partials = {"fu": np.asarray(fu, float), "fv": np.asarray(fv, float)}
        for key in ("fu", "fv"):
            tang = np.abs(ambient.dot(partials[key], pts))
            if np.any(tang > 1e-10):
                raise OffSphere("analytic partials are not tangent to the sampled "
                                f"points (max |<df, f>| = {tang.max():.3e})")
    if label is None:
        label = getattr(definition, "name", getattr(definition, "__name__", "surface"))
    return SurfaceGrid(spec, pts, partials, label)


def tangent_fields(grid):
    """Per-node tangent pair (Xu, Xv), analytic when stored, else 4th-order FD.

    Both routes project onto T_z S^3.  Raises DegenerateParametrization if
    the Gram determinant drops below 1e-10 anywhere.  The pair and its Gram
    matrix are computed once per grid and cached there.
    """
    return grid.geometry[:2]


@dataclass
class FrameField:
    """Adapted frames over a grid.

    coeff1/coeff2 hold the (Xu, Xv)-coordinates of e1/e2, used to take
    directional derivatives along frame legs with parameter-space stencils.
    mask flags contact-degenerate nodes (frames meaningless there).
    """

    e1: np.ndarray
    e2: np.ndarray
    e3: np.ndarray
    beta: np.ndarray
    coeff1: np.ndarray
    coeff2: np.ndarray
    mask: np.ndarray
    n_masked: int = 0
    seed_sign: int = 1
    sign_mismatches: int = field(default=0)  # flood-fill cross-edge holonomy count


def _raw_frames(z, Xu, Xv):
    """Vectorized pre-gauge construction of the normal and the contact leg.

    Returns (e1, e3, mask, xi) where e1's sign is arbitrary per node (fixed
    later by the flood fill); contact_angle_field forms e2 from the signed
    e1.

    e3 is the normalized 4D cross product of (z, Xu, Xv), so it satisfies
    det[z, e1, e2, e3] = +1, the canonical-frame orientation, for any
    (e1, e2) positively oriented against (Xu, Xv), and it stays continuous
    across contact degeneracies.  At masked nodes e1 is replaced by the
    contact-plane leg z_perp of the canonical frame so downstream stencils
    see bounded values.
    """
    xi = ambient.jmul(z)
    nraw = ambient.cross4(z, Xu, Xv)
    nn = np.linalg.norm(nraw, axis=-1)
    e3 = nraw / np.maximum(nn, 1e-300)[..., None]
    xin = ambient.dot(xi, e3)
    mask = np.abs(xin) > 1.0 - DEGENERACY_TOL

    a = ambient.dot(Xu, xi)
    b = ambient.dot(Xv, xi)
    w = b[..., None] * Xu - a[..., None] * Xv
    wn = np.linalg.norm(w, axis=-1)
    mask = mask | (wn < 1e-14)
    f1 = ambient.perp(z)
    e1 = np.where(mask[..., None], f1,
                  w / np.maximum(wn, 1e-300)[..., None])
    return e1, e3, mask, xi


def _tangent_coords(Xu, Xv, metric, e):
    """(Xu, Xv)-coordinates of the tangent field e through the inverse metric."""
    r1 = ambient.dot(Xu, e)
    r2 = ambient.dot(Xv, e)
    E, F, G, det = metric.E, metric.F, metric.G, metric.det
    return np.stack([(G * r1 - F * r2) / det, (E * r2 - F * r1) / det], axis=-1)


def _grid_neighbors(spec):
    """Neighbor index maps (+u, -u, +v, -v) honoring each axis topology."""
    n, m = spec.n_u, spec.n_v
    iu = np.arange(n)
    iv = np.arange(m)
    if spec.topology_u == "periodic":
        up, um = (iu + 1) % n, (iu - 1) % n
    else:
        up = np.minimum(iu + 1, n - 1)
        um = np.maximum(iu - 1, 0)
    if spec.topology_v == "periodic":
        vp, vm = (iv + 1) % m, (iv - 1) % m
    else:
        vp = np.minimum(iv + 1, m - 1)
        vm = np.maximum(iv - 1, 0)
    return up, um, vp, vm


def _flood_levels(spec, mask):
    """Deterministic BFS over unmasked nodes, one level at a time.

    Returns a list of (nodes, parents) pairs of flat (row-major) node
    indices; parents is None for the level that seeds a component.  Each
    level lists its nodes in the order a FIFO BFS visits them: the previous
    level's nodes in order, each gathering its unseen neighbours in the
    order +u, -u, +v, -v, a node's first discoverer being its parent.  New
    components are seeded at their smallest (i, j) in row-major order.
    """
    up, um, vp, vm = _grid_neighbors(spec)
    m = spec.n_v
    iu = m * np.arange(spec.n_u)[:, None]
    iv = np.arange(m)[None, :]
    nbr = np.stack([m * up[:, None] + iv, m * um[:, None] + iv,
                    iu + vp[None, :], iu + vm[None, :]], axis=-1).reshape(-1, 4)
    seen = mask.ravel().copy()
    levels = []
    seed = 0
    while True:
        seed += int(np.argmin(seen[seed:]))
        if seen[seed]:
            return levels
        seen[seed] = True
        frontier = np.array([seed])
        levels.append((frontier, None))
        while True:
            cand = nbr[frontier].ravel()
            fresh = ~seen[cand]
            cand = cand[fresh]
            if cand.size == 0:
                break
            _, first = np.unique(cand, return_index=True)
            first.sort()
            parents = np.repeat(frontier, 4)[fresh][first]
            frontier = cand[first]
            seen[frontier] = True
            levels.append((frontier, parents))


def _fill_signs_fast(e1, e1_dot_xu):
    """Vectorized continuity sign fill for fully unmasked grids.

    Spanning tree: down the first column, then along each row; identical to
    the BFS result for that tree.
    """
    n, m = e1.shape[:2]
    seed = 1.0 if e1_dot_xu[0, 0] >= 0 else -1.0
    d0 = np.where(ambient.dot(e1[1:, 0], e1[:-1, 0]) >= 0, 1.0, -1.0)
    col0 = seed * np.concatenate([[1.0], np.cumprod(d0)])
    dr = np.where(ambient.dot(e1[:, 1:], e1[:, :-1]) >= 0, 1.0, -1.0)
    sign = col0[:, None] * np.concatenate(
        [np.ones((n, 1)), np.cumprod(dr, axis=1)], axis=1)
    return sign, int(seed)


def _unwrap_fast(beta):
    """Continuity unwrap along the same first-column-then-rows tree."""
    out = beta.copy()
    out[:, 0] = np.unwrap(beta[:, 0])
    return np.unwrap(out, axis=1)


def contact_angle_field(grid, max_masked_fraction=0.2):
    """Adapted frames and signed contact angle over a whole grid.

    e1's sign propagates by continuity from a seed chosen so that
    <e1, Xu> >= 0 there; beta is then unwrapped along the same tree so the
    field is continuous wherever the frames are.  Contact-degenerate nodes
    are masked; the call fails only if more than max_masked_fraction of the
    nodes are masked.
    """
    Xu, Xv = tangent_fields(grid)
    e1, e3, mask, xi = _raw_frames(grid.points, Xu, Xv)

    n_masked = int(mask.sum())
    if n_masked > max_masked_fraction * mask.size:
        ij = tuple(int(k) for k in np.unravel_index(np.argmax(mask), mask.shape))
        raise DegenerateContact(
            f"{n_masked} of {mask.size} nodes are contact-degenerate "
            f"(> {max_masked_fraction:.0%}), the first at node {ij}", node=ij)

    e1_dot_xu = ambient.dot(e1, Xu)
    if n_masked == 0:
        sign, seed_sign = _fill_signs_fast(e1, e1_dot_xu)
    else:
        levels = _flood_levels(grid.spec, mask)
        e1_flat = e1.reshape(-1, 4)
        sign = np.ones(mask.size)
        for nodes, parents in levels:
            if parents is None:
                d = e1_dot_xu.ravel()[nodes]
            else:
                d = ambient.dot(e1_flat[nodes], e1_flat[parents]) * sign[parents]
            sign[nodes] = np.where(d >= 0, 1.0, -1.0)
        seed_sign = int(sign[levels[0][0][0]]) if levels else 1
        sign = sign.reshape(mask.shape)

    e1 = sign[..., None] * e1
    # e2 = J_g e1, the metric quarter turn, at every node: a masked node's
    # e1 = z_perp lies in the contact plane, which is its tangent plane
    metric = grid.geometry[2]
    coeff1 = _tangent_coords(Xu, Xv, metric, e1)
    c1u, c1v = coeff1[..., 0], coeff1[..., 1]
    sg = metric.sqrt_det
    coeff2 = np.stack([-(metric.F * c1u + metric.G * c1v) / sg,
                       (metric.E * c1u + metric.F * c1v) / sg], axis=-1)
    e2 = coeff2[..., 0, None] * Xu
    e2 += coeff2[..., 1, None] * Xv
    beta = np.arctan2(ambient.dot(xi, e3), ambient.dot(xi, e2))
    if n_masked == 0:
        beta = _unwrap_fast(beta)
    else:
        # unwrap along the same tree (2 pi jumps only; masked nodes untouched)
        two_pi = 2.0 * np.pi
        beta_flat = beta.reshape(-1)
        for nodes, parents in levels:
            if parents is not None:
                beta_flat[nodes] += two_pi * np.round(
                    (beta_flat[parents] - beta_flat[nodes]) / two_pi)

    # holonomy diagnostic: cross edges where the propagated signs disagree
    up, um, vp, vm = _grid_neighbors(grid.spec)
    d_u = ambient.dot(e1, e1[up, :])
    d_v = ambient.dot(e1, e1[:, vp])
    good = ~mask
    mismatches = int(np.sum((d_u < 0) & good & good[up, :]))
    mismatches += int(np.sum((d_v < 0) & good & good[:, vp]))

    return FrameField(e1=e1, e2=e2, e3=e3, beta=beta,
                      coeff1=coeff1, coeff2=coeff2, mask=mask,
                      n_masked=n_masked, seed_sign=seed_sign,
                      sign_mismatches=mismatches)
