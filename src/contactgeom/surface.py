"""Parametric immersions into S^3 on structured grids and their adapted frames.

The adapted frame at a non-degenerate surface point consists of

* e1: unit generator of the intersection of the tangent plane with the
  contact plane, the line field the contact form induces on the surface:
  w = b Xu - a Xv for a = <Xu, xi> and b = <Xv, xi>, whose (Xu, Xv)-
  coordinates are c1 = s (b, -a) / |w|, with one sign s for the whole grid:
  the one that gives <w, Xu> = b E - a F >= 0 at the first unmasked node
  (<w, Xv> = b F - a G >= 0 where <w, Xu> is zero up to rounding);
* e2: the metric quarter turn of e1, whose (Xu, Xv)-coordinates are
  J_g c1 = (-F c1u - G c1v, E c1u + F c1v) / sqrt(det g); (e1, e2) is
  positively oriented relative to (Xu, Xv) by construction, and e2 takes
  its sign from e1;
* e3: the surface normal inside T S^3 completing (e1, e2, e3) to the
  orientation of the canonical frame (z_perp, i z_perp, i z), the
  normalized cross4(z, Xu, Xv).

The contact angle is stored as the smooth signed angle

    beta = atan2(<xi, e3>, <xi, e2>),

shifted by whole turns onto the first unmasked node's side of the cut at
+-pi, so that cos(beta) = <xi, e2> and sin(beta) = <xi, e3> hold to
roundoff and beta is differentiable wherever the surface stays away from
contact degeneracy.  Folding beta into [0, pi] would destroy
differentiability wherever the signed angle crosses zero (the great
sphere's equator, for instance), which is why the signed field is the
primitive object here.  Both components are per-node scalars: <xi, e3> is
the Kahler form <i Xu, Xv> over sqrt(det g), and <xi, e2> =
c2u a + c2v b = s |w| / sqrt(det g), where the metric length
|w| = sqrt(b^2 E - 2 a b F + a^2 G).  So the frame build forms no 4-vector
leg; e1, e2 and e3 are formed on their first read (FrameField).

Everything in this module is a pure function of its inputs, with no
sequential piece, so results never depend on evaluation order.  The tangent
pair is projected onto T_z S^3 once per grid and kept in one copy:
`sample` projects the analytic partials in place and stores them as
SurfaceGrid.partials, and geometry hands that pair out as it is, or
projects its finite-difference derivatives into new blocks that replace
them.  The pair and its Gram matrix (MetricField) are cached on the grid
as SurfaceGrid.geometry; every consumer reads that copy.  Every 4-vector
field (points, tangents, frame legs) is a C-contiguous (4, n_u, n_v)
array, components first (see `ambient`), so a per-node scalar c scales
it by plain broadcasting, c * v.  Within the frame build
each quantity takes one full-grid pass: <xi, e3> serves both the contact
mask and beta's numerator, and |w| both e1's coordinates and beta's
denominator.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import ambient
from .errors import DegenerateContact, DegenerateParametrization, OffSphere, RangeError
from .gridops import GridCalc

OFF_SPHERE_TOL = 1e-6
GRAM_DET_TOL = 1e-10
DEGENERACY_TOL = 1e-9   # mask when |<xi, n>| > 1 - DEGENERACY_TOL
MAX_MASKED_FRACTION = 0.2
SEED_TOL = 1e-12        # |<w, Xu>| <= SEED_TOL |Xu|^2 |Xv| is rounding; see below

_TOPOLOGIES = ("periodic", "chart")


@dataclass(frozen=True)
class GridSpec:
    """Parameter rectangle and node counts for a structured grid.

    Periodic axes exclude the right endpoint (step = span / n); chart axes
    include both endpoints (step = span / (n - 1)).  RangeError refuses
    fewer than 8 nodes on an axis, an unknown topology and a range that is
    not finite and increasing.
    """

    n_u: int
    n_v: int
    u_range: tuple = (0.0, 2.0 * np.pi)
    v_range: tuple = (0.0, 2.0 * np.pi)
    topology_u: str = "periodic"
    topology_v: str = "periodic"

    def __post_init__(self):
        if self.n_u < 8 or self.n_v < 8:
            raise RangeError("grids need at least 8 nodes per axis")
        if self.topology_u not in _TOPOLOGIES or self.topology_v not in _TOPOLOGIES:
            raise RangeError(f"topology must be one of {_TOPOLOGIES}")
        spans = (self.u_range[1] - self.u_range[0], self.v_range[1] - self.v_range[0])
        if not all(0.0 < span < np.inf for span in spans):
            raise RangeError("parameter ranges must be finite and increasing")

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

    def mesh(self, sparse=False):
        """(U, V) node coordinates, full (n_u, n_v) arrays, or with sparse an
        (n_u, 1) column and a (1, n_v) row that broadcast to them."""
        return np.meshgrid(self.us, self.vs, indexing="ij", sparse=sparse)


def _worst_node(x):
    """Node of the largest entry of x, or of its first NaN, as a tuple of ints."""
    return tuple(int(k) for k in np.unravel_index(np.argmax(x), x.shape))


@dataclass
class MetricField:
    """First fundamental form in the (Xu, Xv) basis; det and sqrt_det are
    formed on first read, once per metric.  The inverse is not kept: its one
    reader, laplace_beltrami, forms it from E, F, G and det on each call.

    Raises DegenerateParametrization, naming the node, unless the Gram
    determinant is at least GRAM_DET_TOL everywhere (a NaN entry fails).
    """

    E: np.ndarray
    F: np.ndarray
    G: np.ndarray

    def __post_init__(self):
        det = self.det
        if not np.all(det >= GRAM_DET_TOL):
            ij = _worst_node(-det)
            raise DegenerateParametrization(
                f"tangent Gram determinant {det[ij]:.3e} at node {ij}", node=ij)

    @cached_property
    def det(self):
        return self.E * self.G - self.F * self.F

    @cached_property
    def sqrt_det(self):
        return np.sqrt(self.det)


class SurfaceGrid:
    """Grid of unit-sphere points with optional analytic parameter derivatives.

    points is a (4, n_u, n_v) array of 4-vectors, components first, and is
    stored C-contiguous (copied only if it is not).  partials, when
    present, is a dict with keys "fu" and "fv", each a (4, n_u, n_v)
    array: a first derivative of the point map projected onto T_z S^3, the
    tangent pair as `sample` stores it.  geometry reads the pair from there.
    """

    def __init__(self, spec, points, partials=None, label=""):
        points = np.ascontiguousarray(points, float)
        if points.shape != (4, spec.n_u, spec.n_v):
            raise ValueError(f"points shape {points.shape} is not (4, n_u, n_v) "
                             f"= {(4, spec.n_u, spec.n_v)}")
        self.spec = spec
        self.points = points
        self.partials = partials
        self.label = label

    @cached_property
    def calc(self):
        return GridCalc(self.spec)

    @cached_property
    def geometry(self):
        """(Xu, Xv, metric): the tangent pair and its Gram matrix; see tangent_fields.

        The stored partials are the pair itself.  Each finite-difference
        derivative is projected onto T_z S^3 into one new block, with no
        full-size temporary, and both derivatives are released after.
        (Projecting them in place, or releasing each before the next is
        projected, left a smaller traced peak but raised analyze_cap193's
        peak RSS by 2 MB in every run: the allocator reused the freed
        blocks differently.)
        """
        if self.partials is not None:
            Xu, Xv = self.partials["fu"], self.partials["fv"]
        else:
            z = self.points
            Xu, Xv = (_tangent_part(X, z) for X in (self.calc.du(z), self.calc.dv(z)))
        return Xu, Xv, MetricField(ambient.dot(Xu, Xu), ambient.dot(Xu, Xv),
                                   ambient.dot(Xv, Xv))

    def with_points(self, points):
        """A grid on other points with this grid's spec and label, and no
        analytic partials."""
        return SurfaceGrid(self.spec, points, label=self.label)


def _tangent_part(X, z):
    """X - <X, z> z, the part of the field X tangent to S^3 at z, formed
    into one new block."""
    part = ambient.dot(X, z) * z
    return np.subtract(X, part, out=part)


def _onto_sphere(points):
    """The (4, n_u, n_v) field points divided by its norms, a new block.

    Raises OffSphere, naming the node, when a norm is off 1 by more than
    OFF_SPHERE_TOL or is NaN; sample and the sample-file reader both
    normalize through here.
    """
    norms = ambient.norm(points)
    dev = np.abs(norms - 1.0)
    if not np.all(dev <= OFF_SPHERE_TOL):
        ij = _worst_node(dev)
        raise OffSphere(f"node {ij} is off S^3 by {dev[ij]:.3e} "
                        f"(norm {norms[ij]:.6f}) before normalization", node=ij)
    return points / norms


def sample(definition, spec):
    """Evaluate an immersion definition on a grid and normalize onto S^3.

    definition is either a callable (U, V) -> (4, n_u, n_v), called on the
    full mesh, or an object with a .point(U, V) method and an optional
    .d1(U, V) -> (fu, fv) method for analytic first partials.  Every field
    they return has its 4 components first (ValueError otherwise).  The
    methods are called on the sparse mesh and must broadcast it to the full
    grid, as the catalog entries do, so a factor that depends on one
    parameter is evaluated once per node of its axis.

    The analytic partials are projected onto T_z S^3 in place, df - <df, f> f
    one component at a time, with the inner products the tangency check
    reads, and stored as the grid's tangent pair; d1 hands over arrays of
    its own (a read-only one is copied first).

    Raises OffSphere, naming the node, when an evaluated point deviates
    from unit norm by more than 1e-6 before normalization, or when an
    analytic partial has |<df, f>| above 1e-10.
    """
    entry = hasattr(definition, "point")
    U, V = spec.mesh(sparse=entry)
    point = definition.point if entry else definition
    pts = _onto_sphere(np.asarray(point(U, V), float))

    partials = None
    d1 = getattr(definition, "d1", None)
    if d1 is not None:
        partials = {}
        for key, df in zip(("fu", "fv"), d1(U, V)):
            df = np.require(df, float, "W")
            c = ambient.dot(df, pts)
            tang = np.abs(c)
            if not np.all(tang <= 1e-10):
                ij = _worst_node(tang)
                raise OffSphere(f"analytic partial {key} is not tangent to the "
                                f"sampled point at node {ij} "
                                f"(|<df, f>| = {tang[ij]:.3e})", node=ij)
            for df_k, pts_k in zip(df, pts):
                df_k -= c * pts_k
            partials[key] = df
    label = getattr(definition, "name", getattr(definition, "__name__", "surface"))
    return SurfaceGrid(spec, pts, partials, label)


def tangent_fields(grid):
    """Per-node tangent pair (Xu, Xv), analytic when stored, else 6th-order FD.

    Both routes project onto T_z S^3, once per grid.  Raises
    DegenerateParametrization if the Gram determinant drops below 1e-10
    anywhere.  The pair and its Gram matrix are computed once per grid and
    cached there.
    """
    return grid.geometry[:2]


@dataclass
class FrameField:
    """Adapted frames over a grid.

    coeff1/coeff2 hold the (Xu, Xv)-coordinates (cu, cv) of e1/e2, a pair
    of fields each, used to take directional derivatives along frame legs
    with parameter-space stencils.
    mask flags contact-degenerate nodes (frames meaningless there).  e1
    takes one sign over the whole grid; see contact_angle_field.  beta and
    the coordinates are formed with the frames; the normal e3 is formed
    from the grid on first read.  The analysis reads e1 and e2 one
    component at a time (leg_component), so no command forms them; the
    legs e1, e2 and the diagnostic sign_mismatches are formed on first
    read, for the tests, the demos and the benchmark's counter.
    """

    grid: SurfaceGrid = field(repr=False)
    beta: np.ndarray
    coeff1: tuple
    coeff2: tuple
    mask: np.ndarray
    n_masked: int = 0

    def leg_component(self, coeff, k):
        """Component k of the leg cu Xu + cv Xv with coordinates coeff =
        (cu, cv): cu Xu[k], then cv Xv[k] added in place."""
        Xu, Xv = self.grid.geometry[:2]
        cu, cv = coeff
        leg_k = cu * Xu[k]
        leg_k += cv * Xv[k]
        return leg_k

    def _leg(self, coeff):
        """The leg with coordinates coeff as one field, formed component by
        component (leg_component)."""
        leg = np.empty_like(self.grid.geometry[0])
        for k in range(4):
            leg[k] = self.leg_component(coeff, k)
        return leg

    @cached_property
    def e1(self):
        """The signed unit contact leg, from its coordinates coeff1."""
        return self._leg(self.coeff1)

    @cached_property
    def e2(self):
        """The metric quarter turn of e1, from its coordinates coeff2."""
        return self._leg(self.coeff2)

    @cached_property
    def e3(self):
        """The unit normal of the tangent pair; see _unit_normal."""
        Xu, Xv = self.grid.geometry[:2]
        return _unit_normal(self.grid.points, Xu, Xv)

    @cached_property
    def sign_mismatches(self):
        """Edges whose e1 legs disagree; see _sign_mismatches."""
        return _sign_mismatches(self.grid.spec, self.e1, self.mask)


def _unit_normal(z, Xu, Xv):
    """The surface normal e3 inside T_z S^3: cross4(z, Xu, Xv), normalized.

    It satisfies det[z, e1, e2, e3] = +1, the canonical-frame orientation,
    for any (e1, e2) positively oriented against (Xu, Xv), and it stays
    continuous across contact degeneracies.  This is the package's one
    cross4 call; the frames and the catalog's normal bumps both read it.
    """
    e3 = ambient.cross4(z, Xu, Xv)
    e3 /= np.maximum(ambient.norm(e3), 1e-300)
    return e3


def _moved_points(z, e3, psi):
    """z + psi e3 put back on S^3: the normal move of the catalog's bumps and
    of every descent trial."""
    moved = psi * e3
    moved += z
    moved /= ambient.norm(moved)
    return moved


def _raw_frames(z, Xu, Xv, metric):
    """Per-node scalars of the contact leg and of beta; no 4-vector is formed.

    Returns (a, b, xin, wn): a = <Xu, xi> and b = <Xv, xi>, the Reeb
    components of the tangent pair; xin = <xi, e3>, beta's numerator; and
    wn = |w|, the metric length of w = b Xu - a Xv, whose coordinates are
    (b, -a).  w spans the contact leg, continuous away from the
    characteristic foliation's singular points (contact_angle_field gives
    it one global sign).  For Xu, Xv tangent to S^3 at z,
    <i z, cross4(z, Xu, Xv)> is the Kahler form <i Xu, Xv>, and
    |cross4(z, Xu, Xv)| is sqrt(det g), so xin = <i Xu, Xv> / sqrt(det g)
    without forming e3.
    """
    xin = ambient.kahler(Xu, Xv) / metric.sqrt_det
    # <Xu, i z> = <i z, Xu>: the Kahler form of (z, Xu), xi never formed
    a = ambient.kahler(z, Xu)
    b = ambient.kahler(z, Xv)
    wn = np.sqrt(b * b * metric.E - 2.0 * a * b * metric.F + a * a * metric.G)
    return a, b, xin, wn


def _sign_mismatches(spec, e1, mask):
    """Diagnostic: grid edges between unmasked nodes whose signed e1 legs
    disagree, <e1, e1'> < 0, counted once each.  With one global sign these
    are the edges next to a singular point of the characteristic foliation,
    where e1 turns by more than a quarter turn over one edge.

    Reads each axis' interior edges as shifted slices, plus the wrap edge
    on a periodic axis; a chart axis has no edge past its last node.  The
    slices of e1 skip its leading component axis.
    """
    good = ~mask

    def count(a, b, ok_a, ok_b):
        return int(np.count_nonzero((ambient.dot(a, b) < 0) & ok_a & ok_b))

    total = count(e1[:, 1:], e1[:, :-1], good[1:], good[:-1])
    total += count(e1[:, :, 1:], e1[:, :, :-1], good[:, 1:], good[:, :-1])
    if spec.topology_u == "periodic":
        total += count(e1[:, 0], e1[:, -1], good[0], good[-1])
    if spec.topology_v == "periodic":
        total += count(e1[:, :, 0], e1[:, :, -1], good[:, 0], good[:, -1])
    return total


def contact_angle_field(grid):
    """Adapted frames and signed contact angle over a whole grid.

    e1 spans the line field w = b Xu - a Xv that the contact form induces
    on the surface, continuous away from the characteristic foliation's
    singular points, so the whole grid takes one sign s: the one that gives
    <w, Xu> = b E - a F >= 0 at the first unmasked node in row-major order,
    also on a grid whose mask splits it into parts, or <w, Xv> = b F - a G
    >= 0 there where |<w, Xu>| <= SEED_TOL |Xu|^2 |Xv|, zero up to rounding
    (a few eps |Xu|^2 |Xv|, 1/h times more for finite-difference tangents),
    so that no last bit picks beta's branch.  e1's coordinates are
    c1 = s (b, -a) / |w|, and cos(beta) = <xi, e2> = s |w| / sqrt(det g)
    carries that one sign, so beta lies in [-pi/2, pi/2] for s = +1 and
    needs no turn; for s = -1 each node takes the 2 pi turns that bring it
    to the seed's side of the cut at +-pi.  Masked nodes take e1 = Xu / |Xu|
    and keep their beta as it is.  A node is masked, contact-degenerate,
    where |<xi, e3>| > 1 - DEGENERACY_TOL; the call fails only if more than
    MAX_MASKED_FRACTION of the nodes are masked.
    """
    Xu, Xv = tangent_fields(grid)
    metric = grid.geometry[2]
    a, b, xin, wn = _raw_frames(grid.points, Xu, Xv, metric)
    # |w| = sqrt(det g) |xi^T|, with xi^T the part of xi tangent to the
    # surface; the mask holds every node with |xi^T| below about 4.5e-5, so
    # also every node with |w| < 1e-14, where |xi^T| < 1e-9 as
    # det g >= GRAM_DET_TOL
    mask = np.abs(xin) > 1.0 - DEGENERACY_TOL

    n_masked = int(mask.sum())
    if n_masked > MAX_MASKED_FRACTION * mask.size:
        ij = _worst_node(mask)
        raise DegenerateContact(
            f"{n_masked} of {mask.size} nodes are contact-degenerate "
            f"(> {MAX_MASKED_FRACTION:.0%}), the first at node {ij}", node=ij)

    seed = np.unravel_index(np.argmin(mask), mask.shape)
    E, F, G = metric.E[seed], metric.F[seed], metric.G[seed]
    w_xu, w_xv = b[seed] * E - a[seed] * F, b[seed] * F - a[seed] * G
    w_seed = w_xu if abs(w_xu) > SEED_TOL * E * np.sqrt(G) else w_xv
    s = 1.0 if w_seed >= 0 else -1.0
    # masked nodes, where |w| is near 0, take e1 = Xu / |Xu|, c1 = (1 / sqrt(E), 0)
    keep = ~mask
    c1u = np.divide(s * b, wn, out=np.empty_like(wn), where=keep)
    c1u[mask] = 1.0 / np.sqrt(metric.E[mask])
    c1v = np.divide(-s * a, wn, out=np.zeros_like(wn), where=keep)
    sg = metric.sqrt_det
    c2u = -(metric.F * c1u + metric.G * c1v) / sg
    c2v = (metric.E * c1u + metric.F * c1v) / sg
    # cos(beta) = c2u a + c2v b = s (G a^2 - 2 F a b + E b^2) / (|w| sqrt(det g))
    beta = np.arctan2(xin, s * wn / sg)
    # whole turns onto the seed's side of +-pi, for the sign -1 only: under
    # +1, cos(beta) >= 0, so |beta| <= pi / 2 and every turn would be +-0.0,
    # which leaves beta as it is (beta is never -0.0: kahler sums onto +0.0)
    if s < 0:
        two_pi = 2.0 * np.pi
        np.add(beta, two_pi * np.round((beta[seed] - beta) / two_pi), out=beta,
               where=keep)

    return FrameField(grid=grid, beta=beta, coeff1=(c1u, c1v),
                      coeff2=(c2u, c2v), mask=mask, n_masked=n_masked)
