"""Discrete differential operators in the adapted frame and identity checks.

Sign and convention summary (fixed by the orientation decisions in
`surface`):

* shape operator reported in the Weingarten sign, S_ij = -<D_{e_i} e3, e_j>,
  so the flat minimal torus comes out as [[0,-1],[-1,0]];
* Gauss equation in S^3: K = 1 + det S (det is sign-blind, so the reported
  sign does not affect it);
* connection form theta_2^1 evaluated as <D_{e_k} e2, e1>.

The verified identities, with beta the signed contact angle and
beta_1 = d beta(e1), beta_2 = d beta(e2):

    K = 1 - (beta_1 + 1)^2 - beta_2^2
    Lap(beta) = -tan(beta) ((beta_1 + 2)^2 + beta_2^2)
    <D_{e1} e2, e1> = tan(beta) beta_2
    <D_{e2} e2, e1> = -tan(beta) (beta_1 + 2)

build_analysis returns a SurfaceAnalysis whose fields are formed when
first read, each at most once per grid.  IDENTITIES gives each identity one
row: the residual it reads from the analysis, whether nodes within
TAN_BAND of the tan poles beta = +-pi/2 are excluded from its norms (the
Laplacian and connection identities, where tan(beta) enters), and its
finest-level bound.  The row's `kept` nodes are the ones its norms read:
verify_identity reports how many nodes it excluded, and `analyze` writes
each residual column as 0 at the nodes its identity leaves out.  The
descent in `flow` reads its energy, max|H| and gradient from the same
object, and `analyze` its area and energy.  The first fundamental form is
the one `surface` caches on the grid.
"""

import math
from dataclasses import dataclass
from functools import cached_property, partial
from typing import NamedTuple

import numpy as np

from . import ambient
from .errors import DegenerateContact, RangeError
from .gridops import CENTRAL_OFFSETS
from .surface import _worst_node, contact_angle_field

# the one tan-pole band of analyze and verify: nodes whose beta lies within
# it of a tan pole are left out where tan(beta) enters a residual
TAN_BAND = 1e-3
# rows at each chart edge that the central stencil cannot reach (its
# half-width); a residual's interior L-infinity leaves them out
EDGE_ROWS = int(CENTRAL_OFFSETS[-1])


@dataclass
class ShapeOperatorField:
    """Shape operator in the orthonormal frame (e1, e2), Weingarten sign."""

    S: np.ndarray          # (..., 2, 2)
    mask: np.ndarray

    @property
    def H(self):
        return 0.5 * (self.S[..., 0, 0] + self.S[..., 1, 1])

    @property
    def det(self):
        return (self.S[..., 0, 0] * self.S[..., 1, 1]
                - self.S[..., 0, 1] * self.S[..., 1, 0])


def _along_frame(frames, f_u, f_v):
    """(df(e1), df(e2)) from the parameter derivatives f_u, f_v of a scalar f:
    with e_i = c_iu Xu + c_iv Xv, df(e_i) = c_iu f_u + c_iv f_v."""
    return [cu * f_u + cv * f_v for cu, cv in (frames.coeff1, frames.coeff2)]


def _along_legs(frames, calc, component, coeffs):
    """The pairs (<D_{e1} X, e>, <D_{e2} X, e>), one for the leg e of each
    (Xu, Xv)-coordinate pair in coeffs, from X's parameter derivatives;
    component(k) is X's component k.

    Each result is c_iu <d_u X, e> + c_iv <d_v X, e>: two inner products
    per leg, shared by both e_i, and no D_{e_i} X field is formed.  The
    inner products are summed one component k at a time: X's component is
    differentiated as a scalar field (bit for bit component k of the
    vector stencil), each leg's component is formed from its pair
    (FrameField.leg_component), and ambient.accumulate adds their products
    in dot's order.  So the bits are those of dot(d_u X, e), while no
    4-vector leg or derivative is formed.  A leg's inner products are
    released as its pair is formed.
    """
    r_u = [np.zeros(frames.beta.shape) for _ in coeffs]
    r_v = [np.zeros(frames.beta.shape) for _ in coeffs]
    for k in range(4):
        x_k = component(k)
        d_u, d_v = calc.du(x_k), calc.dv(x_k)
        del x_k
        for coeff, t_u, t_v in zip(coeffs, r_u, r_v):
            leg_k = frames.leg_component(coeff, k)
            ambient.accumulate(t_u, d_u, leg_k)
            ambient.accumulate(t_v, d_v, leg_k)
            del leg_k
        del d_u, d_v
    return [_along_frame(frames, r_u.pop(0), r_v.pop(0)) for _ in coeffs]


def shape_operator(grid, frames):
    """S_ij = -<D_{e_i} e3, e_j> by differentiating the constructed e3 field.

    Directional derivatives use the (Xu, Xv)-coordinates of the frame legs,
    and e3's derivatives are contracted with e1 and e2 one component at a
    time (see _along_legs); inner products against tangent frame legs
    discard ambient normal parts.
    """
    # every leg's pair is turned into its frame components, and released,
    # before S is allocated
    along = _along_legs(frames, grid.calc, frames.e3.__getitem__,
                        (frames.coeff1, frames.coeff2))
    S = np.empty(frames.beta.shape + (2, 2))
    for j, comp in enumerate(along):
        for i in range(2):
            np.negative(comp[i], out=S[..., i, j])
    S[frames.mask] = 0.0
    return ShapeOperatorField(S=S, mask=frames.mask)


def gaussian_curvature_intrinsic(metric, grid):
    """Brioschi formula: K = (m1 - m2) / det(g)^2 from the metric components alone.

    m1 and m2 are the determinants of

        [[-Evv/2 + Fuv - Guu/2, Eu/2, Fu - Ev/2],     [[0,    Ev/2, Gu/2],
         [Fv - Gu/2,            E,    F        ],      [Ev/2, E,    F   ],
         [Gv/2,                 F,    G        ]],     [Gu/2, F,    G   ]],

    each expanded along its first row as
    a (E G - F F) - b (d G - F g) + c (d F - E g), with E G - F F the
    metric's det.  m2 is formed first.  Each partial is formed just before
    its first use and released after its last, halved or combined in place
    (the same operations as out of place), so the nine partials and the
    eight row entries are never alive together.
    """
    calc = grid.calc
    E, F, G, EG_FF = metric.E, metric.F, metric.G, metric.det
    half_Ev = calc.dv(E)
    half_Ev *= 0.5
    half_Gu = calc.du(G)
    half_Gu *= 0.5
    m2 = 0.0 * EG_FF    # the zero entry's term keeps its signed zeros
    m2 -= half_Ev * (half_Ev * G - F * half_Gu)
    m2 += half_Gu * (half_Ev * F - E * half_Gu)

    Fv = calc.dv(F)
    a = calc.dvv(E)
    a *= -0.5
    a += calc.du(Fv)
    half_Guu = calc.duu(G)
    half_Guu *= 0.5
    a -= half_Guu
    del half_Guu
    d = Fv
    d -= half_Gu        # Fv - Gu/2, once Fuv is formed
    del Fv, half_Gu
    g = calc.dv(G)
    g *= 0.5
    m1 = a * EG_FF
    del a
    b = calc.du(E)
    b *= 0.5
    m1 -= b * (d * G - F * g)
    del b
    c = calc.du(F)
    c -= half_Ev
    del half_Ev
    m1 += c * (d * F - E * g)
    m1 -= m2
    return m1 / EG_FF ** 2


def frame_gradient(fieldvals, frames, grid, partials=None):
    """The pair (d f(e1), d f(e2)) from parameter-space derivatives and frame
    coords; partials is the pair (f_u, f_v) where the caller has formed it."""
    if partials is None:
        partials = grid.calc.du(fieldvals), grid.calc.dv(fieldvals)
    return tuple(_along_frame(frames, *partials))


def laplace_beltrami(fieldvals, metric, grid, partials=None):
    """Conservative Laplace-Beltrami: (1/sqrt g) d_i(sqrt g g^ij d_j f);
    partials is the pair (f_u, f_v) where the caller has formed it.

    g^uu = G/det, g^uv = -F/det and g^vv = E/det are formed on each call and
    the fluxes sg (g^uu fu + g^uv fv) and sg (g^uv fu + g^vv fv) built in
    place, each temporary released after its last use.  Every product and
    sum is the formula's, with at most its two factors swapped, and IEEE
    multiplication commutes, so the result has the formula's bits.
    """
    calc = grid.calc
    d = metric.det
    sg = metric.sqrt_det
    if partials is None:
        partials = calc.du(fieldvals), calc.dv(fieldvals)
    fu, fv = partials
    del partials
    iuv = np.negative(metric.F)
    iuv /= d
    pu = np.divide(metric.G, d)
    pu *= fu
    t = iuv * fv
    pu += t
    pu *= sg
    pv = iuv
    pv *= fu
    del fu
    np.divide(metric.E, d, out=t)
    t *= fv
    del fv
    pv += t
    del t
    pv *= sg
    lap = calc.du(pu)
    del pu
    lap += calc.dv(pv)
    del pv
    lap /= sg
    return lap


def tan_pole_distance(beta):
    """Distance of the signed angle field to the nearest tan pole (odd
    multiple of pi/2): np.abs(np.remainder(beta, pi) - pi / 2) bit for bit.

    np.remainder is fmod with the fix-up formed here, pi added where fmod is
    below 0, in a loop about four times slower; its -0.0 -> +0.0 step is
    left out, as abs(+-0.0 - pi / 2) is one value.
    """
    dist = np.fmod(beta, math.pi)
    np.add(dist, math.pi, out=dist, where=dist < 0.0)
    dist -= math.pi / 2.0
    return np.abs(dist, out=dist)


class Level(NamedTuple):
    """Norms of one identity's residual on one grid: verify_identity's result
    and one refinement level of an IdentityReport."""

    n: int
    linf: float
    l2: float
    excluded: int
    node: tuple             # (i, j) of the L-infinity
    interior_linf: float    # L-infinity at least EDGE_ROWS from a chart edge, or None


class SurfaceAnalysis:
    """The fields verify_identity, reports and descent read, each formed when first read.

    Every field is formed at most once per analysis and only when something
    reads it, so verifying one identity pays for its residual alone.
    Degenerate input (DegenerateContact, DegenerateParametrization) raises
    on the first read of a field that needs the frames or the metric.
    """

    def __init__(self, grid):
        self.grid = grid

    @cached_property
    def frames(self):
        return contact_angle_field(self.grid)

    @cached_property
    def metric(self):
        """The first fundamental form cached on the grid."""
        return self.grid.geometry[2]

    @cached_property
    def shape(self):
        return shape_operator(self.grid, self.frames)

    @cached_property
    def H(self):
        """Mean curvature; zero on masked nodes, where the shape operator is."""
        return self.shape.H

    @cached_property
    def area(self):
        """Quadrature of sqrt(det g)."""
        return float(np.sum(self.metric.sqrt_det * self.grid.calc.quad_weights))

    @cached_property
    def energy(self):
        """E = integral of H^2 dA; zero exactly on minimal surfaces."""
        return float(np.sum(self.H ** 2 * self.metric.sqrt_det
                            * self.grid.calc.quad_weights))

    @cached_property
    def max_H(self):
        return float(np.max(np.abs(self.H)))

    @cached_property
    def willmore_G(self):
        """G with dE = integral G psi dA for the normal displacement psi e3."""
        H = self.H
        return (laplace_beltrami(H, self.metric, self.grid)
                + 2.0 * H * (H ** 2 - self.shape.det + 1.0))

    @cached_property
    def K_int(self):
        return gaussian_curvature_intrinsic(self.metric, self.grid)

    @cached_property
    def K_ext(self):
        """Gauss equation in S^3: K = 1 + det S."""
        return 1.0 + self.shape.det

    @cached_property
    def grad_beta(self):
        """The pair (beta_1, beta_2) = (d beta(e1), d beta(e2)), from the
        partials of beta that lap_beta left, or from its own."""
        return frame_gradient(self.frames.beta, self.frames, self.grid,
                              partials=vars(self).pop("_beta_partials", None))

    @cached_property
    def lap_beta(self):
        """Lap(beta).  Formed before grad_beta, it leaves the partials of
        beta it forms for grad_beta, so each stencil is applied to beta
        once; formed after, it forms and frees its own."""
        beta = self.frames.beta
        partials = None
        if "grad_beta" not in vars(self):
            calc = self.grid.calc
            partials = self._beta_partials = calc.du(beta), calc.dv(beta)
        return laplace_beltrami(beta, self.metric, self.grid, partials=partials)

    @cached_property
    def tan_band(self):
        return tan_pole_distance(self.frames.beta) < TAN_BAND

    @cached_property
    def tan_beta(self):
        """tan(beta), zeroed inside the tan-pole band."""
        tan = np.tan(self.frames.beta)
        tan[self.tan_band] = 0.0
        return tan

    @cached_property
    def res_curvature(self):
        beta1, beta2 = self.grad_beta
        return self.K_int - (1.0 - (beta1 + 1.0) ** 2 - beta2 ** 2)

    @cached_property
    def res_laplacian(self):
        lap_beta = self.lap_beta
        beta1, beta2 = self.grad_beta
        return lap_beta + self.tan_beta * ((beta1 + 2.0) ** 2 + beta2 ** 2)

    @cached_property
    def res_connection(self):
        """The residuals of the two connection identities, as a pair."""
        frames, (beta1, beta2), tan_beta = self.frames, self.grad_beta, self.tan_beta
        e2_k = partial(frames.leg_component, frames.coeff2)
        comp, = _along_legs(frames, self.grid.calc, e2_k, (frames.coeff1,))
        return comp[0] - tan_beta * beta2, comp[1] - (-tan_beta * (beta1 + 2.0))

    @property
    def valid(self):
        return ~self.frames.mask


def build_analysis(grid):
    """Frames, curvature, gradients, Laplacian and residual fields for a grid.

    Nothing is formed here; each field of the returned SurfaceAnalysis is
    formed on its first read.
    """
    return SurfaceAnalysis(grid)


@dataclass(frozen=True)
class Identity:
    """One row of IDENTITIES."""

    residual: object    # analysis -> residual field, formed when called
    off_band: bool      # nodes within TAN_BAND of a tan pole are excluded
    bound: float        # finest-level L-infinity bound of a passing verify run

    def kept(self, an):
        """Nodes the identity's norms keep: unmasked, and off the band if off_band."""
        return an.valid & ~an.tan_band if self.off_band else an.valid


# the bounds were measured with generous headroom on the analytic catalog
# surfaces; the band is excluded where tan(beta) enters the residual
IDENTITIES = {
    "curvature": Identity(lambda an: an.res_curvature, False, 1e-4),
    "laplacian": Identity(lambda an: an.res_laplacian, True, 1e-3),
    "connection": Identity(lambda an: np.maximum(*map(np.abs, an.res_connection)),
                           True, 1e-3),
    "gauss": Identity(lambda an: an.K_int - an.K_ext, False, 5e-5),
}


def verify_identity(an, name):
    """The Level of the named identity's residual over the nodes its row
    keeps, with n the grid's node count along u.

    Masked nodes are excluded, and band nodes where the row says so.  The
    level also names the node of the L-infinity and gives the L-infinity
    over kept nodes at least EDGE_ROWS rows (one stencil half-width) from
    every chart edge.  Those nodes are not free of edge error: the residuals
    chain derivatives, so the one-sided rows feed the central stencil some
    two or three half-widths in.  Raises
    DegenerateContact, naming the unmasked node nearest a pole, when no node
    is kept: empty norms would read as a residual at the roundoff floor.
    """
    row = IDENTITIES[name]
    res = row.residual(an)
    keep = row.kept(an)
    if not keep.any():
        dist = np.where(an.valid, tan_pole_distance(an.frames.beta), np.inf)
        node = _worst_node(-dist)
        raise DegenerateContact(
            f"{name} identity: every unmasked node lies within the tan-pole "
            f"band {TAN_BAND:g}, node {node} nearest a pole", node=node)
    vals = res[keep]
    l2 = float(np.sqrt(np.mean(vals ** 2)))
    del vals
    # |res| on the kept nodes and -1 elsewhere, so its argmax is a kept node
    # and its maximum the L-infinity, bit for bit
    mag = np.full(res.shape, -1.0)
    np.abs(res, out=mag, where=keep)
    node = np.unravel_index(np.argmax(mag), mag.shape)
    spec = an.grid.spec
    inner = mag[tuple(slice(EDGE_ROWS, -EDGE_ROWS) if topology == "chart" else slice(None)
                      for topology in (spec.topology_u, spec.topology_v))]
    interior = float(inner.max())   # GridSpec's 8-node floor leaves rows 3..n-4
    return Level(spec.n_u, float(mag[node]), l2, int(np.sum(~keep)),
                 tuple(int(i) for i in node), None if interior < 0.0 else interior)


ORDER_THRESHOLD = 1.7
FLOOR = 1e-10


def observed_order(ns, norms):
    """Least-squares slope of log(norm) against log(1/n) across levels."""
    ns = np.asarray(ns, float)
    norms = np.asarray(norms, float)
    if np.all(norms < FLOOR):
        return None  # at the roundoff floor; order is meaningless
    safe = np.maximum(norms, 1e-300)
    slope = np.polyfit(np.log(1.0 / ns), np.log(safe), 1)[0]
    return float(slope)


class IdentityReport(NamedTuple):
    """One identity's Levels across refinement, coarsest first, and the
    observed order of their L-infinity (None at the roundoff floor)."""

    name: str
    levels: list            # [Level, ...]
    order: float

    @property
    def passed(self):
        """Exit criterion: order >= 1.7 (or at the floor) and the finest
        level's L-infinity within the identity's bound."""
        order_ok = self.order is None or self.order >= ORDER_THRESHOLD
        return bool(order_ok and self.levels[-1].linf <= IDENTITIES[self.name].bound)


def refinement_study(entry, identity, levels):
    """Run one identity across nested grids and report its levels plus order.

    entry is a catalog entry (or anything sample() accepts with a
    default_spec method); levels are per-axis node counts, at least three,
    strictly increasing so that the last is the finest (RangeError
    otherwise, or for an unknown identity).
    """
    if len(levels) < 3:
        raise RangeError("refinement needs at least 3 grid levels")
    if any(a >= b for a, b in zip(levels, levels[1:])):
        raise RangeError(f"refinement levels must increase strictly, got {levels}")
    if identity not in IDENTITIES:
        raise RangeError(f"unknown identity {identity!r}")
    specs = [entry.default_spec(int(n)) for n in levels]  # GridSpec checks each n
    rows = [verify_identity(build_analysis(entry.sample(spec)), identity)
            for spec in specs]
    order = observed_order([r.n for r in rows], [r.linf for r in rows])
    return IdentityReport(identity, rows, order)
