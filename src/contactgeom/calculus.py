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
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import ambient
from .errors import DegenerateContact
from .surface import _worst_node, contact_angle_field

# the one tan-pole band of analyze and verify: nodes whose beta lies within
# it of a tan pole are left out where tan(beta) enters a residual
TAN_BAND = 1e-3


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


def _along_legs(frames, calc, X, legs):
    """Yields (<D_{e1} X, leg>, <D_{e2} X, leg>) for each leg in turn, from
    X's parameter derivatives.

    Each component is c_iu <d_u X, leg> + c_iv <d_v X, leg>: two inner
    products per leg, shared by both e_i, and no D_{e_i} X field is formed.
    d_u X is reduced to its inner products and released before d_v X is
    formed, so one derivative field is alive at a time, and a leg's inner
    products are released once its pair is formed.
    """
    per_axis = []
    for diff in (calc.du, calc.dv):
        d = diff(X)
        per_axis.append([ambient.dot(d, leg) for leg in legs])
        del d
    r_u, r_v = per_axis
    while r_u:
        yield _along_frame(frames, r_u.pop(0), r_v.pop(0))


def shape_operator(grid, frames):
    """S_ij = -<D_{e_i} e3, e_j> by differentiating the constructed e3 field.

    Directional derivatives use the (Xu, Xv)-coordinates of the frame legs
    (see _along_legs); inner products against tangent frame legs discard
    ambient normal parts.
    """
    # the lazy e2 is formed before e3 is differentiated, not while a
    # derivative field is alive, and S once e3's derivatives are released
    legs = (frames.e1, frames.e2)
    for j, along in enumerate(_along_legs(frames, grid.calc, frames.e3, legs)):
        if j == 0:
            S = np.empty(frames.beta.shape + (2, 2))
        for i in range(2):
            np.negative(along.pop(0), out=S[..., i, j])
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


def frame_gradient(fieldvals, frames, grid):
    """The pair (d f(e1), d f(e2)) from parameter-space derivatives and frame coords."""
    calc = grid.calc
    return tuple(_along_frame(frames, calc.du(fieldvals), calc.dv(fieldvals)))


def laplace_beltrami(fieldvals, metric, grid):
    """Conservative Laplace-Beltrami: (1/sqrt g) d_i(sqrt g g^ij d_j f)."""
    calc = grid.calc
    iuu, iuv, ivv = metric.inv
    sg = metric.sqrt_det
    fu = calc.du(fieldvals)
    fv = calc.dv(fieldvals)
    pu = sg * (iuu * fu + iuv * fv)
    pv = sg * (iuv * fu + ivv * fv)
    return (calc.du(pu) + calc.dv(pv)) / sg


def tan_pole_distance(beta):
    """Distance of the signed angle to the nearest tan pole (odd multiple of pi/2)."""
    return np.abs(np.remainder(beta, math.pi) - math.pi / 2.0)


@dataclass
class IdentityReport:
    """Residual norms for one identity, optionally across refinement levels."""

    name: str
    linf: float
    l2: float
    n_excluded: int = 0
    levels: list = field(default_factory=list)   # [(n, linf, l2, excluded), ...]
    order: float = None
    at_floor: bool = False


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
        return float(np.sum(self.metric.sqrt_det * self.grid.calc.quad_weights()))

    @cached_property
    def energy(self):
        """E = integral of H^2 dA; zero exactly on minimal surfaces."""
        return float(np.sum(self.H ** 2 * self.metric.sqrt_det
                            * self.grid.calc.quad_weights()))

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
        """The pair (beta_1, beta_2) = (d beta(e1), d beta(e2))."""
        return frame_gradient(self.frames.beta, self.frames, self.grid)

    @cached_property
    def lap_beta(self):
        return laplace_beltrami(self.frames.beta, self.metric, self.grid)

    @cached_property
    def tan_band(self):
        return tan_pole_distance(self.frames.beta) < TAN_BAND

    @cached_property
    def tan_beta(self):
        """tan(beta), zeroed inside the tan-pole band."""
        return np.where(self.tan_band, 0.0, np.tan(self.frames.beta))

    @cached_property
    def res_curvature(self):
        beta1, beta2 = self.grad_beta
        return self.K_int - (1.0 - (beta1 + 1.0) ** 2 - beta2 ** 2)

    @cached_property
    def res_laplacian(self):
        beta1, beta2 = self.grad_beta
        return self.lap_beta + self.tan_beta * ((beta1 + 2.0) ** 2 + beta2 ** 2)

    @cached_property
    def res_connection(self):
        """The residuals of the two connection identities, as a pair."""
        frames, (beta1, beta2), tan_beta = self.frames, self.grad_beta, self.tan_beta
        comp, = _along_legs(frames, self.grid.calc, frames.e2, (frames.e1,))
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
    """Norms of the named identity's residual over the nodes its row keeps.

    Masked nodes are excluded, and band nodes where the row says so.  Raises
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
    return IdentityReport(name, float(np.max(np.abs(vals))),
                          float(np.sqrt(np.mean(vals ** 2))),
                          n_excluded=int(np.sum(~keep)))


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


def refinement_study(entry, identity, levels):
    """Run one identity across nested grids and report norms plus order.

    entry is a catalog entry (or anything sample() accepts with a
    default_spec method); levels are per-axis node counts, at least three,
    strictly increasing so that the last is the finest.
    """
    if len(levels) < 3:
        raise ValueError("refinement needs at least 3 grid levels")
    if any(a >= b for a, b in zip(levels, levels[1:])):
        raise ValueError(f"refinement levels must increase strictly, got {levels}")
    if identity not in IDENTITIES:
        raise KeyError(f"unknown identity {identity!r}")
    specs = [entry.default_spec(int(n)) for n in levels]  # GridSpec checks each n
    rows = []
    for spec in specs:
        grid = entry.sample(spec)
        rep = verify_identity(build_analysis(grid), identity)
        rows.append((spec.n_u, rep.linf, rep.l2, rep.n_excluded))
    order = observed_order([r[0] for r in rows], [r[1] for r in rows])
    at_floor = order is None
    return IdentityReport(identity,
                          linf=rows[-1][1], l2=rows[-1][2],
                          n_excluded=rows[-1][3],
                          levels=rows, order=order, at_floor=at_floor)


def refinement_passed(report):
    """Exit criterion: order >= 1.7 (or at the floor) and finest Linf in bounds."""
    bound = IDENTITIES[report.name].bound
    order_ok = report.at_floor or (report.order is not None
                                   and report.order >= ORDER_THRESHOLD)
    return bool(order_ok and report.linf <= bound)
