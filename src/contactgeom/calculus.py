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
first read, each at most once per grid, with nodes inside a configurable
band around the tan poles beta = +-pi/2 excluded from the Laplacian and
connection norms; the verifiers read those residuals and report how many
nodes were excluded.  The descent in `flow` reads its energy, max|H| and
gradient from the same object.  The first fundamental form is the one
`surface` caches on the grid.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import ambient
from .surface import contact_angle_field

TAN_BAND_DEFAULT = 1e-3


def first_fundamental_form(grid):
    """Gram matrix of the tangent pair at every node, as cached on the grid."""
    return grid.geometry[2]


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

    @property
    def symmetry_defect(self):
        d = np.abs(self.S[..., 0, 1] - self.S[..., 1, 0])
        return float(np.max(np.where(self.mask, 0.0, d)))


def shape_operator(grid, frames):
    """S_ij = -<D_{e_i} e3, e_j> by differentiating the constructed e3 field.

    Directional derivatives use the (Xu, Xv)-coordinates of the frame legs;
    inner products against tangent frame legs discard ambient normal parts.
    """
    calc = grid.calc
    de3_u = calc.du(frames.e3)
    de3_v = calc.dv(frames.e3)
    S = np.empty(frames.beta.shape + (2, 2))
    for i, coeff in enumerate((frames.coeff1, frames.coeff2)):
        D = coeff[..., 0, None] * de3_u + coeff[..., 1, None] * de3_v
        S[..., i, 0] = -ambient.dot(D, frames.e1)
        S[..., i, 1] = -ambient.dot(D, frames.e2)
    S = np.where(frames.mask[..., None, None], 0.0, S)
    return ShapeOperatorField(S=S, mask=frames.mask)


def gaussian_curvature_extrinsic(shape):
    """Gauss equation in S^3: K = 1 + det S."""
    return 1.0 + shape.det


def gaussian_curvature_intrinsic(metric, grid):
    """Brioschi formula: K from the metric components alone."""
    calc = grid.calc
    E, F, G = metric.E, metric.F, metric.G
    Eu, Ev = calc.du(E), calc.dv(E)
    Gu, Gv = calc.du(G), calc.dv(G)
    Fu, Fv = calc.du(F), calc.dv(F)
    Evv = calc.dvv(E)
    Guu = calc.duu(G)
    Fuv = calc.du(calc.dv(F))

    def det3(row0, row1, row2):
        a, b, c = row0
        d, e, f = row1
        g, h, i = row2
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)

    m1 = det3((-0.5 * Evv + Fuv - 0.5 * Guu, 0.5 * Eu, Fu - 0.5 * Ev),
              (Fv - 0.5 * Gu, E, F),
              (0.5 * Gv, F, G))
    m2 = det3((np.zeros_like(E), 0.5 * Ev, 0.5 * Gu),
              (0.5 * Ev, E, F),
              (0.5 * Gu, F, G))
    return (m1 - m2) / metric.det ** 2


@dataclass
class FrameGradient:
    """Directional derivatives of a scalar field along (e1, e2)."""

    beta1: np.ndarray
    beta2: np.ndarray

    @property
    def norm2(self):
        return self.beta1 ** 2 + self.beta2 ** 2


def frame_gradient(fieldvals, frames, grid):
    """(d f(e1), d f(e2)) from parameter-space derivatives and frame coords."""
    calc = grid.calc
    fu = calc.du(fieldvals)
    fv = calc.dv(fieldvals)
    b1 = frames.coeff1[..., 0] * fu + frames.coeff1[..., 1] * fv
    b2 = frames.coeff2[..., 0] * fu + frames.coeff2[..., 1] * fv
    return FrameGradient(beta1=b1, beta2=b2)


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

    def to_dict(self):
        d = {
            "identity": self.name,
            "linf": self.linf,
            "l2": self.l2,
            "excluded": self.n_excluded,
        }
        if self.levels:
            d["levels"] = [{"n": n, "linf": li, "l2": l2, "excluded": ex}
                           for (n, li, l2, ex) in self.levels]
            d["observed_order"] = self.order
            d["at_floor"] = self.at_floor
        return d


def _norms(residual, valid):
    vals = residual[valid]
    if vals.size == 0:
        return 0.0, 0.0
    return float(np.max(np.abs(vals))), float(np.sqrt(np.mean(vals ** 2)))


class SurfaceAnalysis:
    """The fields the verifiers, reports and descent read, each formed when first read.

    Every field is formed at most once per analysis and only when something
    reads it, so a verifier that reads one residual pays for that residual
    alone.  Degenerate input (DegenerateContact, DegenerateParametrization)
    raises on the first read of a field that needs the frames or the metric.
    """

    def __init__(self, grid, band):
        self.grid = grid
        self.band = band

    @cached_property
    def frames(self):
        return contact_angle_field(self.grid)

    @cached_property
    def metric(self):
        return first_fundamental_form(self.grid)

    @cached_property
    def shape(self):
        return shape_operator(self.grid, self.frames)

    @cached_property
    def H(self):
        """Mean curvature; zero on masked nodes, where the shape operator is."""
        return self.shape.H

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
        return gaussian_curvature_extrinsic(self.shape)

    @cached_property
    def grad_beta(self):
        return frame_gradient(self.frames.beta, self.frames, self.grid)

    @cached_property
    def lap_beta(self):
        return laplace_beltrami(self.frames.beta, self.metric, self.grid)

    @cached_property
    def tan_band(self):
        return tan_pole_distance(self.frames.beta) < self.band

    @cached_property
    def tan_beta(self):
        """tan(beta), zeroed inside the tan-pole band."""
        return np.where(self.tan_band, 0.0, np.tan(self.frames.beta))

    @cached_property
    def res_curvature(self):
        gb = self.grad_beta
        return self.K_int - (1.0 - (gb.beta1 + 1.0) ** 2 - gb.beta2 ** 2)

    @cached_property
    def res_laplacian(self):
        gb = self.grad_beta
        return self.lap_beta + self.tan_beta * ((gb.beta1 + 2.0) ** 2
                                                + gb.beta2 ** 2)

    @cached_property
    def res_connection(self):
        return _connection_residuals(self.grid, self.frames, self.grad_beta,
                                     self.tan_beta)

    @property
    def valid(self):
        return ~self.frames.mask

    @property
    def valid_off_band(self):
        return self.valid & ~self.tan_band


def build_analysis(grid, band=TAN_BAND_DEFAULT):
    """Frames, curvature, gradients, Laplacian and residual fields for a grid.

    Nothing is formed here; each field of the returned SurfaceAnalysis is
    formed on its first read.  Raises ValueError unless band >= 0.
    """
    if not band >= 0:
        raise ValueError(f"tan-pole band must be >= 0, got {band!r}")
    return SurfaceAnalysis(grid, band)


def _connection_residuals(grid, frames, gb, tan_beta):
    calc = grid.calc
    de2_u = calc.du(frames.e2)
    de2_v = calc.dv(frames.e2)
    comp = []
    for coeff in (frames.coeff1, frames.coeff2):
        D = coeff[..., 0, None] * de2_u + coeff[..., 1, None] * de2_v
        comp.append(ambient.dot(D, frames.e1))
    res1 = comp[0] - tan_beta * gb.beta2
    res2 = comp[1] - (-tan_beta * (gb.beta1 + 2.0))
    return res1, res2


def verify_curvature_identity(an):
    """Residual of K = 1 - |grad beta + e1|^2 against the intrinsic K."""
    linf, l2 = _norms(an.res_curvature, an.valid)
    return IdentityReport("curvature", linf, l2, n_excluded=an.frames.n_masked)


def _band_report(name, an, res):
    """Norms off the analysis' tan-pole band; band and masked nodes are excluded."""
    linf, l2 = _norms(res, an.valid_off_band)
    excluded = int(np.sum(an.tan_band & an.valid)) + an.frames.n_masked
    return IdentityReport(name, linf, l2, n_excluded=excluded)


def verify_laplacian_identity(an):
    """Residual of Lap(beta) = -tan(beta)((beta_1+2)^2 + beta_2^2).

    Nodes within the analysis' band of a tan pole are excluded and counted.
    """
    return _band_report("laplacian", an, an.res_laplacian)


def verify_connection_identity(an):
    """Residuals of theta_2^1(e_k) against tan(beta)beta_2 and -tan(beta)(beta_1+2).

    Band handling as in verify_laplacian_identity.
    """
    res1, res2 = an.res_connection
    return _band_report("connection", an, np.maximum(np.abs(res1), np.abs(res2)))


def verify_gauss_agreement(an):
    """|K_intrinsic - K_extrinsic| as a residual report."""
    linf, l2 = _norms(an.K_int - an.K_ext, an.valid)
    return IdentityReport("gauss", linf, l2, n_excluded=an.frames.n_masked)


def verify_minimality(an):
    """Per-node |H| with max/mean summary."""
    absH = np.abs(an.H)
    vals = absH[an.valid]
    return {"field": absH,
            "max": float(vals.max()),
            "mean": float(vals.mean()),
            "n_masked": an.frames.n_masked}


IDENTITY_VERIFIERS = {
    "curvature": verify_curvature_identity,
    "laplacian": verify_laplacian_identity,
    "connection": verify_connection_identity,
    "gauss": verify_gauss_agreement,
}

# finest-level L-infinity bounds an identity must meet for a verify run to
# pass (measured with generous headroom on the analytic catalog surfaces)
IDENTITY_BOUNDS = {
    "curvature": 1e-4,
    "laplacian": 1e-3,
    "connection": 1e-3,
    "gauss": 5e-5,
}

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


def refinement_study(entry, identity, levels, band=0.05):
    """Run one identity across nested grids and report norms plus order.

    entry is a catalog entry (or anything sample() accepts with a
    default_spec method); levels are per-axis node counts, at least three.
    """
    if len(levels) < 3:
        raise ValueError("refinement needs at least 3 grid levels")
    if identity not in IDENTITY_VERIFIERS:
        raise KeyError(f"unknown identity {identity!r}")
    specs = [entry.default_spec(int(n)) for n in levels]  # GridSpec checks each n
    rows = []
    for spec in specs:
        grid = entry.sample(spec)
        rep = IDENTITY_VERIFIERS[identity](build_analysis(grid, band=band))
        rows.append((spec.n_u, rep.linf, rep.l2, rep.n_excluded))
    order = observed_order([r[0] for r in rows], [r[1] for r in rows])
    at_floor = order is None
    return IdentityReport(identity,
                          linf=rows[-1][1], l2=rows[-1][2],
                          n_excluded=rows[-1][3],
                          levels=rows, order=order, at_floor=at_floor)


def refinement_passed(report):
    """Exit criterion: order >= 1.7 (or at the floor) and finest Linf in bounds."""
    bound = IDENTITY_BOUNDS[report.name]
    order_ok = report.at_floor or (report.order is not None
                                   and report.order >= ORDER_THRESHOLD)
    return bool(order_ok and report.linf <= bound)
