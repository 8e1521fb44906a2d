"""Squared-mean-curvature descent over normal displacements.

The energy is E = sum H^2 sqrt(det g) du dv.  Area descent would escape the
flat minimal torus (it is an unstable critical point of area), while E has
minimal surfaces as genuine zero minima, so E is the descent objective.

descend displaces every node along its normal by a nodal field psi.  The
gradient is the closed-form first variation of E for a normal displacement
psi e3 in S^3 (Weiner 1978), in the Weingarten sign of `calculus`:

    dE = integral G psi dA,   G = Lap_g H + 2 H (H^2 - det S + 1),

read as SurfaceAnalysis.willmore_G, weighted by sqrt(det g) and the
quadrature weights and scaled by a fixed flat-torus preconditioner.  Each
grid the descent reaches is one SurfaceAnalysis.  Each Armijo backtracking
trial moves the surface along its current normals; the moved grid's
tangents are formed once, and a collapsed parametrization halves the step.
descend_r_family is a golden-section search on the discrete energy of the
product-torus family.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import catalog
from .calculus import build_analysis, first_fundamental_form
from .errors import DegenerateParametrization, StepTooLarge
from .surface import tangent_fields

GOLDEN_BRACKET = (0.3, 1.2)
# step scale of the former 16x16 spline control basis, which keeps
# FlowConfig.step = 1 (and --step) at the step length it had there
STEP_SCALE = (2.0 * math.pi / 16) ** 2
ARMIJO = 1e-4
MAX_HALVINGS = 60
# theorem_probe: constant-angle bound on the beta spread, flatness bound on |K|
PROBE_BETA_TOL = 5e-3
PROBE_K_TOL = 5e-3


@dataclass
class FlowConfig:
    """Knobs for descend(); the initial surface is passed separately."""

    step: float = 1.0
    max_iter: int = 500
    tol: float = 1e-3              # stop tolerance on max |H|

    def __post_init__(self):
        # the largest step that MAX_HALVINGS halvings take down to the default 1
        if not 0 < self.step <= 2.0 ** MAX_HALVINGS:
            raise ValueError(f"step must lie in (0, 2**{MAX_HALVINGS}], "
                             f"got {self.step!r}")
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.max_iter < 0:
            raise ValueError("max_iter must be non-negative")


@dataclass
class FlowReport:
    """Energy trajectory and final-state statistics of one descent run."""

    converged: bool
    iterations: int
    energy: list                     # accepted-step energies, E[0] = initial
    final_max_H: float
    beta_max: float
    beta_mean: float
    beta_spread: float
    trace: list = field(default_factory=list)  # (iter, E, max|H|, beta_dev)
    r_final: float = None
    message: str = ""

    def to_dict(self):
        d = {
            "converged": self.converged,
            "iterations": self.iterations,
            "energy_initial": self.energy[0] if self.energy else None,
            "energy_final": self.energy[-1] if self.energy else None,
            "final_max_H": self.final_max_H,
            "beta": {"max": self.beta_max, "mean": self.beta_mean,
                     "spread": self.beta_spread},
            "message": self.message,
        }
        if self.r_final is not None:
            d["r_final"] = self.r_final
        return d


def area(grid):
    """Surface area: quadrature of sqrt(det g)."""
    w = grid.calc.quad_weights()
    return float(np.sum(first_fundamental_form(grid).sqrt_det * w))


def willmore_energy(grid):
    """E = integral of H^2 over the surface; zero exactly on minimal surfaces."""
    return build_analysis(grid).energy


def _moved_points(points, e3, psi):
    moved = points + psi[..., None] * e3
    return moved / np.linalg.norm(moved, axis=-1, keepdims=True)


def _check_step(grid, moved):
    """Grid on the moved points, its tangents formed (and cached) once.

    Raises DegenerateParametrization when the moved parametrization collapses.
    """
    cand = grid.with_points(moved)
    tangent_fields(cand)
    return cand


def flow_step(grid, psi, step=1.0):
    """Move every node along its adapted normal by step*psi and renormalize.

    Raises StepTooLarge, naming the node, when the moved grid's tangent Gram
    determinant collapses below 1e-10.
    """
    psi = np.asarray(psi, float)
    if psi.shape != grid.points.shape[:2]:
        raise ValueError("psi must be a per-node scalar field")
    frames = build_analysis(grid).frames
    moved = _moved_points(grid.points, frames.e3, step * psi)
    try:
        return _check_step(grid, moved)
    except DegenerateParametrization as exc:
        raise StepTooLarge(f"moved grid has {exc}", node=exc.node) from exc


def _precondition(g):
    """Scale the Fourier modes of a nodal field by the inverse flat-torus symbol.

    The second variation of E around the flat minimal torus acts on the
    normal mode e^{i(pu+qv)} with symbol ~ (4 - 2(p^2+q^2))^2; dividing the
    n_u x n_v gradient's modes by max(symbol, floor) collapses the stiffness
    of the high-frequency nodal directions.  The scaling is fixed and
    positive definite, so preconditioned steps remain descent directions
    and Armijo backtracking keeps the energy monotone on any surface.
    """
    mu, mv = g.shape
    p = np.fft.fftfreq(mu) * mu
    q = np.fft.fftfreq(mv) * mv
    P, Q = np.meshgrid(p, q, indexing="ij")
    lam = 4.0 - 2.0 * (P ** 2 + Q ** 2)
    w = np.maximum(lam ** 2, 4.0)
    return np.real(np.fft.ifft2(np.fft.fft2(g) / w))


def _beta_spread(an):
    return float(np.ptp(an.frames.beta[an.valid]))


def _final_report(an, **fields):
    """FlowReport with the final surface's max|H| and contact-angle summary."""
    vals = an.frames.beta[an.valid]
    return FlowReport(final_max_H=an.max_H,
                      beta_max=float(np.max(np.abs(vals))),
                      beta_mean=float(np.mean(vals)),
                      beta_spread=float(np.ptp(vals)), **fields)


def descend(grid, config=None):
    """Backtracking gradient descent of the Willmore-type energy.

    Requires a doubly periodic initial grid.  Returns (FlowReport, the
    SurfaceAnalysis of the final grid); the final grid is its .grid.
    Non-convergence is reported with converged=False rather than raised,
    and steps that would collapse the grid are absorbed as automatic step
    reductions.
    """
    cfg = config if config is not None else FlowConfig()
    spec = grid.spec
    if not (spec.topology_u == "periodic" and spec.topology_v == "periodic"):
        raise ValueError("descent needs a compact (doubly periodic) surface")

    an = build_analysis(grid)
    energies = [an.energy]
    traj = [(0, an.energy, an.max_H, _beta_spread(an))]
    converged = an.max_H < cfg.tol
    it = 0
    message = "already at tolerance" if converged else ""
    t_next = cfg.step

    while not converged and it < cfg.max_iter:
        G_dA = an.willmore_G * an.metric.sqrt_det
        g = G_dA * an.grid.calc.quad_weights()
        if float(np.sum(g ** 2)) == 0.0:
            message = "zero gradient"
            break
        psi_dir = -STEP_SCALE * _precondition(G_dA)
        slope = float(np.sum(g * psi_dir))  # negative for a descent direction
        t = t_next
        accepted = False
        for _ in range(MAX_HALVINGS):
            moved = _moved_points(an.grid.points, an.frames.e3, t * psi_dir)
            try:
                cand = build_analysis(_check_step(an.grid, moved))
            except DegenerateParametrization:
                t *= 0.5  # a collapsed step is absorbed as a step reduction
                continue
            if cand.energy <= an.energy + ARMIJO * t * slope:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            message = "line search stalled"
            break
        t_next = min(2.0 * t, 1e6 * cfg.step)
        an = cand
        it += 1
        energies.append(an.energy)
        traj.append((it, an.energy, an.max_H, _beta_spread(an)))
        converged = an.max_H < cfg.tol

    if converged and not message:
        message = f"max|H| below {cfg.tol:g}"
    elif not converged and not message:
        message = "iteration cap reached"

    report = _final_report(an, converged=bool(converged), iterations=it,
                           energy=energies, trace=traj, message=message)
    return report, an


def _golden_min(f, a, b, tol=1e-9):
    """Golden-section minimizer; deterministic, derivative-free."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while abs(b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def descend_r_family(r0, n=32, config=None):
    """Minimize the discrete energy over the product-torus family only.

    Returns (FlowReport, SurfaceAnalysis of the minimizing torus).
    """
    cfg = config if config is not None else FlowConfig()
    cache = {}

    def E_of(r):
        if r not in cache:
            grid = catalog.r_torus(r).sample(n=n)
            cache[r] = willmore_energy(grid)
        return cache[r]

    a = max(0.06, min(r0, GOLDEN_BRACKET[0]))
    b = min(math.pi / 2 - 0.06, max(r0, GOLDEN_BRACKET[1]))
    r_star = _golden_min(E_of, a, b, tol=1e-9)
    an = build_analysis(catalog.r_torus(r_star).sample(n=n))
    report = _final_report(
        an, converged=bool(an.max_H < cfg.tol), iterations=len(cache),
        energy=[E_of(r0), an.energy],
        trace=[(0, E_of(r0), None, None),
               (len(cache), an.energy, an.max_H, _beta_spread(an))],
        r_final=float(r_star),
        message=f"golden-section over r in [{a:g}, {b:g}]")
    return report, an


def theorem_probe(report, analysis):
    """Check the constant-angle => flat implication chain on a final surface.

    Reads the contact angle and K = 1 + det S of the analysis the descent
    returned.  Returns a dict with status 'pass', 'fail', 'not_applicable'
    (angle not constant at tolerance) or 'inconclusive' (flow did not
    converge).
    """
    if not report.converged:
        return {"status": "inconclusive",
                "reason": "flow did not converge", "beta_spread": report.beta_spread}
    spread = _beta_spread(analysis)
    K_inf = float(np.max(np.abs(analysis.K_ext[analysis.valid])))
    out = {"beta_spread": spread, "K_inf": K_inf,
           "beta_tol": PROBE_BETA_TOL, "K_tol": PROBE_K_TOL}
    if spread >= PROBE_BETA_TOL:
        out["status"] = "not_applicable"
        out["reason"] = "contact angle is not constant at tolerance"
        return out
    out["status"] = "pass" if K_inf < PROBE_K_TOL else "fail"
    return out
