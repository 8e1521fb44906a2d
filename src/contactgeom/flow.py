"""Squared-mean-curvature descent over normal displacements.

The energy is E = sum H^2 sqrt(det g) du dv.  Area descent would escape the
flat minimal torus (it is an unstable critical point of area), while E has
minimal surfaces as genuine zero minima, so E is the descent objective.

descend displaces every node along its normal by a nodal field psi.  The
gradient is the closed-form first variation of E for a normal displacement
psi e3 in S^3 (Weiner 1978), in the Weingarten sign of `calculus`:

    dE = integral G psi dA,   G = Lap_g H + 2 H (H^2 - det S + 1),

weighted by sqrt(det g) and the quadrature weights and scaled by a fixed
flat-torus preconditioner.  Each Armijo backtracking trial moves the
surface along its current normals; the moved grid's tangents are formed
once, and a collapsed parametrization halves the step.  descend_r_family
is a golden-section search on the discrete energy of the product-torus
family.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import catalog
from .calculus import (first_fundamental_form, gaussian_curvature_extrinsic,
                       laplace_beltrami, shape_operator)
from .errors import DegenerateParametrization, StepTooLarge
from .surface import contact_angle_field, tangent_fields

GOLDEN_BRACKET = (0.3, 1.2)
# step scale of the former 16x16 spline control basis, which keeps
# FlowConfig.step = 1 (and --step) at the step length it had there
STEP_SCALE = (2.0 * math.pi / 16) ** 2
ARMIJO = 1e-4
MAX_HALVINGS = 60


@dataclass
class FlowConfig:
    """Knobs for descend(); the initial surface is passed separately."""

    step: float = 1.0
    max_iter: int = 500
    tol: float = 1e-3              # stop tolerance on max |H|

    def __post_init__(self):
        if self.step <= 0 or self.tol <= 0:
            raise ValueError("step and tol must be positive")


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


def area(grid, metric=None):
    """Surface area: quadrature of sqrt(det g)."""
    m = metric if metric is not None else first_fundamental_form(grid)
    w = grid.calc.quad_weights()
    return float(np.sum(m.sqrt_det * w))


def energy_and_max_H(grid, frames, metric, shape):
    """E = integral of H^2 dA and max|H|, with H taken as 0 on masked nodes."""
    H = np.where(frames.mask, 0.0, shape.H)
    E = float(np.sum(H ** 2 * metric.sqrt_det * grid.calc.quad_weights()))
    return E, float(np.max(np.abs(H)))


def _state(grid):
    """Frames, shape, energy and max|H| for one grid; the flow's hot loop."""
    frames = contact_angle_field(grid)
    metric = first_fundamental_form(grid)
    shape = shape_operator(grid, frames)
    return (frames, metric, shape) + energy_and_max_H(grid, frames, metric, shape)


def willmore_energy(grid):
    """E = integral of H^2 over the surface; zero exactly on minimal surfaces."""
    return _state(grid)[3]


def willmore_gradient(grid, frames, metric, shape):
    """Nodal first variation G of E for the normal displacement psi e3.

    dE = integral G psi dA with G = Lap_g H + 2 H (H^2 - det S + 1); H is
    taken as 0 on masked nodes, as in the energy.
    """
    H = np.where(frames.mask, 0.0, shape.H)
    return laplace_beltrami(H, metric, grid) + 2.0 * H * (H ** 2 - shape.det + 1.0)


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
    frames = contact_angle_field(grid)
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


def descend(grid, config=None):
    """Backtracking gradient descent of the Willmore-type energy.

    Requires a doubly periodic initial grid.  Returns a
    FlowReport; non-convergence is reported with converged=False rather
    than raised, and steps that would collapse the grid are absorbed as
    automatic step reductions.
    """
    cfg = config if config is not None else FlowConfig()
    spec = grid.spec
    if not (spec.topology_u == "periodic" and spec.topology_v == "periodic"):
        raise ValueError("descent needs a compact (doubly periodic) surface")

    traj = []
    energies = []
    frames, metric, shape, E, maxH = _state(grid)
    energies.append(E)
    beta_dev = float(np.ptp(frames.beta[~frames.mask]))
    traj.append((0, E, maxH, beta_dev))
    converged = maxH < cfg.tol
    it = 0
    message = "already at tolerance" if converged else ""
    t_next = cfg.step

    while not converged and it < cfg.max_iter:
        G_dA = willmore_gradient(grid, frames, metric, shape) * metric.sqrt_det
        g = G_dA * grid.calc.quad_weights()
        if float(np.sum(g ** 2)) == 0.0:
            message = "zero gradient"
            break
        psi_dir = -STEP_SCALE * _precondition(G_dA)
        slope = float(np.sum(g * psi_dir))  # negative for a descent direction
        t = t_next
        accepted = False
        for _ in range(MAX_HALVINGS):
            moved = _moved_points(grid.points, frames.e3, t * psi_dir)
            try:
                cand = _check_step(grid, moved)
            except DegenerateParametrization:
                t *= 0.5  # a collapsed step is absorbed as a step reduction
                continue
            frames_c, metric_c, shape_c, E_c, maxH_c = _state(cand)
            if E_c <= E + ARMIJO * t * slope:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            message = "line search stalled"
            break
        t_next = min(2.0 * t, 1e6 * cfg.step)
        grid = cand
        frames, metric, shape, E, maxH = frames_c, metric_c, shape_c, E_c, maxH_c
        it += 1
        energies.append(E)
        beta_dev = float(np.ptp(frames.beta[~frames.mask]))
        traj.append((it, E, maxH, beta_dev))
        converged = maxH < cfg.tol

    if converged and not message:
        message = f"max|H| below {cfg.tol:g}"
    elif not converged and not message:
        message = "iteration cap reached"

    vals = frames.beta[~frames.mask]
    report = FlowReport(converged=bool(converged), iterations=it,
                        energy=energies, final_max_H=maxH,
                        beta_max=float(np.max(np.abs(vals))),
                        beta_mean=float(np.mean(vals)),
                        beta_spread=float(np.ptp(vals)),
                        trace=traj, message=message)
    return report, grid


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
    """Minimize the discrete energy over the product-torus family only."""
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
    grid = catalog.r_torus(r_star).sample(n=n)
    frames, metric, shape, E, maxH = _state(grid)
    vals = frames.beta[~frames.mask]
    converged = maxH < cfg.tol
    report = FlowReport(converged=bool(converged), iterations=len(cache),
                        energy=[E_of(r0), E], final_max_H=maxH,
                        beta_max=float(np.max(np.abs(vals))),
                        beta_mean=float(np.mean(vals)),
                        beta_spread=float(np.ptp(vals)),
                        trace=[(0, E_of(r0), None, None),
                               (len(cache), E, maxH, float(np.ptp(vals)))],
                        r_final=float(r_star),
                        message=f"golden-section over r in [{a:g}, {b:g}]")
    return report, grid


def theorem_probe(report, grid, beta_tol=5e-3, K_tol=5e-3):
    """Check the constant-angle => flat implication chain on a final surface.

    Returns a dict with status 'pass', 'fail', 'not_applicable' (angle not
    constant at tolerance) or 'inconclusive' (flow did not converge).
    """
    if not report.converged:
        return {"status": "inconclusive",
                "reason": "flow did not converge", "beta_spread": report.beta_spread}
    frames, _, shape, _, _ = _state(grid)
    K = gaussian_curvature_extrinsic(shape)
    spread = float(np.ptp(frames.beta[~frames.mask]))
    K_inf = float(np.max(np.abs(K[~frames.mask])))
    out = {"beta_spread": spread, "K_inf": K_inf,
           "beta_tol": beta_tol, "K_tol": K_tol}
    if spread >= beta_tol:
        out["status"] = "not_applicable"
        out["reason"] = "contact angle is not constant at tolerance"
        return out
    out["status"] = "pass" if K_inf < K_tol else "fail"
    return out
