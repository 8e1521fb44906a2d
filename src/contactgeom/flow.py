"""Squared-mean-curvature descent over normal displacements.

The energy is E = sum H^2 sqrt(det g) du dv.  Area descent would escape the
flat minimal torus (it is an unstable critical point of area), while E has
minimal surfaces as genuine zero minima, so E is the descent objective.

descend displaces every node along its normal by a nodal field psi.  The
gradient is the closed-form first variation of E for a normal displacement
psi e3 in S^3 (Weiner 1978), in the Weingarten sign of `calculus`:

    dE = integral G psi dA,   G = Lap_g H + 2 H (H^2 - det S + 1),

read as SurfaceAnalysis.willmore_G and paired with psi node by node as
g = G sqrt(det g) w (w the quadrature weights).  The step direction is
limited-memory BFGS over psi (Nocedal & Wright, Numerical Optimization,
Sec. 7.2): the two-loop recursion on the last LBFGS_MEMORY pairs
(s, y) = (accepted step, change of g), stored only when s.y > 0, with the
fixed flat-torus preconditioner, times STEP_SCALE, as the initial inverse
Hessian, scaled by s.y / y.H0 y of the newest pair once the memory holds
one.  An uphill direction or a stalled line search clears the memory and
retries from the preconditioned gradient.  Each grid the descent reaches
is one SurfaceAnalysis.  Each Armijo backtracking trial, from t = 1, moves
the surface along its current normals (surface._moved_points); the moved
grid's tangents are formed once, and a collapsed parametrization halves
the step.
"""

import math
from collections import deque
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .calculus import build_analysis
from .errors import DegenerateParametrization, RangeError
from .surface import _moved_points, tangent_fields

# scale of the initial inverse Hessian, sized so that the line search accepts
# the first full step (t = 1), which is taken with an empty memory; later
# steps rescale it by s.y / y.H0 y
STEP_SCALE = (2.0 * math.pi / 16) ** 2
ARMIJO = 1e-4
LBFGS_MEMORY = 5  # (s, y) pairs the L-BFGS descent keeps
MAX_HALVINGS = 60
# theorem_probe: constant-angle bound on the beta spread, flatness bound on |K|
PROBE_BETA_TOL = 5e-3
PROBE_K_TOL = 5e-3


@dataclass
class FlowConfig:
    """Knobs for descend(); the initial surface is passed separately."""

    max_iter: int = 500
    tol: float = 1e-3              # stop tolerance on max |H|

    def __post_init__(self):
        if not 0 < self.tol < math.inf:
            raise RangeError("tol must be positive and finite")
        if self.max_iter < 0:
            raise RangeError("max_iter must be non-negative")


@dataclass
class FlowReport:
    """Energy trajectory and final-state statistics of one descent run."""

    converged: bool
    iterations: int
    trace: list          # (iter, E, max|H|, beta spread); row 0 the initial grid
    beta_max: float
    message: str = ""

    @property
    def final_max_H(self):
        return self.trace[-1][2]


def _check_step(grid, moved):
    """Grid on the moved points, its tangents formed (and cached) once.

    Raises DegenerateParametrization when the moved parametrization collapses.
    """
    cand = grid.with_points(moved)
    tangent_fields(cand)
    return cand


@lru_cache(maxsize=None)
def _flat_symbol(mu, mv):
    """max((4 - 2(p^2 + q^2))^2, 4) on the mu x mv Fourier modes, read-only."""
    p = np.fft.fftfreq(mu) * mu
    q = np.fft.fftfreq(mv) * mv
    P, Q = np.meshgrid(p, q, indexing="ij")
    lam = 4.0 - 2.0 * (P ** 2 + Q ** 2)
    w = np.maximum(lam ** 2, 4.0)
    w.flags.writeable = False
    return w


def _precondition(g):
    """Scale the Fourier modes of a nodal field by the inverse flat-torus symbol.

    The second variation of E around the flat minimal torus acts on the
    normal mode e^{i(pu+qv)} with symbol ~ (4 - 2(p^2+q^2))^2; dividing the
    n_u x n_v gradient's modes by max(symbol, floor) collapses the stiffness
    of the high-frequency nodal directions.  The scaling is fixed and
    positive definite, so preconditioned steps remain descent directions
    and Armijo backtracking keeps the energy monotone on any surface.  The
    symbol is formed once per grid shape.
    """
    return np.real(np.fft.ifft2(np.fft.fft2(g) / _flat_symbol(*g.shape)))


def _beta_spread(an):
    return float(np.ptp(an.frames.beta[an.valid]))


def _lbfgs_direction(g, w, memory):
    """-H g by the L-BFGS two-loop recursion (Nocedal & Wright, Alg. 7.4).

    memory holds (s, y, s.y) pairs, oldest first.  The initial inverse
    Hessian is STEP_SCALE * _precondition(. / w), scaled by s.y / y.H0 y of
    the newest pair when the memory holds one.
    """
    def h0(v):
        return STEP_SCALE * _precondition(v / w)

    q = g.copy()
    alphas = []
    for s, y, sy in reversed(memory):
        a = float(np.sum(s * q)) / sy
        q -= a * y
        alphas.append(a)
    r = h0(q)
    if memory:
        _, y, sy = memory[-1]
        r *= sy / float(np.sum(y * h0(y)))
    for (s, y, sy), a in zip(memory, reversed(alphas)):
        r += (a - float(np.sum(y * r)) / sy) * s
    return -r


def _line_search(an, direction, slope):
    """Armijo backtracking from t = 1: (SurfaceAnalysis, t) or None if stalled.

    Each trial moves the nodes along their normals by t * direction; a
    collapsed parametrization is absorbed as a step halving.
    """
    t = 1.0
    for _ in range(MAX_HALVINGS):
        moved = _moved_points(an.grid.points, an.frames.e3, t * direction)
        try:
            cand = build_analysis(_check_step(an.grid, moved))
        except DegenerateParametrization:
            t *= 0.5  # a collapsed step is absorbed as a step reduction
            continue
        if cand.energy <= an.energy + ARMIJO * t * slope:
            return cand, t
        t *= 0.5
    return None


def descend(grid, config=None):
    """L-BFGS descent of the Willmore-type energy over nodal psi.

    Requires a doubly periodic initial grid (RangeError otherwise).  Returns (FlowReport, the
    SurfaceAnalysis of the final grid); the final grid is its .grid.
    Non-convergence is reported with converged=False rather than raised,
    and steps that would collapse the grid are absorbed as automatic step
    reductions.  The memory is cleared when a direction is not a descent
    direction or its line search stalls; the search stalls for good only
    from the preconditioned gradient.
    """
    cfg = config if config is not None else FlowConfig()
    spec = grid.spec
    if not (spec.topology_u == "periodic" and spec.topology_v == "periodic"):
        raise RangeError("descent needs a compact (doubly periodic) surface")

    an = build_analysis(grid)
    w = grid.calc.quad_weights()
    traj = [(0, an.energy, an.max_H, _beta_spread(an))]
    converged = an.max_H < cfg.tol
    it = 0
    message = "already at tolerance" if converged else ""
    memory = deque(maxlen=LBFGS_MEMORY)
    s = g_prev = None

    while not converged and it < cfg.max_iter:
        g = an.willmore_G * an.metric.sqrt_det * w  # dE/dpsi node by node
        if float(np.sum(g ** 2)) == 0.0:
            message = "zero gradient"
            break
        if s is not None:
            y = g - g_prev
            sy = float(np.sum(s * y))
            if sy > 0.0:  # keeps every H in the recursion positive definite
                memory.append((s, y, sy))
        while True:
            direction = _lbfgs_direction(g, w, memory)
            slope = float(np.sum(g * direction))
            found = _line_search(an, direction, slope) if slope < 0 else None
            if found is not None or not memory:
                break
            memory.clear()  # restart from the preconditioned gradient
        if found is None:
            message = "line search stalled"
            break
        an, t = found
        s, g_prev = t * direction, g
        it += 1
        traj.append((it, an.energy, an.max_H, _beta_spread(an)))
        converged = an.max_H < cfg.tol

    if converged and not message:
        message = f"max|H| below {cfg.tol:g}"
    elif not converged and not message:
        message = "iteration cap reached"

    report = FlowReport(converged=bool(converged), iterations=it, trace=traj,
                        beta_max=float(np.max(np.abs(an.frames.beta[an.valid]))),
                        message=message)
    return report, an


def theorem_probe(report, analysis):
    """Check the constant-angle => flat implication chain on a final surface.

    Reads the contact angle and K = 1 + det S of the analysis the descent
    returned.  Returns a dict with status 'pass', 'fail', 'not_applicable'
    (angle not constant at tolerance) or 'inconclusive' (flow did not
    converge).
    """
    spread = _beta_spread(analysis)
    if not report.converged:
        return {"status": "inconclusive",
                "reason": "flow did not converge", "beta_spread": spread}
    K_inf = float(np.max(np.abs(analysis.K_ext[analysis.valid])))
    out = {"beta_spread": spread, "K_inf": K_inf,
           "beta_tol": PROBE_BETA_TOL, "K_tol": PROBE_K_TOL}
    if spread >= PROBE_BETA_TOL:
        out["status"] = "not_applicable"
        out["reason"] = "contact angle is not constant at tolerance"
        return out
    out["status"] = "pass" if K_inf < PROBE_K_TOL else "fail"
    return out
