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
(s, y) = (accepted step, change of g), stored only when s.y > 0.  Its
initial inverse Hessian is the fixed flat-torus preconditioner times
STEP_SCALE, which is Newton's inverse Hessian at the Clifford torus, so a
start near Clifford lands close to it in one step; once the memory holds a
pair, H0 is scaled by s.y / y.H0 y of the newest one.  A direction formed
with an empty memory is shortened, where it is steeper, to the slope
max|grad psi| = NEWTON_SLOPE, so a start far from Clifford does not take
Newton's step from a model that does not hold there.  An uphill direction
or a stalled line search clears the memory and retries from the
preconditioned gradient.  Each grid the descent reaches is one
SurfaceAnalysis.  Each Armijo backtracking trial, from t = 1, moves the
surface along its current normals (surface._moved_points); the moved
grid's tangents are formed once, and a collapsed parametrization halves
the step.  A search stalls once t max|d| is below float64's eps, where a
trial moves each coordinate of a point by less than eps, about one ulp.
"""

import math
from collections import deque
from dataclasses import dataclass
from functools import cache
from typing import NamedTuple

import numpy as np

from .calculus import build_analysis
from .errors import DegenerateParametrization, RangeError
from .surface import _moved_points, tangent_fields

# scale of the initial inverse Hessian H0 = STEP_SCALE * _precondition(. / w),
# which makes H0 Newton's inverse Hessian at the Clifford torus.  At a minimal
# surface G changes by dG = 1/2 J^2 psi, J = Lap_g + |A|^2 + 2 (Simons 1968;
# Weiner 1978), so the nodal gradient g = G sqrt(det g) w changes by
# 1/2 sqrt(det g) w J^2 psi.  On Clifford sqrt(det g) = 1/2 and _precondition
# is J^-2 off its clipped null modes, so the inverse is
# (2 / sqrt(det g)) _precondition(. / w) = 4 _precondition(. / w).  The
# constant sizes only the steps taken with an empty memory (the first step
# and restarts): the s.y / y.H0 y scaling cancels it afterwards.
STEP_SCALE = 4.0
# bound on the slope max|grad psi| of a step taken with an empty memory:
# Newton's step holds only while H is nearly linear in psi.  The moved
# surface's normal tilts by arctan|grad psi| from e3, and the terms the
# linear model drops are of relative order |grad psi|^2, at most 4 % here.
# Newton's first step from the bumps clifford+bump(1,2)x0.045..0.055 has
# slope 0.13..0.15 and is not shortened; from bump(3,1)x0.1 it has 0.37 and
# from the Hopf tori 2.6..3.3.  A constant psi (the product tori) has none.
NEWTON_SLOPE = 0.2
ARMIJO = 1e-4
LBFGS_MEMORY = 5  # (s, y) pairs the L-BFGS descent keeps
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


class TraceRow(NamedTuple):
    """One row of a descent's trace: the grid after `iteration` steps."""

    iteration: int
    energy: float
    max_H: float
    beta_spread: float


@dataclass
class FlowReport:
    """Energy trajectory and final-state statistics of one descent run."""

    converged: bool
    trace: list          # [TraceRow, ...]; row 0 the initial grid
    beta_max: float
    message: str = ""

    @property
    def iterations(self):
        return len(self.trace) - 1

    @property
    def final_max_H(self):
        return self.trace[-1].max_H


def _check_step(grid, moved):
    """Grid on the moved points, its tangents formed (and cached) once.

    Raises DegenerateParametrization when the moved parametrization collapses.
    """
    cand = grid.with_points(moved)
    tangent_fields(cand)
    return cand


@cache
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
    Hessian is H0 = STEP_SCALE * _precondition(. / w), Newton's at the
    Clifford torus.  When the memory holds a pair, H0 is scaled by
    s.y / y.H0 y of the newest one, which cancels STEP_SCALE; so the
    constant sizes only the directions formed with an empty memory, the
    first step and restarts (descend holds those to NEWTON_SLOPE).
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


def _within_newton_slope(direction, an):
    """direction, shortened if need be to max|grad direction| = NEWTON_SLOPE.

    |grad f|^2 = (G f_u^2 - 2 F f_u f_v + E f_v^2) / det g, at the valid nodes.
    """
    m = an.metric
    fu, fv = an.grid.calc.du(direction), an.grid.calc.dv(direction)
    grad2 = (m.G * fu ** 2 - 2.0 * m.F * fu * fv + m.E * fv ** 2) / m.det
    slope = math.sqrt(float(np.max(grad2[an.valid])))
    if slope <= NEWTON_SLOPE:
        return direction
    return direction * (NEWTON_SLOPE / slope)


def _line_search(an, direction, slope):
    """Armijo backtracking from t = 1: (SurfaceAnalysis, t) or None if stalled.

    Each trial moves the nodes along their normals by t * direction; a
    collapsed parametrization is absorbed as a step halving.  The search
    stalls once t * max|direction| is below eps: such a trial moves each
    coordinate of a point by less than eps, about one ulp.  A direction of
    reach 1 gets 53 trials; a NaN reach gets none.
    """
    t = 1.0
    reach = float(np.max(np.abs(direction)))  # the largest move at t = 1
    while t * reach >= np.finfo(float).eps:
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
    from the preconditioned gradient.  A zero gradient has slope 0, so no
    search starts and the run ends as a stall.
    """
    cfg = config if config is not None else FlowConfig()
    spec = grid.spec
    if not (spec.topology_u == "periodic" and spec.topology_v == "periodic"):
        raise RangeError("descent needs a compact (doubly periodic) surface")

    an = build_analysis(grid)
    w = grid.calc.quad_weights
    trace = [TraceRow(0, an.energy, an.max_H, _beta_spread(an))]
    memory = deque(maxlen=LBFGS_MEMORY)
    s = g_prev = None

    while not an.max_H < cfg.tol and len(trace) <= cfg.max_iter:
        g = an.willmore_G * an.metric.sqrt_det * w  # dE/dpsi node by node
        if s is not None:
            y = g - g_prev
            sy = float(np.sum(s * y))
            if sy > 0.0:  # keeps every H in the recursion positive definite
                memory.append((s, y, sy))
        while True:
            direction = _lbfgs_direction(g, w, memory)
            if not memory:
                direction = _within_newton_slope(direction, an)
            slope = float(np.sum(g * direction))
            found = _line_search(an, direction, slope) if slope < 0 else None
            if found is not None or not memory:
                break
            memory.clear()  # restart from the preconditioned gradient
        if found is None:
            break
        an, t = found
        s, g_prev = t * direction, g
        trace.append(TraceRow(len(trace), an.energy, an.max_H,
                              _beta_spread(an)))

    converged = bool(an.max_H < cfg.tol)
    if converged:
        message = ("already at tolerance" if len(trace) == 1
                   else f"max|H| below {cfg.tol:g}")
    elif len(trace) > cfg.max_iter:
        message = "iteration cap reached"
    else:
        message = "line search stalled"
    report = FlowReport(converged=converged, trace=trace,
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
