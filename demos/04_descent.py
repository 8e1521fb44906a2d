"""Squared-mean-curvature descent and the constant-angle rigidity probe.

Once the descent drives max|H| to zero on a compact surface, a constant
contact angle forces vanishing Gaussian curvature, which pins the surface
to the flat minimal torus.  The demo shows the normal-displacement descent
taking a product torus off Clifford to r = pi/4, and pulling a bumped flat
torus back to minimality with the implication chain checked on the result.

The full descent is limited-memory BFGS over the nodal displacement psi.
Its first step is the flat-torus preconditioned gradient times STEP_SCALE;
from the second step on, the stored (step, gradient change) pairs rescale
and bend the direction, so the energy drops by orders of magnitude per
step once a pair or two are held.  The last part starts the same descent
on a product torus away from Clifford (r = 0.70).
"""

import numpy as np

from contactgeom import (FlowConfig, build_analysis, clifford, descend, perturb,
                         r_torus, theorem_probe)

print("product tori: E(r) has its unique zero at r = pi/4, 32x32, tol 1e-6")
report, final = descend(r_torus(np.pi / 4 + 0.1).sample(n=32), FlowConfig(tol=1e-6))
z = final.grid.points
r_end = np.arccos(np.sqrt(z[0] ** 2 + z[1] ** 2))  # |z1| = cos r
print(f"  start r = {np.pi/4 + 0.1:.6f} -> r in [{r_end.min():.12f}, "
      f"{r_end.max():.12f}]  (pi/4 = {np.pi/4:.12f}),  "
      f"E* = {report.trace[-1].energy:.2e} after {report.iterations} steps\n")

print("L-BFGS descent from a (1,2)-mode normal bump, amplitude 0.05, 32x32:")
grid = perturb(clifford(), (1, 2), 0.05).sample(n=32)
print(f"  initial energy  = {build_analysis(grid).energy:.6e}")
report, final = descend(grid, FlowConfig(max_iter=500, tol=1e-3))
for (it, E, maxH, dev) in report.trace:
    print(f"  iter {it:3d}  E = {E:.3e}  max|H| = {maxH:.3e}  "
          f"beta spread = {dev:.3e}")
print(f"  converged = {report.converged} after {report.iterations} accepted steps")

probe = theorem_probe(report, final)
print("\nrigidity probe on the final surface:")
print(f"  beta spread = {probe['beta_spread']:.3e} (constant at tolerance)"
      f"  |K|_inf = {probe['K_inf']:.3e}  ->  {probe['status']}")

print("\nthe same descent from the product torus r = 0.70, 32x32, tol 1e-6:")
report, final = descend(r_torus(0.70).sample(n=32), FlowConfig(tol=1e-6))
print(f"  E: {report.trace[0].energy:.3e} -> {report.trace[-1].energy:.3e} in "
      f"{report.iterations} steps, max|H| = {report.final_max_H:.3e}, "
      f"probe: {theorem_probe(report, final)['status']}")
