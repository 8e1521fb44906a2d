"""Contact-angle fields of the catalog surfaces.

The signed contact angle beta satisfies cos(beta) = <xi, e2> and
sin(beta) = <xi, e3> for the adapted frame (e1, e2, e3).  The flat minimal
torus has beta identically zero; every product torus in the r-family is
constant at zero as well; the great sphere y2 = 0 carries the non-constant
field beta = arcsin(x2).
"""

import numpy as np

from contactgeom import build_analysis, clifford, geodesic_sphere, r_torus

for entry in (clifford(), r_torus(np.pi / 3), geodesic_sphere()):
    grid = entry.sample(n=64)
    an = build_analysis(grid)
    beta = an.frames.beta
    print(f"{entry.name:18s} beta in [{beta.min():+.6f}, {beta.max():+.6f}]"
          f"  spread = {np.ptp(beta):.2e}  masked = {an.frames.n_masked}")

grid = geodesic_sphere().sample(n=64)
an = build_analysis(grid)
x2 = grid.points[2]
print("\ngreat sphere: max|beta - arcsin(x2)| =",
      f"{np.max(np.abs(an.frames.beta - np.arcsin(x2))):.2e}")

print("\nframe rotation structure at a sample node (e2, e3 from Je1 and xi):")


def times_i(v):
    """Multiplication by i: (x1, y1, x2, y2) -> (-y1, x1, -y2, x2)."""
    return np.array([-v[1], v[0], -v[3], v[2]])


i, j = 20, 11
e1, e2, e3 = an.frames.e1[:, i, j], an.frames.e2[:, i, j], an.frames.e3[:, i, j]
b = an.frames.beta[i, j]
Je1, xi = times_i(e1), times_i(grid.points[:, i, j])   # xi = i z
print("  e2 =", np.round(e2, 6))
print("  sin(b) Je1 + cos(b) xi =", np.round(np.sin(b) * Je1 + np.cos(b) * xi, 6))
print("  e3 =", np.round(e3, 6))
print("  -cos(b) Je1 + sin(b) xi =", np.round(-np.cos(b) * Je1 + np.sin(b) * xi, 6))
