"""Ambient geometry of the unit 3-sphere: Reeb field, frames, projections.

Walks through the closed-form layer on plain 4-vectors (x1, y1, x2, y2):
the Hermitian product (z, w) on C^2 and its real part <z, w> = dot(z, w),
the Reeb field xi(z) = i z, the orthogonal companion z_perp, the canonical
frame (z_perp, i z_perp, i z) of T_z S^3, and the second-order accuracy of
the frame derivative relation for f3 along great circles.
"""

import numpy as np

from contactgeom import (canonical_frame_vectors, contact_project, dot,
                         frame_derivative_check, hermitian, perp, reeb)

z = np.array([1.0, 2.0, -0.5, 0.3])
z /= np.linalg.norm(z)
print("point z on S^3 (x1, y1, x2, y2):", np.round(z, 6))
print("(z, z) =", hermitian(z, z))

xi = reeb(z)
zp = perp(z)
print("\nReeb field xi = i z:", np.round(xi, 6))
print("  unit:", abs(np.linalg.norm(xi) - 1) < 1e-15,
      " tangent:", abs(dot(xi, z)) < 1e-15)
print("z_perp:", np.round(zp, 6))
print("  Hermitian-orthogonal to z:", abs(hermitian(zp, z)) < 1e-15)

frame = np.stack(canonical_frame_vectors(z))
print("\ncanonical frame Gram matrix <f_i, f_j>:\n",
      np.round(dot(frame[:, None, :], frame[None, :, :]), 12) + 0.0)

# the contact plane is the kernel of <xi, .>; projecting xi kills it,
# projecting a contact-plane vector changes nothing
print("\n|P_delta(xi)| =", np.linalg.norm(contact_project(z, xi)))
f1 = frame[0]
print("|P_delta(f1) - f1| =", np.linalg.norm(contact_project(z, f1) - f1))

print("\nstructural derivative of f3 along a great circle, residual ~ h^2:")
for h in (1e-2, 5e-3, 2.5e-3):
    r = frame_derivative_check(z, f1, h)
    print(f"  h = {h:.4g}: residual = {r:.3e}")
