"""Ambient geometry of the unit 3-sphere: Reeb field, frames, projections.

Walks through the conventions of the ambient layer on plain 4-vectors
(x1, y1, x2, y2): the Hermitian product (z, w) on C^2 and its real part
<z, w> = dot(z, w), the Reeb field xi(z) = i z, the orthogonal companion
z_perp, the canonical frame (z_perp, i z_perp, i z) of T_z S^3, and the
second-order accuracy of the frame derivative relation for f3 along great
circles.  The package reads xi only through its Kahler form
kahler(z, v) = <v, xi(z)>, so the vectors are formed here, in numpy.
"""

import math

import numpy as np

from contactgeom.ambient import dot, kahler


def hermitian(z, w):
    """Hermitian product (z, w) = z1 conj(w1) + z2 conj(w2)."""
    z1, z2 = z[0] + 1j * z[1], z[2] + 1j * z[3]
    w1, w2 = w[0] + 1j * w[1], w[2] + 1j * w[3]
    return z1 * np.conj(w1) + z2 * np.conj(w2)


def times_i(v):
    """Multiplication by i: (x1, y1, x2, y2) -> (-y1, x1, -y2, x2)."""
    return np.array([-v[1], v[0], -v[3], v[2]])


def perp(z):
    """z_perp = (-conj(z2), conj(z1)), i.e. (-x2, y2, x1, -y1)."""
    return np.array([-z[2], z[3], z[0], -z[1]])


def contact_project(z, v):
    """v minus its Reeb component: the projection onto ker <xi(z), .>."""
    return v - kahler(z, v) * times_i(z)


def frame_derivative_residual(z, v, h):
    """Residual of the structural derivative D f3 = -w2 f1 + w1 f2.

    Differentiates f3 = i z by central differences along the great circle
    t -> cos(t) z + sin(t) v, takes the part tangent to S^3 and subtracts
    -<v, f2> f1 + <v, f1> f2; the residual decays as O(h^2).
    """
    zp = math.cos(h) * z + math.sin(h) * v
    zm = math.cos(h) * z - math.sin(h) * v
    d = (times_i(zp) - times_i(zm)) / (2.0 * h)
    d_tan = d - dot(d, z) * z
    f1 = perp(z)
    f2 = times_i(f1)
    return float(np.linalg.norm(d_tan - (-dot(v, f2) * f1 + dot(v, f1) * f2)))


z = np.array([1.0, 2.0, -0.5, 0.3])
z /= np.linalg.norm(z)
print("point z on S^3 (x1, y1, x2, y2):", np.round(z, 6))
print("(z, z) =", hermitian(z, z))

xi = times_i(z)
zp = perp(z)
print("\nReeb field xi = i z:", np.round(xi, 6))
print("  unit:", abs(np.linalg.norm(xi) - 1) < 1e-15,
      " tangent:", abs(dot(xi, z)) < 1e-15)
print("z_perp:", np.round(zp, 6))
print("  Hermitian-orthogonal to z:", abs(hermitian(zp, z)) < 1e-15)

frame = np.stack([zp, times_i(zp), xi], axis=1)   # (4, 3): column j is f_j
print("\ncanonical frame Gram matrix <f_i, f_j>:\n",
      np.round(dot(frame[:, :, None], frame[:, None, :]), 12) + 0.0)

# the contact plane is the kernel of <xi, .>; projecting xi kills it,
# projecting a contact-plane vector changes nothing
print("\n|P_delta(xi)| =", np.linalg.norm(contact_project(z, xi)))
f1 = frame[:, 0]
print("|P_delta(f1) - f1| =", np.linalg.norm(contact_project(z, f1) - f1))

print("\nstructural derivative of f3 along a great circle, residual ~ h^2:")
for h in (1e-2, 5e-3, 2.5e-3):
    r = frame_derivative_residual(z, f1, h)
    print(f"  h = {h:.4g}: residual = {r:.3e}")
