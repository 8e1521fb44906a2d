"""Exact geometry of C^2 and the unit 3-sphere.

Points and vectors are stored as real 4-vectors in the order
(x1, y1, x2, y2) with z_k = x_k + i*y_k, so the real-coordinate view is
exact rather than reconstructed from complex parts.  A field of 4-vectors
is one C-contiguous (4, ...) array, components first, in shape as in
memory: x[k] is component k, a contiguous array.  All functions take such
arrays and broadcast over the trailing axes; an array whose leading
dimension is not 4 is rejected.  `dot` is the one real inner product and
`norm` the one length every other module uses for 4-vectors, each one
np.einsum pass over the component axis; since that axis is outermost,
each node's four products are added in order onto +0.0.  `accumulate`
adds one component's products in that order, so a contraction summed one
component at a time has dot's bits without either 4-vector field.
`kahler(a, b)` = <i a, b> is the Kahler form, formed without the vector
i a; the frames read the Reeb components <v, xi(z)> = kahler(z, v) and
sin(beta) through it.  `cross4` forms the surface normal, in
`surface._unit_normal` alone.  A field is scaled node by node by plain
broadcasting: a per-node scalar c times a (4, ...) field v is c * v.

Conventions fixed here and used everywhere else:

* multiplication by i is the linear map J: (x1,y1,x2,y2) -> (-y1,x1,-y2,x2)
* the Reeb field is xi(z) = i z, read as <v, xi(z)> = kahler(z, v)
* z_perp = (-conj(z2), conj(z1)), i.e. (-x2, y2, x1, -y1)
* canonical frame of T_z S^3: f1 = z_perp, f2 = i z_perp, f3 = i z
"""

import numpy as np


def _vec(x):
    v = np.asarray(x, dtype=float)
    if v.shape[:1] != (4,):
        raise ValueError(f"expected leading dimension 4, got shape {v.shape}")
    return v


def stack4(c0, c1, c2, c3):
    """The field of 4-vectors (c0, c1, c2, c3), its components broadcast
    together: one C-contiguous (4, ...) array."""
    return np.stack(np.broadcast_arrays(c0, c1, c2, c3), dtype=float)


_PAIR_SIGNS = np.array([-1.0, 1.0])     # kahler's signs within a pair


def dot(a, b):
    """Euclidean inner product <a, b> = Re (a, b), broadcasting over trailing axes.

    One einsum over the leading component axis: on a field of more than
    one node whose component axis is outermost in memory, as every field
    the package forms is, each node's four products are added left to
    right onto +0.0, the order and start value of np.sum(a * b, 0), so the
    two agree bit for bit; the start value makes a sum of -0.0 products
    +0.0, a sign arctan2 reads.  (A lone vector goes through numpy's own
    inner loop and can differ in its last bit.)
    """
    return np.einsum("k...,k...->...", _vec(a), _vec(b))


def accumulate(total, a_k, b_k):
    """Add the products a_k * b_k of component k onto total, in place.

    Called for k = 0, 1, 2, 3 in turn on a total that starts as +0.0 (from
    np.zeros), it adds each node's products in dot's order and from dot's
    start value, so the total is bit for bit dot(a, b) while neither a nor
    b is formed as a 4-vector field.
    """
    total += a_k * b_k


def kahler(a, b):
    """Kahler form omega(a, b) = <i a, b>, broadcasting over trailing axes.

    J a = (-a1, a0, -a3, a2): one einsum over the pairs (x1, y1) and
    (x2, y2), a's pairs swapped as J swaps them, times b's and the pair
    signs (-1, 1).  The four products are added onto +0.0 in `dot`'s
    order, so the result is bit for bit dot(J a, b) without the temporary
    J a.  <v, xi(z)> is kahler(z, v).
    """
    a, b = _vec(a), _vec(b)
    return np.einsum("pq...,pq...,q->...", a.reshape((2, 2) + a.shape[1:])[:, ::-1],
                     b.reshape((2, 2) + b.shape[1:]), _PAIR_SIGNS)


def norm(a):
    """Euclidean length sqrt(<a, a>); bit for bit np.linalg.norm(a, axis=0)."""
    return np.sqrt(dot(a, a))


def cross4(a, b, c):
    """Generalized cross product on R^4 with <cross4(a,b,c), x> = det[a; b; c; x].

    For an orthonormal triple the result is the unit vector completing it to a
    positively oriented basis of R^4 (rows in the listed order).  Each
    component is the cofactor expansion of a 3x3 minor of (a, b, c) along a;
    the six 2x2 minors m_jk of (b, c) are shared by two components each and
    are formed once, each released after its second use.
    """
    a, b, c = _vec(a), _vec(b), _vec(c)
    d = np.empty(np.broadcast(a, b, c).shape)

    def minor(j, k):
        return b[j] * c[k] - b[k] * c[j]

    m23, m13, m12 = minor(2, 3), minor(1, 3), minor(1, 2)
    d[0] = -(a[1] * m23 - a[2] * m13 + a[3] * m12)
    m03, m02 = minor(0, 3), minor(0, 2)
    d[1] = a[0] * m23 - a[2] * m03 + a[3] * m02
    del m23
    m01 = minor(0, 1)
    d[2] = -(a[0] * m13 - a[1] * m03 + a[3] * m01)
    del m13, m03
    d[3] = a[0] * m12 - a[1] * m02 + a[2] * m01
    return d
