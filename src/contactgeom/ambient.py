"""Exact geometry of C^2 and the unit 3-sphere.

Points and vectors are stored as real 4-vectors in the order
(x1, y1, x2, y2) with z_k = x_k + i*y_k, so the real-coordinate view is
exact rather than reconstructed from complex parts.  All functions accept
plain arrays of shape (..., 4) and broadcast; `dot` is the one real inner
product and `norm` the one length every other module uses for 4-vectors.
`kahler(a, b)` = <i a, b> is the Kahler form, bit for bit dot(jmul(a), b)
without the jmul temporary; the frames read the Reeb components
<v, xi(z)> = kahler(z, v) and sin(beta) through it.  `cross4` forms the
surface normal, in `surface._unit_normal` alone.

Storage: a 4-vector field is allocated as one C-contiguous (4, ...) block
and handed out as its (..., 4) transpose (`stack4`, `empty4`).  Its shape
is the one every caller indexes, but each component x[..., k] is a
contiguous array, so the per-component passes of `cross4`, `jmul` and
`perp` read contiguous memory instead of stride-4 views.  Numpy ufuncs,
np.empty_like and in-place updates keep an input's layout, so only the
places that create a field allocate it: the catalog's point maps
(`stack4`), `surface._onto_sphere`, which `sample` and the sample-file
reader share, and `cross4` (both `empty4`), and the `gridops` stencils,
which write each result into one C-contiguous (4, n_u, n_v) block of
their own.  Every value is bitwise what the interleaved layout gives.

Contraction: `dot` and `kahler` are one np.einsum over the component
axis, a single pass over the components-first blocks in place of four
products and four sums.  It adds each node's products in the four-term
sum's order only when the component axis is outermost in memory for
both operands, so operands whose components are innermost (single
4-vectors, rows picked by fancy indexing, the sample reader's column
view) keep the four-term sum.

`scale` is the one way a field is scaled node by node: c v, v / c and
w +- c v for a per-node scalar c.  It works on the components-first
(4, ...) transposes of the fields, where c broadcasts over the leading
component axis, so neither a (..., 4) copy of c nor a full-size
temporary is made, and it writes into a given output or in place.

Conventions fixed here and used everywhere else:

* multiplication by i is the linear map J: (x1,y1,x2,y2) -> (-y1,x1,-y2,x2)
* the Reeb field is xi(z) = i z
* z_perp = (-conj(z2), conj(z1)), i.e. (-x2, y2, x1, -y1)
* canonical frame of T_z S^3: f1 = z_perp, f2 = i z_perp, f3 = i z
"""

import math

import numpy as np

from .errors import NotTangent

TANGENT_TOL = 1e-8      # tolerance for tangency preconditions


def _vec(x):
    v = np.asarray(x, dtype=float)
    if v.shape[-1] != 4:
        raise ValueError(f"expected trailing dimension 4, got shape {v.shape}")
    return v


def _first(v, nd):
    """The components-first (4, ...) transpose of the field v, with length-1
    axes put in front, as broadcasting would, to make nd leading axes."""
    if v.ndim <= nd:
        v = v.reshape((1,) * (nd + 1 - v.ndim) + v.shape)
    return v.transpose(nd, *range(nd))


def _last(block):
    """The (..., 4) transpose of a components-first block."""
    return block.transpose(*range(1, block.ndim), 0)


def empty4(shape):
    """An uninitialized field of 4-vectors of shape (*shape, 4), components-first."""
    return _last(np.empty((4,) + tuple(shape)))


def stack4(c0, c1, c2, c3):
    """The field of 4-vectors (c0, c1, c2, c3), its components broadcast
    together and stored components-first."""
    parts = np.broadcast_arrays(c0, c1, c2, c3)
    out = empty4(parts[0].shape)
    for k, part in enumerate(parts):
        out[..., k] = part
    return out


def _outermost(v):
    """Whether the component axis of the (..., 4) field v is outermost in
    memory: its stride is positive and larger than every other axis's, none
    of which is 0."""
    *rest, k = v.strides
    return k > 0 and all(0 < abs(t) < k for t in rest)


def _one_pass(a, b):
    """Whether one einsum over the component axis of the fields a and b
    adds each node's four products in order, as the four-term sum does:
    more than one node, and both component axes outermost in memory."""
    return (a.size > 4 or b.size > 4) and _outermost(a) and _outermost(b)


def _pairs(v):
    """The (..., 4) field v as (..., 2, 2): the pairs (x1, y1) and (x2, y2)."""
    return v.reshape(v.shape[:-1] + (2, 2))


_PAIR_SIGNS = np.array([-1.0, 1.0])     # kahler's signs within a pair


def dot(a, b):
    """Euclidean inner product <a, b> = Re (a, b), broadcasting over leading axes.

    The four products are added left to right onto +0.0, the order and
    start value of np.sum(a * b, -1), so the two agree bit for bit; the
    start value makes a sum of -0.0 products +0.0, a sign arctan2 reads.
    When both component axes are outermost in memory (`_one_pass`) the sum
    is one einsum over them, a single pass; otherwise the four-term sum,
    one component pair at a time, gives the same order.
    """
    a, b = _vec(a), _vec(b)
    if _one_pass(a, b):
        return np.einsum("...k,...k->...", a, b)
    out = 0.0 + a[..., 0] * b[..., 0]
    out += a[..., 1] * b[..., 1]
    out += a[..., 2] * b[..., 2]
    out += a[..., 3] * b[..., 3]
    return out


def kahler(a, b):
    """Kahler form omega(a, b) = <i a, b>, broadcasting over leading axes.

    The four products are added onto +0.0 in the order of dot(jmul(a), b),
    each negated one subtracted, so the two agree bit for bit without the
    (..., 4) temporary jmul(a).  As in `dot`, the sum is one einsum when
    both component axes are outermost in memory: a's pairs swapped, as
    jmul does, times b's and the pair signs (-1, 1).  <v, xi(z)> is
    kahler(z, v).
    """
    a, b = _vec(a), _vec(b)
    if _one_pass(a, b):
        return np.einsum("...pq,...pq,q->...", _pairs(a)[..., ::-1], _pairs(b),
                         _PAIR_SIGNS)
    out = 0.0 - a[..., 1] * b[..., 0]
    out += a[..., 0] * b[..., 1]
    out -= a[..., 3] * b[..., 2]
    out += a[..., 2] * b[..., 3]
    return out


def scale(c, v, out=None, onto=None, minus=False, divide=False):
    """The 4-vector field c v for a per-node scalar c, or v / c with divide;
    with onto, the field onto + c v, or onto - c v with minus.

    Each value is bitwise c[..., None] * v (v / c[..., None],
    onto +- c[..., None] * v): the same operations, applied to the
    components-first transposes of the fields, where c broadcasts over the
    component axis.  out may be v or onto, to update a field in place; the
    result is written there and returned.  An update of onto in place goes
    one component at a time through a temporary of one component, so no
    full-size temporary is made.  Without out the result is a new field,
    stored as v is.
    """
    nd = max(np.ndim(c), v.ndim - 1)
    vb = _first(v, nd)
    ob = None if out is None else _first(out, nd)
    join = np.subtract if minus else np.add
    if onto is not None and out is not None and np.may_share_memory(out, onto):
        wb, t = _first(onto, nd), np.empty(ob.shape[1:])
        for k in range(4):   # [k, ...] keeps a single vector's entry an array
            vk = vb[k, ...]
            join(wb[k, ...], np.divide(vk, c, t) if divide else np.multiply(c, vk, t),
                 ob[k, ...])
        return out
    r = np.divide(vb, c, ob) if divide else np.multiply(c, vb, ob)
    if onto is not None:
        join(_first(onto, nd), r, r)
    return out if out is not None else _last(r)


def norm(a):
    """Euclidean length sqrt(<a, a>); bit for bit np.linalg.norm(a, axis=-1)."""
    return np.sqrt(dot(a, a))


def jmul(v):
    """Multiply by i: the complex structure J on R^4 = C^2."""
    v = _vec(v)
    out = np.empty_like(v)
    out[..., 0] = -v[..., 1]
    out[..., 1] = v[..., 0]
    out[..., 2] = -v[..., 3]
    out[..., 3] = v[..., 2]
    return out


def complex_view(v):
    """Return (z1, z2) complex components of a real 4-vector."""
    v = _vec(v)
    return v[..., 0] + 1j * v[..., 1], v[..., 2] + 1j * v[..., 3]


def hermitian(z, w):
    """Hermitian product (z, w) = z1 conj(w1) + z2 conj(w2)."""
    z1, z2 = complex_view(z)
    w1, w2 = complex_view(w)
    return z1 * np.conj(w1) + z2 * np.conj(w2)


def reeb(z):
    """Reeb field xi(z) = i z; unit and tangent to S^3 for unit z."""
    return jmul(z)


def perp(z):
    """z_perp = (-conj(z2), conj(z1)); unit, Hermitian-orthogonal to z."""
    v = _vec(z)
    out = np.empty_like(v)
    out[..., 0] = -v[..., 2]
    out[..., 1] = v[..., 3]
    out[..., 2] = v[..., 0]
    out[..., 3] = -v[..., 1]
    return out


def canonical_frame_vectors(z):
    """The frame (f1, f2, f3) = (z_perp, i z_perp, i z) of T_z S^3 as arrays."""
    f1 = perp(z)
    return f1, jmul(f1), jmul(z)


def contact_project(z, v):
    """Project a tangent vector onto the contact plane delta_z = ker <xi, .>.

    Raises NotTangent when |<v, z>| exceeds the tangency tolerance.
    """
    z = _vec(z)
    v = _vec(v)
    if np.any(np.abs(dot(v, z)) > TANGENT_TOL):
        raise NotTangent("vector is not tangent to S^3 at the base point")
    return scale(kahler(z, v), reeb(z), onto=v, minus=True)


def frame_derivative_check(z, v, h):
    """Residual of the structural derivative D f3 = -w2 f1 + w1 f2.

    Differentiates f3 = i z numerically along the great circle
    t -> cos(t) z + sin(t) v (which stays on S^3 exactly for unit tangent v),
    takes the part tangent to S^3, and subtracts
    -<v,f2> f1 + <v,f1> f2.  The residual decays as O(h^2).
    """
    if h <= 0:
        raise ValueError("h must be positive")
    z = _vec(z)
    v = _vec(v)
    zp = math.cos(h) * z + math.sin(h) * v
    zm = math.cos(h) * z - math.sin(h) * v
    d = (reeb(zp) - reeb(zm)) / (2.0 * h)
    d_tan = scale(dot(d, z), z, out=d, onto=d, minus=True)
    f1, f2, _ = canonical_frame_vectors(z)
    expected = scale(-dot(v, f2), f1)
    scale(dot(v, f1), f2, out=expected, onto=expected)
    return float(norm(d_tan - expected))


def cross4(a, b, c):
    """Generalized cross product on R^4 with <cross4(a,b,c), x> = det[a; b; c; x].

    For an orthonormal triple the result is the unit vector completing it to a
    positively oriented basis of R^4 (rows in the listed order).  Each
    component is the cofactor expansion of a 3x3 minor of (a, b, c) along a;
    the six 2x2 minors m_jk of (b, c) are shared by two components each and
    are formed once, each released after its second use.
    """
    a, b, c = _vec(a), _vec(b), _vec(c)
    d = empty4(np.broadcast(a, b, c).shape[:-1])

    def minor(j, k):
        return b[..., j] * c[..., k] - b[..., k] * c[..., j]

    m23, m13, m12 = minor(2, 3), minor(1, 3), minor(1, 2)
    d[..., 0] = -(a[..., 1] * m23 - a[..., 2] * m13 + a[..., 3] * m12)
    m03, m02 = minor(0, 3), minor(0, 2)
    d[..., 1] = a[..., 0] * m23 - a[..., 2] * m03 + a[..., 3] * m02
    del m23
    m01 = minor(0, 1)
    d[..., 2] = -(a[..., 0] * m13 - a[..., 1] * m03 + a[..., 3] * m01)
    del m13, m03
    d[..., 3] = a[..., 0] * m12 - a[..., 1] * m02 + a[..., 2] * m01
    return d
