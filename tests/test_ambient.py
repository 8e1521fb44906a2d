"""The 4-vector kernels: products, the Kahler form and cross4.

Every 4-vector argument is a (4, ...) array, components first.  The
Hermitian product and the Reeb field are checked as the package reads
them, through dot and kahler.  J (multiplication by i) and z_perp are
reference oracles here, since the package forms neither as a vector; the
canonical-frame tests check those oracles, which other tests read."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactgeom.ambient import accumulate, cross4, dot, kahler, norm, stack4

RNG = np.random.default_rng(20240811)


def random_sphere_points(n):
    """n random points of S^3, a (4, n) block."""
    v = np.ascontiguousarray(RNG.normal(size=(n, 4)).T)
    return v / np.linalg.norm(v, axis=0)


def jmul(v):
    """Reference J, multiplication by i: (x1, y1, x2, y2) -> (-y1, x1, -y2, x2)."""
    v = np.asarray(v, float)
    return np.stack([-v[1], v[0], -v[3], v[2]])


def perp(z):
    """Reference z_perp = (-conj(z2), conj(z1)): (-x2, y2, x1, -y1)."""
    z = np.asarray(z, float)
    return np.stack([-z[2], z[3], z[0], -z[1]])


def hermitian(z, w):
    """The Hermitian product (z, w) = <z, w> - i omega(z, w), from the
    package's dot and Kahler form."""
    return dot(z, w) - 1j * kahler(z, w)


def reeb(z):
    """The Reeb field xi(z) = i z as the package reads it: its k-th
    component is <e_k, xi(z)> = kahler(z, e_k)."""
    z = np.asarray(z, float)
    basis = np.eye(4).reshape((4, 4) + (1,) * (z.ndim - 1))   # basis[:, k] = e_k
    return kahler(z[:, None], basis)


def test_hermitian_unit_vector_with_itself():
    assert hermitian(np.array([1, 0, 0, 0.0]), np.array([1, 0, 0, 0.0])) == 1.0


def test_hermitian_orthogonal_axes():
    e1 = np.array([1, 0, 0, 0.0])
    e2 = np.array([0, 0, 1, 0.0])
    assert hermitian(e1, e2) == 0.0


def test_hermitian_norm_of_unit_vector():
    c = np.sqrt(2) / 2
    z = np.array([c, 0, 0, c])  # (sqrt2/2, i sqrt2/2)
    assert abs(hermitian(z, z) - 1.0) < 1e-15


def test_dot_is_real_part_of_hermitian():
    for z in random_sphere_points(50).T:
        w = random_sphere_points(1)[:, 0]
        direct = ((z[0] + 1j * z[1]) * (w[0] - 1j * w[1])
                  + (z[2] + 1j * z[3]) * (w[2] - 1j * w[3]))
        assert abs(dot(z, w) - direct.real) < 1e-14


EPS = np.finfo(float).eps


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _block(x):
    """The (4, ...) block of the 4-vectors along the last axis of x."""
    return np.ascontiguousarray(np.moveaxis(x, -1, 0))


def _layouts(a, b):
    """Operand pairs of more than one node, laid out as the package lays
    them out: (4, ...) blocks and their strided, reversed and broadcast views.

    a and b are (4, n, m) blocks with n > 5 and m > 3.  An einsum over the
    outermost component axis adds each node's products in order on every
    one of them.
    """
    tall = _block(RNG.normal(size=(512, 3, 4)) * 10.0 ** RNG.integers(
        -12, 12, size=(512, 3, 4)))
    # the products 1e16, 1, -1e16 and 1 in each order: added left to right
    # they sum to 0, 1 or 2, and pairwise or reversed to another of these
    cancel = np.array(sorted(set(itertools.permutations((1e16, 1.0, -1e16, 1.0)))))
    cancel = _block(cancel.reshape(3, 4, 4))
    ones = np.ones((4, 1, 1))
    return [
        (a[:, ::3, 1::2], b[:, 1::3, 1::2]),      # stepped
        (a[:, ::-1, ::-2], b[:, :, ::-2]),        # negative strides
        (a[:, 1:], b[:, :-1]),                    # the edges along u
        (a[:, :, 1:], b[:, :, :-1]),              # the edges along v
        (a[:, 0], b[:, -1]), (a[:, :, 0], b[:, :, -1]),  # the wrap edges
        (a[:, :1, :1], b), (a, b[:, :, :1]),      # length-1 axes broadcast
        (a[:, :, None], b[:, None]),              # broadcast to (4, n, n, m)
        (tall, tall[:, ::-1]), (tall, tall[:, 7:8, 1:2]),   # a 512x3 field
        (a[::-1], b[::-1]),                       # components reversed
        (np.broadcast_to(a[:, :1, :1], (4, 5, 1)), b[:, :1, :1]),  # stride-0 nodes
    ] + [(x, ones) for x in (cancel, cancel[::-1],
                             np.broadcast_to(cancel[:, :1, 1:2], (4, 5, 1)))]


def _four_term_bound(x, y):
    """4 eps times the sum of |x_k y_k|: the rounding a four-term sum of
    the products can leave, whatever its order."""
    return 4 * EPS * np.sum(np.abs(x * y), 0)


def test_dot_is_bitwise_np_sum():
    # one einsum over the outermost component axis must reproduce
    # np.sum(a * b, 0) bit for bit on every field layout the package feeds
    # it, so routing through dot leaves every output file unchanged
    scale = 10.0 ** RNG.integers(-12, 12, size=(33, 17, 4))
    a = _block(RNG.normal(size=(33, 17, 4)) * scale)
    b = _block(RNG.normal(size=(33, 17, 4)))
    rows = RNG.integers(0, 33 * 17, size=200)
    cases = [
        (a, b),                                   # (4, n, m) blocks
        (a[:, 1:, 0], a[:, :-1, 0]),              # strided column slices
        (a[:, :, 1:], b[:, :, :-1]),              # offset row slices
        (a.reshape(4, -1).take(rows, 1), b.reshape(4, -1).take(rows[::-1], 1)),  # picked nodes
        (b[:, 0, :1], a[:, 5]),                   # one vector against a row
    ]
    cases += _layouts(a, b)
    for x, y in cases:
        assert _same_bits(dot(x, y), np.sum(x * y, 0))
    zeros = _block(np.array([[-0.0, -0.0, -0.0, -0.0], [0.0, -0.0, 0.0, -0.0],
                             [-0.0, 0.0, -0.0, 0.0], [1.0, -1.0, 0.0, -0.0]]))
    ones = np.array([[1.0], [1.0], [-1.0], [1.0]])
    for x, y in ((zeros, ones), (zeros, -ones), (zeros, zeros[:, ::-1])):
        assert _same_bits(dot(x, y), np.sum(x * y, 0))
    # four -0.0 products sum to +0.0, as in np.sum; arctan2 reads that sign
    assert not np.signbit(dot(zeros[:, 1:3], zeros[:, 2:0:-1])).any()


def _accumulated(x, y, order=range(4)):
    """sum_k x_k y_k through accumulate, components taken in order, from np.zeros."""
    total = np.zeros(np.broadcast_shapes(x.shape, y.shape)[1:])
    for k in order:
        accumulate(total, x[k], y[k])
    return total


def test_accumulate_is_bitwise_dot():
    # the frame-leg contractions add one component's products at a time and
    # form neither 4-vector field; in ascending k from np.zeros they keep
    # dot's bits on every field layout, signed zeros included
    scale = 10.0 ** RNG.integers(-12, 12, size=(33, 17, 4))
    a = _block(RNG.normal(size=(33, 17, 4)) * scale)
    b = _block(RNG.normal(size=(33, 17, 4)))
    cases = [(a, b), (a[:, 1:, 0], a[:, :-1, 0]), (a[:, :, 1:], b[:, :, :-1])]
    cases += _layouts(a, b)
    for x, y in cases:
        assert _same_bits(_accumulated(x, y), dot(x, y))
    zeros = _block(np.array([[-0.0, -0.0, -0.0, -0.0], [0.0, -0.0, 0.0, -0.0],
                             [-0.0, 0.0, -0.0, 0.0], [1.0, -1.0, 0.0, -0.0]]))
    assert _same_bits(_accumulated(zeros, zeros[:, ::-1]), dot(zeros, zeros[:, ::-1]))
    assert not np.signbit(_accumulated(zeros[:, 1:3], zeros[:, 2:0:-1])).any()
    # the comparison sees another order: the cancelling products sum to
    # another value when the components are added in reverse
    x, y = _layouts(a, b)[-3]
    assert not _same_bits(_accumulated(x, y, order=range(3, -1, -1)), dot(x, y))


def test_single_vectors_are_within_rounding_of_the_four_term_sum():
    # numpy contracts a lone vector or node in an inner loop of its own,
    # whose order (or fused multiply-add) can change the last bit; the
    # package contracts fields of at least 8x8 nodes only
    a = _block(RNG.normal(size=(6, 4, 4)) * 10.0 ** RNG.integers(-12, 12, size=(6, 4, 4)))
    b = _block(RNG.normal(size=(6, 4, 4)))
    for x, y in ((a[:, 0, 0], b[:, 3, 2]), (a[:, 1, 1].copy(), b[:, 5, 3].copy()),
                 (a[:, :1, :1], b[:, 2:3, :1])):
        assert np.all(np.abs(dot(x, y) - np.sum(x * y, 0)) <= _four_term_bound(x, y))
        jx = jmul(x)
        assert np.all(np.abs(kahler(x, y) - np.sum(jx * y, 0)) <= _four_term_bound(jx, y))


def test_kahler_is_bitwise_dot_of_jmul():
    # kahler subtracts the products dot(jmul(a), b) adds negated, in the same
    # order onto +0.0, so sin(beta) keeps the bits the jmul temporary gave
    scale = 10.0 ** RNG.integers(-12, 12, size=(33, 17, 4))
    a = _block(RNG.normal(size=(33, 17, 4)) * scale)
    b = _block(RNG.normal(size=(33, 17, 4)))
    cases = [(a, b), (a[:, 1:, 0], b[:, :-1, 0]), (b[:, 0, :1], a[:, 5]),
             (a[:, :, None], b[:, :1, None])]
    signed = _block(np.array([[-0.0, -0.0, -0.0, -0.0], [0.0, -0.0, 0.0, -0.0],
                              [-0.0, 0.0, -0.0, 0.0], [1.0, -1.0, 0.0, -0.0]]))
    x, y = np.meshgrid(np.arange(4), np.arange(4), indexing="ij")
    cases += [(signed[:, x], signed[:, y]), (signed[:, x], -signed[:, y])]
    cases += _layouts(a, b)
    for x, y in cases:
        assert _same_bits(kahler(x, y), dot(jmul(x), y))
    # <v, xi(z)> = kahler(z, v) bit for bit, the form the frames use
    assert _same_bits(kahler(a, b), dot(b, jmul(a)))


@given(st.lists(st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 4),
                min_size=1, max_size=12))
@settings(max_examples=200, deadline=None)
def test_norm_is_bitwise_np_linalg_norm(rows):
    # sqrt(dot(a, a)) adds the squares in np.linalg.norm's order, so every
    # length the package forms is unchanged by routing it through norm,
    # overflow to inf and subnormal squares included; a lone vector is
    # within rounding (see the test above)
    a = _block(np.array(rows))
    with np.errstate(over="ignore"):
        if a.shape[1] > 1:
            for x in (a, a[::-1, ::-1]):
                assert _same_bits(norm(x), np.linalg.norm(x, axis=0))
        x = a[:, 0].copy()
        assert norm(x) == pytest.approx(np.linalg.norm(x), rel=4 * EPS, abs=1e-150)


def test_dot_rejects_an_array_without_leading_dimension_4():
    # a 4-vector field is (4, n_u, n_v); the old (n_u, n_v, 4) view is refused
    for x in (np.ones(3), np.ones((8, 8, 4))):
        with pytest.raises(ValueError, match="leading dimension 4"):
            dot(x, x)


def test_reeb_basic_points():
    assert np.allclose(reeb(np.array([1, 0, 0, 0.0])), [0, 1, 0, 0])
    assert np.allclose(reeb(np.array([0, 0, 1, 0.0])), [0, 0, 0, 1])


def test_reeb_linearity_on_torus_points():
    c = np.sqrt(2) / 2
    u, v = 0.37, 2.1
    z = np.array([c * np.cos(u), c * np.sin(u), c * np.cos(v), c * np.sin(v)])
    expected = np.array([-c * np.sin(u), c * np.cos(u), -c * np.sin(v), c * np.cos(v)])
    assert np.allclose(reeb(z), expected, atol=1e-15)


def test_reeb_perp_invariants_random():
    z = random_sphere_points(200)
    assert np.max(np.abs(hermitian(perp(z), z))) < 1e-12
    assert np.max(np.abs(np.linalg.norm(reeb(z), axis=0) - 1)) < 1e-12
    assert np.max(np.abs(dot(reeb(z), z))) < 1e-12


def test_perp_formula_points():
    assert np.allclose(perp(np.array([1, 0, 0, 0.0])), [0, 0, 1, 0])
    assert np.allclose(perp(np.array([0, 0, 1, 0.0])), [-1, 0, 0, 0])
    c = np.sqrt(2) / 2
    assert np.allclose(perp(np.array([c, 0, c, 0])), [-c, 0, c, 0])


def test_canonical_frame_at_north_pole():
    z = np.array([1, 0, 0, 0.0])
    f1 = perp(z)
    assert np.allclose(f1, [0, 0, 1, 0])
    assert np.allclose(jmul(f1), [0, 0, 0, 1])
    assert np.allclose(jmul(z), [0, 1, 0, 0])


def test_canonical_frame_gram_identity():
    z = random_sphere_points(25)
    f1 = perp(z)
    m = np.stack([f1, jmul(f1), jmul(z)], axis=1)    # (4, 3, 25)
    gram = dot(m[:, :, None], m[:, None])
    assert np.max(np.abs(gram - np.eye(3)[..., None])) < 1e-12


def test_contact_plane_orthogonal_to_reeb():
    # f1 = z_perp and f2 = i z_perp span the contact plane: their Reeb
    # components, read through kahler as the frames read them, vanish
    z = random_sphere_points(100)
    f1 = perp(z)
    for f in (f1, jmul(f1)):
        assert np.max(np.abs(kahler(z, f))) < 1e-12


def test_cross4_completes_canonical_frame():
    for z in random_sphere_points(20).T:
        f1 = perp(z)
        f2, f3 = jmul(f1), jmul(z)
        assert np.allclose(cross4(z, f1, f2), f3, atol=1e-12)
        m = np.stack([z, f1, f2, f3])
        assert abs(np.linalg.det(m) - 1.0) < 1e-12


def _cross4_cofactors(a, b, c):
    """Reference: each component a 3x3 cofactor expanded with its own minors."""
    def det3(i, j, k):
        return (a[i] * (b[j] * c[k] - b[k] * c[j])
                - a[j] * (b[i] * c[k] - b[k] * c[i])
                + a[k] * (b[i] * c[j] - b[j] * c[i]))
    return np.stack([-det3(1, 2, 3), det3(0, 2, 3), -det3(0, 1, 3), det3(0, 1, 2)])


def test_cross4_is_bitwise_cofactor_expansion():
    # sharing the six 2x2 minors of (b, c) keeps every expression, so the
    # result must match the per-component expansion bit for bit
    scale = 10.0 ** RNG.integers(-12, 12, size=(33, 17, 4))
    a, b, c = (_block(RNG.normal(size=(33, 17, 4)) * scale) for _ in range(3))
    cases = [
        (a, b, c),                                         # (4, n, m) blocks
        (a[:, 1:, ::2], b[:, :-1, ::2], c[:, 1:, ::-2]),   # strided slices
        (a[:, :1, :1], b, c[:, :, :1]),                    # (4, 1, 1), (4, n, m), (4, n, 1)
        (a[:, :, None], b[:, None], c[:, :1, None]),       # broadcast to (4, n, n, m)
        (a[:, 0, 0], b[:, 0, 0], c[:, 0, 0]),              # single vectors
        (a[::-1], b, c[::-1]),                             # components reversed
    ]
    for x, y, z in cases:
        d = cross4(x, y, z)
        assert _same_bits(d, _cross4_cofactors(x, y, z))
        # the result is a new (4, ...) block, whatever the inputs' strides
        assert d.flags.c_contiguous
    signed = _block(np.array([[-0.0, -0.0, -0.0, -0.0], [0.0, -0.0, 0.0, -0.0],
                              [-0.0, 0.0, 1.0, 0.0], [1.0, -1.0, 0.0, -0.0],
                              [0.0, 0.0, -1.0, -0.0]]))
    x, y, z = np.meshgrid(np.arange(5), np.arange(5), np.arange(5), indexing="ij")
    x, y, z = signed[:, x], signed[:, y], signed[:, z]
    assert _same_bits(cross4(x, y, z), _cross4_cofactors(x, y, z))
    assert np.signbit(cross4(x, y, z)).any()


def test_cross4_and_stack4_reject_an_array_without_leading_dimension_4():
    with pytest.raises(ValueError, match="leading dimension 4"):
        cross4(*np.ones((3, 8, 8, 4)))
    # stack4 broadcasts its four components into one (4, ...) block
    x = stack4(np.ones((3, 1)), 2.0, np.zeros((1, 5)), np.arange(5))
    assert x.shape == (4, 3, 5) and x.flags.c_contiguous and x.dtype == float
    assert np.all(x[1] == 2.0) and np.all(x[3] == np.arange(5))


def test_jmul_squares_to_minus_one():
    v = RNG.normal(size=(40, 4)).T
    assert np.allclose(jmul(jmul(v)), -v)


@given(st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1),
       st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1))
@settings(max_examples=60, deadline=None)
def test_hermitian_sesquilinear(a, b, c, d, e, f, g, h):
    z = np.array([a, b, c, d])
    w = np.array([e, f, g, h])
    zc = complex(a, b), complex(c, d)
    wc = complex(e, f), complex(g, h)
    expected = zc[0] * wc[0].conjugate() + zc[1] * wc[1].conjugate()
    assert abs(hermitian(z, w) - expected) < 1e-12
    assert abs(hermitian(z, w) - hermitian(w, z).conjugate()) < 1e-12
