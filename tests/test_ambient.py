"""Closed-form ambient geometry: products, Reeb field, frames, projections."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactgeom import (NotTangent, canonical_frame_vectors, contact_project, dot,
                         frame_derivative_check, hermitian, perp, reeb)
from contactgeom.ambient import cross4, jmul, kahler, norm, scale

RNG = np.random.default_rng(20240811)


def random_sphere_points(n):
    v = RNG.normal(size=(n, 4))
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def random_tangent(z):
    v = RNG.normal(size=4)
    v -= np.dot(v, z) * z
    return v / np.linalg.norm(v)


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
    for z in random_sphere_points(50):
        w = random_sphere_points(1)[0]
        assert abs(dot(z, w) - hermitian(z, w).real) < 1e-14


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _components_first(x):
    """x with the same (..., 4) shape and values, each x[..., k] contiguous."""
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(x, -1, 0)), 0, -1)


def _one_pass_layouts(a, b):
    """Operand pairs at the edges of dot's and kahler's one-einsum path.

    a and b are (n, m, 4) with n > 5 and m > 3.  The path needs both
    component axes outermost in memory; the other pairs take the
    four-term sum, which must give the same bits.
    """
    acf, bcf = _components_first(a), _components_first(b)
    tall = _components_first(RNG.normal(size=(512, 3, 4)) * 10.0 ** RNG.integers(
        -12, 12, size=(512, 3, 4)))
    # a sample-file table: u, v, then the point's four coordinates
    table = np.concatenate([RNG.normal(size=(*a.shape[:2], 2)), a], axis=-1)
    # the products 1e16, 1, -1e16 and 1 in each order: added left to right
    # they sum to 0, 1 or 2, and pairwise or reversed to another of these
    cancel = np.array(sorted(set(itertools.permutations((1e16, 1.0, -1e16, 1.0)))))
    cancel = cancel.reshape(3, 4, 4)
    return [
        (acf[::3, 1::2], bcf[1::3, 1::2]),        # components-first, stepped
        (acf[::-1, ::-2], bcf[:, ::-2]),          # negative strides
        (acf[::-1], b[::-1]),                     # negative, mixed layouts
        (a[0, 0], b[3, 2]), (acf[0, 0], bcf[5, 3]),  # (4,) against (4,)
        (acf[:1, :1], bcf[2:3, :1]),              # one node, (1, 1, 4)
        (tall, tall[::-1]), (tall, tall[7, 1]),   # a 512x3 field
        (table[..., 2:6], bcf), (bcf, table[..., 2:6]),  # the reader's view
        (table[..., 2:6], table[..., 2:6]),
        (acf[..., ::-1], bcf[..., ::-1]),         # components reversed
        (np.broadcast_to(acf[0, :1], (5, 1, 4)), bcf[0, :1]),  # stride-0 nodes
        (np.broadcast_to(a[0, 0], (5, 4)), b[3, 2]),
    ] + [(x, np.ones(4)) for x in (cancel, cancel[..., ::-1], _components_first(cancel),
                                   _components_first(cancel)[..., ::-1],
                                   np.broadcast_to(cancel[0, 1], (5, 4)))]


def test_dot_is_bitwise_np_sum():
    # the explicit four-term sum must reproduce np.sum(a * b, -1) bit for
    # bit on every layout the package feeds it, so routing through dot
    # leaves every output file unchanged
    scale = 10.0 ** RNG.integers(-12, 12, size=(33, 17, 4))
    a = RNG.normal(size=(33, 17, 4)) * scale
    b = RNG.normal(size=(33, 17, 4))
    rows = RNG.integers(0, 33 * 17, size=200)
    cases = [
        (a, b),                                   # (n, m, 4)
        (a[1:, 0], a[:-1, 0]),                    # strided column slices
        (a[:, 1:], b[:, :-1]),                    # offset row slices
        (a.reshape(-1, 4)[rows], b.reshape(-1, 4)[rows[::-1]]),  # fancy rows
        (b[0, 0], a[5]),                          # (4,) against (n, 4)
        (a[..., None, :], b[0]),                  # broadcast to (n, m, m, 4)
    ]
    # the package stores fields components-first; dot must not depend on it
    acf, bcf = _components_first(a), _components_first(b)
    cases += [
        (acf, bcf),                               # both components-first
        (acf, b), (a, bcf),                       # mixed layouts
        (acf[1:, 0], bcf[:-1, 0]),                # strided column slices
        (acf[:, 1:], b[:, :-1]),                  # offset row slices
        (acf.reshape(-1, 4)[rows], b.reshape(-1, 4)[rows[::-1]]),  # fancy rows
        (bcf[0, 0], acf[5]),                      # (4,) against (n, 4)
        (acf[..., None, :], bcf[0]),              # broadcast to (n, m, m, 4)
    ]
    cases += _one_pass_layouts(a, b)
    for x, y in cases:
        assert _same_bits(dot(x, y), np.sum(x * y, -1))
    zeros = np.array([[-0.0, -0.0, -0.0, -0.0], [0.0, -0.0, 0.0, -0.0],
                      [-0.0, 0.0, -0.0, 0.0], [1.0, -1.0, 0.0, -0.0]])
    ones = np.array([1.0, 1.0, -1.0, 1.0])
    for x, y in ((zeros, ones), (zeros, -ones), (zeros, zeros[::-1]),
                 (_components_first(zeros), ones), (zeros, _components_first(zeros[::-1]))):
        assert _same_bits(dot(x, y), np.sum(x * y, -1))
    # four -0.0 products sum to +0.0, as in np.sum; arctan2 reads that sign
    assert not np.signbit(dot(zeros[1], zeros[2]))


@np.errstate(divide="ignore", invalid="ignore")   # c holds zeros and a NaN
def test_scale_is_bitwise_trailing_axis_broadcast():
    # scale forms c[..., None] * v, v / c[..., None] and w +- c[..., None] * v
    # on the components-first transposes; every value keeps its bits, on
    # either layout, into a new field, into out, and in place on v or w
    c = RNG.normal(size=(9, 7)) * 10.0 ** RNG.integers(-6, 6, size=(9, 7))
    c[0, :3] = (-0.0, 0.0, np.nan)
    v = RNG.normal(size=(9, 7, 4))
    w = RNG.normal(size=(9, 7, 4))
    w[0, 0] = -0.0
    for vv, ww in ((v, w), (_components_first(v), _components_first(w)),
                   (v, _components_first(w))):
        cases = [
            (scale(c, vv), c[..., None] * vv),
            (scale(c, vv, divide=True), vv / c[..., None]),
            (scale(c, vv, onto=ww), ww + c[..., None] * vv),
            (scale(c, vv, onto=ww, minus=True), ww - c[..., None] * vv),
            (scale(c[0, 3], vv[0, 3]), c[0, 3] * vv[0, 3]),           # one vector
            (scale(c[:, 0], vv[0, 0], onto=ww[:, 0], minus=True),       # (4,) against (n,)
             ww[:, 0] - c[:, 0, None] * vv[0, 0]),
        ]
        for got, want in cases:
            assert _same_bits(got, want)
        for minus in (False, True):
            want = ww - c[..., None] * vv if minus else ww + c[..., None] * vv
            for target in ("v", "w"):
                vc, wc = vv.copy(), ww.copy()
                out = vc if target == "v" else wc
                assert scale(c, vc, out=out, onto=wc, minus=minus) is out
                assert _same_bits(out, want)
        vc = vv.copy()
        assert scale(c, vc, out=vc, divide=True) is vc
        assert _same_bits(vc, vv / c[..., None])
    # a new field is stored as v is
    assert all(scale(c, _components_first(v))[..., k].flags.c_contiguous
               for k in range(4))


def test_kahler_is_bitwise_dot_of_jmul():
    # kahler subtracts the products dot(jmul(a), b) adds negated, in the same
    # order onto +0.0, so sin(beta) keeps the bits the jmul temporary gave
    scale = 10.0 ** RNG.integers(-12, 12, size=(33, 17, 4))
    a = RNG.normal(size=(33, 17, 4)) * scale
    b = RNG.normal(size=(33, 17, 4))
    acf, bcf = _components_first(a), _components_first(b)
    cases = [(a, b), (acf, bcf), (acf, b), (a[1:, 0], bcf[:-1, 0]),
             (b[0, 0], acf[5]), (acf[..., None, :], b[0])]
    signed = np.array([[-0.0, -0.0, -0.0, -0.0], [0.0, -0.0, 0.0, -0.0],
                       [-0.0, 0.0, -0.0, 0.0], [1.0, -1.0, 0.0, -0.0]])
    x, y = np.meshgrid(np.arange(4), np.arange(4), indexing="ij")
    cases += [(signed[x], signed[y]), (signed[x], -signed[y])]
    cases += _one_pass_layouts(a, b)
    for x, y in cases:
        assert _same_bits(kahler(x, y), dot(jmul(x), y))
    # <v, xi(z)> = kahler(z, v) bit for bit, the form the frames use
    assert _same_bits(kahler(a, b), dot(b, reeb(a)))


def test_components_first_fields_take_one_einsum(monkeypatch):
    # a stored 64^2 field is contracted in one pass: one np.einsum call per
    # dot, norm or kahler, and none for rows whose components are innermost
    calls = []
    einsum = np.einsum

    def counted(*args, **kwargs):
        calls.append(args[0])
        return einsum(*args, **kwargs)

    monkeypatch.setattr(np, "einsum", counted)
    a = _components_first(RNG.normal(size=(64, 64, 4)))
    b = _components_first(RNG.normal(size=(64, 64, 4)))
    for f in (lambda: dot(a, b), lambda: norm(a), lambda: kahler(a, b),
              lambda: dot(a[5, 7], b)):
        calls.clear()
        f()
        assert len(calls) == 1
    calls.clear()
    dot(np.ascontiguousarray(a), b)
    kahler(a[3], np.ascontiguousarray(b[3]))
    assert calls == []


@given(st.lists(st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 4),
                min_size=1, max_size=12))
@settings(max_examples=200, deadline=None)
def test_norm_is_bitwise_np_linalg_norm(rows):
    # sqrt(dot(a, a)) adds the squares in np.linalg.norm's order, so every
    # length the package forms is unchanged by routing it through norm,
    # overflow to inf and subnormal squares included
    a = np.array(rows)
    with np.errstate(over="ignore"):
        for x in (a, a[::-1, ::-1], a[0]):
            assert _same_bits(norm(x), np.linalg.norm(x, axis=-1))


def test_dot_rejects_wrong_trailing_dimension():
    with pytest.raises(ValueError):
        dot(np.ones(3), np.ones(3))


def test_reeb_basic_points():
    assert np.allclose(reeb(np.array([1, 0, 0, 0.0])), [0, 1, 0, 0])
    assert np.allclose(reeb(np.array([0, 0, 1, 0.0])), [0, 0, 0, 1])


def test_reeb_linearity_on_torus_points():
    c = np.sqrt(2) / 2
    u, v = 0.37, 2.1
    z = np.array([c * np.cos(u), c * np.sin(u), c * np.cos(v), c * np.sin(v)])
    expected = np.array([-c * np.sin(u), c * np.cos(u), -c * np.sin(v), c * np.cos(v)])
    assert np.allclose(reeb(z), expected, atol=1e-15)


def test_perp_formula_points():
    assert np.allclose(perp(np.array([1, 0, 0, 0.0])), [0, 0, 1, 0])
    assert np.allclose(perp(np.array([0, 0, 1, 0.0])), [-1, 0, 0, 0])
    c = np.sqrt(2) / 2
    assert np.allclose(perp(np.array([c, 0, c, 0])), [-c, 0, c, 0])


def test_reeb_perp_invariants_random():
    z = random_sphere_points(200)
    assert np.max(np.abs(np.linalg.norm(perp(z), axis=-1) - 1)) < 1e-12
    assert np.max(np.abs(hermitian(perp(z), z))) < 1e-12
    assert np.max(np.abs(np.linalg.norm(reeb(z), axis=-1) - 1)) < 1e-12
    assert np.max(np.abs(dot(reeb(z), z))) < 1e-12


def test_canonical_frame_at_north_pole():
    f1, f2, f3 = canonical_frame_vectors(np.array([1, 0, 0, 0.0]))
    assert np.allclose(f1, [0, 0, 1, 0])
    assert np.allclose(f2, [0, 0, 0, 1])
    assert np.allclose(f3, [0, 1, 0, 0])


def test_canonical_frame_gram_identity():
    z = random_sphere_points(25)
    m = np.stack(canonical_frame_vectors(z), axis=-2)    # (25, 3, 4)
    gram = dot(m[:, :, None, :], m[:, None, :, :])
    assert np.max(np.abs(gram - np.eye(3))) < 1e-12


def test_contact_plane_orthogonal_to_reeb():
    z = random_sphere_points(100)
    f1, f2, f3 = canonical_frame_vectors(z)
    xi = reeb(z)
    assert np.max(np.abs(dot(xi, f1))) < 1e-12
    assert np.max(np.abs(dot(xi, f2))) < 1e-12


def test_canonical_frame_smooth_in_z():
    for h in (1e-3, 1e-5):
        for z in random_sphere_points(10):
            v = random_tangent(z)
            z2 = z + h * v
            z2 /= np.linalg.norm(z2)
            f = np.concatenate(canonical_frame_vectors(z))
            g = np.concatenate(canonical_frame_vectors(z2))
            assert np.linalg.norm(f - g) < 10 * h


def test_contact_project_kills_reeb():
    for z in random_sphere_points(10):
        assert np.max(np.abs(contact_project(z, reeb(z)))) < 1e-12


def test_contact_project_fixes_f1_and_is_linear():
    for z in random_sphere_points(10):
        f1, f2, f3 = canonical_frame_vectors(z)
        assert np.allclose(contact_project(z, f1), f1, atol=1e-12)
        assert np.allclose(contact_project(z, f2 + f3), f2, atol=1e-12)


def test_contact_project_rejects_non_tangent():
    z = np.array([1, 0, 0, 0.0])
    with pytest.raises(NotTangent):
        contact_project(z, z)


def test_contact_project_idempotent_self_adjoint():
    for z in random_sphere_points(30):
        v = random_tangent(z)
        w = random_tangent(z)
        pv = contact_project(z, v)
        pw = contact_project(z, w)
        assert np.max(np.abs(contact_project(z, pv) - pv)) < 1e-12
        assert abs(dot(pv, w) - dot(v, pw)) < 1e-12


def test_frame_derivative_second_order():
    z = np.array([1, 0, 0, 0.0])
    f1 = perp(z)
    r1 = frame_derivative_check(z, f1, 1e-2)
    r2 = frame_derivative_check(z, f1, 5e-3)
    assert 3.6 < r1 / r2 < 4.4


def test_frame_derivative_zero_direction():
    z = np.array([0, 0, 1, 0.0])
    assert frame_derivative_check(z, np.zeros(4), 1e-3) < 1e-15


def test_frame_derivative_small_residual_random():
    for z in random_sphere_points(20):
        v = random_tangent(z)
        assert frame_derivative_check(z, v, 1e-3) < 1e-5


def test_cross4_completes_canonical_frame():
    for z in random_sphere_points(20):
        f1, f2, f3 = canonical_frame_vectors(z)
        assert np.allclose(cross4(z, f1, f2), f3, atol=1e-12)
        m = np.stack([z, f1, f2, f3])
        assert abs(np.linalg.det(m) - 1.0) < 1e-12


def _cross4_cofactors(a, b, c):
    """Reference: each component a 3x3 cofactor expanded with its own minors."""
    def det3(i, j, k):
        return (a[..., i] * (b[..., j] * c[..., k] - b[..., k] * c[..., j])
                - a[..., j] * (b[..., i] * c[..., k] - b[..., k] * c[..., i])
                + a[..., k] * (b[..., i] * c[..., j] - b[..., j] * c[..., i]))
    return np.stack([-det3(1, 2, 3), det3(0, 2, 3), -det3(0, 1, 3),
                     det3(0, 1, 2)], axis=-1)


def test_cross4_is_bitwise_cofactor_expansion():
    # sharing the six 2x2 minors of (b, c) keeps every expression, so the
    # result must match the per-component expansion bit for bit
    scale = 10.0 ** RNG.integers(-12, 12, size=(33, 17, 4))
    a, b, c = (RNG.normal(size=(33, 17, 4)) * scale for _ in range(3))
    cases = [
        (a, b, c),                                # (n, m, 4)
        (a[1:, ::2], b[:-1, ::2], c[1:, ::-2]),   # strided slices
        (a[0, 0], b, c[:, :1]),                   # (4,), (n, m, 4), (n, 1, 4)
        (a[..., None, :], b[0], c[0, 0]),         # broadcast to (n, m, m, 4)
        (a[0, 0], b[0, 0], c[0, 0]),              # single vectors
    ]
    acf, bcf, ccf = (_components_first(x) for x in (a, b, c))
    cases += [
        (acf, bcf, ccf),                          # components-first
        (acf, b, ccf), (a, bcf, c),               # mixed layouts
        (acf[1:, ::2], b[:-1, ::2], ccf[1:, ::-2]),
        (a[0, 0], bcf, c[:, :1]),
        (acf[..., None, :], bcf[0], c[0, 0]),
    ]
    for x, y, z in cases:
        d = cross4(x, y, z)
        assert _same_bits(d, _cross4_cofactors(x, y, z))
        # the result is stored components-first, whatever the inputs' layout
        assert all(d[..., k].flags.c_contiguous for k in range(4))
    signed = np.array([[-0.0, -0.0, -0.0, -0.0], [0.0, -0.0, 0.0, -0.0],
                       [-0.0, 0.0, 1.0, 0.0], [1.0, -1.0, 0.0, -0.0],
                       [0.0, 0.0, -1.0, -0.0]])
    x, y, z = np.meshgrid(np.arange(5), np.arange(5), np.arange(5), indexing="ij")
    x, y, z = signed[x], signed[y], signed[z]
    assert _same_bits(cross4(x, y, z), _cross4_cofactors(x, y, z))
    assert _same_bits(cross4(_components_first(x), y, _components_first(z)),
                      _cross4_cofactors(x, y, z))
    assert np.signbit(cross4(x, y, z)).any()


def test_jmul_squares_to_minus_one():
    v = RNG.normal(size=(40, 4))
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
