"""Engine-level checks: primitive vjps against finite differences, the
grad-of-grad path, and the adjoint identity as a hypothesis property."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gradleak import autodiff as ad
from gradleak.autodiff import Var, grad

RNG = np.random.Generator(np.random.PCG64(1234))


def fd_scalar(f, x, h=1e-6):
    """Central-difference gradient of a scalar function of a flat vector."""
    g = np.zeros_like(x)
    for i in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2 * h)
    return g


UNARY_CASES = [
    ("exp", ad.exp, (-1.0, 1.0)),
    ("log", ad.log, (0.1, 2.0)),
    ("sqrt", ad.sqrt, (0.1, 2.0)),
    ("tanh", ad.tanh, (-2.0, 2.0)),
    ("sigmoid", ad.sigmoid, (-4.0, 4.0)),
    ("relu", ad.relu, (0.1, 2.0)),  # away from the kink
    ("neg", ad.neg, (-1.0, 1.0)),
]


@pytest.mark.parametrize("name,op,rng", UNARY_CASES, ids=[c[0] for c in UNARY_CASES])
def test_unary_vjp_matches_finite_differences(name, op, rng):
    x = RNG.uniform(*rng, size=7)

    def f(v):
        return float(ad.sum_all(op(Var(v))).data)

    xv = Var(x)
    (g,) = grad(ad.sum_all(op(xv)), [xv])
    np.testing.assert_allclose(g.data, fd_scalar(f, x), rtol=1e-6, atol=1e-8)


def test_binary_and_reduction_vjps():
    a = RNG.uniform(0.5, 1.5, size=5)
    b = RNG.uniform(0.5, 1.5, size=5)
    av, bv = Var(a), Var(b)
    out = ad.sum_all(ad.mul(ad.div(av, bv), ad.sub(av, bv)))
    ga, gb = grad(out, [av, bv])

    def f(which):
        def inner(v):
            aa, bb = (v, b) if which == 0 else (a, v)
            return float(np.sum(aa / bb * (aa - bb)))
        return inner

    np.testing.assert_allclose(ga.data, fd_scalar(f(0), a), rtol=1e-6)
    np.testing.assert_allclose(gb.data, fd_scalar(f(1), b), rtol=1e-6)


def test_matmul_and_dot_vjps():
    w = RNG.normal(size=(3, 4))
    x = RNG.normal(size=4)
    wv, xv = Var(w), Var(x)
    out = ad.sum_all(ad.tanh(ad.matmul(wv, xv)))
    gw, gx = grad(out, [wv, xv])

    def fw(v):
        return float(np.sum(np.tanh(v.reshape(3, 4) @ x)))

    def fx(v):
        return float(np.sum(np.tanh(w @ v)))

    np.testing.assert_allclose(gw.data.reshape(-1), fd_scalar(fw, w.reshape(-1)), rtol=1e-6)
    np.testing.assert_allclose(gx.data, fd_scalar(fx, x), rtol=1e-6)


def test_im2col_col2im_are_adjoint():
    # <im2col(x), c> == <x, col2im(c)> for the same geometry
    shape, k, s, p = (2, 6, 6), 3, 2, 1
    x = RNG.normal(size=shape)
    xv = Var(x)
    cols = ad.im2col(xv, ad.conv_geometry(shape, k, s, p))
    c = RNG.normal(size=cols.data.shape)
    lhs = float(np.sum(cols.data * c))
    (gx,) = grad(ad.sum_all(ad.mul(cols, Var(c))), [xv])
    rhs = float(np.sum(x * gx.data))
    # gx is exactly col2im(c); pairing it with x must reproduce the inner product
    assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs))


# LeNet's four conv layers, plus stride 1 and wider padding
CONV_GEOMETRIES = [((1, 28, 28), 5, 2, 2), ((12, 14, 14), 5, 2, 2), ((12, 7, 7), 5, 2, 2),
                   ((12, 4, 4), 5, 2, 2), ((3, 8, 8), 3, 1, 1), ((2, 5, 5), 2, 1, 0),
                   ((2, 6, 6), 3, 2, 3)]


def padded_patch_index(in_shape, k, s, p):
    """Patch indices into the zero-padded image, the form np.add.at scattered into."""
    c, h, w = in_shape
    hp, wp = h + 2 * p, w + 2 * p
    oh, ow = (hp - k) // s + 1, (wp - k) // s + 1
    ci, ki, kj = np.meshgrid(np.arange(c), np.arange(k), np.arange(k), indexing="ij")
    oi, oj = np.meshgrid(np.arange(oh), np.arange(ow), indexing="ij")
    ii = ki.reshape(-1, 1) + (oi * s).reshape(1, -1)
    jj = kj.reshape(-1, 1) + (oj * s).reshape(1, -1)
    return ci.reshape(-1, 1) * (hp * wp) + ii * wp + jj, (c, hp, wp)


@pytest.mark.parametrize("in_shape,k,s,p", CONV_GEOMETRIES)
def test_im2col_col2im_match_padded_add_at(in_shape, k, s, p):
    # the bincount scatter sums each pixel in the order np.add.at did: bit for bit
    idx, pad_shape = padded_patch_index(in_shape, k, s, p)
    _, h, w = in_shape
    x = RNG.normal(size=in_shape)
    xpad = np.zeros(pad_shape)
    xpad[:, p:p + h, p:p + w] = x
    geometry = ad.conv_geometry(in_shape, k, s, p)
    assert np.array_equal(ad.gather_patches(x, geometry), xpad.reshape(-1)[idx])
    cols = RNG.normal(size=idx.shape)
    flat = np.zeros(xpad.size)
    np.add.at(flat, idx.reshape(-1), cols.reshape(-1))
    expect = flat.reshape(pad_shape)[:, p:p + h, p:p + w]
    assert np.array_equal(ad.scatter_patches(cols, geometry), expect)
    assert np.array_equal(ad.col2im(Var(cols), geometry).data, expect)


def test_shared_subexpression_diamond():
    # regression for gradient accumulation order: y = (x*x) used twice
    x = Var(np.array([1.5, -0.5]))
    sq = ad.mul(x, x)
    out = ad.sum_all(ad.add(ad.mul(sq, sq), sq))
    (g,) = grad(out, [x])
    expect = 4 * x.data ** 3 + 2 * x.data
    np.testing.assert_allclose(g.data, expect, rtol=1e-12)


def test_grad_of_grad_scalar():
    # f(x, t) = t * x^2; d/dx f = 2 t x; d/dt (d/dx f) = 2 x
    x = Var(np.array([3.0]))
    t = Var(np.array([0.7]))
    f = ad.mul(t, ad.mul(x, x))
    (gx,) = grad(ad.sum_all(f), [x])
    (gxt,) = grad(ad.sum_all(gx), [t])
    np.testing.assert_allclose(gxt.data, [6.0], rtol=1e-12)


def test_grad_prunes_unreachable_inputs():
    x = Var(np.ones(3))
    z = Var(np.ones(3))
    (gz,) = grad(ad.sum_all(ad.mul(x, x)), [z])
    np.testing.assert_array_equal(gz.data, np.zeros(3))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_vjp_pairing_property(seed):
    # for out = W x, <dout, W dx> == <W^T dout, dx> realized through the graph
    r = np.random.Generator(np.random.PCG64(seed))
    w = r.normal(size=(3, 5))
    x = r.normal(size=5)
    dx = r.normal(size=5)
    dout = r.normal(size=3)
    xv = Var(x)
    out = ad.dot(ad.matmul(Var(w), xv), Var(dout))
    (gx,) = grad(out, [xv])
    lhs = float(dout @ (w @ dx))
    rhs = float(gx.data @ dx)
    assert abs(lhs - rhs) <= 1e-9 * (1 + abs(lhs))


def test_sigmoid_is_stable_at_large_inputs():
    v = ad.sigmoid(Var(np.array([-800.0, 800.0])))
    assert np.all(np.isfinite(v.data))
    np.testing.assert_allclose(v.data, [0.0, 1.0], atol=1e-12)


def test_toposort_keeps_each_reaching_node_once_after_its_parents():
    # a diamond x -> (exp x, tanh x) -> product, plus a dead branch w * w
    # that joins the output but never reaches x
    x, w = Var(RNG.uniform(size=3)), Var(RNG.uniform(size=3))
    left, right = ad.exp(x), ad.tanh(x)
    diamond = ad.mul(left, right)
    dead = ad.sum_all(ad.mul(w, w))
    out = ad.add(ad.sum_all(diamond), dead)
    order = ad._toposort(out, {id(x)})
    ids = [id(n) for n in order]
    assert len(ids) == len(set(ids))
    assert set(ids) == {id(n) for n in (x, left, right, diamond, out.parents[0], out)}
    position = {i: k for k, i in enumerate(ids)}
    for k, node in enumerate(order):
        assert all(position[id(p)] < k for p in node.parents if id(p) in position)
    assert not {id(w), id(dead), id(dead.parents[0])} & set(ids)
