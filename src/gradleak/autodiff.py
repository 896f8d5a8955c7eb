"""Reverse-mode automatic differentiation on dense float64 arrays.

The backward pass is itself expressed with the same differentiable
primitives, so gradients can be differentiated again: the product of
the input/parameter Jacobian with a vector is the gradient of an inner
product of a gradient.  The package computes those products with a
graph-free kernel (`models.MixedJacobianOperator`); this engine builds
them as graphs instead, as the kernel's independent oracle, and
evaluates `models.forward_loss`.

Every value is a `Var` wrapping a float64 ndarray.  `grad(out, [a, b])`
returns cotangents as `Var`s belonging to the same graph, so calling
`grad` on something built from them yields exact second derivatives.
"""

from __future__ import annotations

import math

import numpy as np


class Var:
    """A node in the compute graph: a value plus how it was produced."""

    __slots__ = ("data", "parents", "vjp")

    def __init__(self, data, parents=(), vjp=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.parents = tuple(parents)
        self.vjp = vjp

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        return f"Var(shape={self.data.shape}, leaf={self.vjp is None})"


def as_var(x):
    """Lift plain arrays/scalars to constant leaves."""
    return x if isinstance(x, Var) else Var(x)


# ---------------------------------------------------------------------------
# primitives


def _sum_to(g, shape):
    """Reduce `g` back to `shape` after numpy broadcasting (differentiable)."""
    if g.shape == shape:
        return g
    return sum_to(g, shape)


def sum_to(a, shape):
    a = as_var(a)
    ndiff = a.data.ndim - len(shape)
    axes = tuple(range(ndiff)) + tuple(
        i + ndiff for i, n in enumerate(shape) if n == 1 and a.data.shape[i + ndiff] != 1
    )
    data = a.data.sum(axis=axes, keepdims=False).reshape(shape)
    return Var(data, (a,), lambda g: (broadcast_to(g, a.data.shape),))


def broadcast_to(a, shape):
    a = as_var(a)
    shape = tuple(shape)
    if a.data.shape == shape:
        return a
    data = np.broadcast_to(a.data, shape).copy()
    return Var(data, (a,), lambda g: (_sum_to(g, a.data.shape),))


def add(a, b):
    a, b = as_var(a), as_var(b)
    data = a.data + b.data
    return Var(data, (a, b), lambda g: (_sum_to(g, a.data.shape), _sum_to(g, b.data.shape)))


def sub(a, b):
    a, b = as_var(a), as_var(b)
    data = a.data - b.data
    return Var(data, (a, b), lambda g: (_sum_to(g, a.data.shape), _sum_to(neg(g), b.data.shape)))


def neg(a):
    a = as_var(a)
    return Var(-a.data, (a,), lambda g: (neg(g),))


def mul(a, b):
    a, b = as_var(a), as_var(b)
    data = a.data * b.data
    return Var(data, (a, b), lambda g: (_sum_to(mul(g, b), a.data.shape), _sum_to(mul(g, a), b.data.shape)))


def div(a, b):
    a, b = as_var(a), as_var(b)
    data = a.data / b.data
    def vjp(g):
        ga = _sum_to(div(g, b), a.data.shape)
        gb = _sum_to(neg(div(mul(g, a), mul(b, b))), b.data.shape)
        return ga, gb
    return Var(data, (a, b), vjp)


def exp(a):
    a = as_var(a)
    out = Var(np.exp(a.data), (a,), None)
    out.vjp = lambda g: (mul(g, out),)
    return out


def log(a):
    a = as_var(a)
    return Var(np.log(a.data), (a,), lambda g: (div(g, a),))


def sqrt(a):
    a = as_var(a)
    out = Var(np.sqrt(a.data), (a,), None)
    out.vjp = lambda g: (div(g, mul(Var(2.0), out)),)
    return out


def tanh(a):
    a = as_var(a)
    out = Var(np.tanh(a.data), (a,), None)
    out.vjp = lambda g: (mul(g, sub(Var(1.0), mul(out, out))),)
    return out


def sigmoid_data(d):
    """Stable logistic of an array: exp only of non-positive numbers."""
    e = np.exp(-np.abs(d))
    return np.where(d >= 0, 1.0, e) / (1.0 + e)


def sigmoid(a):
    a = as_var(a)
    out = Var(sigmoid_data(a.data), (a,), None)
    out.vjp = lambda g: (mul(g, mul(out, sub(Var(1.0), out))),)
    return out


def relu(a):
    # kink at 0 uses the almost-everywhere convention: derivative 0 there
    a = as_var(a)
    mask = Var((a.data > 0).astype(np.float64))
    return Var(np.maximum(a.data, 0.0), (a,), lambda g: (mul(g, mask),))


def sum_all(a):
    a = as_var(a)
    return Var(a.data.sum(), (a,), lambda g: (broadcast_to(g, a.data.shape),))


def reshape(a, shape):
    a = as_var(a)
    shape = tuple(shape)
    return Var(a.data.reshape(shape), (a,), lambda g: (reshape(g, a.data.shape),))


def transpose(a):
    a = as_var(a)
    return Var(a.data.T.copy(), (a,), lambda g: (transpose(g),))


def matmul(a, b):
    """numpy-style matmul for the (2D,2D), (2D,1D) and (1D,1D) cases."""
    a, b = as_var(a), as_var(b)
    na, nb = a.data.ndim, b.data.ndim
    data = a.data @ b.data
    if na == 2 and nb == 2:
        vjp = lambda g: (matmul(g, transpose(b)), matmul(transpose(a), g))
    elif na == 2 and nb == 1:
        # outer(g, b) for the matrix side, A^T g for the vector side
        def vjp(g):
            m, n = a.data.shape
            ga = mul(reshape(g, (m, 1)), reshape(b, (1, n)))
            return ga, matmul(transpose(a), g)
    elif na == 1 and nb == 1:
        vjp = lambda g: (mul(g, b), mul(g, a))
    else:
        raise ValueError(f"unsupported matmul operand ranks {na} and {nb}")
    return Var(data, (a, b), vjp)


def dot(a, b):
    a, b = as_var(a), as_var(b)
    return matmul(reshape(a, (a.size,)), reshape(b, (b.size,)))


def slice1d(a, start, stop):
    a = as_var(a)
    return Var(a.data[start:stop], (a,), lambda g: (embed1d(g, start, a.size),))


def embed1d(a, start, total):
    a = as_var(a)
    data = np.zeros(total)
    data[start:start + a.size] = a.data
    return Var(data, (a,), lambda g: (slice1d(g, start, start + a.size),))


# ---------------------------------------------------------------------------
# im2col / col2im, a dual pair of linear gather/scatter primitives


_GEOM_CACHE = {}


def conv_geometry(in_shape, kernel, stride, padding):
    """Flat gather indices turning a (C,H,W) image into patch columns.

    Rows index (channel, ki, kj) and columns output positions.  Indices
    point into the flattened image with one zero appended: every position
    in the padding border maps to that zero slot, index C*H*W.
    Returns (indices, (C, H, W), (out_h, out_w)): the image shape it maps.
    """
    key = (in_shape, kernel, stride, padding)
    geom = _GEOM_CACHE.get(key)
    if geom is None:
        c, h, w = in_shape
        oh = (h + 2 * padding - kernel) // stride + 1
        ow = (w + 2 * padding - kernel) // stride + 1
        if oh <= 0 or ow <= 0:
            raise ValueError(f"kernel {kernel} does not fit input {in_shape} with stride {stride}, padding {padding}")
        ci, ki, kj = np.meshgrid(np.arange(c), np.arange(kernel), np.arange(kernel), indexing="ij")
        oi, oj = np.meshgrid(np.arange(oh), np.arange(ow), indexing="ij")
        ii = ki.reshape(-1, 1) + (oi * stride).reshape(1, -1) - padding
        jj = kj.reshape(-1, 1) + (oj * stride).reshape(1, -1) - padding
        inside = (ii >= 0) & (ii < h) & (jj >= 0) & (jj < w)
        idx = np.where(inside, ci.reshape(-1, 1) * (h * w) + ii * w + jj, c * h * w)
        geom = (idx, (c, h, w), (oh, ow))
        _GEOM_CACHE[key] = geom
    return geom


def gather_patches(x, geometry):
    """Patch columns of a (C,H,W) array, or of each image of a (k,C,H,W)
    stack, given the conv_geometry of its image shape: the gather both
    autodiff and the graph-free kernel use."""
    idx = geometry[0]
    lead = x.shape[:-3]
    flat = np.concatenate((x.reshape(lead + (-1,)), np.zeros(lead + (1,))), axis=-1)
    return flat.take(idx, axis=-1)


def scatter_patches(cols, geometry):
    """Adjoint of gather_patches: scatter-add patch columns back to the
    (C,H,W) image shape that `geometry` records, or each of a
    (k, rows, positions) stack back to (k,C,H,W).

    bincount adds the weights of each bin in index order, as np.add.at
    does, so the sums are the same bit for bit; each image of a stack is
    its own bincount on the shared index, filled in a lone image's order."""
    idx, in_shape, _ = geometry
    size, lead = math.prod(in_shape), cols.shape[:-2]
    idx, cols = idx.reshape(-1), cols.reshape((math.prod(lead), -1))
    out = np.empty((len(cols), size))
    for image, weights in zip(out, cols):
        image[:] = np.bincount(idx, weights=weights, minlength=size + 1)[:size]
    return out.reshape(lead + in_shape)


def im2col(x, geometry):
    x = as_var(x)
    return Var(gather_patches(x.data, geometry), (x,), lambda g: (col2im(g, geometry),))


def col2im(cols, geometry):
    """Adjoint of im2col: columns back to the image shape `geometry` records."""
    cols = as_var(cols)
    return Var(scatter_patches(cols.data, geometry), (cols,), lambda g: (im2col(g, geometry),))


# ---------------------------------------------------------------------------
# backward pass


def _toposort(root, targets):
    """The nodes on some path from `root` down to a node whose id is in
    `targets`, each after its parents: one postorder walk.  A subtree that
    reaches no target holds no node that does, so the walk visits the
    reaching nodes in the order a walk of those alone would."""
    order = []
    reaching = set()
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            # parents are finished by now (postorder)
            if id(node) in targets or any(id(p) in reaching for p in node.parents):
                reaching.add(id(node))
                order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def grad(output, inputs):
    """Cotangents of a scalar `output` w.r.t. each Var in `inputs`.

    The returned Vars are graph nodes, so second derivatives come from
    calling `grad` again on expressions built from them.
    """
    output = as_var(output)
    if output.size != 1:
        raise ValueError("grad expects a scalar output")
    order = _toposort(output, {id(v) for v in inputs})
    if not order:  # the output reaches no input
        return [Var(np.zeros(v.data.shape)) for v in inputs]
    needed = {id(node) for node in order}
    cotangent = {id(output): Var(np.ones(output.data.shape))}
    for node in reversed(order):
        g = cotangent.get(id(node))
        if g is None or node.vjp is None:
            continue
        parent_grads = node.vjp(g)
        for p, pg in zip(node.parents, parent_grads):
            if pg is None or id(p) not in needed:
                continue
            acc = cotangent.get(id(p))
            cotangent[id(p)] = pg if acc is None else add(acc, pg)
    out = []
    for v in inputs:
        g = cotangent.get(id(v))
        out.append(g if g is not None else Var(np.zeros(v.data.shape)))
    return out
