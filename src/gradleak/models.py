"""Model zoo, parameter handling, and the mixed input/parameter Jacobian.

Models are plain layer lists evaluated on a single sample with a flat
float64 parameter vector.  Gradients and mixed JVP/VJPs come from a
graph-free kernel with one pass rule per layer kind
(`MixedJacobianOperator`).  The autodiff engine evaluates the loss
(`forward_loss`) and is the kernel's independent oracle
(`engine_oracle`), next to the finite-difference oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Var, grad

ACTIVATIONS = {"sigmoid": ad.sigmoid, "relu": ad.relu, "tanh": ad.tanh, "identity": lambda v: v}

LOSS_KINDS = ("cross_entropy", "squared_error", "sum_output")


class ShapeError(ValueError):
    pass


@dataclass(frozen=True)
class Linear:
    in_features: int
    out_features: int


@dataclass(frozen=True)
class Conv2d:
    in_channels: int
    out_channels: int
    kernel: int
    stride: int = 2
    padding: int = 2


@dataclass(frozen=True)
class Activation:
    kind: str


@dataclass(frozen=True)
class Flatten:
    pass


@dataclass
class ModelSpec:
    """Layer list plus loss; call build_model to shape-check it."""

    layers: list
    loss: str
    input_shape: tuple
    num_classes: int = 0
    target: np.ndarray | None = None  # squared_error only

    d_x: int = field(default=0, init=False)
    d_theta: int = field(default=0, init=False)
    _built: bool = field(default=False, init=False)


def _layer_param_shape(layer):
    if isinstance(layer, Linear):
        return (layer.out_features, layer.in_features)
    if isinstance(layer, Conv2d):
        return (layer.out_channels, layer.in_channels * layer.kernel * layer.kernel)
    return None


def build_model(spec: ModelSpec) -> ModelSpec:
    """Validate layer composition and fill in d_x / d_theta."""
    if spec.loss not in LOSS_KINDS:
        raise ShapeError(f"unknown loss kind {spec.loss!r}")
    shape = tuple(spec.input_shape)
    d_theta = 0
    for i, layer in enumerate(spec.layers):
        if isinstance(layer, Linear):
            if len(shape) != 1 or shape[0] != layer.in_features:
                raise ShapeError(f"layer {i} ({layer}) expects a vector of length {layer.in_features}, got shape {shape}")
            shape = (layer.out_features,)
            d_theta += layer.out_features * layer.in_features
        elif isinstance(layer, Conv2d):
            if len(shape) != 3 or shape[0] != layer.in_channels:
                raise ShapeError(f"layer {i} ({layer}) expects (channels={layer.in_channels}, H, W), got shape {shape}")
            _, _, (oh, ow) = ad.conv_geometry(shape, layer.kernel, layer.stride, layer.padding)
            shape = (layer.out_channels, oh, ow)
            d_theta += layer.out_channels * layer.in_channels * layer.kernel * layer.kernel
        elif isinstance(layer, Activation):
            if layer.kind not in ACTIVATIONS:
                raise ShapeError(f"layer {i}: unknown activation {layer.kind!r}")
        elif isinstance(layer, Flatten):
            shape = (int(np.prod(shape)),)
        else:
            raise ShapeError(f"layer {i}: unknown layer type {type(layer).__name__}")
    if spec.loss == "cross_entropy":
        if len(shape) != 1 or shape[0] != spec.num_classes:
            raise ShapeError(f"cross_entropy expects final shape ({spec.num_classes},), model produces {shape}")
    elif spec.loss == "squared_error":
        if spec.target is None:
            raise ShapeError("squared_error loss needs a target vector")
        target = np.asarray(spec.target, dtype=np.float64).reshape(-1)
        if len(shape) != 1 or shape[0] != target.size:
            raise ShapeError(f"squared_error target has length {target.size}, model produces {shape}")
        spec.target = target
    spec.d_x = int(np.prod(spec.input_shape))
    spec.d_theta = d_theta
    spec._built = True
    return spec


# ---------------------------------------------------------------------------
# parameters


@dataclass(frozen=True)
class ParameterSet:
    """Flat parameter vector plus per-layer (offset, shape) map."""

    theta: np.ndarray
    slots: tuple  # ((layer_index, offset, shape), ...)

    def with_theta(self, theta):
        theta = np.asarray(theta, dtype=np.float64)
        if theta.shape != self.theta.shape:
            raise ShapeError(f"parameter vector length {theta.size} != {self.theta.size}")
        return ParameterSet(theta, self.slots)


def parameter_slots(spec: ModelSpec):
    slots = []
    off = 0
    for i, layer in enumerate(spec.layers):
        shape = _layer_param_shape(layer)
        if shape is not None:
            slots.append((i, off, shape))
            off += int(np.prod(shape))
    return tuple(slots)


@dataclass(frozen=True)
class InitScheme:
    kind: str  # uniform | normal | kaiming | xavier
    seed: int


def initialize_parameters(spec: ModelSpec, scheme: InitScheme) -> ParameterSet:
    _require_built(spec)
    rng = np.random.Generator(np.random.PCG64(scheme.seed))
    slots = parameter_slots(spec)
    theta = np.zeros(spec.d_theta)
    for _, off, shape in slots:
        n = int(np.prod(shape))
        fan_out, fan_in = shape
        if scheme.kind == "uniform":
            block = rng.uniform(-0.5, 0.5, size=n)
        elif scheme.kind == "normal":
            # variance 0.5, i.e. std sqrt(0.5)
            block = rng.normal(0.0, math.sqrt(0.5), size=n)
        elif scheme.kind == "kaiming":
            bound = math.sqrt(6.0 / fan_in)
            block = rng.uniform(-bound, bound, size=n)
        elif scheme.kind == "xavier":
            bound = math.sqrt(6.0 / (fan_in + fan_out))
            block = rng.uniform(-bound, bound, size=n)
        else:
            raise ValueError(f"unknown init scheme {scheme.kind!r}")
        theta[off:off + n] = block
    return ParameterSet(theta, slots)


# ---------------------------------------------------------------------------
# forward / gradients


def _require_built(spec):
    if not spec._built:
        raise ShapeError("ModelSpec must pass through build_model first")


def _forward_var(spec, theta_var, x_var, y):
    h = x_var
    slot = {i: (off, shape) for i, off, shape in parameter_slots(spec)}
    for i, layer in enumerate(spec.layers):
        if isinstance(layer, Linear):
            off, shape = slot[i]
            w = ad.reshape(ad.slice1d(theta_var, off, off + shape[0] * shape[1]), shape)
            h = ad.matmul(w, h)
        elif isinstance(layer, Conv2d):
            off, shape = slot[i]
            w = ad.reshape(ad.slice1d(theta_var, off, off + shape[0] * shape[1]), shape)
            cols = ad.im2col(h, layer.kernel, layer.stride, layer.padding)
            _, _, (oh, ow) = ad.conv_geometry(h.data.shape, layer.kernel, layer.stride, layer.padding)
            h = ad.reshape(ad.matmul(w, cols), (layer.out_channels, oh, ow))
        elif isinstance(layer, Activation):
            h = ACTIVATIONS[layer.kind](h)
        elif isinstance(layer, Flatten):
            h = ad.reshape(h, (h.size,))
        if not np.all(np.isfinite(h.data)):
            raise FloatingPointError(f"non-finite activation after layer {i} ({layer})")
    return _loss_var(spec, h, y)


def _loss_var(spec, out, y):
    if spec.loss == "cross_entropy":
        if y is None or not (0 <= int(y) < spec.num_classes):
            raise ShapeError(f"label {y} outside [0, {spec.num_classes})")
        shift = Var(float(out.data.max()))  # constant; cancels in the derivative
        lse = ad.add(ad.log(ad.sum_all(ad.exp(ad.sub(out, shift)))), shift)
        onehot = np.zeros(spec.num_classes)
        onehot[int(y)] = 1.0
        return ad.sub(lse, ad.dot(out, Var(onehot)))
    if spec.loss == "squared_error":
        r = ad.sub(out, Var(spec.target))
        return ad.mul(Var(0.5), ad.sum_all(ad.mul(r, r)))
    return ad.sum_all(out)  # sum_output: L = sum of model outputs


def _check_sample(spec, x):
    x = np.asarray(x, dtype=np.float64)
    if x.shape != tuple(spec.input_shape):
        raise ShapeError(f"sample shape {x.shape} != model input shape {tuple(spec.input_shape)}")
    return x


def forward_loss(spec: ModelSpec, params: ParameterSet, x, y=None) -> float:
    _require_built(spec)
    x = _check_sample(spec, x)
    loss = _forward_var(spec, Var(params.theta), Var(x), y)
    if not np.isfinite(loss.data):
        raise FloatingPointError("non-finite loss")
    return float(loss.data)


@dataclass(frozen=True)
class GradientBundle:
    g_theta: np.ndarray
    g_x: np.ndarray


def gradients(spec: ModelSpec, params: ParameterSet, x, y=None) -> GradientBundle:
    op = MixedJacobianOperator(spec, params, x, y)
    return GradientBundle(op.g_theta.copy(), op.g_x.copy())


class MixedJacobianOperator:
    """Matrix-free J = d^2 L / (dx dtheta), shape (d_x, d_theta).

    Graph-free forward-over-reverse (Pearlmutter's R-operator): the
    constructor runs one forward and one backward pass in plain numpy,
    keeping each layer's activations and cotangents.  J @ delta is the
    tangent of g_x as theta moves along delta, and J.T @ b the tangent of
    g_theta as x moves along b; each takes one tangent-forward and one
    tangent-backward pass through the kept values.  Both also take a
    (d, k) block and push its k columns through the same passes together,
    as a stack of k tangents, so each layer's products become batched
    GEMMs.
    """

    def __init__(self, spec: ModelSpec, params: ParameterSet, x, y=None):
        _require_built(spec)
        self.spec = spec
        x = _check_sample(spec, x)
        self.d_x, self.d_theta = spec.d_x, spec.d_theta
        self._slots = [None] * len(spec.layers)  # (offset, size, shape) per weighted layer
        for i, off, shape in parameter_slots(spec):
            self._slots[i] = (off, shape[0] * shape[1], shape)
        self._rules = []
        h = x
        for i, layer in enumerate(spec.layers):
            rule = _layer_rule(layer, self._weight(params.theta, i), h)
            h = rule.out
            if not np.all(np.isfinite(h)):
                raise FloatingPointError(f"non-finite activation after layer {i} ({layer})")
            self._rules.append(rule)
        c, self._loss_hvp = _loss_rule(spec, h, y)
        self.g_theta = np.zeros(self.d_theta)
        for i in reversed(range(len(self._rules))):
            gw, c = self._rules[i].backward(c)
            self._put(self.g_theta, i, gw)
        self.g_x = c.reshape(-1)

    def _weight(self, vec, i):
        """Layer i's weight matrix within theta, or the stack of them within
        a (k, d_theta) stack of parameter tangents."""
        slot = self._slots[i]
        if slot is None or vec is None:
            return None
        off, size, shape = slot
        return vec[..., off:off + size].reshape(vec.shape[:-1] + shape)

    def _put(self, out, i, block):
        if block is not None:
            off, size, _ = self._slots[i]
            out[..., off:off + size] = block.reshape(block.shape[:-2] + (size,))

    def _tangent(self, dtheta, dx, want_theta, lead):
        """Tangents of (g_theta, g_x) along (dtheta, dx), whose shapes are
        the primal ones behind `lead`: () for one tangent, (k,) for a stack
        of k.  None is a zero tangent.  Only g_theta's tangents
        (want_theta) or only g_x's are made."""
        dws = [self._weight(dtheta, i) for i in range(len(self._rules))]
        saved = []
        d = dx
        for rule, dw in zip(self._rules, dws):
            d, keep = rule.tangent_forward(dw, d)
            saved.append(keep)
        dc = None if d is None else self._loss_hvp(d)
        dg = np.zeros(lead + (self.d_theta,)) if want_theta else None
        for i in reversed(range(len(self._rules))):
            dgw, dc = self._rules[i].tangent_backward(dws[i], saved[i], dc, want_theta,
                                                      i > 0 or not want_theta)
            if want_theta:
                self._put(dg, i, dgw)
        if want_theta:
            return dg
        return np.zeros(lead + (self.d_x,)) if dc is None else dc.reshape(lead + (self.d_x,))

    def jvp(self, delta):
        """J @ delta: the tangent of g_x along theta + t * delta.  A
        (d_theta, k) block gives the (d_x, k) block of its columns' products."""
        delta = _as_stack(delta, "delta", self.d_theta, "d_theta")
        return self._tangent(delta, None, False, delta.shape[:-1]).T

    def vjp(self, b):
        """J.T @ b: the tangent of g_theta along x + t * b.  A (d_x, k)
        block gives the (d_theta, k) block of its columns' products."""
        b = _as_stack(b, "b", self.d_x, "d_x")
        lead = b.shape[:-1]
        return self._tangent(None, b.reshape(lead + tuple(self.spec.input_shape)), True, lead).T


def _as_stack(v, what, size, name):
    """A (size,) vector as it is, or the k columns of a (size, k) block as
    a contiguous (k, size) stack of tangents."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim not in (1, 2) or v.shape[0] != size or v.size == 0:
        raise ShapeError(f"{what} has shape {v.shape} but {name} is {size}: "
                         f"pass a ({size},) vector or a ({size}, k) block, k >= 1")
    return np.ascontiguousarray(v.T)


# Pass rules, one per layer kind.  A rule is built by the forward pass and
# keeps what its other passes need: backward(c) turns the cotangent of the
# layer output into (weight gradient, input cotangent), tangent_forward
# pushes (d weight, d input) to (d output, kept value), and tangent_backward
# gives the tangents of backward's two results.  A tangent has its primal
# value's shape, or that shape behind a leading axis of size k for a stack
# of k, which numpy's matmul and broadcasting carry through unchanged.
# None is a zero tangent.


def _plus(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return a + b


def _times(a, b):
    return None if a is None or b is None else a @ b


class _Affine:
    """out = W @ cols(h): Linear with one column, Conv2d with im2col columns."""

    def __init__(self, w, h, to_cols, from_cols, out_shape):
        self.w, self.to_cols, self.from_cols = w, to_cols, from_cols
        self.cols = to_cols(h)
        self.out = (w @ self.cols).reshape(out_shape)

    def backward(self, c):
        c = self.c = c.reshape(self.w.shape[0], -1)
        return c @ self.cols.T, self.from_cols(self.w.T @ c)

    def tangent_forward(self, dw, dh):
        dcols = None if dh is None else self.to_cols(dh)
        dout = _plus(_times(dw, self.cols), _times(self.w, dcols))
        return None if dout is None else dout.reshape(dout.shape[:-2] + self.out.shape), dcols

    def tangent_backward(self, dw, dcols, dc, grad, prev):
        if dc is not None:
            dc = dc.reshape(dc.shape[:dc.ndim - self.out.ndim] + self.c.shape)
        dg = dp = None
        if grad:  # d(c @ cols.T)
            dg = _plus(_times(dc, self.cols.T),
                       None if dcols is None else self.c @ dcols.swapaxes(-1, -2))
        if prev:  # d(W.T @ c), scattered back like backward's
            dp = _plus(None if dw is None else dw.swapaxes(-1, -2) @ self.c,
                       _times(self.w.T, dc))
            dp = None if dp is None else self.from_cols(dp)
        return dg, dp


_UNSET = object()


class _Elementwise:
    """An ACTIVATIONS kind, with the engine's primal formulas; relu'(0) = 0."""

    def __init__(self, kind, z):
        self.kind = kind
        if kind == "sigmoid":
            s = self.out = ad.sigmoid_data(z)
            self.d1 = s * (1.0 - s)
        elif kind == "tanh":
            t = self.out = np.tanh(z)
            self.d1 = 1.0 - t * t
        elif kind == "relu":
            self.out = np.maximum(z, 0.0)
            self.d1 = (z > 0).astype(np.float64)
        else:
            self.out, self.d1 = z, None  # identity
        self._cd2 = _UNSET

    def backward(self, c):
        self.c = c
        return None, c if self.d1 is None else c * self.d1

    def _c_times_second(self):
        """c * act''(z): the same for every tangent, so made once."""
        if self._cd2 is _UNSET:
            if self.kind == "sigmoid":
                self._cd2 = self.c * (self.d1 * (1.0 - 2.0 * self.out))
            elif self.kind == "tanh":
                self._cd2 = self.c * (-2.0 * self.out * self.d1)
            else:
                self._cd2 = None
        return self._cd2

    def tangent_forward(self, dw, dz):
        if dz is None:
            return None, None
        return (dz if self.d1 is None else self.d1 * dz), dz

    def tangent_backward(self, dw, dz, dc, grad, prev):
        if not prev:
            return None, None
        first = dc if dc is None or self.d1 is None else dc * self.d1
        cd2 = self._c_times_second()
        return None, _plus(first, None if cd2 is None or dz is None else cd2 * dz)


class _Flatten:
    def __init__(self, h):
        self.shape = h.shape
        self.out = h.reshape(-1)

    def backward(self, c):
        return None, c.reshape(self.shape)

    def tangent_forward(self, dw, dh):
        return None if dh is None else dh.reshape(dh.shape[:dh.ndim - len(self.shape)] + (-1,)), None

    def tangent_backward(self, dw, keep, dc, grad, prev):
        return None, None if dc is None or not prev else dc.reshape(dc.shape[:-1] + self.shape)


def _layer_rule(layer, w, h):
    if isinstance(layer, Linear):
        return _Affine(w, h, lambda v: v.reshape(v.shape + (1,)), lambda c: c.reshape(c.shape[:-1]),
                       (layer.out_features,))
    if isinstance(layer, Conv2d):
        k, s, p, shape = layer.kernel, layer.stride, layer.padding, h.shape
        _, _, (oh, ow) = ad.conv_geometry(shape, k, s, p)
        return _Affine(w, h, lambda v: ad.im2col_data(v, k, s, p),
                       lambda c: ad.col2im_data(c, shape, k, s, p), (layer.out_channels, oh, ow))
    if isinstance(layer, Activation):
        return _Elementwise(layer.kind, h)
    return _Flatten(h)


def _loss_rule(spec, out, y):
    """(dL/d out, d -> Hessian of L in out times d, or times each tangent
    of a stack d; None for a zero Hessian)."""
    if spec.loss == "cross_entropy":
        if y is None or not (0 <= int(y) < spec.num_classes):
            raise ShapeError(f"label {y} outside [0, {spec.num_classes})")
        e = np.exp(out - out.max())
        p = e * (1.0 / e.sum())
        c = p.copy()
        c[int(y)] -= 1.0
        # (diag(p) - p p^T) d as p_i sum_j p_j (d_i - d_j): the form
        # p * d - p * (p @ d) cancels to 1 - p_max on a saturated softmax
        return c, lambda d: p * ((d[..., :, None] - d[..., None, :]) @ p)
    if spec.loss == "squared_error":
        return out - spec.target, lambda d: d
    return np.ones_like(out), lambda d: None  # sum_output


def mixed_jvp(spec, params, x, y, delta):
    return MixedJacobianOperator(spec, params, x, y).jvp(delta)


def mixed_vjp(spec, params, x, y, b):
    return MixedJacobianOperator(spec, params, x, y).vjp(b)


class BudgetError(ValueError):
    pass


def check_budget(op, budget):
    entries = op.d_x * op.d_theta
    if entries > budget:
        raise BudgetError(f"dense Jacobian needs {entries} entries, budget is {budget}")


def materialize_jacobian(spec, params, x, y=None, budget=10_000_000, by="rows"):
    """Dense J, built row-wise from VJPs (or column-wise from JVPs)."""
    from .influence import _dense_from_operator

    op = MixedJacobianOperator(spec, params, x, y)
    if by == "rows":
        return _dense_from_operator(op, budget)
    if by == "columns":
        check_budget(op, budget)
        J = np.empty((op.d_x, op.d_theta))
        for lo, hi, eye in identity_blocks(op.d_theta):
            J[:, lo:hi] = op.jvp(eye)
        return J
    raise ValueError("by must be 'rows' or 'columns'")


# Identity columns per block product when J is made dense.  On LeNet a
# VJP of 2-12 columns costs 25-30 % less per column than a single VJP;
# from 16 columns on, its temporaries pass glibc's mmap threshold and
# page-fault on every call, which makes it twice as slow.
DENSE_BLOCK = 8


def identity_blocks(n):
    """(lo, hi, I[:, lo:hi]) over the n x n identity, DENSE_BLOCK columns at a time."""
    for lo in range(0, n, DENSE_BLOCK):
        hi = min(n, lo + DENSE_BLOCK)
        eye = np.zeros((n, hi - lo))
        eye[lo:hi] = np.eye(hi - lo)
        yield lo, hi, eye


# ---------------------------------------------------------------------------
# independent oracles (the other side of the dual-route checks)


def engine_oracle(spec, params, x, y, what, vec=None):
    """What the kernel computes, built instead as autodiff graphs.

    `what` is "grad_theta", "grad_x", "jvp" (J @ vec: the x-gradient of
    <g_theta, vec>) or "vjp" (J.T @ vec: the theta-gradient of <g_x, vec>).
    """
    _require_built(spec)
    x = _check_sample(spec, x)
    if what not in ("grad_theta", "grad_x", "jvp", "vjp"):
        raise ValueError(f"unknown oracle target {what!r}")
    x_var, theta_var = Var(x), Var(params.theta)
    gt, gx = grad(_forward_var(spec, theta_var, x_var, y), [theta_var, x_var])
    if what == "grad_theta":
        return gt.data.copy()
    if what == "grad_x":
        return gx.data.reshape(-1).copy()
    vec = np.asarray(vec, dtype=np.float64).reshape(-1)
    first, wrt, size = (gt, x_var, spec.d_theta) if what == "jvp" else (gx, theta_var, spec.d_x)
    if vec.size != size:
        raise ShapeError(f"{what} vector length {vec.size} != {size}")
    (out,) = grad(ad.dot(first, Var(vec)), [wrt])
    return out.data.reshape(-1).copy()



def finite_difference_oracle(spec, params, x, y=None, what="grad_theta", step=None, delta=None):
    _require_built(spec)
    x = _check_sample(spec, x)
    if what == "grad_theta":
        h = 1e-5 if step is None else step
        out = np.zeros(spec.d_theta)
        for i in range(spec.d_theta):
            tp, tm = params.theta.copy(), params.theta.copy()
            tp[i] += h
            tm[i] -= h
            out[i] = (forward_loss(spec, params.with_theta(tp), x, y) - forward_loss(spec, params.with_theta(tm), x, y)) / (2 * h)
        return out
    if what == "grad_x":
        h = 1e-5 if step is None else step
        flat = x.reshape(-1)
        out = np.zeros(spec.d_x)
        for i in range(spec.d_x):
            xp, xm = flat.copy(), flat.copy()
            xp[i] += h
            xm[i] -= h
            out[i] = (forward_loss(spec, params, xp.reshape(x.shape), y) - forward_loss(spec, params, xm.reshape(x.shape), y)) / (2 * h)
        return out
    if what == "jvp":
        if delta is None:
            raise ValueError("jvp oracle needs delta")
        h = 1e-4 if step is None else step
        delta = np.asarray(delta, dtype=np.float64).reshape(-1)
        flat = x.reshape(-1)
        out = np.zeros(spec.d_x)
        for i in range(spec.d_x):
            xp, xm = flat.copy(), flat.copy()
            xp[i] += h
            xm[i] -= h
            gp = gradients(spec, params, xp.reshape(x.shape), y).g_theta
            gm = gradients(spec, params, xm.reshape(x.shape), y).g_theta
            out[i] = (gp @ delta - gm @ delta) / (2 * h)
        return out
    raise ValueError(f"unknown oracle target {what!r}")


# ---------------------------------------------------------------------------
# minimal per-sample SGD trainer


def train_model(spec, params, dataset, epochs, lr, snapshot_every=1):
    """Plain SGD, one sample at a time in dataset order; returns snapshots."""
    _require_built(spec)
    if lr < 0:
        raise ValueError("lr must be >= 0")
    if len(dataset) == 0:
        raise ValueError("dataset is empty")
    theta = params.theta.copy()
    snapshots = []
    for epoch in range(epochs):
        for sample in dataset:
            cur = params.with_theta(theta)
            bundle = gradients(spec, cur, sample.image, sample.label)
            theta = theta - lr * bundle.g_theta
            if not np.all(np.isfinite(theta)):
                raise FloatingPointError(f"training diverged at epoch {epoch}")
        if (epoch + 1) % snapshot_every == 0 or epoch == epochs - 1:
            snapshots.append(params.with_theta(theta.copy()))
    return snapshots


# ---------------------------------------------------------------------------
# zoo constructors


def linear_dot_model(d):
    """L(x, theta) = theta . x, the identity-Jacobian reference model."""
    spec = ModelSpec(layers=[Linear(d, 1)], loss="sum_output", input_shape=(d,))
    return build_model(spec)


def one_layer_model(d, activation="sigmoid", target=0.0):
    """L = 0.5 * (act(theta . x) - target)^2."""
    spec = ModelSpec(
        layers=[Linear(d, 1), Activation(activation)],
        loss="squared_error",
        input_shape=(d,),
        target=np.array([float(target)]),
    )
    return build_model(spec)


def mlp_model(d_in, hidden, num_classes, activation="sigmoid"):
    spec = ModelSpec(
        layers=[Linear(d_in, hidden), Activation(activation), Linear(hidden, num_classes)],
        loss="cross_entropy",
        input_shape=(d_in,),
        num_classes=num_classes,
    )
    return build_model(spec)


def lenet_variant(in_channels=1, image_size=28, channels=12, kernel=5, stride=2,
                  padding=2, num_classes=10, activation="sigmoid"):
    """Four conv layers then one fully-connected classifier head."""
    layers = []
    shape = (in_channels, image_size, image_size)
    for i in range(4):
        c_in = in_channels if i == 0 else channels
        layers += [Conv2d(c_in, channels, kernel, stride, padding), Activation(activation)]
        _, _, (oh, ow) = ad.conv_geometry(shape, kernel, stride, padding)
        shape = (channels, oh, ow)
    layers += [Flatten(), Linear(int(np.prod(shape)), num_classes)]
    spec = ModelSpec(layers=layers, loss="cross_entropy",
                     input_shape=(in_channels, image_size, image_size), num_classes=num_classes)
    return build_model(spec)
