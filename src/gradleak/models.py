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
    """Layer list plus loss, shape-checked and compiled when made: ShapeError
    unless the layers compose and the loss fits the model output."""

    layers: list
    loss: str
    input_shape: tuple
    num_classes: int = 0
    target: np.ndarray | None = None  # squared_error only

    d_x: int = field(default=0, init=False)
    d_theta: int = field(default=0, init=False)
    # one static pass rule per layer, for MixedJacobianOperator
    plan: tuple = field(default=(), init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.loss not in LOSS_KINDS:
            raise ShapeError(f"unknown loss kind {self.loss!r}")
        shape = tuple(self.input_shape)
        d_theta = 0
        plan = []
        for i, layer in enumerate(self.layers):
            plan.append(_layer_step(i, layer, shape, d_theta))
            shape, d_theta = plan[-1].out_shape, d_theta + plan[-1].size
        if self.loss == "cross_entropy":
            if len(shape) != 1 or shape[0] != self.num_classes:
                raise ShapeError(f"cross_entropy expects final shape ({self.num_classes},), model produces {shape}")
        elif self.loss == "squared_error":
            if self.target is None:
                raise ShapeError("squared_error loss needs a target vector")
            self.target = np.asarray(self.target, dtype=np.float64).reshape(-1)
            if len(shape) != 1 or shape[0] != self.target.size:
                raise ShapeError(f"squared_error target has length {self.target.size}, model produces {shape}")
        self.d_x = math.prod(self.input_shape)
        self.d_theta = d_theta
        self.plan = tuple(plan)


# ---------------------------------------------------------------------------
# parameters


@dataclass(frozen=True)
class InitScheme:
    kind: str = "uniform"
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("uniform", "normal", "kaiming", "xavier"):
            raise ValueError(f"unknown init scheme {self.kind!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def initialize_parameters(spec: ModelSpec, scheme: InitScheme) -> np.ndarray:
    """theta, the float64 (d_theta,) parameter vector, with each weighted
    layer's block drawn in plan order, where spec.plan places it."""
    rng = np.random.Generator(np.random.PCG64(scheme.seed))
    theta = np.zeros(spec.d_theta)
    for step in spec.plan:
        if not isinstance(step, _Affine):
            continue
        n = step.size
        fan_out, fan_in = step.shape
        if scheme.kind == "uniform":
            block = rng.uniform(-0.5, 0.5, size=n)
        elif scheme.kind == "normal":
            # variance 0.5, i.e. std sqrt(0.5)
            block = rng.normal(0.0, math.sqrt(0.5), size=n)
        elif scheme.kind == "kaiming":
            bound = math.sqrt(6.0 / fan_in)
            block = rng.uniform(-bound, bound, size=n)
        else:  # xavier
            bound = math.sqrt(6.0 / (fan_in + fan_out))
            block = rng.uniform(-bound, bound, size=n)
        theta[step.off:step.off + n] = block
    return theta


# ---------------------------------------------------------------------------
# forward / gradients


def _forward_var(spec, theta_var, x_var, y):
    """The loss as an autodiff graph: each layer's weights, shapes and patch
    geometry come from spec.plan, its products from the engine's own operations."""
    h = x_var
    for i, (layer, step) in enumerate(zip(spec.layers, spec.plan)):
        if isinstance(step, _Affine):
            w = ad.reshape(ad.slice1d(theta_var, step.off, step.off + step.size), step.shape)
            if step.geometry is None:
                h = ad.matmul(w, h)
            else:
                cols = ad.im2col(h, step.geometry)
                h = ad.reshape(ad.matmul(w, cols), step.out_shape)
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


def _check_theta(spec, theta):
    """theta as float64, not a copy if it is one already; ShapeError unless
    it is a vector of spec.d_theta entries."""
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (spec.d_theta,):
        raise ShapeError(f"theta has shape {theta.shape} but d_theta is {spec.d_theta}")
    return theta


def forward_loss(spec: ModelSpec, theta, x, y=None) -> float:
    theta, x = _check_theta(spec, theta), _check_sample(spec, x)
    loss = _forward_var(spec, Var(theta), Var(x), y)
    if not np.isfinite(loss.data):
        raise FloatingPointError("non-finite loss")
    return float(loss.data)


def gradients(spec: ModelSpec, theta, x, y=None) -> MixedJacobianOperator:
    """The operator at that point; read `.g_theta` and `.g_x`."""
    return MixedJacobianOperator(spec, theta, x, y)


class MixedJacobianOperator:
    """Matrix-free J = d^2 L / (dx dtheta), shape (d_x, d_theta), at the one point
    it keeps: `spec`, `y` and the checked float64 `theta` and `x`, as given if
    they were float64 already.

    Graph-free forward-over-reverse (Pearlmutter's R-operator): the
    constructor runs the layer plan that ModelSpec compiled, one forward
    and one backward pass in plain numpy, keeping each layer's activations
    and cotangents.  g_x, which the attacks never read, is finished from
    layer 0's kept cotangent on first read.  J @ delta is the tangent of
    g_x as theta moves along delta, and J.T @ b the tangent of g_theta as
    x moves along b; each takes one tangent-forward and one
    tangent-backward pass through the kept values.  Both also take a
    (d, k) block and push its k columns through the same passes together,
    as a stack of k tangents, so each layer's products become batched
    GEMMs.
    """

    def __init__(self, spec: ModelSpec, theta, x, y=None):
        self.spec, self.y = spec, y
        self.theta = theta = _check_theta(spec, theta)
        self.x = x = _check_sample(spec, x)
        self.d_x, self.d_theta = spec.d_x, spec.d_theta
        plan, self._kept = spec.plan, []
        h = x
        for i, step in enumerate(plan):
            h, keep = step.forward(theta, h)
            # activations and flattens keep finite values finite, so the first
            # non-finite output is layer 0's (it reads x) or a weighted layer's
            if (i == 0 or isinstance(step, _Affine)) and not np.isfinite(h).all():
                raise FloatingPointError(f"non-finite activation after layer {i} ({spec.layers[i]})")
            self._kept.append(keep)
        c, self._softmax = _loss_rule(spec, h, y)
        self.g_theta = np.zeros(self.d_theta)
        self._back = [None] * len(plan)
        for i in reversed(range(len(plan))):
            self._back[i] = plan[i].backward(self._kept[i], c, self.g_theta)
            if i:
                c = plan[i].pullback(self._kept[i], c)
        self._c0, self._g_x = c, None

    @property
    def g_x(self):
        """dL/dx, flat."""
        if self._g_x is None:
            c = self._c0
            if self.spec.plan:
                c = self.spec.plan[0].pullback(self._kept[0], c)
            self._g_x = c.reshape(-1)
        return self._g_x

    def _tangent(self, dtheta, dx, want_theta, lead):
        """Tangents of (g_theta, g_x) along (dtheta, dx), whose shapes are
        the primal ones behind `lead`: () for one tangent, (k,) for a stack
        of k.  None is a zero tangent.  Only g_theta's tangents
        (want_theta) or only g_x's are made."""
        plan, kept = self.spec.plan, self._kept
        dws = [None if dtheta is None else step.weight(dtheta) for step in plan]
        saved = []
        d = dx
        for step, keep, dw in zip(plan, kept, dws):
            d, s = step.tangent_forward(keep, dw, d)
            saved.append(s)
        dc = None if d is None else _loss_hvp(self.spec.loss, self._softmax, d)
        dg = np.zeros(lead + (self.d_theta,)) if want_theta else None
        for i in reversed(range(len(plan))):
            dgw, dc = plan[i].tangent_backward(kept[i], self._back[i], dws[i], saved[i], dc,
                                               want_theta, i > 0 or not want_theta)
            if dgw is not None:
                plan[i].put(dg, dgw)
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


# Pass rules, one per layer kind, made once by ModelSpec with only static
# data; each operator keeps its own values.  forward(theta, h) gives the
# output and what the other passes keep, backward(kept, c, g_theta) puts
# the weight gradient into g_theta and gives what the tangent passes keep
# of the output cotangent c, and pullback(kept, c) gives the input
# cotangent; the tangent passes push tangents through the same steps.  A
# tangent has its primal value's shape, or that shape behind a leading
# axis of size k for a stack of k.  None is a zero tangent.


def _plus(a, b):
    """a + b, None a zero; callers pass a fresh a of b's shape, which takes the sum."""
    if a is None:
        return b
    if b is None:
        return a
    a += b
    return a


def _times(a, b):
    return None if a is None or b is None else a @ b


class _Step:
    size = 0  # weight entries in theta

    def weight(self, vec):
        return None

    def backward(self, kept, c, g_theta):
        return None


class _Affine(_Step):
    """out = W @ cols(h): Linear with one column, Conv2d with the im2col
    columns of its conv_geometry."""

    def __init__(self, i, layer, in_shape, off):
        """The rule of Linear or Conv2d layer i on an input of `in_shape`;
        ShapeError unless its sizes, kernel and stride are at least 1, its
        padding at least 0 and the input fits it."""
        conv = isinstance(layer, Conv2d)
        sizes = ((layer.in_channels, layer.out_channels, layer.kernel, layer.stride) if conv
                 else (layer.in_features, layer.out_features))
        if min(sizes) < 1 or conv and layer.padding < 0:
            raise ShapeError(f"layer {i} ({layer}) needs sizes, kernel and stride >= 1 and padding >= 0")
        self.geometry, self.off = None, off
        if conv:
            if len(in_shape) != 3 or in_shape[0] != layer.in_channels:
                raise ShapeError(f"layer {i} ({layer}) expects (channels={layer.in_channels}, H, W), got shape {in_shape}")
            try:
                self.geometry = ad.conv_geometry(in_shape, layer.kernel, layer.stride, layer.padding)
            except ValueError as e:
                raise ShapeError(f"layer {i}: {e}") from e
            self.shape = (layer.out_channels, layer.in_channels * layer.kernel * layer.kernel)
            self.out_shape = (layer.out_channels,) + self.geometry[2]
        else:
            if len(in_shape) != 1 or in_shape[0] != layer.in_features:
                raise ShapeError(f"layer {i} ({layer}) expects a vector of length {layer.in_features}, got shape {in_shape}")
            self.shape, self.out_shape = (layer.out_features, layer.in_features), (layer.out_features,)
        self.size = math.prod(self.shape)
        self.c_shape = (self.shape[0], math.prod(self.out_shape[1:]))

    def to_cols(self, v):
        if self.geometry is None:
            return v.reshape(v.shape + (1,))
        return ad.gather_patches(v, self.geometry)

    def from_cols(self, c):
        if self.geometry is None:
            return c.reshape(c.shape[:-1])
        return ad.scatter_patches(c, self.geometry)

    def weight(self, vec):
        """The weight matrix within theta, or the stack of them within a
        (k, d_theta) stack of parameter tangents."""
        return vec[..., self.off:self.off + self.size].reshape(vec.shape[:-1] + self.shape)

    def put(self, out, block):
        out[..., self.off:self.off + self.size] = block.reshape(block.shape[:-2] + (self.size,))

    def forward(self, theta, h):
        w, cols = self.weight(theta), self.to_cols(h)
        return (w @ cols).reshape(self.out_shape), (w, cols)

    def backward(self, kept, c, g_theta):
        c = c.reshape(self.c_shape)
        self.put(g_theta, c @ kept[1].T)
        return c

    def pullback(self, kept, c):
        return self.from_cols(kept[0].T @ c.reshape(self.c_shape))

    def tangent_forward(self, kept, dw, dh):
        w, cols = kept
        dcols = None if dh is None else self.to_cols(dh)
        dout = _plus(_times(dw, cols), _times(w, dcols))
        return None if dout is None else dout.reshape(dout.shape[:-2] + self.out_shape), dcols

    def tangent_backward(self, kept, c, dw, dcols, dc, grad, prev):
        w, cols = kept
        if dc is not None:
            dc = dc.reshape(dc.shape[:dc.ndim - len(self.out_shape)] + self.c_shape)
        dg = dp = None
        if grad:  # d(c @ cols.T)
            dg = _plus(_times(dc, cols.T), None if dcols is None else c @ dcols.swapaxes(-1, -2))
        if prev:  # d(W.T @ c), scattered back like pullback's
            dp = _plus(None if dw is None else dw.swapaxes(-1, -2) @ c, _times(w.T, dc))
            dp = None if dp is None else self.from_cols(dp)
        return dg, dp


class _Elementwise(_Step):
    """An ACTIVATIONS kind, with the engine's primal formulas; relu'(0) = 0.
    It keeps (output, act'(z)), and backward keeps c * act''(z)."""

    def __init__(self, kind, shape):
        self.kind, self.out_shape = kind, shape

    def forward(self, theta, z):
        if self.kind == "sigmoid":
            s = ad.sigmoid_data(z)
            return s, (s, s * (1.0 - s))
        if self.kind == "tanh":
            t = np.tanh(z)
            return t, (t, 1.0 - t * t)
        if self.kind == "relu":
            return np.maximum(z, 0.0), (None, (z > 0).astype(np.float64))
        return z, (None, None)  # identity

    def backward(self, kept, c, g_theta):
        out, d1 = kept
        if self.kind == "sigmoid":
            return c * (d1 * (1.0 - 2.0 * out))
        if self.kind == "tanh":
            return c * (-2.0 * out * d1)
        return None

    def pullback(self, kept, c):
        return c if kept[1] is None else c * kept[1]

    def tangent_forward(self, kept, dw, dz):
        if dz is None:
            return None, None
        return (dz if kept[1] is None else kept[1] * dz), dz

    def tangent_backward(self, kept, cd2, dw, dz, dc, grad, prev):
        if not prev:
            return None, None
        first = None if dc is None else self.pullback(kept, dc)
        return None, _plus(first, None if cd2 is None or dz is None else cd2 * dz)


class _Flatten(_Step):
    def __init__(self, shape):
        self.in_shape, self.out_shape = shape, (int(np.prod(shape)),)

    def forward(self, theta, h):
        return h.reshape(-1), None

    def pullback(self, kept, c):
        return c.reshape(self.in_shape)

    def tangent_forward(self, kept, dw, dh):
        return None if dh is None else dh.reshape(dh.shape[:dh.ndim - len(self.in_shape)] + (-1,)), None

    def tangent_backward(self, kept, back, dw, saved, dc, grad, prev):
        return None, None if dc is None or not prev else dc.reshape(dc.shape[:-1] + self.in_shape)


def _layer_step(i, layer, shape, off):
    """The rule of layer i, with input shape `shape` and weights at `off`;
    ShapeError unless the layer is of a known kind and fits `shape`."""
    if isinstance(layer, (Linear, Conv2d)):
        return _Affine(i, layer, shape, off)
    if isinstance(layer, Activation):
        if layer.kind not in ACTIVATIONS:
            raise ShapeError(f"layer {i}: unknown activation {layer.kind!r}")
        return _Elementwise(layer.kind, shape)
    if isinstance(layer, Flatten):
        return _Flatten(shape)
    raise ShapeError(f"layer {i}: unknown layer type {type(layer).__name__}")


def _loss_rule(spec, out, y):
    """(dL/d out, the softmax p for cross-entropy or else None)."""
    if spec.loss == "cross_entropy":
        if y is None or not (0 <= int(y) < spec.num_classes):
            raise ShapeError(f"label {y} outside [0, {spec.num_classes})")
        e = np.exp(out - out.max())
        p = e * (1.0 / e.sum())
        c = p.copy()
        c[int(y)] -= 1.0
        return c, p
    if spec.loss == "squared_error":
        return out - spec.target, None
    return np.ones_like(out), None  # sum_output


def _loss_hvp(loss, p, d):
    """L's Hessian in the model output times d, or each tangent of a stack d; None if zero."""
    if loss == "cross_entropy":
        # (diag(p) - p p^T) d as p_i sum_j p_j (d_i - d_j): the form
        # p * d - p * (p @ d) cancels to 1 - p_max on a saturated softmax
        return p * ((d[..., :, None] - d[..., None, :]) @ p)
    return d if loss == "squared_error" else None


def mixed_jvp(spec, theta, x, y, delta):
    return MixedJacobianOperator(spec, theta, x, y).jvp(delta)


def mixed_vjp(spec, theta, x, y, b):
    return MixedJacobianOperator(spec, theta, x, y).vjp(b)


# Identity columns per block product when J or its Gram J J^T is made
# dense; it sets the width of the normal-product block J (J^T E) too.  On
# LeNet (1 BLAS thread) a Gram build takes 0.41 s at 8, 12 or 16 columns;
# from 24 columns on, its temporaries pass glibc's mmap threshold and
# page-fault on every call (90-110k faults), and it takes 0.52-0.65 s.
DENSE_BLOCK = 8
# Entries a dense J, or its Gram J J^T, may hold; dense_columns alone reads it.
DENSE_BUDGET = 10_000_000


class BudgetError(ValueError):
    pass


def materialize_jacobian(spec, theta, x, y=None, by="rows"):
    """Dense J, built row-wise from VJPs (or column-wise from JVPs)."""
    from .influence import _dense_from_operator

    op = MixedJacobianOperator(spec, theta, x, y)
    if by == "rows":
        return _dense_from_operator(op)
    if by == "columns":
        return dense_columns(op.jvp, op.d_theta, op.d_x, "dense Jacobian")
    raise ValueError("by must be 'rows' or 'columns'")


def dense_columns(product, n, rows, what):
    """The rows x n matrix whose columns lo:hi are product(I[:, lo:hi]),
    DENSE_BLOCK columns of the n x n identity at a time; BudgetError names
    `what` if it needs more than DENSE_BUDGET entries, read at each call."""
    if rows * n > DENSE_BUDGET:
        raise BudgetError(f"{what} needs {rows * n} entries, budget is {DENSE_BUDGET}")
    M = np.empty((rows, n))
    for lo in range(0, n, DENSE_BLOCK):
        hi = min(n, lo + DENSE_BLOCK)
        eye = np.zeros((n, hi - lo))
        eye[lo:hi] = np.eye(hi - lo)
        M[:, lo:hi] = product(eye)
    return M


# ---------------------------------------------------------------------------
# independent oracles (the other side of the dual-route checks)


def engine_oracle(spec, theta, x, y, what, vec=None):
    """What the kernel computes, built instead as autodiff graphs.

    `what` is "grad_theta", "grad_x", "jvp" (J @ vec: the x-gradient of
    <g_theta, vec>) or "vjp" (J.T @ vec: the theta-gradient of <g_x, vec>).
    """
    theta, x = _check_theta(spec, theta), _check_sample(spec, x)
    if what not in ("grad_theta", "grad_x", "jvp", "vjp"):
        raise ValueError(f"unknown oracle target {what!r}")
    x_var, theta_var = Var(x), Var(theta)
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



def finite_difference_oracle(spec, theta, x, y=None, what="grad_theta", step=None, delta=None):
    theta, x = _check_theta(spec, theta), _check_sample(spec, x)
    if what == "grad_theta":
        h = 1e-5 if step is None else step
        out = np.zeros(spec.d_theta)
        for i in range(spec.d_theta):
            tp, tm = theta.copy(), theta.copy()
            tp[i] += h
            tm[i] -= h
            out[i] = (forward_loss(spec, tp, x, y) - forward_loss(spec, tm, x, y)) / (2 * h)
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
            gp = MixedJacobianOperator(spec, theta, xp.reshape(x.shape), y).g_theta
            gm = MixedJacobianOperator(spec, theta, xm.reshape(x.shape), y).g_theta
            out[i] = (gp @ delta - gm @ delta) / (2 * h)
        return out
    raise ValueError(f"unknown oracle target {what!r}")


# ---------------------------------------------------------------------------
# minimal per-sample SGD trainer


def train_model(spec, theta, dataset, epochs, lr):
    """Plain SGD from theta over a sequence of samples, one at a time in
    order; one snapshot of theta, a new (d_theta,) array, per epoch."""
    if lr < 0:
        raise ValueError("lr must be >= 0")
    if len(dataset) == 0:
        raise ValueError("dataset is empty")
    theta = _check_theta(spec, theta)
    snapshots = []
    for epoch in range(epochs):
        for sample in dataset:
            theta = theta - lr * MixedJacobianOperator(spec, theta, sample.image, sample.label).g_theta
            if not np.all(np.isfinite(theta)):
                raise FloatingPointError(f"training diverged at epoch {epoch}")
        snapshots.append(theta)
    return snapshots


# ---------------------------------------------------------------------------
# zoo constructors


def linear_dot_model(d: int):
    """L(x, theta) = theta . x, the identity-Jacobian reference model."""
    return ModelSpec(layers=[Linear(d, 1)], loss="sum_output", input_shape=(d,))


def one_layer_model(d: int, activation: str = "sigmoid", target: float = 0.0):
    """L = 0.5 * (act(theta . x) - target)^2."""
    return ModelSpec(
        layers=[Linear(d, 1), Activation(activation)],
        loss="squared_error",
        input_shape=(d,),
        target=np.array([float(target)]),
    )


def mlp_model(d: int, hidden: int = 16, num_classes: int = 10, activation: str = "sigmoid"):
    return ModelSpec(
        layers=[Linear(d, hidden), Activation(activation), Linear(hidden, num_classes)],
        loss="cross_entropy",
        input_shape=(d,),
        num_classes=num_classes,
    )


def lenet_variant(in_channels: int = 1, image_size: int = 28, channels: int = 12,
                  kernel: int = 5, stride: int = 2, padding: int = 2, num_classes: int = 10,
                  activation: str = "sigmoid"):
    """Four conv layers then one fully-connected classifier head."""
    layers = []
    shape = (in_channels, image_size, image_size)
    for i in range(4):
        conv = Conv2d(in_channels if i == 0 else channels, channels, kernel, stride, padding)
        shape = _Affine(len(layers), conv, shape, 0).out_shape
        layers += [conv, Activation(activation)]
    layers += [Flatten(), Linear(math.prod(shape), num_classes)]
    return ModelSpec(layers=layers, loss="cross_entropy",
                     input_shape=(in_channels, image_size, image_size), num_classes=num_classes)
