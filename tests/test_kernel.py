"""The graph-free mixed-Jacobian kernel against the autodiff engine.

Random layer stacks cover every layer kind the kernel has a rule for:
Linear, Conv2d over several kernel/stride/padding values, each
activation, Flatten and all three losses.  The engine builds the same
quantities as graphs; both are float64, so they must agree to a
tolerance fixed here, relative to the largest entry of the engine's
value.  Second-order values of a cross-entropy model get that tolerance
divided by 1 - max softmax probability: the engine's graph for the loss
Hessian diag(p) - p p^T cancels to that size, so it keeps only that many
correct digits (the kernel sums p_j (d_i - d_j) and does not cancel).
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from gradleak import autodiff as ad
from gradleak.attacks import ZeroGradientError, _objective_grad
from gradleak.autodiff import Var, grad
from gradleak.models import (
    ACTIVATIONS,
    LOSS_KINDS,
    Activation,
    Conv2d,
    Flatten,
    InitScheme,
    Linear,
    MixedJacobianOperator,
    ModelSpec,
    ShapeError,
    _forward_var,
    engine_oracle,
    forward_loss,
    initialize_parameters,
    mlp_model,
    one_layer_model,
)
from gradleak import models
from gradleak.experiments import KERNEL_CHECK_TOL
from gradleak.models import lenet_variant

TOL = 1e-10


def assert_close(value, ref, scale=None, cond=1.0):
    value, ref = np.asarray(value).reshape(-1), np.asarray(ref).reshape(-1)
    assert value.shape == ref.shape
    if scale is None:
        scale = np.abs(ref).max(initial=0.0)
    assert np.abs(value - ref).max(initial=0.0) <= TOL * scale * cond


def hessian_condition(spec, params, x):
    """1 / (1 - max softmax probability) for cross-entropy, else 1.  Each
    class's probability is exp(-loss) at that label, and 1 - p_max is the
    sum of the others, which keeps it accurate when p_max is near 1."""
    if spec.loss != "cross_entropy":
        return 1.0
    p = np.sort([np.exp(-forward_loss(spec, params, x, k)) for k in range(spec.num_classes)])
    return 1.0 / p[:-1].sum()


def engine_objective_grad(spec, params, x, y, g_target, kind):
    """The DGL/GS step as one autodiff graph: objective, then its x-gradient."""
    x_var, theta_var = Var(x), Var(params)
    (gt,) = grad(_forward_var(spec, theta_var, x_var, y), [theta_var])
    if kind == "dgl":
        r = ad.sub(gt, Var(g_target))
        obj = ad.sum_all(ad.mul(r, r))
    else:
        if float(np.linalg.norm(gt.data)) == 0.0:
            raise ZeroGradientError("synthesized gradient vanished")
        cos = ad.div(ad.dot(gt, Var(g_target)),
                     ad.mul(ad.sqrt(ad.dot(gt, gt)), Var(np.linalg.norm(g_target))))
        obj = ad.sub(Var(1.0), cos)
    (gx,) = grad(obj, [x_var])
    return float(obj.data), gx.data


@st.composite
def model_cases(draw):
    """(spec, params, x, y, rng) for a random layer stack and loss."""
    acts = sorted(ACTIVATIONS)
    rng = np.random.Generator(np.random.PCG64(draw(st.integers(0, 2 ** 32 - 1))))
    layers = []
    if draw(st.booleans()):
        size = draw(st.integers(3, 7))
        shape = input_shape = (draw(st.integers(1, 2)), size, size)
        for _ in range(draw(st.integers(1, 2))):
            padding = draw(st.integers(0, 2))
            kernel = draw(st.integers(1, min(3, shape[1] + 2 * padding)))
            stride = draw(st.integers(1, 2))
            out_channels = draw(st.integers(1, 3))
            layers += [Conv2d(shape[0], out_channels, kernel, stride, padding),
                       Activation(draw(st.sampled_from(acts)))]
            _, _, (oh, ow) = ad.conv_geometry(shape, kernel, stride, padding)
            shape = (out_channels, oh, ow)
        layers.append(Flatten())
        width = int(np.prod(shape))
    else:
        width = draw(st.integers(1, 6))
        input_shape = (width,)
    for _ in range(draw(st.integers(0, 2))):
        out = draw(st.integers(1, 5))
        layers += [Linear(width, out), Activation(draw(st.sampled_from(acts)))]
        width = out
    n_out = draw(st.integers(2, 4))
    layers.append(Linear(width, n_out))
    loss = draw(st.sampled_from(LOSS_KINDS))
    if loss != "cross_entropy" and draw(st.booleans()):
        layers.append(Activation(draw(st.sampled_from(acts))))
    spec = ModelSpec(layers, loss, input_shape, num_classes=n_out,
                     target=rng.normal(size=n_out) if loss == "squared_error" else None)
    params = rng.normal(0.0, 0.7, size=spec.d_theta)
    x = rng.uniform(-1.0, 1.0, size=input_shape)
    y = int(rng.integers(n_out)) if loss == "cross_entropy" else None
    return spec, params, x, y, rng


@settings(max_examples=200, deadline=None)
@given(model_cases())
def test_kernel_matches_engine(case):
    spec, params, x, y, rng = case
    op = MixedJacobianOperator(spec, params, x, y)
    cond = hessian_condition(spec, params, x)
    assert_close(op.g_theta, engine_oracle(spec, params, x, y, "grad_theta"))
    assert_close(op.g_x, engine_oracle(spec, params, x, y, "grad_x"))
    delta = rng.normal(size=spec.d_theta)
    b = rng.normal(size=spec.d_x)
    jd, jtb = op.jvp(delta), op.vjp(b)
    assert_close(jd, engine_oracle(spec, params, x, y, "jvp", delta), cond=cond)
    assert_close(jtb, engine_oracle(spec, params, x, y, "vjp", b), cond=cond)
    lhs = float(jd @ b)
    assert abs(lhs - float(delta @ jtb)) <= TOL * (1.0 + abs(lhs))

    g_target = rng.normal(size=spec.d_theta)
    for kind in ("dgl", "gs"):
        try:
            ref_obj, ref_gx = engine_objective_grad(spec, params, x, y, g_target, kind)
        except ZeroGradientError:
            with pytest.raises(ZeroGradientError):
                _objective_grad(spec, params, x, y, g_target, kind)
            continue
        obj, gx = _objective_grad(spec, params, x, y, g_target, kind)
        assert abs(obj - ref_obj) <= TOL * max(abs(ref_obj), 1.0)
        assert gx.shape == x.shape
        scale = None
        if kind == "gs":
            # d(1 - cos)/dg = cos g/|g|^2 - g*/(|g||g*|): the two terms cancel
            # exactly where cos is flat in x, so compare against their size
            g = op.g_theta
            gn, tn = np.linalg.norm(g), np.linalg.norm(g_target)
            cos = float(g @ g_target) / (gn * tn)
            scale = max(np.abs(op.jvp(cos / gn ** 2 * g)).max(),
                        np.abs(op.jvp(g_target / (gn * tn))).max())
        assert_close(gx, ref_gx, scale, cond)


@settings(max_examples=30, deadline=None)
@given(model_cases(), st.data())
def test_non_finite_activation_names_the_layer(case, data):
    spec, params, x, y, _ = case
    weighted = [(i, step.off) for i, step in enumerate(spec.plan) if step.size]
    layer, off = weighted[data.draw(st.integers(0, len(weighted) - 1))]
    broken = params.copy()
    broken[off] = np.inf
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(FloatingPointError) as engine_err:
            forward_loss(spec, broken, x, y)
        with pytest.raises(FloatingPointError, match=f"after layer {layer} ") as kernel_err:
            MixedJacobianOperator(spec, broken, x, y)
    assert str(kernel_err.value) == str(engine_err.value)


def test_relu_kink_has_zero_derivative():
    # theta . x == 0 exactly: the engine's relu'(0) = 0 convention
    spec = one_layer_model(2, "relu", 0.5)
    params = np.array([1.0, -1.0])
    x = np.array([0.25, 0.25])
    op = MixedJacobianOperator(spec, params, x, None)
    assert not op.g_theta.any() and not op.g_x.any()
    d = np.array([0.3, -0.7])
    np.testing.assert_array_equal(op.jvp(d), engine_oracle(spec, params, x, None, "jvp", d))


def test_engine_oracle_rejects_bad_requests():
    spec = one_layer_model(3)
    params = initialize_parameters(spec, InitScheme("uniform", 0))
    with pytest.raises(ValueError, match="unknown oracle target"):
        engine_oracle(spec, params, np.zeros(3), None, "hvp", np.zeros(3))
    with pytest.raises(ValueError, match="length 2"):
        engine_oracle(spec, params, np.zeros(3), None, "vjp", np.zeros(2))


@settings(max_examples=150, deadline=None)
@given(model_cases(), st.sampled_from([1, 2, 5]))
def test_block_products_match_columns(case, k):
    # a (d, k) block goes through the passes as one stack of k tangents;
    # column j of the result is the product of column j on its own
    spec, params, x, y, rng = case
    op = MixedJacobianOperator(spec, params, x, y)
    cond = hessian_condition(spec, params, x)
    D = rng.normal(size=(spec.d_theta, k))
    B = rng.normal(size=(spec.d_x, k))
    JD, JtB = op.jvp(D), op.vjp(B)
    assert JD.shape == (spec.d_x, k) and JtB.shape == (spec.d_theta, k)
    for j in range(k):
        jd, jtb = op.jvp(D[:, j]), op.vjp(B[:, j])
        assert jd.shape == (spec.d_x,) and jtb.shape == (spec.d_theta,)
        for block, column in ((JD[:, j], jd), (JtB[:, j], jtb)):
            assert np.abs(block - column).max() <= 1e-13 * np.abs(column).max() * cond


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), st.integers(1, 9), st.integers(1, 3), st.integers(1, 4),
       st.integers(0, 2), st.integers(1, 9), st.integers(0, 2 ** 32 - 1))
def test_scatter_of_a_stack_equals_lone_scatters_property(channels, size, kernel, stride,
                                                          padding, k, seed):
    # strides above the kernel leave pixels no patch reads; padding maps
    # patch entries to the discarded bin; each image must sum as it would alone
    assume(kernel <= size + 2 * padding)
    in_shape = (channels, size, size)
    geometry = ad.conv_geometry(in_shape, kernel, stride, padding)
    rows, positions = geometry[0].shape
    cols = np.random.Generator(np.random.PCG64(seed)).normal(size=(k, rows, positions))
    stack = ad.scatter_patches(cols, geometry)
    assert stack.shape == (k,) + in_shape
    for j in range(k):
        assert np.array_equal(stack[j], ad.scatter_patches(cols[j], geometry))


@settings(max_examples=100, deadline=None)
@given(model_cases(), st.sampled_from([None, 1, 3]))
def test_products_are_pure(case, k):
    # a product must not write into the operator's kept values: a second
    # call gives the same bits, and the gradients stay as they were
    spec, params, x, y, rng = case
    op = MixedJacobianOperator(spec, params, x, y)
    g_theta, g_x = op.g_theta.copy(), op.g_x.copy()
    lead = () if k is None else (k,)
    delta = rng.normal(size=(spec.d_theta,) + lead)
    b = rng.normal(size=(spec.d_x,) + lead)
    jd, jtb = op.jvp(delta), op.vjp(b)
    assert np.array_equal(op.vjp(b), jtb) and np.array_equal(op.jvp(delta), jd)
    assert np.array_equal(op.g_theta, g_theta) and np.array_equal(op.g_x, g_x)


def test_block_products_reject_bad_shapes():
    spec = mlp_model(4, 3, 2)  # d_x = 4, d_theta = 18
    params = initialize_parameters(spec, InitScheme("xavier", 0))
    op = MixedJacobianOperator(spec, params, np.linspace(0.0, 1.0, 4), 1)
    for product, size, name in ((op.jvp, 18, "d_theta"), (op.vjp, 4, "d_x")):
        for bad in (np.zeros((7, 2)), np.zeros(7), np.zeros((size, 2, 2))):
            with pytest.raises(ShapeError) as err:
                product(bad)
            message = str(err.value)
            assert f"{name} is {size}" in message and str(bad.shape) in message


def test_overflow_squashed_by_sigmoid_still_raises():
    # every conv-0 output overflows to +inf and the sigmoid after it maps
    # each to 1.0, so a check of the loss alone would pass this forward
    spec = lenet_variant()
    params = initialize_parameters(spec, InitScheme("uniform", 0))
    broken = params.copy()
    broken[:300] = 1e308
    x = np.random.default_rng(0).uniform(0.0, 1.0, size=spec.input_shape)
    with np.errstate(over="ignore", invalid="ignore"):
        conv0 = broken[:300].reshape(12, 25) @ ad.gather_patches(x, spec.plan[0].geometry)
        assert np.isposinf(conv0).all() and np.isfinite(ad.sigmoid_data(conv0)).all()
        with pytest.raises(FloatingPointError) as engine_err:
            forward_loss(spec, broken, x, 3)
        with pytest.raises(FloatingPointError, match="after layer 0 ") as kernel_err:
            MixedJacobianOperator(spec, broken, x, 3)
    assert str(kernel_err.value) == str(engine_err.value)


def test_plan_is_compiled_once_and_shared_without_state(monkeypatch):
    # ModelSpec compiles one pass rule per layer; operators only run the
    # plan, so live operators of one spec must not see each other's values
    compiled = []
    layer_step = models._layer_step
    monkeypatch.setattr(models, "_layer_step", lambda *a: compiled.append(a) or layer_step(*a))
    spec = lenet_variant(image_size=12, channels=3, num_classes=4)
    assert len(compiled) == len(spec.layers)
    params = initialize_parameters(spec, InitScheme("uniform", 0))
    rng = np.random.default_rng(1)
    xa, xb = rng.uniform(0.0, 1.0, size=(2,) + spec.input_shape)
    delta, b = rng.normal(size=spec.d_theta), rng.normal(size=spec.d_x)
    D = rng.normal(size=(spec.d_theta, 3))

    def alone(x, product, v):
        return getattr(MixedJacobianOperator(spec, params, x, 2), product)(v)

    op_a = MixedJacobianOperator(spec, params, xa, 2)
    gx_a = op_a.g_x.copy()
    op_b = MixedJacobianOperator(spec, params, xb, 2)
    calls = [(op_b, xb, "jvp", delta), (op_a, xa, "jvp", delta), (op_b, xb, "vjp", b),
             (op_a, xa, "jvp", D), (op_a, xa, "vjp", b), (op_b, xb, "jvp", D)]
    results = [getattr(op, product)(v) for op, _, product, v in calls]
    for (_, x, product, v), result in zip(calls, results):
        assert np.array_equal(result, alone(x, product, v))
    assert np.array_equal(op_a.g_x, gx_a)
    for op, x in ((op_a, xa), (op_b, xb)):
        ref = engine_oracle(spec, params, x, 2, "grad_x")
        assert np.abs(op.g_x - ref).max() <= KERNEL_CHECK_TOL * np.abs(ref).max()
    assert len(compiled) == len(spec.layers)


@pytest.mark.parametrize("spec,x", [
    # a float32 list becomes the checked float64 array; a float64 array in
    # input shape is kept as it is, not copied
    (mlp_model(6, 5, 3), np.linspace(0.0, 1.0, 6, dtype=np.float32).tolist()),
    (lenet_variant(image_size=8, channels=2, num_classes=3),
     np.random.default_rng(3).uniform(0.0, 1.0, size=(1, 8, 8)))], ids=["mlp", "lenet"])
def test_operator_keeps_its_point(spec, x):
    theta = initialize_parameters(spec, InitScheme("xavier", 2))
    op = MixedJacobianOperator(spec, theta, x, 2)
    checked = models._check_sample(spec, x)
    assert op.spec is spec and op.theta is theta and op.y == 2
    assert op.x.dtype == np.float64 and op.x.shape == spec.input_shape
    assert np.array_equal(op.x, checked) and (op.x is x) == isinstance(x, np.ndarray)
    # the kept point alone rebuilds the same operator, bit for bit
    again = MixedJacobianOperator(op.spec, op.theta, op.x, op.y)
    rng = np.random.default_rng(4)
    d, b = rng.normal(size=spec.d_theta), rng.normal(size=spec.d_x)
    assert np.array_equal(again.g_theta, op.g_theta)
    assert np.array_equal(again.jvp(d), op.jvp(d)) and np.array_equal(again.vjp(b), op.vjp(b))
