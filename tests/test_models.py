"""Zoo models: shape bookkeeping, analytic Jacobians, init schemes, trainer."""

import math

import numpy as np
import pytest

from gradleak import (
    Activation,
    InitScheme,
    Linear,
    MixedJacobianOperator,
    ModelSpec,
    forward_loss,
    gradients,
    initialize_parameters,
    lenet_variant,
    linear_dot_model,
    materialize_jacobian,
    mixed_jvp,
    mixed_vjp,
    mlp_model,
    one_layer_model,
    train_model,
)
from gradleak.data import synthetic_samples
from gradleak.models import BudgetError, ParameterSet, ShapeError


def frozen_one_layer():
    """L = 0.5 (theta . x)^2 at x=[1,0], theta=[2,1]; J = [[4,0],[1,2]]."""
    spec = one_layer_model(2, "identity", 0.0)
    params = initialize_parameters(spec, InitScheme("uniform", 0)).with_theta([2.0, 1.0])
    return spec, params, np.array([1.0, 0.0])


def test_parameter_counts():
    assert ModelSpec([Linear(784, 10)], "cross_entropy", (784,), 10).d_theta == 7840
    assert one_layer_model(2).d_theta == 2
    # hand count for the 4-conv variant: 12*1*25 + 3*(12*12*25) + 12*2*2*10
    assert lenet_variant().d_theta == 11580
    assert lenet_variant(in_channels=3, image_size=32).d_theta == 900 + 3 * 3600 + 480


def test_shape_mismatch_names_layer():
    with pytest.raises(ShapeError, match="layer 1"):
        ModelSpec([Linear(4, 3), Linear(4, 2)], "cross_entropy", (4,), 2)


def test_cross_entropy_uniform_logits():
    spec = mlp_model(4, 3, 10)
    params = initialize_parameters(spec, InitScheme("uniform", 0))
    theta = params.theta.copy()
    theta[4 * 3:] = 0.0  # zero the classifier head: logits all zero
    loss = forward_loss(spec, params.with_theta(theta), np.ones(4), 7)
    assert abs(loss - math.log(10)) < 1e-12


def test_linear_model_gradients():
    spec = linear_dot_model(2)
    params = initialize_parameters(spec, InitScheme("uniform", 0)).with_theta([2.0, 1.0])
    x = np.array([1.0, 0.0])
    assert forward_loss(spec, params, x) == 2.0
    g = gradients(spec, params, x)
    np.testing.assert_allclose(g.g_theta, [1.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(g.g_x, [2.0, 1.0], atol=1e-15)


def test_loss_scaling_scales_gradients():
    spec, params, x = frozen_one_layer()
    g = gradients(spec, params, x)
    # at (2 theta, 2 x) the quadratic loss scales by 16, its theta-gradient by 8
    g2 = gradients(spec, params.with_theta(2.0 * params.theta), 2.0 * x)
    np.testing.assert_allclose(g2.g_theta, 8.0 * g.g_theta, rtol=1e-12)


def test_frozen_jacobian_rows_equal_columns():
    spec, params, x = frozen_one_layer()
    by_rows = materialize_jacobian(spec, params, x, by="rows")
    by_cols = materialize_jacobian(spec, params, x, by="columns")
    np.testing.assert_allclose(by_rows, [[4.0, 0.0], [1.0, 2.0]], atol=1e-12)
    np.testing.assert_allclose(by_rows, by_cols, atol=1e-10)


def test_frozen_mixed_products():
    spec, params, x = frozen_one_layer()
    np.testing.assert_allclose(mixed_jvp(spec, params, x, None, [1.0, 1.0]), [4.0, 3.0], atol=1e-12)
    np.testing.assert_allclose(mixed_vjp(spec, params, x, None, [1.0, 0.0]), [4.0, 0.0], atol=1e-12)


def test_linear_jacobian_is_identity():
    spec = linear_dot_model(3)
    params = initialize_parameters(spec, InitScheme("normal", 5))
    x = np.random.Generator(np.random.PCG64(9)).uniform(0, 1, 3)
    np.testing.assert_allclose(materialize_jacobian(spec, params, x), np.eye(3), atol=1e-12)
    np.testing.assert_allclose(mixed_jvp(spec, params, x, None, [0.3, -0.4, 0.0]),
                               [0.3, -0.4, 0.0], atol=1e-12)


def test_one_layer_analytic_jacobian_general_point():
    # J = s' * (theta x^T) * s'' correction... for identity activation:
    # J = theta x^T + (theta.x - b) I
    rng = np.random.Generator(np.random.PCG64(3))
    x = rng.normal(size=4)
    theta = rng.normal(size=4)
    b = 0.3
    spec = one_layer_model(4, "identity", b)
    params = initialize_parameters(spec, InitScheme("uniform", 0)).with_theta(theta)
    J = materialize_jacobian(spec, params, x)
    analytic = np.outer(theta, x) + (theta @ x - b) * np.eye(4)
    np.testing.assert_allclose(J, analytic, atol=1e-9)


def test_well_fit_one_layer_is_rank_one():
    # sigma(theta . x) == b exactly: gradient vanishes, J = theta x^T
    x = np.array([1.0, 2.0, -1.0])
    theta = np.array([0.5, 0.25, 1.0])  # theta.x = 0
    spec = one_layer_model(3, "identity", 0.0)
    params = initialize_parameters(spec, InitScheme("uniform", 0)).with_theta(theta)
    assert np.linalg.norm(gradients(spec, params, x).g_theta) <= 1e-12
    s = np.linalg.svd(materialize_jacobian(spec, params, x), compute_uv=False)
    assert s[1] <= 1e-9


def test_mixed_jvp_linearity():
    spec = mlp_model(5, 6, 3)
    params = initialize_parameters(spec, InitScheme("xavier", 2))
    rng = np.random.Generator(np.random.PCG64(7))
    x = rng.uniform(0, 1, 5)
    op = MixedJacobianOperator(spec, params, x, 1)
    d1, d2 = rng.normal(size=spec.d_theta), rng.normal(size=spec.d_theta)
    lhs = op.jvp(0.7 * d1 - 1.3 * d2)
    rhs = 0.7 * op.jvp(d1) - 1.3 * op.jvp(d2)
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_materialize_budget_refusal(monkeypatch):
    spec, params, x = frozen_one_layer()
    monkeypatch.setattr("gradleak.models.DENSE_BUDGET", 3)
    with pytest.raises(BudgetError, match="4 entries"):
        materialize_jacobian(spec, params, x)


def test_init_scheme_supports():
    spec = mlp_model(100, 10, 10)
    for seed in (0, 1):
        u = initialize_parameters(spec, InitScheme("uniform", seed)).theta
        assert u.min() >= -0.5 and u.max() <= 0.5
        xa = initialize_parameters(spec, InitScheme("xavier", seed)).theta
        # first layer fan_in 100, fan_out 10: bound sqrt(6/110)
        assert np.abs(xa[:1000]).max() <= math.sqrt(6.0 / 110)
        ka = initialize_parameters(spec, InitScheme("kaiming", seed)).theta
        assert np.abs(ka[:1000]).max() <= math.sqrt(6.0 / 100)


def test_normal_init_variance_band():
    spec = ModelSpec([Linear(100, 100)], "sum_output", (100,))
    theta = initialize_parameters(spec, InitScheme("normal", 11)).theta
    assert theta.size == 10 ** 4
    assert 0.45 <= theta.var() <= 0.55


def test_init_determinism():
    spec = mlp_model(8, 8, 4)
    a = initialize_parameters(spec, InitScheme("kaiming", 42)).theta
    b = initialize_parameters(spec, InitScheme("kaiming", 42)).theta
    assert np.array_equal(a, b)
    c = initialize_parameters(spec, InitScheme("kaiming", 43)).theta
    assert not np.array_equal(a, c)


def test_parameter_slots_cover_theta():
    # the plan's weighted steps tile theta: each block starts where the last ends
    spec = lenet_variant(image_size=8, channels=3, num_classes=2)
    end = 0
    for step in spec.plan:
        if step.size:
            assert step.off == end
            end += step.size
    assert end == spec.d_theta


def test_with_theta_shape_guard():
    spec = linear_dot_model(3)
    params = initialize_parameters(spec, InitScheme("uniform", 0))
    with pytest.raises(ShapeError):
        params.with_theta(np.zeros(4))


def test_trainer_lr_zero_is_constant():
    spec = mlp_model(4, 4, 2, "sigmoid")
    params = initialize_parameters(spec, InitScheme("uniform", 1))
    data = synthetic_samples("separable_2class", 4, (4,), seed=0)
    snaps = train_model(spec, params, data, epochs=3, lr=0.0)
    for s in snaps:
        assert np.array_equal(s.theta, params.theta)


def test_trainer_reduces_loss_and_is_deterministic():
    spec = mlp_model(6, 8, 2, "sigmoid")
    params = initialize_parameters(spec, InitScheme("xavier", 3))
    data = synthetic_samples("separable_2class", 8, (6,), seed=1)

    def total_loss(p):
        return sum(forward_loss(spec, p, s.image, s.label) for s in data)

    snaps = train_model(spec, params, data, epochs=50, lr=0.1)
    assert total_loss(snaps[-1]) < total_loss(params)
    snaps2 = train_model(spec, params, data, epochs=50, lr=0.1)
    assert np.array_equal(snaps[-1].theta, snaps2[-1].theta)


def test_materialize_budget_refusal_by_columns(monkeypatch):
    spec, params, x = frozen_one_layer()
    monkeypatch.setattr("gradleak.models.DENSE_BUDGET", 3)
    with pytest.raises(BudgetError, match="dense Jacobian needs 4 entries, budget is 3"):
        materialize_jacobian(spec, params, x, by="columns")


@pytest.mark.parametrize("loss, extra, message", [
    ("hinge", {}, "unknown loss kind 'hinge'"),
    ("cross_entropy", {"num_classes": 3},
     r"cross_entropy expects final shape \(3,\), model produces \(2,\)"),
    ("squared_error", {}, "squared_error loss needs a target vector"),
    ("squared_error", {"target": np.zeros(3)},
     r"squared_error target has length 3, model produces \(2,\)"),
])
def test_loss_that_does_not_fit_the_output_is_a_shape_error(loss, extra, message):
    # a Linear(4, 2) stack: two outputs, which each loss check reads
    with pytest.raises(ShapeError, match=message):
        ModelSpec([Linear(4, 2)], loss, (4,), **extra)
