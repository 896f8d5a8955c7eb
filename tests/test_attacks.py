"""Attacks and defenses: linear-model exactness, objective properties,
and the three perturbation mechanisms."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gradleak import (
    AttackConfig,
    InitScheme,
    MixedJacobianOperator,
    gaussian_perturbation,
    gradients,
    initialize_parameters,
    linear_dot_model,
    one_layer_model,
    prune_gradient,
    recovery_error,
    run_attack,
    singular_direction_perturbation,
)
from gradleak.attacks import _objective_grad


def linear_setup(d=6, seed=0):
    spec = linear_dot_model(d)
    params = initialize_parameters(spec, InitScheme("normal", seed))
    x0 = np.random.Generator(np.random.PCG64(seed)).uniform(0, 1, d)
    return spec, params, x0


def test_recovery_error_values():
    assert recovery_error(np.zeros(4), np.zeros(4)) == (0.0, 0.0)
    l2, rmse = recovery_error(np.zeros(4), np.ones(4))
    assert l2 == 2.0 and rmse == 1.0
    with pytest.raises(ValueError):
        recovery_error(np.zeros(3), np.zeros(4))


def test_rmse_l2_consistency():
    rng = np.random.Generator(np.random.PCG64(0))
    a, b = rng.normal(size=10), rng.normal(size=10)
    l2, rmse = recovery_error(a, b)
    assert abs(rmse * np.sqrt(10) - l2) <= 1e-12


def test_dgl_linear_clean_recovers_exactly():
    spec, params, x0 = linear_setup()
    g0 = gradients(spec, params, x0).g_theta
    res = run_attack(spec, params, g0, None, AttackConfig(iterations=600, seed=1), x0=x0)
    assert res.final_loss < 1e-12
    assert res.l2 < 1e-4


def test_dgl_linear_noisy_error_equals_delta_norm():
    spec, params, x0 = linear_setup()
    g0 = gradients(spec, params, x0).g_theta
    rng = np.random.Generator(np.random.PCG64(3))
    delta = rng.normal(0, 0.1, size=spec.d_theta)
    res = run_attack(spec, params, g0 + delta, None,
                     AttackConfig(iterations=800, seed=2), x0=x0)
    assert abs(res.l2 - np.linalg.norm(delta)) < 1e-3


def test_dgl_one_layer_clean():
    spec = one_layer_model(2, "sigmoid", 0.3)
    params = initialize_parameters(spec, InitScheme("uniform", 4))
    x0 = np.array([0.8, 0.2])
    g0 = gradients(spec, params, x0).g_theta
    res = run_attack(spec, params, g0, None, AttackConfig(iterations=2000, seed=0), x0=x0)
    assert res.final_loss < 1e-8
    assert res.l2 < 1e-3


def test_original_sample_is_global_minimizer():
    spec = one_layer_model(3, "sigmoid", 0.2)
    params = initialize_parameters(spec, InitScheme("uniform", 7))
    x0 = np.array([0.1, 0.6, 0.9])
    g0 = gradients(spec, params, x0).g_theta
    for kind in ("dgl", "gs"):
        obj, _ = _objective_grad(spec, params, x0, None, g0, kind)
        assert obj <= 1e-12


def test_gs_objective_scale_invariance():
    spec = one_layer_model(4, "sigmoid", 0.0)
    params = initialize_parameters(spec, InitScheme("uniform", 5))
    rng = np.random.Generator(np.random.PCG64(11))
    g_target = gradients(spec, params, rng.uniform(0, 1, 4)).g_theta
    for _ in range(20):
        x = rng.uniform(0, 1, 4)
        o1, _ = _objective_grad(spec, params, x, None, g_target, "gs")
        o2, _ = _objective_grad(spec, params, x, None, 2.0 * g_target, "gs")
        assert abs(o1 - o2) <= 1e-12


def test_gs_box_projection_default():
    assert AttackConfig(kind="gs").project is True
    assert AttackConfig(kind="dgl").project is False
    assert AttackConfig(kind="dgl", box_projection=True).project is True
    spec, params, x0 = linear_setup(4)
    g0 = gradients(spec, params, x0).g_theta
    res = run_attack(spec, params, g0, None, AttackConfig(kind="gs", iterations=50, seed=0), x0=x0)
    assert res.x_star.min() >= 0.0 and res.x_star.max() <= 1.0


def test_gs_rejects_zero_target():
    spec, params, x0 = linear_setup(3)
    with pytest.raises(ValueError, match="zero target"):
        run_attack(spec, params, np.zeros(3), None, AttackConfig(kind="gs", iterations=5))


def test_attack_determinism_and_trace():
    spec, params, x0 = linear_setup(4)
    g0 = gradients(spec, params, x0).g_theta
    cfg = AttackConfig(iterations=100, seed=6)
    r1 = run_attack(spec, params, g0, None, cfg, x0=x0)
    r2 = run_attack(spec, params, g0, None, cfg, x0=x0)
    assert np.array_equal(r1.x_star, r2.x_star)
    assert np.array_equal(r1.loss_trace, r2.loss_trace)
    assert r1.loss_trace.size == 100 and np.all(np.isfinite(r1.loss_trace))
    assert r1.final_loss == r1.loss_trace.min()


def test_attack_without_x0_reports_no_recovery_error():
    # without the true sample there is nothing to measure recovery against
    spec, params, x0 = linear_setup(4)
    g0 = gradients(spec, params, x0).g_theta
    cfg = AttackConfig(iterations=20, seed=6)
    blind = run_attack(spec, params, g0, None, cfg)
    assert np.isnan(blind.l2) and np.isnan(blind.rmse)
    seen = run_attack(spec, params, g0, None, cfg, x0=x0)
    assert np.isfinite(seen.l2) and np.array_equal(blind.x_star, seen.x_star)


def test_attack_config_validation():
    with pytest.raises(ValueError):
        AttackConfig(kind="tag")
    with pytest.raises(ValueError):
        AttackConfig(iterations=0)


def test_gaussian_perturbation_basics():
    g = np.arange(5, dtype=np.float64)
    out, delta = gaussian_perturbation(g, 0.0, seed=1)
    assert np.array_equal(out, g) and not delta.any()
    out1, d1 = gaussian_perturbation(g, 1e-3, seed=2)
    out2, d2 = gaussian_perturbation(g, 1e-3, seed=2)
    assert np.array_equal(d1, d2)
    np.testing.assert_allclose(out1, g + d1)
    with pytest.raises(ValueError):
        gaussian_perturbation(g, -1.0)


def test_gaussian_perturbation_chi_square_band():
    d = 10 ** 4
    _, delta = gaussian_perturbation(np.zeros(d), 1e-3, seed=3)
    assert 0.9 * d * 1e-3 <= np.linalg.norm(delta) ** 2 <= 1.1 * d * 1e-3


def test_prune_definitional_cases():
    g = np.array([3.0, -1.0, 0.5])
    pruned, delta = prune_gradient(g, 2 / 3)
    np.testing.assert_array_equal(pruned, [3.0, 0.0, 0.0])
    np.testing.assert_array_equal(delta, [0.0, 1.0, -0.5])
    pruned, delta = prune_gradient(g, 0.0)
    assert np.array_equal(pruned, g) and not delta.any()
    pruned, delta = prune_gradient(g, 1.0)
    assert not pruned.any()
    np.testing.assert_array_equal(delta, -g)


def test_prune_tie_break_low_index_first():
    g = np.array([1.0, -1.0, 1.0, 2.0])
    pruned, _ = prune_gradient(g, 0.5)
    np.testing.assert_array_equal(pruned, [0.0, 0.0, 1.0, 2.0])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-100, 100), min_size=1, max_size=40),
       st.floats(0.0, 1.0))
def test_prune_survivor_property(values, ratio):
    g = np.array(values)
    pruned, delta = prune_gradient(g, ratio)
    k = int(np.floor(ratio * g.size))
    assert np.sum(pruned != 0.0) >= np.sum(g != 0.0) - k
    assert np.sum(np.abs(pruned) > 0) <= g.size - k
    survivors = pruned != 0.0
    # survivors are bitwise unchanged
    assert np.array_equal(pruned[survivors], g[survivors])
    np.testing.assert_array_equal(pruned, g + delta)


def test_singular_direction_perturbation():
    # frozen J = [[4,0],[1,2]]: distinct sigmas, responses ordered as 1/sigma
    spec = one_layer_model(2, "identity", 0.0)
    params = np.array([2.0, 1.0])
    op = MixedJacobianOperator(spec, params, np.array([1.0, 0.0]), None)
    d0, s0 = singular_direction_perturbation(op, 0, scale=1.0)
    d1, s1 = singular_direction_perturbation(op, 1, scale=2.0)
    assert s0 > s1 > 0
    assert abs(np.linalg.norm(d0) - 1.0) < 1e-12
    assert abs(np.linalg.norm(d1) - 2.0) < 1e-12
    # J d0 has norm sigma_0 (right singular vector definition)
    assert abs(np.linalg.norm(op.jvp(d0)) - s0) < 1e-10
    with pytest.raises(IndexError):
        singular_direction_perturbation(op, 2)
