"""End-to-end acceptance suite: ten criteria, one test (and one printed
pass/fail line) each.  Run with `pytest -s tests/test_acceptance.py` to
see the measured numbers; the full file takes roughly 15 minutes.

Criteria 1-5 are exact small-scale oracles; 6-9 reproduce qualitative
trends on the desk-scale conv net; 10 checks artifact determinism.
"""

import json
import math
import os

import numpy as np
import pytest

from gradleak import (
    AttackConfig,
    InitScheme,
    MixedJacobianOperator,
    SolverConfig,
    dense_spectrum,
    estimate_lipschitz,
    expected_gaussian_risk,
    gaussian_perturbation,
    gradients,
    i2f_exact,
    i2f_lower_bound,
    initialize_parameters,
    lambda_max_power_iteration,
    lenet_variant,
    linear_dot_model,
    mixed_jvp,
    mlp_model,
    one_layer_model,
    run_attack,
    synthetic_samples,
    theorem_bound,
)
from gradleak import experiments
from gradleak.config import load_config
from gradleak.influence import _dense_from_operator
from gradleak.models import finite_difference_oracle

ATTACK_ITERS = 600  # measured ~1.5 ms/iteration on the conv net


def report(num, name, ok, detail):
    print(f"\n{'PASS' if ok else 'FAIL'} criterion {num} ({name}): {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def small_zoo(seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    out = []
    for spec, y in (
        (linear_dot_model(6), None),
        (one_layer_model(6, "sigmoid", 0.3), None),
        (mlp_model(6, 8, 3), 1),
        (lenet_variant(image_size=8, channels=2, num_classes=3), 1),
    ):
        params = initialize_parameters(spec, InitScheme("xavier", seed))
        x = rng.uniform(0, 1, spec.input_shape)
        out.append((spec, params, x, y))
    return out


def test_criterion_01_derivative_oracles():
    worst_g = worst_j = worst_a = 0.0
    for seed in range(20):
        rng = np.random.Generator(np.random.PCG64(1000 + seed))
        for spec, params, x, y in small_zoo(seed):
            g = gradients(spec, params, x, y)
            fd = finite_difference_oracle(spec, params, x, y, "grad_theta")
            worst_g = max(worst_g, np.abs(g.g_theta - fd).max() / max(np.abs(fd).max(), 1e-12))
            delta = rng.normal(size=spec.d_theta)
            jv = mixed_jvp(spec, params, x, y, delta)
            fj = finite_difference_oracle(spec, params, x, y, "jvp", delta=delta)
            worst_j = max(worst_j, np.abs(jv - fj).max() / max(np.abs(fj).max(), 1e-12))
            op = MixedJacobianOperator(spec, params, x, y)
            for _ in range(5):
                d = rng.normal(size=spec.d_theta)
                b = rng.normal(size=spec.d_x)
                lhs = float(op.jvp(d) @ b)
                worst_a = max(worst_a, abs(lhs - float(d @ op.vjp(b))) / (1.0 + abs(lhs)))
    ok = worst_g <= 1e-6 and worst_j <= 1e-5 and worst_a <= 1e-9
    report(1, "derivative oracles", ok,
           f"grad {worst_g:.2e} (tol 1e-6), jvp {worst_j:.2e} (tol 1e-5), "
           f"adjoint {worst_a:.2e} (tol 1e-9); 4 zoo models x 20 seeds")


def dense_solvable_operators():
    ops = []
    spec = one_layer_model(50, "sigmoid", 0.3)
    params = initialize_parameters(spec, InitScheme("uniform", 3))
    x = np.random.Generator(np.random.PCG64(4)).uniform(0, 1, 50)
    ops.append(("one_layer_50", MixedJacobianOperator(spec, params, x, None)))
    spec = mlp_model(16, 12, 4)
    params = initialize_parameters(spec, InitScheme("xavier", 5))
    x = np.random.Generator(np.random.PCG64(6)).uniform(0, 1, 16)
    ops.append(("mlp_16", MixedJacobianOperator(spec, params, x, 2)))
    spec = lenet_variant(image_size=8, channels=2, num_classes=3)
    params = initialize_parameters(spec, InitScheme("uniform", 7))
    x = np.random.Generator(np.random.PCG64(8)).uniform(0, 1, spec.input_shape)
    ops.append(("conv_8x8", MixedJacobianOperator(spec, params, x, 1)))
    return ops


def test_criterion_02_dense_equivalence(monkeypatch):
    worst_solver = worst_lam = 0.0
    max_iters_seen = 0
    for name, op in dense_solvable_operators():
        assert op.d_x * op.d_theta <= 10 ** 5
        rng = np.random.Generator(np.random.PCG64(11))
        delta = rng.normal(size=op.d_theta)
        ref = i2f_exact(op, delta, SolverConfig(mode="dense", epsilon=1.0)).exact_value
        for mode in ("conjugate_gradient", "gradient_descent", "neumann"):
            val = i2f_exact(op, delta, SolverConfig(mode=mode, epsilon=1.0,
                                                    max_iters=5000)).exact_value
            worst_solver = max(worst_solver, abs(val - ref) / ref)
        lam_dense = dense_spectrum(op).eigenvalues[0]
        with monkeypatch.context() as m:
            m.setattr("gradleak.influence.LANCZOS_TOL", 1e-12)
            lam, its, conv, _ = lambda_max_power_iteration(op, iters=200)
        assert conv
        max_iters_seen = max(max_iters_seen, its)
        worst_lam = max(worst_lam, abs(lam - lam_dense) / lam_dense)
    ok = worst_solver <= 1e-4 and worst_lam <= 1e-6 and max_iters_seen <= 200
    report(2, "dense equivalence", ok,
           f"solver agreement {worst_solver:.2e} (tol 1e-4), lambda_max "
           f"{worst_lam:.2e} (tol 1e-6) in <= {max_iters_seen} iterations")


def test_criterion_03_linear_model_exactness():
    spec = linear_dot_model(16)
    params = initialize_parameters(spec, InitScheme("normal", 1))
    rng = np.random.Generator(np.random.PCG64(2))
    x0 = rng.uniform(0, 1, 16)
    g0 = gradients(spec, params, x0).g_theta
    op = MixedJacobianOperator(spec, params, x0, None)
    worst = 0.0
    for k in range(20):
        delta = rng.normal(0, 0.1, size=16)
        res = run_attack(spec, params, g0 + delta, None,
                         AttackConfig(iterations=800, seed=50 + k), x0=x0)
        exact = i2f_exact(op, delta, SolverConfig(mode="dense", epsilon=0.0)).exact_value
        worst = max(worst, abs(res.l2 - np.linalg.norm(delta)), abs(res.l2 - exact))
    ok = worst <= 1e-3
    report(3, "linear-model exactness", ok,
           f"max |attack L2 - ||delta|| or i2f| = {worst:.2e} over 20 deltas (tol 1e-3)")


def test_criterion_04_gaussian_expectation_identity():
    details = []
    ok = True
    for name, op in dense_solvable_operators()[:2]:
        closed = expected_gaussian_risk(dense_spectrum(op), 1.0)
        J = _dense_from_operator(op)
        solve = np.linalg.solve(J @ J.T, np.eye(op.d_x)) @ J  # epsilon=0, precomputed
        rng = np.random.Generator(np.random.PCG64(13))
        vals = np.array([float(np.sum((solve @ rng.normal(size=op.d_theta)) ** 2))
                         for _ in range(10 ** 4)])
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        dev = abs(vals.mean() - closed)
        ok = ok and dev <= 3 * se
        details.append(f"{name}: |MC - closed| = {dev:.3e} vs 3 SE = {3 * se:.3e}")
    report(4, "Gaussian expectation identity", ok, "; ".join(details))


def test_criterion_05_lower_bound_ordering():
    violations = 0
    margin = np.inf
    for name, op in dense_solvable_operators()[:2]:
        rng = np.random.Generator(np.random.PCG64(17))
        for _ in range(100):
            delta = rng.normal(size=op.d_theta)
            exact = i2f_exact(op, delta, SolverConfig(mode="dense", epsilon=0.0)).exact_value
            lb = i2f_lower_bound(op, delta).lower_bound
            margin = min(margin, exact - lb)
            violations += lb > exact + 1e-8
    # plus the identity-Jacobian model where bound and value coincide
    spec = linear_dot_model(8)
    params = initialize_parameters(spec, InitScheme("normal", 0))
    op = MixedJacobianOperator(spec, params, np.full(8, 0.5), None)
    rng = np.random.Generator(np.random.PCG64(19))
    for _ in range(100):
        delta = rng.normal(size=8)
        lb = i2f_lower_bound(op, delta).lower_bound
        violations += lb > np.linalg.norm(delta) + 1e-8
    ok = violations == 0
    report(5, "lower-bound ordering", ok,
           f"{violations} violations over 300 deltas; min (exact - bound) = {margin:.3e}")


@pytest.fixture(scope="module")
def conv_net():
    spec = lenet_variant()
    data = synthetic_samples("gaussian_blobs", 100, (1, 28, 28), seed=0)
    return spec, data


def test_criterion_06_certified_bound(conv_net):
    # linear model, analytic constants: holds on every run up to attack
    # convergence noise (equality case; 1e-9 slack on a ~1e-1 quantity)
    spec = linear_dot_model(16)
    params = initialize_parameters(spec, InitScheme("normal", 3))
    rng = np.random.Generator(np.random.PCG64(21))
    x0 = rng.uniform(0, 1, 16)
    g0 = gradients(spec, params, x0).g_theta
    lin_fail = 0
    for k in range(20):
        _, delta = gaussian_perturbation(g0, 1e-3, seed=400 + k)
        bound = theorem_bound(1.0, 1.0, 0.0, g0, delta, np.linalg.norm(delta))
        res = run_attack(spec, params, g0 + delta, None,
                         AttackConfig(iterations=2000, seed=k), x0=x0)
        lin_fail += res.l2 < bound - 1e-9
    # nonlinear models, estimated constants: >= 95% of 20 runs
    held = 0
    spec1 = one_layer_model(16, "sigmoid", 0.3)
    p1 = initialize_parameters(spec1, InitScheme("uniform", 2))
    ds1 = synthetic_samples("separable_2class", 10, (16,), seed=5)
    est1 = estimate_lipschitz(spec1, p1, list(ds1), n_pairs=10, radius=1e-2, seed=0)
    for si in range(10):
        x0 = ds1[si].image
        op = MixedJacobianOperator(spec1, p1, x0, None)
        jn = np.linalg.svd(_dense_from_operator(op), compute_uv=False)[0]
        _, delta = gaussian_perturbation(op.g_theta, 1e-3, seed=500 + si)
        bound = theorem_bound(jn, est1.mu_l, est1.mu_j, op.g_theta, delta,
                              np.linalg.norm(op.jvp(delta)))
        res = run_attack(spec1, p1, op.g_theta + delta, None,
                         AttackConfig(iterations=1500, seed=si), x0=x0)
        held += res.l2 >= bound
    lenet, data = conv_net
    lp = initialize_parameters(lenet, InitScheme("uniform", 0))
    est2 = estimate_lipschitz(lenet, lp, list(data)[:5], n_pairs=5, radius=1e-2, seed=0)
    for si in range(10):
        x0, y = data[si].image, data[si].label
        op = MixedJacobianOperator(lenet, lp, x0, y)
        jn = math.sqrt(lambda_max_power_iteration(op, seed=si)[0])
        _, delta = gaussian_perturbation(op.g_theta, 1e-3, seed=600 + si)
        bound = theorem_bound(jn, est2.mu_l, est2.mu_j, op.g_theta, delta,
                              np.linalg.norm(op.jvp(delta)))
        res = run_attack(lenet, lp, op.g_theta + delta, y,
                         AttackConfig(iterations=ATTACK_ITERS, seed=si), x0=x0)
        held += res.l2 >= bound
    ok = lin_fail == 0 and held >= 19  # 95% of 20 nonlinear runs
    report(6, "certified bound", ok,
           f"linear failures {lin_fail}/20; nonlinear held {held}/20 (need >= 19); "
           f"estimated mu_L/mu_J: one-layer {est1.mu_l:.3f}/{est1.mu_j:.3f}, "
           f"conv {est2.mu_l:.3f}/{est2.mu_j:.3f}")


def spearman(a, b):
    ra = np.argsort(np.argsort(a))
    rb = np.argsort(np.argsort(b))
    ra = ra - ra.mean()
    rb = rb - rb.mean()
    return float(ra @ rb / np.sqrt((ra @ ra) * (rb @ rb)))


def test_criterion_07_eigen_direction_trend(conv_net, tmp_path):
    doc = {
        "model": {"kind": "lenet"},
        "data": {"kind": "synthetic", "shape": [1, 28, 28], "count": 10, "seed": 0},
        "samples": 10,
        "perturbations": [{"kind": "singular_direction", "scale": 1.0}],
        "attack": {"kind": "dgl", "iterations": ATTACK_ITERS},
        "eigen_directions": 4,
        "output_dir": str(tmp_path / "eigen"),
        "seed": 77,
    }
    p = tmp_path / "eigen.json"
    p.write_text(json.dumps(doc))
    rows, _ = experiments.run_eigen_defense(load_config(str(p)))
    per_sample = {}
    for r in rows:
        per_sample.setdefault(r[0], []).append((r[2], r[8]))  # (sigma, mse)
    rhos = []
    for si, pairs in per_sample.items():
        sig = np.array([p[0] for p in pairs])
        mse = np.array([p[1] for p in pairs])
        rhos.append(spearman(mse, sig))
    ok = len(rhos) == 10 and all(r == -1.0 for r in rhos)
    report(7, "eigen-direction trend", ok,
           f"Spearman rho(MSE, sigma) per sample: {sorted(set(rhos))} "
           f"over {len(rhos)} samples x 4 directions (need all -1)")


def test_criterion_08_initialization_trend(tmp_path):
    doc = {
        "model": {"kind": "lenet"},
        "data": {"kind": "synthetic", "shape": [1, 28, 28], "count": 10, "seed": 0},
        "samples": 10,
        "repetitions": 3,
        "init_schemes": ["uniform", "normal", "kaiming", "xavier"],
        "perturbations": [{"kind": "gaussian", "variance": 1e-3}],
        "attack": {"kind": "dgl", "iterations": ATTACK_ITERS},
        "output_dir": str(tmp_path / "init"),
        "seed": 78,
    }
    p = tmp_path / "init.json"
    p.write_text(json.dumps(doc))
    rows, _ = experiments.run_init_compare(load_config(str(p)))
    means = {}
    for r in rows:
        means.setdefault(r[0], []).append(r[6])
    means = {k: float(np.mean(v)) for k, v in means.items()}
    ordering = sorted(means, key=means.get)
    ok = means["uniform"] < means["kaiming"] and len(rows) == 4 * 10 * 3
    report(8, "initialization trend", ok,
           f"mean MSE by scheme: {({k: round(v, 3) for k, v in means.items()})}; "
           f"full ordering {ordering}; asserted uniform < kaiming")


def test_criterion_09_unfairness_spread(tmp_path):
    doc = {
        "model": {"kind": "lenet"},
        "data": {"kind": "synthetic", "shape": [1, 28, 28], "count": 100, "seed": 0},
        "samples": 100,
        "perturbations": [{"kind": "gaussian", "variance": 1e-3}],
        "attack": {"kind": "dgl", "iterations": ATTACK_ITERS},
        "output_dir": str(tmp_path / "fair"),
        "seed": 79,
    }
    p = tmp_path / "fair.json"
    p.write_text(json.dumps(doc))
    rows, class_rows, _, _ = experiments.run_fairness(load_config(str(p)))
    mses = np.array([r[6] for r in rows])
    class_means = [r[2] for r in class_rows]
    ratio = max(class_means) / min(class_means)
    p90_p10 = float(np.percentile(mses, 90) / np.percentile(mses, 10))
    ok = len(rows) == 100 and ratio > 1.0
    report(9, "unfairness spread", ok,
           f"class-mean MSE max/min ratio {ratio:.3f} (need > 1); "
           f"90th/10th percentile sample MSE ratio {p90_p10:.3f}")


def test_criterion_10_determinism(tmp_path):
    doc = {
        "model": {"kind": "lenet", "image_size": 8, "channels": 2, "num_classes": 3},
        "data": {"kind": "synthetic", "shape": [1, 8, 8], "count": 2, "seed": 3,
                 "num_classes": 3},
        "samples": 2,
        "perturbations": [{"kind": "gaussian", "variance": 1e-3},
                          {"kind": "prune", "ratio": 0.5}],
        "solver": {"mode": "conjugate_gradient", "epsilon": 1.0},
        "attack": {"kind": "dgl", "iterations": 100},
        "dump_images": True,
        "output_dir": str(tmp_path / "run"),
        "seed": 80,
    }
    p = tmp_path / "det.json"
    p.write_text(json.dumps(doc))
    cfg = load_config(str(p))

    def snapshot():
        out = tmp_path / "run"
        return {f: open(out / f, "rb").read() for f in sorted(os.listdir(out))}

    experiments.run_audit(cfg)
    experiments.run_eigen_defense(cfg)
    first = snapshot()
    experiments.run_audit(cfg)
    experiments.run_eigen_defense(cfg)
    second = snapshot()
    kinds = {f.rsplit(".", 1)[-1] for f in first}
    ok = first == second and "csv" in kinds and "pgm" in kinds
    report(10, "determinism", ok,
           f"{len(first)} artifacts ({sorted(kinds)}) byte-identical across reruns")
