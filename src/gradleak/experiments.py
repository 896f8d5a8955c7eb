"""Desk-scale experiment suite behind the CLI.

Each runner is a pure function of (config, seed).  `_start` checks the output path
and fits model and data to each other; `_output_path` makes the directory with a run's
first file.  `_sample_operators` yields each sample's operator, the one record of its
(theta, x, y); the four attack runners (audit, eigen-defense, fairness, init-compare)
draw each delta and attack g_0 + delta from it on one path, `_measure`, under seeds of
their own.  `_write` writes each order-stable CSV under the config hash and seed lines;
runners return their rows and may dump PGMs; timings go to stderr, so reruns are byte-identical.
"""

from __future__ import annotations

import dataclasses
import inspect
import math
import os
import sys
import time

import numpy as np

from . import models as zoo
from .attacks import gaussian_perturbation, prune_gradient, run_attack, singular_direction_perturbation
from .config import ConfigError, ExperimentConfig, PerturbationConfig, job_seed, typed
from .data import Dataset, IdxFormatError, Sample, load_idx, synthetic_samples, write_pgm, write_report_csv
from .influence import (
    MixedJacobianOperator,
    SingularSpectrumError,
    SolverConfig,
    dense_spectrum,
    expected_gaussian_risk,
    i2f_exact,
    i2f_lower_bound,
    lambda_max_power_iteration,
    theorem_bound,
)
from .models import InitScheme, ShapeError, initialize_parameters


# each model kind's zoo constructor, whose signature names its options and
# their types; an absent option takes the constructor's default, or the data
# section's size and classes
MODELS = {"linear": zoo.linear_dot_model, "one_layer": zoo.one_layer_model,
          "mlp": zoo.mlp_model, "lenet": zoo.lenet_variant}


def build_model_from_config(cfg: ExperimentConfig):
    """The zoo model the model section names, its options checked by the
    config reader's type rule against the constructor's annotations; a model
    that does not compose is a ConfigError."""
    if cfg.model.kind not in MODELS:
        raise ConfigError(f"unknown model kind {cfg.model.kind!r}")
    build = MODELS[cfg.model.kind]
    types = {name: p.annotation for name, p in inspect.signature(build).parameters.items()}
    unknown = sorted(set(cfg.model.options) - set(types))
    if unknown:
        raise ConfigError(f"unknown model options: {unknown}")
    shape = cfg.data.shape
    from_data = {"d": int(np.prod(shape)), "in_channels": shape[0], "image_size": shape[-1],
                 "num_classes": cfg.data.num_classes}
    kwargs = {key: value for key, value in from_data.items() if key in types}
    kwargs.update((key, typed(value, types[key], f"model.{key}"))
                  for key, value in cfg.model.options.items())
    try:
        return build(**kwargs)
    except ShapeError as e:
        raise ConfigError(f"model: {e}") from e


def load_dataset(cfg: ExperimentConfig) -> Dataset:
    d = cfg.data
    if d.kind == "idx":
        return load_idx(d.images_path, d.labels_path, limit=d.count, num_classes=d.num_classes)
    return synthetic_samples(d.synthetic_kind, d.count, shape=d.shape, seed=d.seed,
                             num_classes=d.num_classes)


def _start(cfg: ExperimentConfig):
    """(spec, dataset) of every runner, checked once to fit each other: an
    unreadable IDX file, fewer than cfg.samples samples, images of another
    size than the model input, or a label beyond a cross-entropy head is a
    ConfigError.  An output directory that cannot be made fails first."""
    parent = cfg.output_dir
    while parent and not os.path.lexists(parent):
        parent = os.path.dirname(parent)
    if not cfg.output_dir or (parent and not os.path.isdir(parent)):
        below = "" if parent == cfg.output_dir else f" is under {parent!r}, which"
        raise NotADirectoryError(f"output directory {cfg.output_dir!r}{below} is not a directory")
    spec = build_model_from_config(cfg)
    try:
        dataset = load_dataset(cfg)
    except IdxFormatError as e:
        raise ConfigError(f"data: {e}") from e
    if cfg.samples > len(dataset):
        raise ConfigError(f"samples is {cfg.samples} but the data holds {len(dataset)}")
    if math.prod(dataset.image_shape) != spec.d_x:
        raise ConfigError(f"data of shape {dataset.image_shape} do not fit model input {spec.input_shape}")
    top = max(s.label for s in dataset)
    if spec.loss == "cross_entropy" and top >= spec.num_classes:
        raise ConfigError(f"the data hold label {top} but the model has {spec.num_classes} classes")
    return spec, dataset


def _output_path(cfg: ExperimentConfig, name):
    """The path of file `name` in the output directory, made if it is not yet."""
    os.makedirs(cfg.output_dir, exist_ok=True)
    return os.path.join(cfg.output_dir, name)


def _write(cfg: ExperimentConfig, name, header, rows):
    """Write rows to the CSV `name` in the output directory, under the
    config hash and seed comment lines; return its path."""
    path = _output_path(cfg, name)
    write_report_csv(rows, path, header=header,
                     comments=[f"config_hash={cfg.config_hash()}", f"seed={cfg.seed}"])
    return path


def _attack_config(cfg, seed, **overrides):
    """The config's attack block for one job: its own seed, plus overrides."""
    return dataclasses.replace(cfg.attack, seed=seed, **overrides)


# A wrong pass rule errs by O(1).  The two float64 routes agree to ~1e-15 of
# the largest entry, or ~1e-16 / (1 - p_max) once a softmax saturates.
KERNEL_CHECK_TOL = 1e-6


def _check_kernel(op, seed):
    """Compare one J @ delta of the graph-free kernel with the autodiff
    engine's graph-built product at op's own point, so that every run keeps
    an independent route through the layer rules of the model it audits."""
    delta = np.random.Generator(np.random.PCG64(seed)).normal(size=op.d_theta)
    ref = zoo.engine_oracle(op.spec, op.theta, op.x, op.y, "jvp", delta)
    err = np.abs(op.jvp(delta) - ref).max() / max(np.abs(ref).max(), 1e-300)
    if not err <= KERNEL_CHECK_TOL:
        raise RuntimeError(f"mixed-Jacobian kernel disagrees with the autodiff engine: "
                           f"relative error {err:.3e} > {KERNEL_CHECK_TOL:.0e}")


def _sample_operators(cfg, spec, theta, dataset):
    """(index, sample, operator at that sample) for cfg.samples samples; the
    first operator is checked against the engine under cfg.seed."""
    for si in range(cfg.samples):
        sample = dataset[si]  # a loss without labels ignores the label
        op = MixedJacobianOperator(spec, theta, sample.image.reshape(spec.input_shape), sample.label)
        if si == 0:
            _check_kernel(op, cfg.seed)
        yield si, sample, op


def _parameter_epochs(cfg, spec, dataset):
    """(epoch, theta) list: the initialization plus optional SGD snapshots."""
    theta = initialize_parameters(spec, cfg.init)
    out = [(0, theta)]
    if cfg.train.epochs > 0:
        fitted = [Sample(s.image.reshape(spec.input_shape), s.label) for s in dataset]
        snaps = zoo.train_model(spec, theta, fitted, cfg.train.epochs, cfg.train.lr)
        out += [(e + 1, p) for e, p in enumerate(snaps)]
    return out


def _perturbation(cfg, kind):
    """The config's first perturbation of `kind`, else that kind's defaults."""
    return next((p for p in cfg.perturbations if p.kind == kind), PerturbationConfig(kind))


def _realize_perturbation(pert, op, seed, spectrum=None):
    """Return (delta, description value) for one perturbation spec of op.g_theta;
    a singular direction is taken from `spectrum`, op's dense_spectrum if None."""
    if pert.kind == "gaussian":
        _, delta = gaussian_perturbation(op.g_theta, pert.variance, seed=seed)
        return delta, pert.variance
    if pert.kind == "prune":
        _, delta = prune_gradient(op.g_theta, pert.ratio)
        return delta, pert.ratio
    try:
        return singular_direction_perturbation(op, pert.index, pert.scale, spectrum=spectrum)
    except IndexError as e:
        raise ConfigError(str(e)) from e


def _measure(cfg, sample, op, jobs, spectrum=None):
    """(delta, description value, AttackResult) per job (pert, delta seed, attack
    seed, dump tag or None): every delta first, so that a bad one stops the run
    unattacked, then one attack of g_0 + delta each from op's theta and label,
    scored against op.x; `sample` is read only to dump x_star if tagged."""
    out, drawn = [], [_realize_perturbation(pert, op, seed, spectrum) for pert, seed, *_ in jobs]
    for (_, _, attack_seed, tag), (delta, value) in zip(jobs, drawn):
        res = run_attack(op.spec, op.theta, op.g_theta + delta, op.y,
                         _attack_config(cfg, attack_seed), x0=op.x)
        if tag and cfg.dump_images:
            _dump_pair(cfg, tag, sample, res.x_star)
        out.append((delta, value, res))
    return out


def run_audit(cfg: ExperimentConfig):
    """One row per (sample, perturbation, epoch): metric values vs. attack error.
    A sample's perturbations are one (d_theta, P) block and share one Lanczos,
    whose lambda_max the floor and the Richardson step both read, and at most
    one Gram J J^T, which the singular directions and the dense solve both read.
    A block solve that stops unconverged at max_iters is named on stderr."""
    if not cfg.perturbations:
        raise ConfigError("audit needs at least one perturbation")
    spec, dataset = _start(cfg)
    header = ["sample", "epoch", "pert_kind", "pert_param", "delta_norm", "epsilon",
              "i2f_exact", "i2f_lower_bound", "lambda_max", "attack_kind",
              "attack_l2", "attack_rmse", "attack_final_loss"]
    rows = []
    needs_spectrum = any(p.kind == "singular_direction" for p in cfg.perturbations)
    for epoch, theta in _parameter_epochs(cfg, spec, dataset):
        for si, sample, op in _sample_operators(cfg, spec, theta, dataset):
            spectrum = dense_spectrum(op) if needs_spectrum else None
            measured = _measure(cfg, sample, op, [
                (pert, job_seed(cfg.seed, epoch, si, pi), job_seed(cfg.seed, epoch, si, pi, 1),
                 f"audit_e{epoch}_s{si}_p{pi}") for pi, pert in enumerate(cfg.perturbations)], spectrum)
            D = np.stack([delta for delta, _, _ in measured], axis=1)
            lb = i2f_lower_bound(op, D, seed=job_seed(cfg.seed, epoch, si),
                                 epsilon=cfg.solver.epsilon)
            solve = i2f_exact(op, D, cfg.solver, spectrum=spectrum, lambda_max=lb.lambda_max)
            if not solve.converged:
                print(f"warning: audit epoch {epoch} sample {si}: {cfg.solver.mode} did not converge "
                      f"in max_iters={cfg.solver.max_iters}; largest residual "
                      f"{np.max(solve.residual):.3e}", file=sys.stderr)
            exact = solve.exact_value
            for pi, (pert, (delta, param_val, res)) in enumerate(zip(cfg.perturbations, measured)):
                rows.append([si, epoch, pert.kind, param_val, float(np.linalg.norm(delta)),
                             cfg.solver.epsilon, float(exact[pi]), float(lb.lower_bound[pi]),
                             lb.lambda_max, cfg.attack.kind, res.l2, res.rmse, res.final_loss])
    return rows, _write(cfg, "audit.csv", header, rows)


def run_eigen_defense(cfg: ExperimentConfig):
    """Equal-norm perturbations along singular directions spanning the spectrum."""
    spec, dataset = _start(cfg)
    pert = _perturbation(cfg, "singular_direction")  # each rung replaces its index
    header = ["sample", "direction_rank", "sigma", "lambda", "inv_sigma", "inv_lambda",
              "delta_norm", "attack_l2", "attack_mse"]
    rows = []
    theta = initialize_parameters(spec, cfg.init)
    for si, sample, op in _sample_operators(cfg, spec, theta, dataset):
        rep = dense_spectrum(op)
        if rep.rank == 0:
            raise SingularSpectrumError(f"J has rank 0 at sample {si}: "
                                        "no singular direction to perturb along")
        s = rep.singular_values
        rungs = sorted(set(int(i) for i in np.round(np.linspace(0, rep.rank - 1, cfg.eigen_directions))))
        measured = _measure(cfg, sample, op, [
            (dataclasses.replace(pert, index=di), None, job_seed(cfg.seed, si, di),
             f"eigen_s{si}_d{di}") for di in rungs], rep)
        rows += [[si, di, float(s[di]), float(s[di] ** 2), float(1.0 / s[di]), float(1.0 / s[di] ** 2),
                  float(np.linalg.norm(delta)), res.l2, res.rmse ** 2]
                 for di, (delta, _, res) in zip(rungs, measured)]
    return rows, _write(cfg, "eigen_defense.csv", header, rows)


def run_fairness(cfg: ExperimentConfig):
    """Per-sample attack MSE under one fixed Gaussian noise level, plus
    per-class aggregates; surfaces the spread that a mean hides."""
    spec, dataset = _start(cfg)
    pert = _perturbation(cfg, "gaussian")
    theta = initialize_parameters(spec, cfg.init)
    sample_header = ["sample", "label", "variance", "delta_norm", "i2f_lower_bound",
                     "attack_l2", "attack_mse"]
    rows = []
    results = []
    for si, sample, op in _sample_operators(cfg, spec, theta, dataset):
        [(delta, _, res)] = _measure(cfg, sample, op,
                                     [(pert, job_seed(cfg.seed, si), job_seed(cfg.seed, si, 2), None)])
        lb = i2f_lower_bound(op, delta, seed=job_seed(cfg.seed, si, 1),
                             epsilon=cfg.solver.epsilon)
        rows.append([si, sample.label, pert.variance, float(np.linalg.norm(delta)),
                     lb.lower_bound, res.l2, res.rmse ** 2])
        results.append((si, sample, res))
    sample_path = _write(cfg, "fairness_samples.csv", sample_header, rows)

    by_class = {}
    for r in rows:
        by_class.setdefault(r[1], []).append(r[6])
    class_rows = [[label, len(mses), float(np.mean(mses)), float(np.var(mses))]
                  for label, mses in sorted(by_class.items())]
    class_path = _write(cfg, "fairness_classes.csv", ["label", "count", "mean_mse", "var_mse"],
                        class_rows)

    if cfg.dump_images:
        ordered = sorted(results, key=lambda t: t[2].rmse)
        for tag, (si, sample, res) in (("best", ordered[0]), ("worst", ordered[-1])):
            _dump_pair(cfg, f"fairness_{tag}_s{si}", sample, res.x_star)
    return rows, class_rows, sample_path, class_path


def run_init_compare(cfg: ExperimentConfig):
    """Attack the same samples under each initialization scheme."""
    spec, dataset = _start(cfg)
    pert = _perturbation(cfg, "gaussian")
    header = ["scheme", "sample", "repetition", "variance", "expected_sq_risk",
              "attack_l2", "attack_mse"]
    rows = []
    for scheme_idx, scheme_kind in enumerate(cfg.init_schemes):
        theta = initialize_parameters(spec, InitScheme(scheme_kind, cfg.init.seed))
        for si, sample, op in _sample_operators(cfg, spec, theta, dataset):
            spectrum = dense_spectrum(op, vectors=False)
            try:
                exp_risk = expected_gaussian_risk(spectrum, pert.variance, cfg.solver.epsilon)
            except SingularSpectrumError as e:
                raise SingularSpectrumError(
                    f"J has rank {spectrum.rank} < d_x = {op.d_x} under init scheme "
                    f"{scheme_kind!r} at sample {si}: the expected risk needs a "
                    "full-rank J") from e
            measured = _measure(cfg, sample, op, [
                (pert, job_seed(cfg.seed, scheme_idx, si, rep),
                 job_seed(cfg.seed, scheme_idx, si, rep, 1), None) for rep in range(cfg.repetitions)])
            rows += [[scheme_kind, si, rep, pert.variance, exp_risk, res.l2, res.rmse ** 2]
                     for rep, (_, _, res) in enumerate(measured)]
    return rows, _write(cfg, "init_compare.csv", header, rows)


EFFICIENCY_SEEDS = 5  # Lanczos runs, and attacks per learning rate
EFFICIENCY_LEARNING_RATES = (1.0, 0.5, 0.1, 0.05, 0.01)


def run_efficiency(cfg: ExperimentConfig):
    """Lanczos Ritz-value traces of lambda_max vs. attack-loss traces.

    Iteration traces go into the CSVs (deterministic); wall-clock numbers,
    which change on every rerun, go to stderr as one line.
    """
    spec, dataset = _start(cfg)
    theta = initialize_parameters(spec, cfg.init)
    _, _, op = next(_sample_operators(cfg, spec, theta, dataset))
    power_rows = []
    metric_time = 0.0
    for s in range(EFFICIENCY_SEEDS):
        t0 = time.perf_counter()
        _, _, _, trace = lambda_max_power_iteration(op, seed=job_seed(cfg.seed, s))
        metric_time = max(metric_time, time.perf_counter() - t0)
        power_rows += [[s, i, v] for i, v in enumerate(trace)]
    _write(cfg, "efficiency_power_iteration.csv", ["seed", "iteration", "lambda_estimate"],
           power_rows)

    attack_rows = []
    attack_time = float("inf")
    for lr in EFFICIENCY_LEARNING_RATES:
        for s in range(EFFICIENCY_SEEDS):
            atk_cfg = _attack_config(cfg, job_seed(cfg.seed, s, int(lr * 1000)), learning_rate=lr)
            t0 = time.perf_counter()
            res = run_attack(spec, op.theta, op.g_theta, op.y, atk_cfg, x0=op.x)
            attack_time = min(attack_time, time.perf_counter() - t0)
            attack_rows += [[lr, s, i, v] for i, v in enumerate(res.loss_trace)]
    _write(cfg, "efficiency_attack.csv", ["learning_rate", "seed", "iteration", "inversion_loss"],
           attack_rows)

    ratio = attack_time / metric_time if metric_time > 0 else float("inf")
    print(f"efficiency: power_iteration_max_seconds={metric_time:.6f} "
          f"attack_min_seconds={attack_time:.6f} time_ratio_attack_over_metric={ratio:.6f}",
          file=sys.stderr)
    return power_rows, attack_rows, ratio


def run_spectrum(cfg: ExperimentConfig):
    spec, dataset = _start(cfg)
    theta = initialize_parameters(spec, cfg.init)
    rows = []
    for si, _, op in _sample_operators(cfg, spec, theta, dataset):
        rep = dense_spectrum(op, vectors=False)
        rows += [[si, i, float(lam), float(sig)]
                 for i, (lam, sig) in enumerate(zip(rep.eigenvalues, rep.singular_values))]
    return rows, _write(cfg, "spectrum.csv", ["sample", "rank", "eigenvalue", "singular_value"],
                        rows)


def _dump_pair(cfg, tag, sample, x_star):
    """PGM dumps of a sample's image and its recovery x_star: an image's
    channels stacked from top to bottom, and a vector, or an array of four
    or more axes, as one row."""
    x0 = np.asarray(sample.image, dtype=np.float64)
    shape = (-1, x0.shape[-1]) if x0.ndim in (2, 3) else (1, -1)
    for name, image in (("original", x0), ("recovered", x_star)):
        write_pgm(np.clip(np.reshape(image, shape), 0.0, 1.0),
                  _output_path(cfg, f"{tag}_{name}.pgm"))


# ---------------------------------------------------------------------------
# validation suite


def run_validate(seed=0, perturb_vjp=None):
    """Cross-check every dual-route pair on small models.

    Returns (all_passed, report_lines).  `perturb_vjp` lets tests inject
    a fault into the transpose product to prove the adjoint check bites.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    checks = []

    def record(name, err, tol):
        checks.append((name, float(err), float(tol), err <= tol))

    lin = zoo.linear_dot_model(6)
    one = zoo.one_layer_model(6, "sigmoid", 0.3)
    mlp = zoo.mlp_model(6, 8, 3)
    cases = []
    for name, spec in (("linear", lin), ("one_layer", one), ("mlp", mlp)):
        theta = initialize_parameters(spec, InitScheme("xavier", seed + 7))
        x = rng.uniform(0, 1, spec.input_shape)
        y = 1 if spec.loss == "cross_entropy" else None
        cases.append((name, MixedJacobianOperator(spec, theta, x, y)))

    # gradients vs. central finite differences
    for name, op in cases:
        g = zoo.gradients(op.spec, op.theta, op.x, op.y)
        fd = zoo.finite_difference_oracle(op.spec, op.theta, op.x, op.y, "grad_theta")
        scale = max(np.abs(fd).max(), 1e-12)
        record(f"finite_difference_grad_theta[{name}]", np.abs(g.g_theta - fd).max() / scale, 1e-6)

    # mixed JVP vs. finite differences of gradients
    for name, op in cases:
        delta = rng.normal(size=op.d_theta)
        jv = zoo.mixed_jvp(op.spec, op.theta, op.x, op.y, delta)
        fd = zoo.finite_difference_oracle(op.spec, op.theta, op.x, op.y, "jvp", delta=delta)
        scale = max(np.abs(fd).max(), 1e-12)
        record(f"finite_difference_mixed_jvp[{name}]", np.abs(jv - fd).max() / scale, 1e-5)

    # adjoint identity <J d, b> == <d, J^T b>
    for name, op in cases:
        worst = 0.0
        for _ in range(20):
            d = rng.normal(size=op.d_theta)
            b = rng.normal(size=op.d_x)
            jd_b = float(op.jvp(d) @ b)
            vj = op.vjp(b)
            if perturb_vjp is not None:
                vj = perturb_vjp(vj)
            worst = max(worst, abs(jd_b - float(d @ vj)) / (1.0 + abs(jd_b)))
        record(f"adjoint_identity[{name}]", worst, 1e-9)

    # dense vs. matrix-free solvers at eps = 1
    name, op = cases[2]
    delta = rng.normal(size=op.d_theta)
    ref = i2f_exact(op, delta, SolverConfig(mode="dense", epsilon=1.0)).exact_value
    for mode in ("gradient_descent", "conjugate_gradient", "neumann"):
        val = i2f_exact(op, delta, SolverConfig(mode=mode, epsilon=1.0, max_iters=2000)).exact_value
        record(f"solver_agreement[{mode}]", abs(val - ref) / ref, 1e-4)

    # Gaussian expectation identity, Monte Carlo: 300 draws, one lockstep CG
    mlp_op, spectrum = op, dense_spectrum(op)
    closed = expected_gaussian_risk(spectrum, 1.0)
    cg = SolverConfig(mode="conjugate_gradient", epsilon=0.0, max_iters=2000)
    draws = rng.normal(size=(300, op.d_theta))  # row i is the i-th draw of a loop
    vals = i2f_exact(op, draws.T, cg).exact_value ** 2
    # ||b||^2 = sum z_i^2 / lambda_i, z_i ~ N(0, 1): the exact standard error
    se = np.sqrt(2 * np.sum(spectrum.eigenvalues ** -2.0) / len(vals))
    record("gaussian_expectation_monte_carlo", abs(vals.mean() - closed), 3 * se)

    # the Lipschitz bound is exact on the linear model
    name, op = cases[0]
    d = rng.normal(size=op.d_theta)
    bound = theorem_bound(1.0, 1.0, 0.0, op.g_theta, d, np.linalg.norm(op.jvp(d)))
    record("certified_bound_linear_exact", abs(bound - np.linalg.norm(d)), 1e-9)

    # graph-free kernel vs. the autodiff engine's graph-built products
    for name, op in cases:
        for what, product, size in (("jvp", op.jvp, op.d_theta), ("vjp", op.vjp, op.d_x)):
            v = rng.normal(size=size)
            ref = zoo.engine_oracle(op.spec, op.theta, op.x, op.y, what, v)
            scale = max(np.abs(ref).max(), 1e-12)
            record(f"engine_oracle_mixed_{what}[{name}]", np.abs(product(v) - ref).max() / scale, 1e-10)

    # Gaussian expectation identity, exact: sum_j ||b(e_j)||^2 is the trace
    # of J^T (J J^T)^-2 J, sum 1/lambda_i; one CG block, no random draws
    vals = i2f_exact(mlp_op, np.eye(mlp_op.d_theta), cg).exact_value ** 2
    record("gaussian_expectation_exact", abs(vals.sum() - closed) / closed, 1e-9)

    lines = [
        f"{'PASS' if ok else 'FAIL'} {name}: error={err:.3e} tolerance={tol:.3e}"
        for name, err, tol, ok in checks
    ]
    return all(ok for *_, ok in checks), lines
