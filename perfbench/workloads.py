"""The four benchmark workloads, as lists of CLI calls built from a seed.

Every runner call gets a config generated here from the job index and
the workload seed; the program sees only those configs.  Job `j` of a
run draws its samples with `data.seed = j` and everything else (the
perturbation noise, the power-iteration start vector, the attack's
initial guess) from the top-level `seed = 1000 * workload_seed + j`.
A run cycles over the workload's pool of `POOL[workload]` jobs, so every
run does the same samples: the work one sample costs varies a lot (power
iteration needs from about 20 to 150 iterations on a LeNet sample), and
a run-to-run figure must not depend on which samples a seed happened to
draw.  Each call also carries what the outside-in check expects of it:
the CSV files it must write with their data-row counts, and the work it
stands for (attack iterations, dense Jacobians, audit rows).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

LENET_D_X = 28 * 28

WORKLOADS = ("audit-metric", "attack-lenet", "spectrum-dense", "small-models")
JOBS_PER_SEED = 1000  # job j of workload seed s has seed 1000 * s + j
# jobs per pass: about 10 s of work, so a run makes two passes or more
POOL = {"audit-metric": 12, "attack-lenet": 5, "spectrum-dense": 2, "small-models": 5}


@dataclass(frozen=True)
class Call:
    """One `gradleak` CLI invocation and what it must produce."""

    name: str                 # label; also the output subdirectory
    runner: str               # CLI subcommand
    config: dict | None       # generated config, None for `validate`
    csv_rows: dict = field(default_factory=dict)  # file name -> expected data rows
    d_x: int = 0              # input size, for the divergence counter
    audit_rows: int = 0
    attack_steps: int = 0
    jacobians: int = 0


def _lenet_data(seed, count):
    return {"kind": "synthetic", "synthetic_kind": "gaussian_blobs", "shape": [1, 28, 28],
            "count": count, "seed": seed, "num_classes": 10}


def _audit(name, seed, out, model, data, samples, perts, solver, iterations, d_x, epochs=0):
    cfg = {"model": model, "data": data, "samples": samples, "perturbations": perts,
           "solver": solver, "attack": {"kind": "dgl", "iterations": iterations},
           "output_dir": os.path.join(out, name), "seed": seed}
    if epochs:
        cfg["train"] = {"epochs": epochs, "lr": 0.1}
    rows = samples * len(perts) * (epochs + 1)
    return Call(name, "audit", cfg, {"audit.csv": rows}, d_x=d_x, audit_rows=rows,
                attack_steps=rows * iterations)


def _fairness(name, seed, data, out, kind, samples, iterations):
    cfg = {"model": {"kind": "lenet"}, "data": data, "samples": samples,
           "perturbations": [{"kind": "gaussian", "variance": 0.001}],
           "attack": {"kind": kind, "iterations": iterations},
           "output_dir": os.path.join(out, name), "seed": seed}
    # fairness_classes.csv has one row per distinct label; checks.py derives it
    csvs = {"fairness_samples.csv": samples, "fairness_classes.csv": None}
    return Call(name, "fairness", cfg, csvs, d_x=LENET_D_X,
                attack_steps=samples * iterations)


def build_calls(workload, seed, out, job=0, small=False):
    """Job number `job` of `workload`: calls that run one after another.

    `small` shrinks the sizes for the count-repeat test (spectrum-dense
    has no smaller form); the benchmark itself always runs full sizes.
    """
    if seed < 0 or not 0 <= job < JOBS_PER_SEED:
        raise ValueError(f"need seed >= 0 and 0 <= job < {JOBS_PER_SEED}")
    seed, data_seed = seed * JOBS_PER_SEED + job, job
    lenet = {"kind": "lenet"}
    if workload == "audit-metric":
        # the closed-form product the paper sells: models matvecs and
        # influence solvers do nearly all the work, the attack almost none
        n = 1 if small else 2
        perts = [{"kind": "gaussian", "variance": 0.001}, {"kind": "prune", "ratio": 0.9}]
        return [_audit("audit-lenet", seed, out, lenet, _lenet_data(data_seed, n), n, perts,
                       {"mode": "conjugate_gradient", "epsilon": 1.0}, 1, LENET_D_X)]
    if workload == "attack-lenet":
        # the attack step rebuilds a forward, gradient and gradient-of-gradient
        # graph every iteration; it bypasses MixedJacobianOperator
        n, iters = (1, 3) if small else (1, 300)
        data = _lenet_data(data_seed, n)
        return [_fairness("fairness-dgl", seed, data, out, "dgl", n, iters),
                _fairness("fairness-gs", seed, data, out, "gs", n, iters)]
    if workload == "spectrum-dense":
        # one graph reused for d_x VJPs, then eigvalsh(J J^T) and a full SVD
        n, k = 1, 4
        spectrum = {"model": lenet, "data": _lenet_data(data_seed, n), "samples": n,
                    "output_dir": os.path.join(out, "spectrum"), "seed": seed}
        eigen = {"model": lenet, "data": _lenet_data(data_seed, n), "samples": n,
                 "perturbations": [{"kind": "singular_direction", "scale": 1.0}],
                 "eigen_directions": k, "attack": {"kind": "dgl", "iterations": 1},
                 "output_dir": os.path.join(out, "eigen-defense"), "seed": seed}
        return [Call("spectrum", "spectrum", spectrum, {"spectrum.csv": n * LENET_D_X},
                     jacobians=n),
                Call("eigen-defense", "eigen-defense", eigen, {"eigen_defense.csv": n * k},
                     d_x=LENET_D_X, attack_steps=n * k, jacobians=n)]
    if workload == "small-models":
        # tiny matrices: Python per-node overhead dominates rather than BLAS;
        # the only workload with train_model, the dense solver and validate
        n, epochs, iters = (1, 1, 3) if small else (2, 2, 100)
        mlp_data = {"kind": "synthetic", "synthetic_kind": "separable_2class", "shape": [1, 6, 6],
                    "count": 16, "seed": data_seed, "num_classes": 2}
        lin_data = {"kind": "synthetic", "synthetic_kind": "gaussian_blobs", "shape": [1, 8, 8],
                    "count": 5, "seed": data_seed, "num_classes": 5}
        lin_perts = [{"kind": "gaussian", "variance": v} for v in (0.0001, 0.001, 0.01)]
        calls = [
            _audit("audit-mlp", seed, out, {"kind": "mlp", "hidden": 16, "num_classes": 2},
                   mlp_data, n, [{"kind": "gaussian", "variance": 0.001}],
                   {"mode": "dense", "epsilon": 1.0}, iters, 36, epochs=epochs),
            _audit("audit-linear", seed, out, {"kind": "linear"}, lin_data, n, lin_perts,
                   {"mode": "dense", "epsilon": 0.0}, iters, 64),
        ]
        if not small:
            # as a user runs it: the built-in checks at their default seed
            calls.append(Call("validate", "validate", None))
        return calls
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def write_configs(calls, config_dir):
    """Write each call's config as JSON; return the CLI argv of every call."""
    os.makedirs(config_dir, exist_ok=True)
    argvs = []
    for call in calls:
        if call.config is None:
            argvs.append([call.runner])
            continue
        path = os.path.join(config_dir, f"{call.name}.json")
        with open(path, "w") as f:
            json.dump(call.config, f, indent=1, sort_keys=True)
        argvs.append([call.runner, "--config", path])
    return argvs
