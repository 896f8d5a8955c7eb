"""`run_audit` uses each sample's operator once: one block solve, one
Lanczos lambda_max, which the floor and the solve share, and at most one
Gram J J^T per operator, with every row equal to the lone solve of its
perturbation under the row's lambda_max."""

import pytest

from gradleak import attacks, experiments, influence
from gradleak.config import ConfigError, job_seed, parse_config
from gradleak.influence import SOLVER_MODES, i2f_exact

SAMPLES, EPOCHS = 2, 1
OPERATORS = SAMPLES * (EPOCHS + 1)
MIXED = [{"kind": "gaussian", "variance": 1e-3}, {"kind": "prune", "ratio": 0.5},
         {"kind": "gaussian", "variance": 1e-2}]
SINGULAR = [{"kind": "singular_direction", "index": 0, "scale": 0.1},
            {"kind": "gaussian", "variance": 1e-3},
            {"kind": "singular_direction", "index": 2, "scale": 0.1}]


def audit_config(tmp_path, perturbations, mode="conjugate_gradient"):
    return parse_config({
        "model": {"kind": "mlp", "hidden": 4, "num_classes": 3},
        "data": {"kind": "synthetic", "synthetic_kind": "gaussian_blobs",
                 "shape": [1, 3, 3], "count": 3, "seed": 1, "num_classes": 3},
        "samples": SAMPLES,
        "train": {"epochs": EPOCHS, "lr": 0.1},
        "perturbations": perturbations,
        "solver": {"mode": mode, "epsilon": 0.5},
        "attack": {"kind": "dgl", "iterations": 5},
        "output_dir": str(tmp_path / "out"),
        "seed": 11,
    })


def count_calls(monkeypatch, fn_name, *modules):
    """Patch fn_name in every module with one wrapper; returns its call list."""
    calls = []
    original = getattr(modules[0], fn_name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, fn_name, counted)
    return calls


def lambda_per_operator(rows):
    """{(epoch, sample): set of lambda_max values in its rows}."""
    out = {}
    for r in rows:
        out.setdefault((r[1], r[0]), set()).add(r[8])
    return out


@pytest.mark.parametrize("mode", SOLVER_MODES)
def test_one_lanczos_and_one_dense_j_per_operator(tmp_path, monkeypatch, mode):
    # in dense mode the singular directions and the solve read one Gram J J^T;
    # gradient_descent and neumann take their step from the floor's lambda_max
    perturbations = MIXED + SINGULAR if mode == "dense" else MIXED
    lanczos = count_calls(monkeypatch, "lambda_max_power_iteration", influence)
    grams = count_calls(monkeypatch, "_normal_gram", influence)
    dense_j = count_calls(monkeypatch, "_dense_from_operator", influence)
    rows, _ = experiments.run_audit(audit_config(tmp_path, perturbations, mode))
    assert len(rows) == OPERATORS * len(perturbations)
    assert len(lanczos) == OPERATORS
    assert len(grams) == (OPERATORS if mode == "dense" else 0)
    assert not dense_j
    shared = lambda_per_operator(rows)
    assert len(shared) == OPERATORS and all(len(v) == 1 for v in shared.values())


def test_singular_directions_share_one_spectrum(tmp_path, monkeypatch):
    spectra = count_calls(monkeypatch, "dense_spectrum", influence, experiments, attacks)
    rows, _ = experiments.run_audit(audit_config(tmp_path, SINGULAR))
    assert len(spectra) == OPERATORS
    by_kind = [r[2] for r in rows[:len(SINGULAR)]]
    assert by_kind == [p["kind"] for p in SINGULAR]


def test_singular_index_beyond_rank_is_a_config_error(tmp_path):
    beyond = [{"kind": "gaussian", "variance": 1e-3},
              {"kind": "singular_direction", "index": 9, "scale": 0.1}]  # rank <= d_x = 9
    with pytest.raises(ConfigError, match="out of range for rank"):
        experiments.run_audit(audit_config(tmp_path, beyond))


def test_a_perturbation_beyond_rank_stops_the_audit_before_any_attack(tmp_path, monkeypatch):
    # the sample's first perturbation is fine; its attack must not run either
    attacked = count_calls(monkeypatch, "run_attack", experiments)
    beyond = [{"kind": "gaussian", "variance": 1e-3},
              {"kind": "singular_direction", "index": 9, "scale": 0.1}]
    with pytest.raises(ConfigError, match="out of range for rank"):
        experiments.run_audit(audit_config(tmp_path, beyond))
    assert not attacked


@pytest.mark.parametrize("mode", SOLVER_MODES)
def test_rows_equal_lone_solves(tmp_path, mode):
    cfg = audit_config(tmp_path, MIXED + SINGULAR, mode)
    rows, _ = experiments.run_audit(cfg)
    spec = experiments.build_model_from_config(cfg)
    dataset = experiments.load_dataset(cfg)
    lam = {(r[1], r[0]): r[8] for r in rows}  # the lambda_max each row's solve read
    lone = []
    for epoch, params in experiments._parameter_epochs(cfg, spec, dataset):
        for si, _, _, _, op in experiments._sample_operators(spec, params, dataset,
                                                              SAMPLES, cfg.seed):
            for pi, pert in enumerate(cfg.perturbations):
                delta, _ = experiments._realize_perturbation(
                    pert, op, op.g_theta, job_seed(cfg.seed, epoch, si, pi))
                lone.append(i2f_exact(op, delta, cfg.solver,
                                      lambda_max=lam[epoch, si]).exact_value)
    assert [r[6] for r in rows] == lone
    assert all(len(v) == 1 for v in lambda_per_operator(rows).values())
