"""Every runner draws its delta through the library's perturbation functions
from `PerturbationConfig`: an absent value, or an absent entry, takes that
dataclass's defaults (variance 1e-3, scale 1.0)."""

import csv
import dataclasses
import os

import numpy as np

from gradleak import experiments
from gradleak.config import PerturbationConfig, load_config, parse_config

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def config(tmp_path, perturbations, **over):
    doc = {
        "model": {"kind": "linear", "d": 9},
        "data": {"kind": "synthetic", "synthetic_kind": "gaussian_blobs",
                 "shape": [1, 3, 3], "count": 3, "seed": 1, "num_classes": 3},
        "samples": 2,
        "perturbations": perturbations,
        "solver": {"mode": "dense", "epsilon": 0.0},
        "attack": {"kind": "dgl", "iterations": 5},
        "output_dir": str(tmp_path / "out"),
        "seed": 7,
    }
    doc.update(over)
    return parse_config(doc)


def written(tmp_path, name):
    with open(os.path.join(tmp_path, "out", name)) as f:
        return list(csv.DictReader(line for line in f if not line.startswith("#")))


def test_defaults_live_on_the_dataclass():
    assert PerturbationConfig("gaussian").variance == 1e-3
    assert PerturbationConfig("singular_direction").scale == 1.0


def test_audit_gaussian_entry_without_variance_perturbs_at_the_default(tmp_path):
    experiments.run_audit(config(tmp_path, [{"kind": "gaussian"}]))
    rows = written(tmp_path, "audit.csv")
    assert len(rows) == 2
    for row in rows:
        assert float(row["pert_param"]) == 1e-3
        assert float(row["delta_norm"]) > 0


def test_fairness_and_init_compare_without_a_gaussian_entry_use_the_default(tmp_path):
    cfg = config(tmp_path, [], repetitions=1, init_schemes=["uniform"])
    experiments.run_fairness(cfg)
    experiments.run_init_compare(cfg)
    for name in ("fairness_samples.csv", "init_compare.csv"):
        rows = written(tmp_path, name)
        assert len(rows) == 2
        assert all(float(row["variance"]) == 1e-3 for row in rows)


def test_eigen_defense_without_a_singular_direction_entry_uses_the_default(tmp_path):
    experiments.run_eigen_defense(config(tmp_path, [], samples=1, eigen_directions=2))
    rows = written(tmp_path, "eigen_defense.csv")
    assert len(rows) == 2
    assert all(abs(float(row["delta_norm"]) - 1.0) < 1e-12 for row in rows)


# How far eigen-defense's attack columns may move, relative, when each
# singular direction moves by NUDGE relative.  On the shipped config's first
# sample (LeNet, 800 DGL steps, 4 rungs), 12 seeded random nudges moved
# attack_l2 by up to 1.5e-3 and attack_mse by up to 3.1e-3, all in the third
# rung (the other three moved by under 1e-5): the attack amplifies the last
# digits of its target by about ten orders of magnitude, so these columns are
# reproducible only bit for bit.
NUDGE, ATTACK_L2_MOVE, ATTACK_MSE_MOVE = 1e-13, 1e-2, 1e-2


def test_eigen_defense_attack_columns_under_a_last_digit_nudge(tmp_path, monkeypatch):
    cfg = load_config(os.path.join(ROOT, "scripts", "configs", "eigen_defense_lenet.json"))
    cfg = dataclasses.replace(cfg, samples=1, dump_images=False, output_dir=str(tmp_path))
    factorize, kept = experiments.dense_spectrum, []

    def once(op):  # the nudged run reads the exact run's factorization of J
        if not kept:
            kept.append(factorize(op))
        return kept[0]

    monkeypatch.setattr(experiments, "dense_spectrum", once)
    exact, _ = experiments.run_eigen_defense(cfg)
    draw = experiments.singular_direction_perturbation
    rng = np.random.default_rng(1)

    def nudged(*args, **kwargs):
        delta, sigma = draw(*args, **kwargs)
        u = rng.normal(size=delta.shape)
        return delta + NUDGE * np.linalg.norm(delta) / np.linalg.norm(u) * u, sigma

    monkeypatch.setattr(experiments, "singular_direction_perturbation", nudged)
    moved, _ = experiments.run_eigen_defense(cfg)
    assert len(moved) == len(exact) == 4
    assert moved != exact  # the ladder draws through singular_direction_perturbation
    for a, b in zip(exact, moved):
        assert a[:6] == b[:6]  # sample, rung and spectrum columns
        assert abs(b[6] - a[6]) <= 1e-12
        assert abs(b[7] - a[7]) <= ATTACK_L2_MOVE * a[7]
        assert abs(b[8] - a[8]) <= ATTACK_MSE_MOVE * a[8]
