"""Experiment configuration: one strict JSON document per run.

Unknown keys are rejected so a typo fails fast instead of silently
running the default.  Every run carries a mandatory seed; nothing is
seeded from the clock.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

from .attacks import AttackConfig
from .influence import SolverConfig
from .models import InitScheme


class ConfigError(ValueError):
    pass


def _take(d, key, default=None, required=False):
    if required and key not in d:
        raise ConfigError(f"missing required key {key!r}")
    return d.pop(key, default)


def _no_leftovers(d, context):
    if d:
        raise ConfigError(f"unknown keys in {context}: {sorted(d)}")


@dataclass(frozen=True)
class ModelConfig:
    kind: str  # linear | one_layer | mlp | lenet
    options: dict = field(default_factory=dict)


@dataclass(frozen=True)
class DataConfig:
    kind: str  # synthetic | idx
    synthetic_kind: str = "gaussian_blobs"
    shape: tuple = (1, 28, 28)
    count: int = 10
    seed: int = 0
    num_classes: int = 10
    images_path: str | None = None
    labels_path: str | None = None


@dataclass(frozen=True)
class PerturbationConfig:
    kind: str  # gaussian | prune | singular_direction
    variance: float = 0.0
    ratio: float = 0.0
    index: int = 0
    scale: float = 1.0


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 0
    lr: float = 0.1


@dataclass(frozen=True)
class ExperimentConfig:
    model: ModelConfig
    init: InitScheme
    data: DataConfig
    samples: int
    perturbations: tuple
    solver: SolverConfig
    attack: AttackConfig
    train: TrainConfig
    output_dir: str
    seed: int
    dump_images: bool = False
    repetitions: int = 3
    init_schemes: tuple = ("uniform", "normal", "kaiming", "xavier")
    eigen_directions: int = 4
    raw: dict = field(default_factory=dict, compare=False)

    def config_hash(self):
        canonical = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def parse_config(doc: dict) -> ExperimentConfig:
    raw = json.loads(json.dumps(doc))  # defensive copy, also checks JSON-ability
    doc = dict(doc)

    m = dict(_take(doc, "model", required=True))
    model = ModelConfig(kind=_take(m, "kind", required=True), options=m)

    i = dict(_take(doc, "init", default={"kind": "uniform", "seed": 0}))
    init = InitScheme(kind=_take(i, "kind", "uniform"), seed=int(_take(i, "seed", 0)))
    _no_leftovers(i, "init")

    d = dict(_take(doc, "data", required=True))
    data = DataConfig(
        kind=_take(d, "kind", required=True),
        synthetic_kind=_take(d, "synthetic_kind", "gaussian_blobs"),
        shape=tuple(_take(d, "shape", [1, 28, 28])),
        count=int(_take(d, "count", 10)),
        seed=int(_take(d, "seed", 0)),
        num_classes=int(_take(d, "num_classes", 10)),
        images_path=_take(d, "images_path"),
        labels_path=_take(d, "labels_path"),
    )
    _no_leftovers(d, "data")
    if data.kind not in ("synthetic", "idx"):
        raise ConfigError(f"unknown data kind {data.kind!r}")
    if data.kind == "idx":
        for p in (data.images_path, data.labels_path):
            if p is None or not os.path.exists(p):
                raise ConfigError(f"idx data file missing: {p}")

    perts = []
    for j, p in enumerate(_take(doc, "perturbations", default=[])):
        p = dict(p)
        kind = _take(p, "kind", required=True)
        if kind not in ("gaussian", "prune", "singular_direction"):
            raise ConfigError(f"perturbation {j}: unknown kind {kind!r}")
        pert = PerturbationConfig(
            kind=kind,
            variance=float(_take(p, "variance", 0.0)),
            ratio=float(_take(p, "ratio", 0.0)),
            index=int(_take(p, "index", 0)),
            scale=float(_take(p, "scale", 1.0)),
        )
        _no_leftovers(p, f"perturbations[{j}]")
        if pert.variance < 0 or not 0 <= pert.ratio <= 1 or pert.scale < 0:
            raise ConfigError(f"perturbations[{j}]: out-of-range values")
        perts.append(pert)

    s = dict(_take(doc, "solver", default={}))
    try:
        solver = SolverConfig(
            mode=_take(s, "mode", "conjugate_gradient"),
            epsilon=float(_take(s, "epsilon", 1.0)),
            max_iters=int(_take(s, "max_iters", 500)),
            tolerance=float(_take(s, "tolerance", 1e-10)),
            step_size=_take(s, "step_size"),
            seed=int(_take(s, "seed", 0)),
        )
    except ValueError as e:
        raise ConfigError(str(e)) from e
    _no_leftovers(s, "solver")

    a = dict(_take(doc, "attack", default={}))
    try:
        attack = AttackConfig(
            kind=_take(a, "kind", "dgl"),
            iterations=int(_take(a, "iterations", 3000)),
            learning_rate=float(_take(a, "learning_rate", 0.1)),
            beta1=float(_take(a, "beta1", 0.9)),
            beta2=float(_take(a, "beta2", 0.999)),
            adam_eps=float(_take(a, "adam_eps", 1e-8)),
            dummy_init=_take(a, "dummy_init", "uniform01"),
            box_projection=_take(a, "box_projection"),
        )
    except ValueError as e:
        raise ConfigError(str(e)) from e
    _no_leftovers(a, "attack")

    t = dict(_take(doc, "train", default={}))
    train = TrainConfig(epochs=int(_take(t, "epochs", 0)), lr=float(_take(t, "lr", 0.1)))
    _no_leftovers(t, "train")

    if "seed" not in doc:
        raise ConfigError("a top-level seed is mandatory")
    cfg = ExperimentConfig(
        model=model,
        init=init,
        data=data,
        samples=int(_take(doc, "samples", 10)),
        perturbations=tuple(perts),
        solver=solver,
        attack=attack,
        train=train,
        output_dir=_take(doc, "output_dir", "out"),
        seed=int(_take(doc, "seed")),
        dump_images=bool(_take(doc, "dump_images", False)),
        repetitions=int(_take(doc, "repetitions", 3)),
        init_schemes=tuple(_take(doc, "init_schemes", ["uniform", "normal", "kaiming", "xavier"])),
        eigen_directions=int(_take(doc, "eigen_directions", 4)),
        raw=raw,
    )
    _no_leftovers(doc, "config")
    return cfg


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    return parse_config(doc)


def job_seed(global_seed, *indices):
    """Stable per-job RNG seed derived from the global seed and job ids."""
    h = int(global_seed)
    for i in indices:
        h = (h * 1000003 + int(i) + 0x9E3779B9) % 2**63
    return h
