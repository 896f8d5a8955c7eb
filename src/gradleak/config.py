"""Experiment configuration: one strict JSON document per run.

Every default and type lives once, on its dataclass; `_section` reads
each section into its dataclass.  Unknown keys are rejected so a typo
fails fast instead of silently running the default.  Every run carries a
mandatory seed; nothing is seeded from the clock.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import MISSING, dataclass, field, fields

from .attacks import AttackConfig
from .data import SYNTHETIC_KINDS
from .influence import SolverConfig
from .models import InitScheme


class ConfigError(ValueError):
    pass


_JSON_TYPES = {  # annotation -> (Python type of the parsed JSON value, JSON name)
    "int": (int, "an integer"),
    "float": ((int, float), "a number"),
    "bool": (bool, "true or false"),
    "str": (str, "a string"),
    "tuple": (list, "a list"),
    "dict": (dict, "an object"),
    "None": (type(None), "null"),
}


def typed(value, annotation, where):
    """`value` if it has the JSON type that `annotation` names, else ConfigError.
    A bool is no number and NaN or Infinity no JSON number; a float comes back
    as a float and a list as a tuple, whose entries `tuple[T, ...]` checks as
    T; a dict is an object; `X | None` also takes null."""
    names = [name.partition("[") for name in annotation.split(" | ")]
    for base, _, item in names:
        is_bool = isinstance(value, bool)  # a bool is also a Python int
        if not isinstance(value, _JSON_TYPES[base][0]) or is_bool != (base == "bool"):
            continue
        if base == "float":
            if math.isfinite(value):
                return float(value)
        elif base == "tuple":
            return tuple(typed(v, item[:-len(", ...]")], f"{where}[{i}]") if item else v
                         for i, v in enumerate(value))
        else:
            return value
    want = " or ".join(_JSON_TYPES[base][1] for base, _, _ in names)
    raise ConfigError(f"{where} must be {want}, got {json.dumps(value)}")


def _section(cls, doc, context, skip=(), **given):
    """`cls` with each field not given or skipped read from its key in `doc`
    by `typed`, or its default if the key is absent.  Leftover keys, a
    skipped field's too, are unknown; a ValueError from `cls` is a ConfigError."""
    doc = dict(typed(doc, "dict", context))
    for f in fields(cls):
        if f.name in given or f.name in skip:
            continue
        if f.name in doc:
            given[f.name] = typed(doc.pop(f.name), f.type, f"{context}.{f.name}")
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{context}: missing required key {f.name!r}")
    if doc:
        raise ConfigError(f"unknown keys in {context}: {sorted(doc)}")
    try:
        return cls(**given)
    except ValueError as e:
        raise ConfigError(f"{context}: {e}") from e


@dataclass(frozen=True)
class ModelConfig:
    kind: str  # linear | one_layer | mlp | lenet
    options: dict = field(default_factory=dict)  # typed by build_model_from_config


@dataclass(frozen=True)
class DataConfig:
    kind: str  # synthetic | idx
    synthetic_kind: str = "gaussian_blobs"
    shape: tuple[int, ...] = (1, 28, 28)
    count: int = 10
    seed: int = 0
    num_classes: int = 10
    images_path: str | None = None
    labels_path: str | None = None

    def __post_init__(self):
        if self.kind not in ("synthetic", "idx"):
            raise ConfigError(f"unknown data kind {self.kind!r}")
        if self.count < 1:
            raise ConfigError(f"count must be >= 1, got {self.count}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.synthetic_kind not in SYNTHETIC_KINDS:
            raise ConfigError(f"unknown synthetic kind {self.synthetic_kind!r}")
        image = self.kind == "synthetic" and self.synthetic_kind != "separable_2class"  # (c, h, w)
        if not self.shape or min(self.shape) < 1 or image and len(self.shape) != 3:
            raise ConfigError(f"shape must hold {'3' if image else 'one or more'} entries, each "
                              f">= 1, got {list(self.shape)}")
        if self.num_classes < 1:
            raise ConfigError(f"num_classes must be >= 1, got {self.num_classes}")
        two_class = self.synthetic_kind in ("separable_2class", "checkerboard")  # labels 0, 1
        if self.kind == "synthetic" and two_class and self.num_classes != 2:
            raise ConfigError(f"{self.synthetic_kind} data has 2 classes: set num_classes to 2, "
                              f"got {self.num_classes}")
        if self.kind == "idx":
            for p in (self.images_path, self.labels_path):
                if p is None or not os.path.exists(p):
                    raise ConfigError(f"idx data file missing: {p}")


@dataclass(frozen=True)
class PerturbationConfig:
    kind: str  # gaussian | prune | singular_direction
    variance: float = 1e-3
    ratio: float = 0.0
    index: int = 0
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in ("gaussian", "prune", "singular_direction"):
            raise ConfigError(f"unknown kind {self.kind!r}")
        for name, ok, want in (("variance", self.variance >= 0, ">= 0"),
                               ("ratio", 0 <= self.ratio <= 1, "in [0, 1]"),
                               ("index", self.index >= 0, ">= 0"),
                               ("scale", self.scale >= 0, ">= 0")):
            if not ok:
                raise ConfigError(f"out-of-range values: {name} must be {want}, got {getattr(self, name)}")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 0
    lr: float = 0.1

    def __post_init__(self):
        if self.epochs < 0 or self.lr < 0:
            raise ConfigError("need epochs >= 0 and lr >= 0")


@dataclass(frozen=True)
class ExperimentConfig:
    model: ModelConfig
    init: InitScheme
    data: DataConfig
    perturbations: tuple
    solver: SolverConfig
    attack: AttackConfig
    train: TrainConfig
    seed: int
    samples: int = 10
    output_dir: str = "out"
    dump_images: bool = False
    repetitions: int = 3
    init_schemes: tuple[str, ...] = ("uniform", "normal", "kaiming", "xavier")
    eigen_directions: int = 4
    raw: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        for name in ("samples", "repetitions", "eigen_directions"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not self.init_schemes:
            raise ConfigError("init_schemes must hold at least one scheme, got []")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        for kind in self.init_schemes:
            InitScheme(kind)

    def config_hash(self):
        canonical = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _required(doc, key):
    if key not in doc:
        raise ConfigError(f"config: missing required key {key!r}")
    return doc.pop(key)


def parse_config(doc: dict) -> ExperimentConfig:
    raw = json.loads(json.dumps(doc))  # defensive copy, also checks JSON-ability
    doc = dict(typed(doc, "dict", "config"))
    model = dict(typed(_required(doc, "model"), "dict", "model"))
    options = {k: model.pop(k) for k in list(model) if k != "kind"}
    sections = dict(
        model=_section(ModelConfig, model, "model", options=options),
        init=_section(InitScheme, doc.pop("init", {}), "init"),
        data=_section(DataConfig, _required(doc, "data"), "data"),
        perturbations=tuple(_section(PerturbationConfig, p, f"perturbations[{j}]")
                            for j, p in enumerate(typed(doc.pop("perturbations", []),
                                                        "tuple", "perturbations"))),
        solver=_section(SolverConfig, doc.pop("solver", {}), "solver"),
        attack=_section(AttackConfig, doc.pop("attack", {}), "attack", skip=("seed",)),
        train=_section(TrainConfig, doc.pop("train", {}), "train"),
    )
    return _section(ExperimentConfig, doc, "config", raw=raw, **sections)


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
