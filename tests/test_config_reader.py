"""The typed config reader: every key takes the JSON type its dataclass
field names, kinds and ranges are checked where the config is read, and a
malformed config is one `config error:` line with exit code 2."""

import copy
import dataclasses
import glob
import inspect
import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from gradleak import experiments
from gradleak.attacks import AttackConfig
from gradleak.cli import build_parser, main
from gradleak.config import (ConfigError, DataConfig, ExperimentConfig, ModelConfig,
                             PerturbationConfig, TrainConfig, load_config, parse_config)
from gradleak.influence import SolverConfig
from gradleak.models import InitScheme

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASE = {
    "model": {"kind": "linear", "d": 9},
    "data": {"kind": "synthetic", "synthetic_kind": "gaussian_blobs",
             "shape": [1, 3, 3], "count": 3, "seed": 1, "num_classes": 3},
    "samples": 1,
    "perturbations": [{"kind": "gaussian", "variance": 1e-3}],
    "solver": {"mode": "dense", "epsilon": 0.0},
    "attack": {"kind": "dgl", "iterations": 5},
    "seed": 7,
}


def with_value(path, value):
    """A copy of BASE with the key at `path` (section keys or list indices,
    then the key) set to `value`."""
    doc = copy.deepcopy(BASE)
    node = doc
    for key in path[:-1]:
        node = node[key] if isinstance(node, list) else node.setdefault(key, {})
    node[path[-1]] = value
    return doc


def assert_cli_config_error(tmp_path, capsys, doc, *argv, command="audit"):
    doc = {"output_dir": str(tmp_path / "out"), **doc}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert main([command, "--config", str(path), *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()
    return err


# (path, a value of the wrong JSON type): every annotation the reader types
WRONG_TYPES = [
    (("data", "count"), "ten"),                          # int
    (("data", "count"), 2.7),
    (("attack", "iterations"), True),
    (("samples",), "x"),
    (("seed",), "abc"),
    (("solver", "max_iters"), None),
    (("solver", "epsilon"), "1"),                        # float
    (("train", "lr"), True),
    (("solver", "epsilon"), float("nan")),
    (("perturbations", 0, "variance"), float("inf")),
    (("perturbations", 0, "variance"), [1e-3]),
    (("dump_images",), "false"),                         # bool
    (("dump_images",), 0),
    (("attack", "box_projection"), "no"),                # bool | None
    (("attack", "dummy_init"), 5),                       # str
    (("output_dir",), 5),
    (("init", "kind"), 5),
    (("model", "kind"), 5),
    (("data", "images_path"), 5),                        # str | None
    (("data", "shape"), 16),                             # tuple[int, ...]
    (("data", "shape"), [1, "a", 3]),
    (("init_schemes",), "uniform"),                      # tuple[str, ...]
    (("init_schemes",), ["uniform", 5]),
    (("perturbations",), {"kind": "gaussian"}),          # tuple
    (("perturbations",), ["gaussian"]),                  # a section
    (("model",), "linear"),
    (("solver",), 5),
    (("train",), None),
]


@pytest.mark.parametrize("path,value", WRONG_TYPES,
                         ids=[f"{'.'.join(map(str, p))}={json.dumps(v)}" for p, v in WRONG_TYPES])
def test_wrong_json_type_is_a_config_error(tmp_path, capsys, path, value):
    doc = with_value(path, value)
    with pytest.raises(ConfigError):
        parse_config(doc)
    assert_cli_config_error(tmp_path, capsys, doc)


MODEL_OPTIONS = ([("linear", "d", "x"), ("mlp", "hidden", 2.5), ("mlp", "activation", 5),
                  ("one_layer", "target", "0"), ("mlp", "num_classes", True)]
                 + [("lenet", key, 2.5) for key in ("in_channels", "image_size", "channels",
                                                    "kernel", "stride", "padding", "num_classes")]
                 + [("lenet", "activation", None)])


@pytest.mark.parametrize("kind,key,value", MODEL_OPTIONS)
def test_model_option_of_wrong_type_is_a_config_error(tmp_path, capsys, kind, key, value):
    doc = with_value(("model",), {"kind": kind, key: value})
    with pytest.raises(ConfigError, match=f"model.{key} must be"):
        experiments.build_model_from_config(parse_config(doc))
    assert_cli_config_error(tmp_path, capsys, doc)


def test_model_that_does_not_compose_is_a_config_error(tmp_path, capsys):
    doc = with_value(("model",), {"kind": "mlp", "hidden": 4, "activation": "swish"})
    with pytest.raises(ConfigError, match="unknown activation 'swish'"):
        experiments.build_model_from_config(parse_config(doc))
    assert_cli_config_error(tmp_path, capsys, doc)


# (path, value, what the error names): unknown kinds and out-of-range values
KINDS_AND_RANGES = [
    (("init", "kind"), "bogus", "unknown init scheme 'bogus'"),
    (("init_schemes",), ["uniform", "bogus"], "unknown init scheme 'bogus'"),
    (("data", "synthetic_kind"), "bogus", "unknown synthetic kind 'bogus'"),
    (("attack", "dummy_init"), "bogus", "unknown dummy init 'bogus'"),
    (("samples",), -1, "samples must be >= 1"),
    (("repetitions",), 0, "repetitions must be >= 1"),
    (("eigen_directions",), 0, "eigen_directions must be >= 1"),
    (("data", "count"), 0, "count must be >= 1"),
    (("train", "epochs"), -1, "epochs >= 0"),
    (("train", "lr"), -0.5, "lr >= 0"),
    (("solver", "step_size"), 0.1, r"unknown keys in solver: \['step_size'\]"),
    (("solver", "seed"), 1, r"unknown keys in solver: \['seed'\]"),
    (("data", "shape"), [9], r"shape must hold 3 entries, each >= 1, got \[9\]"),
    (("data", "shape"), [1, 3, 3, 3], "shape must hold 3 entries"),
    (("data", "shape"), [1, 0, 3], "shape must hold 3 entries, each >= 1"),
    (("data", "shape"), [], "shape must hold 3 entries"),
    (("data", "num_classes"), 0, "num_classes must be >= 1"),
    (("perturbations", 0, "variance"), -0.5, "out-of-range values: variance must be >= 0, got -0.5"),
    (("perturbations", 0, "ratio"), 1.5, r"out-of-range values: ratio must be in \[0, 1\], got 1.5"),
    (("perturbations", 0, "scale"), -2.0, "out-of-range values: scale must be >= 0, got -2.0"),
    (("perturbations", 0, "index"), -1, "out-of-range values: index must be >= 0, got -1"),
    (("seed",), -1, "config: seed must be >= 0, got -1"),
    (("data", "seed"), -1, "data: seed must be >= 0, got -1"),
    (("init", "seed"), -1, "init: seed must be >= 0, got -1"),
]


@pytest.mark.parametrize("path,value,message", KINDS_AND_RANGES,
                         ids=[f"{'.'.join(map(str, p))}={json.dumps(v)}" for p, v, _ in KINDS_AND_RANGES])
def test_kinds_and_ranges_are_checked_when_read(tmp_path, capsys, path, value, message):
    doc = with_value(path, value)
    with pytest.raises(ConfigError, match=message):
        parse_config(doc)
    command = {"eigen_directions": "eigen-defense", "repetitions": "init-compare",
               "init_schemes": "init-compare"}.get(path[0], "audit")
    assert_cli_config_error(tmp_path, capsys, doc, command=command)


# (subcommand, config, what the error names): values that parse but that
# the run cannot honour, caught before any output directory is made
RUN_RANGES = (
    [(command, {**BASE, "samples": 4}, "samples is 4 but the data holds 3")
     for command in ("audit", "eigen-defense", "fairness", "init-compare", "efficiency",
                     "spectrum")]
    + [("audit", with_value(("model",), model), message) for model, message in (
        ({"kind": "linear", "d": 0}, "layer 0 .* needs sizes, kernel and stride >= 1"),
        ({"kind": "mlp", "hidden": 0}, "layer 0 .* needs sizes, kernel and stride >= 1"),
        ({"kind": "lenet", "channels": 0}, "layer 0 .* needs sizes, kernel and stride >= 1"),
        ({"kind": "lenet", "stride": 0}, "layer 0 .* needs sizes, kernel and stride >= 1"),
        ({"kind": "lenet", "kernel": -1}, "layer 0 .* needs sizes, kernel and stride >= 1"),
        ({"kind": "lenet", "padding": -1}, "padding >= 0"),
        ({"kind": "lenet", "kernel": 9}, r"layer 0: kernel 9 does not fit input \(1, 3, 3\)"),
        ({"kind": "lenet", "kernel": 3, "padding": 0}, "layer 2: kernel 3 does not fit"),
        # data that do not fit the model: 9 values per image, and labels 0, 2, 0, of
        # which sample 0's fits a 2-class head but training would fit them all
        ({"kind": "mlp", "d": 10}, r"data of shape \(1, 3, 3\) do not fit model input \(10,\)"),
        ({"kind": "mlp", "num_classes": 2}, "the data hold label 2 but the model has 2 classes"),
    )]
    # known only once J is built, or checked before any training
    + [("audit", {**BASE, "perturbations": [{"kind": "singular_direction", "index": 9}]},
        "singular index 9 out of range for rank 9"),
       ("audit", {**BASE, "perturbations": []}, "audit needs at least one perturbation")])


@pytest.mark.parametrize("command,doc,message", RUN_RANGES,
                         ids=[f"{c}:{json.dumps(d['model'])}:samples={d['samples']}"
                              + ("" if d["perturbations"] == BASE["perturbations"]
                                 else f":perturbations={json.dumps(d['perturbations'])}")
                              for c, d, _ in RUN_RANGES])
def test_out_of_range_run_is_a_config_error(tmp_path, capsys, command, doc, message):
    assert_cli_config_error(tmp_path, capsys, doc, command=command)
    run = build_parser().parse_args([command, "--config", "cfg.json"]).runner
    with pytest.raises(ConfigError, match=message):
        run(parse_config({**doc, "output_dir": str(tmp_path / "out")}))
    assert not (tmp_path / "out").exists()


def test_init_scheme_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown init scheme 'bogus'"):
        InitScheme("bogus")
    assert InitScheme() == InitScheme("uniform", 0)


def test_limit_goes_through_the_samples_check(tmp_path, capsys):
    assert_cli_config_error(tmp_path, capsys, BASE, "--limit", "0")


@pytest.mark.parametrize("flag,value,message", [
    ("--limit", "0", "samples must be >= 1, got 0"),
    ("--limit", "-3", "samples must be >= 1, got -3"),
    ("--seed", "-5", "seed must be >= 0, got -5")])
def test_override_range_error_names_the_flag(tmp_path, capsys, flag, value, message):
    err = assert_cli_config_error(tmp_path, capsys, BASE, flag, value)
    assert err == f"config error: {flag}: {message}\n"


def test_minimal_config_takes_the_dataclass_defaults():
    cfg = parse_config({"model": {"kind": "linear"}, "data": {"kind": "synthetic"}, "seed": 0})
    assert cfg == ExperimentConfig(ModelConfig("linear"), InitScheme(), DataConfig("synthetic"),
                                   (), SolverConfig(), AttackConfig(), TrainConfig(), seed=0)
    pert = parse_config({**BASE, "perturbations": [{"kind": "prune"}]}).perturbations
    assert pert == (PerturbationConfig("prune"),)


SHIPPED = sorted(glob.glob(os.path.join(ROOT, "scripts", "configs", "*.json")))


@pytest.mark.parametrize("path", SHIPPED, ids=os.path.basename)
def test_shipped_config_parses(path):
    with open(path) as f:
        assert load_config(path).seed == json.load(f)["seed"]


# any JSON value, in every key the reader types
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(-2, 2) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=2),
    max_leaves=5)
SECTIONS = {("data",): DataConfig, ("solver",): SolverConfig, ("attack",): AttackConfig,
            ("train",): TrainConfig, ("init",): InitScheme,
            ("perturbations", 0): PerturbationConfig, (): ExperimentConfig}
READ_ELSEWHERE = ("model", "init", "data", "perturbations", "solver", "attack", "train", "raw")
TYPED_KEYS = [path + (f.name,) for path, cls in SECTIONS.items()
              for f in dataclasses.fields(cls) if path or f.name not in READ_ELSEWHERE]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(TYPED_KEYS), json_values)
def test_any_json_value_parses_or_is_a_config_error(path, value):
    # an accepted value arrives unchanged: no int from a float, no bool from an int
    try:
        cfg = parse_config(with_value(path, value))
    except ConfigError:
        return
    got = cfg
    for key in path:
        got = got[key] if isinstance(key, int) else getattr(got, key)
    assert got == (tuple(value) if isinstance(value, list) else value)
    assert isinstance(got, bool) == isinstance(value, bool)


@pytest.mark.parametrize("kind", ["separable_2class", "checkerboard"])
@pytest.mark.parametrize("num_classes", [None, 1, 3])
def test_two_class_data_needs_num_classes_2(tmp_path, capsys, kind, num_classes):
    # the generator draws labels 0 and 1 only, while num_classes sizes the model head
    data = {**BASE["data"], "synthetic_kind": kind, "num_classes": num_classes}
    if num_classes is None:
        del data["num_classes"]  # the default, 10
    doc = {**BASE, "data": data}
    with pytest.raises(ConfigError, match=f"{kind} data has 2 classes: set num_classes to 2, "
                                          f"got {num_classes or 10}"):
        parse_config(doc)
    assert_cli_config_error(tmp_path, capsys, doc)
    assert parse_config({**doc, "data": {**data, "num_classes": 2}}).data.num_classes == 2


# every zoo constructor's options and the JSON type each declares; the
# constructors' signatures are where build_model_from_config reads them
ZOO_OPTIONS = {
    "linear": {"d": "int"},
    "one_layer": {"d": "int", "activation": "str", "target": "float"},
    "mlp": {"d": "int", "hidden": "int", "num_classes": "int", "activation": "str"},
    "lenet": {"in_channels": "int", "image_size": "int", "channels": "int", "kernel": "int",
              "stride": "int", "padding": "int", "num_classes": "int", "activation": "str"},
}
WRONG_FOR = {"int": 2.5, "float": "0", "str": 5}


def test_zoo_signatures_declare_the_model_options():
    for kind, options in ZOO_OPTIONS.items():
        params = inspect.signature(experiments.MODELS[kind]).parameters
        assert {name: p.annotation for name, p in params.items()} == options


@pytest.mark.parametrize("kind,key,annotation",
                         [(k, key, a) for k, opts in ZOO_OPTIONS.items() for key, a in opts.items()])
def test_every_zoo_option_of_wrong_type_is_one_config_error_line(tmp_path, capsys, kind, key,
                                                                  annotation):
    doc = {**with_value(("model",), {"kind": kind, key: WRONG_FOR[annotation]}),
           "output_dir": str(tmp_path / "out")}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert main(["audit", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: model.{key} must be ") and err.count("\n") == 1, err
    assert not (tmp_path / "out").exists()
