"""Config parsing, CLI exit codes, experiment runners, and the built-in
validation suite (including its mutation check)."""

import csv
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from gradleak.cli import main
from gradleak.config import ConfigError, PerturbationConfig, job_seed, load_config, parse_config
from gradleak import experiments, influence
from gradleak.attacks import run_attack
from gradleak.data import Dataset, Sample, write_idx
from gradleak.influence import SOLVER_MODES, SingularSpectrumError
from gradleak.models import InitScheme, MixedJacobianOperator, initialize_parameters, one_layer_model


def base_doc(out_dir, **over):
    doc = {
        "model": {"kind": "linear", "d": 9},
        "data": {"kind": "synthetic", "synthetic_kind": "gaussian_blobs",
                 "shape": [1, 3, 3], "count": 3, "seed": 1, "num_classes": 3},
        "samples": 2,
        "perturbations": [{"kind": "gaussian", "variance": 1e-3}],
        "solver": {"mode": "dense", "epsilon": 0.0},
        "attack": {"kind": "dgl", "iterations": 300},
        "output_dir": out_dir,
        "seed": 7,
    }
    doc.update(over)
    return doc


def write_doc(tmp_path, doc, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def test_parse_rejects_unknown_keys(tmp_path):
    with pytest.raises(ConfigError, match="unknown keys"):
        parse_config(base_doc("o", typo_key=1))
    with pytest.raises(ConfigError, match="unknown keys in solver"):
        parse_config(base_doc("o", solver={"mode": "dense", "stepsize": 1}))
    with pytest.raises(ConfigError, match="unknown kind"):
        parse_config(base_doc("o", perturbations=[{"kind": "clip"}]))


def test_parse_requires_seed():
    doc = base_doc("o")
    del doc["seed"]
    with pytest.raises(ConfigError, match="seed"):
        parse_config(doc)


def test_parse_validates_ranges_and_files(tmp_path):
    with pytest.raises(ConfigError, match="out-of-range"):
        parse_config(base_doc("o", perturbations=[{"kind": "prune", "ratio": 1.5}]))
    with pytest.raises(ConfigError, match="idx data file missing"):
        parse_config(base_doc("o", data={"kind": "idx", "images_path": "/no/such",
                                         "labels_path": "/no/such2"}))
    with pytest.raises(ConfigError, match="unknown solver mode"):
        parse_config(base_doc("o", solver={"mode": "qr"}))


def test_config_hash_stable_and_key_order_independent(tmp_path):
    doc = base_doc("o")
    h1 = parse_config(doc).config_hash()
    reordered = dict(reversed(list(doc.items())))
    assert parse_config(reordered).config_hash() == h1
    assert parse_config(base_doc("o", seed=8)).config_hash() != h1


def test_job_seed_stable_values():
    assert job_seed(0) == 0
    assert job_seed(1, 2) == 1000003 + 2 + 0x9E3779B9
    assert job_seed(1, 2, 3) != job_seed(1, 3, 2)
    assert 0 <= job_seed(2 ** 62, 5, 5) < 2 ** 63


def test_cli_config_error_exit_2(tmp_path, capsys):
    bad = write_doc(tmp_path, base_doc(str(tmp_path), typo=1))
    assert main(["audit", "--config", bad]) == 2
    assert "config error" in capsys.readouterr().err
    assert main(["audit", "--config", str(tmp_path / "missing.json")]) == 2


def test_cli_audit_runs_and_overrides(tmp_path, capsys):
    cfg = write_doc(tmp_path, base_doc(str(tmp_path / "out_a")))
    out_b = str(tmp_path / "out_b")
    assert main(["audit", "--config", cfg, "--out", out_b, "--limit", "1"]) == 0
    lines = [l for l in open(os.path.join(out_b, "audit.csv")).read().splitlines()
             if not l.startswith("#")]
    assert lines[0].startswith("sample,epoch,pert_kind")
    assert len(lines) - 1 == 1  # samples x perturbations x epochs = 1*1*1
    assert not os.path.exists(str(tmp_path / "out_a"))


def test_cli_seed_override_takes_effect(tmp_path):
    # --seed replaces the config's seed: the CSV names it, and the
    # perturbations it seeds move
    cfg = write_doc(tmp_path, base_doc(str(tmp_path / "out"), samples=1,
                                       attack={"kind": "dgl", "iterations": 20}))
    runs = {}
    for seed in ([], ["--seed", "8"]):
        out = str(tmp_path / f"out{len(seed)}")
        assert main(["audit", "--config", cfg, "--out", out] + seed) == 0
        runs[len(seed)] = open(os.path.join(out, "audit.csv")).read().splitlines()
    assert "# seed=7" in runs[0] and "# seed=8" in runs[2]
    assert runs[0][-1] != runs[2][-1]


def test_attack_dummy_init_gaussian_takes_effect():
    # one attack step keeps its start as the best iterate: a standard normal
    # draw from the job's attack seed
    doc = base_doc("o", attack={"kind": "dgl", "iterations": 1, "dummy_init": "gaussian"})
    cfg = parse_config(doc)
    spec = experiments.build_model_from_config(cfg)
    params = initialize_parameters(spec, cfg.init)
    g0 = MixedJacobianOperator(spec, params, np.full(spec.input_shape, 0.5)).g_theta
    res = run_attack(spec, params, g0, None, experiments._attack_config(cfg, 3))
    assert np.array_equal(res.x_star, np.random.Generator(np.random.PCG64(3)).normal(
        0.0, 1.0, size=spec.input_shape))


def test_limit_above_samples_leaves_samples(tmp_path):
    # --limit caps the config's samples: 2 of the 3 images, not 3 and not 10
    out = str(tmp_path / "out")
    assert main(["audit", "--config", write_doc(tmp_path, base_doc(out)), "--limit", "10"]) == 0
    assert [r[0] for r in csv_data(out)["audit.csv"][1:]] == ["0", "1"]


def test_samples_above_idx_images_is_a_config_error(tmp_path, capsys):
    # the IDX files hold 2 images; the runner stops before it makes the output directory
    with open(zero_jacobian_config(tmp_path)) as f:
        doc = json.load(f)
    assert main(["spectrum", "--config", write_doc(tmp_path, {**doc, "samples": 3})]) == 2
    assert capsys.readouterr().err == "config error: samples is 3 but the data holds 2\n"
    assert not (tmp_path / "out").exists()


def test_cli_validate_passes(capsys):
    assert main(["validate", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    # one line per check, each reporting error and tolerance
    assert all(("error=" in l and "tolerance=" in l) for l in out.splitlines() if l)


def test_cli_validate_negative_seed_exit_2(capsys):
    with pytest.raises(SystemExit) as e:
        main(["validate", "--seed", "-1"])
    assert e.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.endswith("argument --seed: seed must be >= 0, got -1\n"), err


def test_validate_mutation_detected():
    # a sign flip in the transpose product must break the adjoint check
    ok, lines = experiments.run_validate(seed=0, perturb_vjp=lambda v: -v)
    assert not ok
    assert any(l.startswith("FAIL adjoint_identity") for l in lines)


def test_validate_passes_at_seed_6():
    # the Monte Carlo check's sample standard error ran low at seed 6 and
    # failed it; the exact one, from the spectrum, does not
    ok, lines = experiments.run_validate(seed=6)
    assert ok, [l for l in lines if l.startswith("FAIL")]


@pytest.mark.parametrize("seed", [0, 6])
def test_validate_monte_carlo_catches_a_scaled_solve(monkeypatch, seed):
    # a solve 1.2 times too large fails the Monte Carlo check under the exact
    # standard error (it did so at every seed of 0-199)
    solve = experiments.i2f_exact

    def scaled(*args):
        report = solve(*args)
        return dataclasses.replace(report, exact_value=1.2 * report.exact_value)

    monkeypatch.setattr(experiments, "i2f_exact", scaled)
    ok, lines = experiments.run_validate(seed=seed)
    assert not ok
    assert any(l.startswith("FAIL gaussian_expectation_monte_carlo") for l in lines)


def test_audit_linear_rows_match_i2f(tmp_path):
    doc = base_doc(str(tmp_path / "out"),
                   perturbations=[{"kind": "gaussian", "variance": v}
                                  for v in (1e-4, 1e-3, 1e-2)],
                   samples=3, attack={"kind": "dgl", "iterations": 500})
    rows, path = experiments.run_audit(load_config(write_doc(tmp_path, doc)))
    assert len(rows) == 9
    for r in rows:
        i2f, attack_l2 = r[6], r[10]
        assert abs(attack_l2 - i2f) < 1e-3  # identity-Jacobian regime
    with open(path) as f:
        head = f.readline()
    assert head.startswith("# config_hash=")


def test_audit_epoch_rows(tmp_path):
    doc = base_doc(str(tmp_path / "out"), train={"epochs": 2, "lr": 0.05},
                   samples=1, attack={"kind": "dgl", "iterations": 50})
    rows, _ = experiments.run_audit(load_config(write_doc(tmp_path, doc)))
    assert sorted({r[1] for r in rows}) == [0, 1, 2]
    assert len(rows) == 3  # 1 sample x 1 perturbation x 3 epochs


def test_audit_names_an_unconverged_solve_on_stderr(tmp_path, capsys):
    # one CG step at eps 0 does not solve an MLP's J J^T: each sample's
    # block solve gets one warning line, and base_doc's dense solve none
    mlp = {"model": {"kind": "mlp", "hidden": 4, "num_classes": 3},
           "attack": {"kind": "dgl", "iterations": 5}}
    doc = base_doc(str(tmp_path / "cg"), **mlp,
                   solver={"mode": "conjugate_gradient", "epsilon": 0.0, "max_iters": 1})
    experiments.run_audit(load_config(write_doc(tmp_path, doc)))
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 2, lines
    for si, line in enumerate(lines):
        assert re.fullmatch(rf"warning: audit epoch 0 sample {si}: conjugate_gradient did not "
                            r"converge in max_iters=1; largest residual \d\.\d{3}e[+-]\d+", line)
    experiments.run_audit(load_config(write_doc(tmp_path, base_doc(str(tmp_path / "dense")))))
    assert capsys.readouterr().err == ""


def test_eigen_defense_schema_and_toy_ordering(tmp_path):
    # one-layer toy with distinct sigmas: MSE ordering inverse to sigma
    doc = base_doc(str(tmp_path / "out"),
                   model={"kind": "one_layer", "d": 9, "activation": "identity",
                          "target": 0.0},
                   perturbations=[{"kind": "singular_direction", "scale": 0.05}],
                   attack={"kind": "dgl", "iterations": 1500},
                   eigen_directions=3, samples=1)
    rows, path = experiments.run_eigen_defense(load_config(write_doc(tmp_path, doc)))
    header = [l for l in open(path).read().splitlines() if not l.startswith("#")][0]
    assert "inv_sigma" in header and "inv_lambda" in header
    sigmas = [r[2] for r in rows]
    assert sigmas == sorted(sigmas, reverse=True)
    for r in rows:
        assert abs(r[4] - 1.0 / r[2]) < 1e-12 and abs(r[5] - 1.0 / r[3]) < 1e-12
        assert abs(r[6] - 0.05) < 1e-12  # equal-norm ladder
    # ends of the ladder: weakest direction leaks most
    assert rows[-1][8] > rows[0][8]


def test_fairness_aggregates(tmp_path):
    doc = base_doc(str(tmp_path / "out"), samples=3,
                   attack={"kind": "dgl", "iterations": 100}, dump_images=True)
    rows, class_rows, sp, cp = experiments.run_fairness(load_config(write_doc(tmp_path, doc)))
    assert len(rows) == 3
    by_class = {}
    for r in rows:
        by_class.setdefault(r[1], []).append(r[6])
    for label, count, mean, var in class_rows:
        assert count == len(by_class[label])
        assert abs(mean - np.mean(by_class[label])) < 1e-12
    assert any(f.startswith("fairness_best") for f in os.listdir(tmp_path / "out"))


def test_init_compare_rows_and_risk_column(tmp_path):
    doc = base_doc(str(tmp_path / "out"), samples=2, repetitions=2,
                   init_schemes=["uniform", "kaiming"],
                   attack={"kind": "dgl", "iterations": 50})
    rows, _ = experiments.run_init_compare(load_config(write_doc(tmp_path, doc)))
    assert len(rows) == 2 * 2 * 2
    # linear model: spectrum is all-ones, so E[I^2] = variance * d_x
    for r in rows:
        assert abs(r[4] - 1e-3 * 9) < 1e-9


def test_spectrum_runner(tmp_path):
    doc = base_doc(str(tmp_path / "out"), samples=2)
    rows, path = experiments.run_spectrum(load_config(write_doc(tmp_path, doc)))
    assert len(rows) == 2 * 9
    assert all(abs(r[2] - 1.0) < 1e-9 for r in rows)  # identity Jacobian


def test_efficiency_prints_its_seconds_on_stderr(tmp_path, capsys):
    doc = base_doc(str(tmp_path / "out"), attack={"kind": "dgl", "iterations": 20})
    experiments.run_efficiency(load_config(write_doc(tmp_path, doc)))
    err = capsys.readouterr().err
    head, *figures = err.split(" ")
    assert head == "efficiency:" and err.endswith("\n") and err.count("\n") == 1, err
    assert [f.partition("=")[0] for f in figures] == [
        "power_iteration_max_seconds", "attack_min_seconds", "time_ratio_attack_over_metric"]
    assert all(float(f.partition("=")[2]) >= 0 for f in figures)
    assert sorted(os.listdir(tmp_path / "out")) == ["efficiency_attack.csv",
                                                    "efficiency_power_iteration.csv"]


ATTACK_RUNNERS = {
    "eigen-defense": (experiments.run_eigen_defense,
                      {"perturbations": [{"kind": "singular_direction", "scale": 0.05}],
                       "eigen_directions": 2, "samples": 1}),
    "fairness": (experiments.run_fairness, {"samples": 2}),
    "init-compare": (experiments.run_init_compare,
                     {"samples": 1, "repetitions": 1, "init_schemes": ["uniform", "xavier"]}),
    "efficiency": (experiments.run_efficiency, {}),
}


RUNNERS = {"audit": (experiments.run_audit, {}), **ATTACK_RUNNERS,
           "spectrum": (experiments.run_spectrum, {})}


@pytest.mark.parametrize("name", sorted(RUNNERS))
def test_rerun_byte_identical(tmp_path, name):
    # every file of the output directory, PGM dumps included, comes out
    # the same; the rerun writes into the same directory, which the config
    # hash names
    run, over = RUNNERS[name]
    out = tmp_path / "out"
    doc = base_doc(str(out), dump_images=True, attack={"kind": "dgl", "iterations": 60}, **over)
    cfg = load_config(write_doc(tmp_path, doc))
    runs = []
    for tag in ("first", "second"):
        run(cfg)
        runs.append({f: (out / f).read_bytes() for f in os.listdir(out)})
        out.rename(tmp_path / tag)
    assert runs[0] == runs[1] and any(f.endswith(".csv") for f in runs[0])


def csv_data(out_dir):
    """Every CSV in out_dir without its comment lines (they hold the config hash)."""
    return {f: [l for l in open(os.path.join(out_dir, f)).read().splitlines()
                if not l.startswith("#")]
            for f in sorted(os.listdir(out_dir)) if f.endswith(".csv")}


def run_attack_runner(tmp_path, name, tag, **attack):
    run, over = ATTACK_RUNNERS[name]
    out = str(tmp_path / f"{name}-{tag}")
    doc = base_doc(out, attack={"kind": "dgl", "iterations": 40, **attack}, **over)
    run(load_config(write_doc(tmp_path, doc, f"{name}-{tag}.json")))
    return csv_data(out)


@pytest.mark.parametrize("name", sorted(ATTACK_RUNNERS))
def test_default_adam_settings_leave_csvs_unchanged(tmp_path, name):
    # the attack block's defaults spelled out give the same bytes as leaving them out
    implicit = run_attack_runner(tmp_path, name, "implicit")
    explicit = run_attack_runner(tmp_path, name, "explicit", beta1=0.9, beta2=0.999,
                                 adam_eps=1e-8)
    assert implicit == explicit and implicit


@pytest.mark.parametrize("name", sorted(ATTACK_RUNNERS))
def test_attack_beta1_takes_effect(tmp_path, name):
    assert run_attack_runner(tmp_path, name, "default") != \
        run_attack_runner(tmp_path, name, "beta1", beta1=0.5)


def test_attack_seed_is_rejected(tmp_path, capsys):
    # every runner seeds each attack from its job, so the key would be a no-op
    doc = base_doc(str(tmp_path / "out"), attack={"kind": "dgl", "iterations": 10, "seed": 5})
    with pytest.raises(ConfigError, match=r"unknown keys in attack: \['seed'\]"):
        parse_config(doc)
    assert main(["audit", "--config", write_doc(tmp_path, doc)]) == 2
    assert "unknown keys in attack" in capsys.readouterr().err


def test_singular_direction_index_is_checked_against_rank():
    # residual 0, so J = x theta^T has rank 1: index 1 would be a null-space direction
    spec = one_layer_model(3, "identity", 0.0)
    params = np.array([0.5, 0.25, 1.0])
    op = MixedJacobianOperator(spec, params, np.array([1.0, 2.0, -1.0]), None)
    pert = PerturbationConfig(kind="singular_direction", index=1, scale=2.0)
    with pytest.raises(ConfigError, match="out of range for rank 1"):
        experiments._realize_perturbation(pert, op, 0)
    delta, sigma = experiments._realize_perturbation(
        dataclasses.replace(pert, index=0), op, 0)
    assert abs(np.linalg.norm(delta) - 2.0) < 1e-12
    assert abs(np.linalg.norm(op.jvp(delta)) - 2.0 * sigma) < 1e-12 * sigma


def test_init_compare_rejects_singular_spectrum(tmp_path):
    # black images under a zero-target identity unit: residual 0 and x = 0, so J = 0
    zeros = Dataset(tuple(Sample(np.zeros((1, 3, 3)), 0) for i in range(2)),
                    3, (1, 3, 3))
    ip, lp = str(tmp_path / "imgs.idx"), str(tmp_path / "lbls.idx")
    write_idx(zeros, ip, lp)
    doc = base_doc(str(tmp_path / "out"), samples=1, repetitions=1, init_schemes=["uniform"],
                   model={"kind": "one_layer", "d": 9, "activation": "identity", "target": 0.0},
                   data={"kind": "idx", "images_path": ip, "labels_path": lp, "num_classes": 3})
    with pytest.raises(SingularSpectrumError):
        experiments.run_init_compare(load_config(write_doc(tmp_path, doc)))


def zero_jacobian_config(tmp_path, **over):
    """The all-black IDX images of test_init_compare_rejects_singular_spectrum
    under a zero-target identity unit, so J = 0."""
    zeros = Dataset(tuple(Sample(np.zeros((1, 3, 3)), 0) for i in range(2)),
                    3, (1, 3, 3))
    ip, lp = str(tmp_path / "imgs.idx"), str(tmp_path / "lbls.idx")
    write_idx(zeros, ip, lp)
    doc = base_doc(str(tmp_path / "out"), samples=1, repetitions=1, init_schemes=["uniform"],
                   model={"kind": "one_layer", "d": 9, "activation": "identity", "target": 0.0},
                   data={"kind": "idx", "images_path": ip, "labels_path": lp, "num_classes": 3},
                   **over)
    return write_doc(tmp_path, doc)


@pytest.mark.parametrize("runner, message", [
    ("eigen-defense", "J has rank 0 at sample 0"),
    ("init-compare", "J has rank 0 < d_x = 9 under init scheme 'uniform' at sample 0"),
])
def test_cli_singular_spectrum_exit_1(tmp_path, capsys, runner, message):
    # eigen-defense has no direction on a rank-0 J; init-compare's risk is infinite
    path = zero_jacobian_config(tmp_path,
                                perturbations=[{"kind": "singular_direction", "scale": 0.05}])
    assert main([runner, "--config", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert "Traceback" not in err and "epsilon" not in err


def test_cli_output_dir_that_is_a_file_exit_1(tmp_path, capsys):
    (tmp_path / "out").write_text("")
    assert main(["spectrum", "--config", write_doc(tmp_path, base_doc(str(tmp_path / "out")))]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("out", ["file", ""])
def test_unusable_output_dir_fails_before_any_gram(tmp_path, capsys, monkeypatch, out):
    # a file, or no path at all, where the output directory should go: the
    # run stops in _start, before it builds a single Gram J J^T
    grams = []
    monkeypatch.setattr(influence, "_normal_gram", lambda *a, **k: grams.append(a))
    target = tmp_path / "out"
    target.write_text("kept\n")
    path = str(target) if out == "file" else ""
    assert main(["spectrum", "--config", write_doc(tmp_path, base_doc(path))]) == 1
    assert capsys.readouterr().err == f"error: output directory {path!r} is not a directory\n"
    assert grams == [] and target.read_text() == "kept\n"


def test_output_dir_below_a_file_fails_before_any_gram(tmp_path, capsys, monkeypatch):
    # FILE/sub cannot be made when FILE is a file: the run stops in _start
    grams = []
    monkeypatch.setattr(influence, "_normal_gram", lambda *a, **k: grams.append(a))
    target = tmp_path / "out"
    target.write_text("kept\n")
    out = str(target / "sub")
    assert main(["spectrum", "--config", write_doc(tmp_path, base_doc(str(tmp_path / "x"))),
                 "--out", out]) == 1
    assert capsys.readouterr().err == (f"error: output directory {out!r} is under {str(target)!r}, "
                                       "which is not a directory\n")
    assert grams == [] and target.read_text() == "kept\n"


@pytest.mark.parametrize("runner", ["spectrum", "eigen-defense", "init-compare"])
def test_cli_gram_over_budget_exit_1(tmp_path, capsys, runner):
    # d_x = 3163: the Gram J J^T holds 10,004,569 entries, over the 10M budget
    data = {"kind": "synthetic", "synthetic_kind": "gaussian_blobs", "shape": [1, 1, 3163],
            "count": 1, "seed": 1, "num_classes": 3}
    doc = base_doc(str(tmp_path / "out"), model={"kind": "linear"}, data=data, samples=1,
                   repetitions=1, init_schemes=["uniform"])
    assert main([runner, "--config", write_doc(tmp_path, doc)]) == 1
    assert capsys.readouterr().err == ("error: Gram matrix J J^T needs 10004569 entries, "
                                       "budget is 10000000\n")
    assert not list((tmp_path / "out").glob("*.csv"))


def test_python_dash_m_runs_validate():
    import gradleak

    src = os.path.dirname(os.path.dirname(os.path.abspath(gradleak.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-m", "gradleak", "validate"], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("PASS ") and "FAIL" not in proc.stdout


def test_setup_probe_runs_on_shipped_configs():
    # the benchmark times set-up with this probe, which imports the config
    # reader, the model and data builders and the initializer by name
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    configs = [os.path.join(root, "scripts", "configs", name)
               for name in ("audit_lenet.json", "training_dynamics_mlp.json")]
    proc = subprocess.run([sys.executable, os.path.join(root, "perfbench", "setup_probe.py"),
                           *configs], env={**os.environ, "PYTHONPATH": os.path.join(root, "src")},
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 1 and float(lines[0]) > 0, proc.stdout


def test_zero_jacobian_audit_is_one_row_in_every_mode(tmp_path):
    # lambda_max + eps = 0: every solver returns 0, and so does the floor
    bodies = set()
    for mode in SOLVER_MODES:
        (tmp_path / mode).mkdir()
        path = zero_jacobian_config(tmp_path / mode, solver={"mode": mode, "epsilon": 0.0})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["audit", "--config", path]) == 0, mode
        with open(tmp_path / mode / "out" / "audit.csv") as f:
            bodies.add("".join(line for line in f if not line.startswith("#")))
    (body,) = bodies
    (row,) = csv.DictReader(body.splitlines())
    assert [float(row[k]) for k in ("i2f_exact", "i2f_lower_bound", "lambda_max")] == [0.0] * 3
    assert all(math.isfinite(float(v)) for k, v in row.items() if not k.endswith("_kind"))


def test_dump_stacks_the_channels(tmp_path):
    data = {"kind": "synthetic", "synthetic_kind": "gaussian_blobs", "shape": [3, 4, 4],
            "count": 2, "seed": 1, "num_classes": 3}
    doc = base_doc(str(tmp_path / "out"), data=data, samples=1, dump_images=True,
                   model={"kind": "linear"}, attack={"kind": "dgl", "iterations": 5})
    assert main(["audit", "--config", write_doc(tmp_path, doc)]) == 0
    for name in ("original", "recovered"):
        with open(tmp_path / "out" / f"audit_e0_s0_p0_{name}.pgm", "rb") as f:
            assert f.read().startswith(b"P5\n4 12\n255\n")


def test_dump_of_a_four_axis_sample_is_one_row(tmp_path):
    data = {"kind": "synthetic", "synthetic_kind": "separable_2class", "shape": [1, 1, 3, 3],
            "count": 2, "seed": 1, "num_classes": 2}
    doc = base_doc(str(tmp_path / "out"), data=data, samples=1, dump_images=True,
                   attack={"kind": "dgl", "iterations": 5})
    assert main(["audit", "--config", write_doc(tmp_path, doc)]) == 0
    assert (tmp_path / "out" / "audit.csv").exists()
    for name in ("original", "recovered"):
        with open(tmp_path / "out" / f"audit_e0_s0_p0_{name}.pgm", "rb") as f:
            assert f.read().startswith(b"P5\n9 1\n255\n")


def test_fairness_and_init_compare_read_solver_epsilon(tmp_path):
    # linear model: J = I, so at epsilon 5 the floor is ||delta|| / (1 + 5)
    # and the expected risk is variance * d_x / (1 + 5)^2
    doc = base_doc(str(tmp_path / "out"), samples=2, repetitions=1, init_schemes=["uniform"],
                   solver={"mode": "dense", "epsilon": 5.0},
                   attack={"kind": "dgl", "iterations": 5})
    cfg = load_config(write_doc(tmp_path, doc))
    rows, *_ = experiments.run_fairness(cfg)
    for r in rows:
        assert abs(r[4] - r[3] / 6) <= 1e-12 * r[3]
    rows, _ = experiments.run_init_compare(cfg)
    assert all(abs(r[4] - 2.5e-4) <= 1e-15 for r in rows)


def test_init_compare_on_a_zero_jacobian_runs_at_positive_epsilon(tmp_path):
    # the rank-deficient error is the undamped risk's: at epsilon > 0 the
    # damped risk of J = 0 is 0
    path = zero_jacobian_config(tmp_path, solver={"mode": "dense", "epsilon": 1.0},
                                attack={"kind": "dgl", "iterations": 5})
    assert main(["init-compare", "--config", path]) == 0
    with open(tmp_path / "out" / "init_compare.csv") as f:
        (row,) = csv.DictReader(line for line in f if not line.startswith("#"))
    assert float(row["expected_sq_risk"]) == 0.0


def test_malformed_idx_file_is_a_config_error(tmp_path, capsys):
    # one config error line, and no output directory: the data load before it is made
    path = zero_jacobian_config(tmp_path)
    images = tmp_path / "imgs.idx"
    images.write_bytes(images.read_bytes()[:-5])
    assert main(["audit", "--config", path]) == 2
    assert capsys.readouterr().err == (f"config error: data: {images}: "
                                       "expected 2 images of 3x3, file too short\n")
    assert not (tmp_path / "out").exists()


def test_idx_label_beyond_data_num_classes_is_a_config_error(tmp_path, capsys):
    # labels 0, 7, 7 under data.num_classes 3, although a 10-way head would take them
    images = np.linspace(0.0, 1.0, 27).reshape(3, 1, 3, 3)
    ds = Dataset(tuple(Sample(images[i], label) for i, label in enumerate((0, 7, 7))),
                 3, (1, 3, 3))
    ip, lp = str(tmp_path / "imgs.idx"), str(tmp_path / "lbls.idx")
    write_idx(ds, ip, lp)
    doc = base_doc(str(tmp_path / "out"), model={"kind": "mlp", "num_classes": 10},
                   data={"kind": "idx", "images_path": ip, "labels_path": lp,
                         "shape": [1, 3, 3], "num_classes": 3})
    assert main(["audit", "--config", write_doc(tmp_path, doc)]) == 2
    assert capsys.readouterr().err == (f"config error: data: {lp}: label 7 of sample 1 "
                                       "is not below num_classes 3\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("runner", ["run_audit", "run_eigen_defense", "run_fairness",
                                    "run_init_compare", "run_efficiency", "run_spectrum"])
def test_kernel_check_failure_stops_the_runner_before_its_csv(tmp_path, monkeypatch, runner):
    # an engine that disagrees with the kernel by a factor 2 on the first operator
    oracle = experiments.zoo.engine_oracle
    monkeypatch.setattr(experiments.zoo, "engine_oracle", lambda *args: 2.0 * oracle(*args))
    doc = base_doc(str(tmp_path / "out"), repetitions=1, init_schemes=["uniform"])
    with pytest.raises(RuntimeError, match="kernel disagrees with the autodiff engine"):
        getattr(experiments, runner)(load_config(write_doc(tmp_path, doc)))
    assert not list((tmp_path / "out").glob("*.csv"))
