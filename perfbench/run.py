"""gradleak benchmark: one workload in one process, as a closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; it works in the checkout root and
writes only under `.bench_out/`.  The workload's runner calls go through
`gradleak.cli.main` in-process, one after another (one client, closed
loop); a "job" is one pass over them.  A run cycles over the workload's
pool of jobs until `--seconds` is used up.  BLAS/OpenMP threads are
pinned to 1.  README.md says what each workload and metric is for.

`--trace 0` measures the end-to-end metrics with tracing off.
`--trace 1` alternates untraced and traced jobs and reports the layer
metrics; its spans go to `.bench_out/spans/`.  Every job's outputs are
checked from outside (see checks.py).  The last stdout line is the
result object; the line before it holds the details (environment, CSV
digests, per-call figures, counters, every traced layer).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from checks import check_call  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import POOL, WORKLOADS, build_calls, write_configs  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 5     # fresh interpreters timed for setup_s
OUT = ".bench_out"

# Layer metrics printed by --trace 1, as (name, unit).  Only timings that
# are nonzero on every workload are here; the rest (for example
# models.jvp.p50_ms, which spectrum-dense never calls) are in the detail
# line and the spans file.  Counts are exact and repeat run to run.
LAYER_METRICS = (
    ("autodiff.grad.calls", "count"),
    ("autodiff.grad.nodes_p50", "count"),
    ("autodiff.grad.self_s", "s"),
    ("autodiff.grad.p50_ms", "ms"),
    ("autodiff.matmul.calls", "count"),
    ("autodiff.matmul.self_s", "s"),
    ("autodiff.mul.calls", "count"),
    ("autodiff.mul.self_s", "s"),
    ("autodiff.add.calls", "count"),
    ("autodiff.add.self_s", "s"),
    ("autodiff.sigmoid.calls", "count"),
    ("autodiff.sigmoid.self_s", "s"),
    ("autodiff.im2col.calls", "count"),
    ("autodiff.col2im.calls", "count"),
    ("autodiff.self_s", "s"),
    ("models.operator_build.calls", "count"),
    ("models.operator_build.p50_ms", "ms"),
    ("models.jvp.calls", "count"),
    ("models.vjp.calls", "count"),
    ("models.vjp.p50_ms", "ms"),
    ("models.vjp.self_s", "s"),
    ("models.matvecs", "count"),
    ("models.train_model.calls", "count"),
    ("models.self_s", "s"),
    ("influence.i2f_exact.calls", "count"),
    ("influence.i2f_exact.iterations", "count"),
    ("influence.i2f_exact.unconverged", "count"),
    ("influence.power_iteration.calls", "count"),
    ("influence.power_iteration.iterations", "count"),
    ("influence.power_iteration.unconverged", "count"),
    ("influence.dense_jacobian.calls", "count"),
    ("influence.lower_bound_violations", "count"),
    ("influence.self_s", "s"),
    ("attacks.run_attack.calls", "count"),
    ("attacks.run_attack.iterations", "count"),
    ("attacks.run_attack.self_s", "s"),
    ("attacks.run_attack.step_ms_p50", "ms"),
    ("attacks.diverged_rows", "count"),
    ("linalg.svd.calls", "count"),
    ("linalg.eigvalsh.calls", "count"),
    ("linalg.solve.calls", "count"),
    ("linalg.norm.calls", "count"),
    ("linalg.s", "s"),
    ("experiments.self_s", "s"),
    ("data.synthetic_samples.s", "s"),
    ("data.write_report_csv.calls", "count"),
    ("data.write_report_csv.bytes", "B"),
    ("data.write_report_csv.s", "s"),
    ("config.load_config.s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.attributed_share", "ratio"),
)
LAYERS = ("autodiff", "models", "influence", "attacks", "linalg", "experiments", "data", "config")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True, help="workload seed, >= 0")
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def flatten(summary):
    """Tracer summary -> {"<module>.<function>.<stat>": value} plus module totals."""
    flat = {}
    for name, row in summary.items():
        for stat, value in row.items():
            flat[f"{name}.{stat}"] = value
    for layer in LAYERS:
        flat[f"{layer}.self_s"] = sum(r.get("self_s", 0.0) for n, r in summary.items()
                                      if n.startswith(layer + "."))
    flat["linalg.s"] = sum(r["s"] for n, r in summary.items() if n.startswith("linalg."))
    flat["models.matvecs"] = (summary.get("models.jvp", {}).get("calls", 0)
                              + summary.get("models.vjp", {}).get("calls", 0))
    return flat


TIME_STATS = {"s", "self_s", "p50_ms", "step_ms", "step_ms_p50"}


def is_count(key):
    """Work counts repeat exactly; timings and ratios do not."""
    return key.rsplit(".", 1)[-1] not in TIME_STATS and not key.startswith("trace.")


class Bench:
    """Runs jobs of one workload, checks their outputs and keeps the figures."""

    def __init__(self, workload, seed, out, small=False):
        from gradleak import cli

        self.cli = cli
        self.workload, self.seed, self.out, self.small = workload, seed, out, small
        self.calls = build_calls(workload, seed, out, 0, small)
        self.attempted = self.failed = 0
        self.problems = []
        self.digests = {}   # job index -> CSV digests of its first run
        self.counters = {}  # job index -> honesty counters

    def prepare(self, index):
        """Calls of job `index` and their CLI arguments, with configs written."""
        calls = build_calls(self.workload, self.seed, self.out, index, self.small)
        return calls, write_configs(calls, os.path.join(self.out, "configs", str(index)))

    def _run_calls(self, argvs):
        walls, outcomes = [], []
        for argv in argvs:
            buf = io.StringIO()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(buf):
                    code = self.cli.main(argv)
            except Exception:  # a runner error is one failed operation; keep going
                code = traceback.format_exc(limit=3)
            walls.append(time.perf_counter() - start)
            outcomes.append((code, buf.getvalue()))
        return walls, outcomes

    def job(self, index, tracer=None):
        """Job `index`: one closed-loop pass over its calls; returns
        (per-call walls, job wall).  A job run again must write the same bytes."""
        calls, argvs = self.prepare(index)
        run = self._run_calls if tracer is None else tracer.wrap("run", self._run_calls)
        start = time.perf_counter()
        walls, outcomes = run(argvs)
        wall = time.perf_counter() - start
        self._check(index, calls, outcomes)
        return walls, wall

    def _check(self, index, calls, outcomes):
        digests, counters = {}, {"lower_bound_violations": 0, "diverged_rows": 0}
        first = self.digests.get(index)
        for call, (code, text) in zip(calls, outcomes):
            problems, call_digests, call_counters = check_call(call, code, text)
            for name, digest in call_digests.items():
                key = f"{call.name}/{name}"
                digests[key] = digest
                if first is not None and first.get(key) != digest:
                    problems.append(f"{name}: digest differs from the first run of job {index}")
            for k, v in call_counters.items():
                counters[k] += v
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems += [f"job {index} {call.name}: {p}" for p in problems]
        self.digests.setdefault(index, digests)
        self.counters.setdefault(index, counters)


def median(values):
    return statistics.median(values) if values else 0.0


def measure_setup(argvs):
    """Median set-up seconds over fresh interpreters (import, parse, build, data)."""
    configs = [a[a.index("--config") + 1] for a in argvs if "--config" in a]
    cmd = [sys.executable, os.path.join("perfbench", "setup_probe.py"), *configs]
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return median(times), times


def loadavg():
    try:
        with open("/proc/loadavg") as f:
            return f.read().split()[:3]
    except OSError:
        return None


def environment(seed):
    import numpy
    import platform

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError, AttributeError):
        blas = None
    h = hashlib.sha256()
    src = os.path.join("src", "gradleak")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as f:
                h.update(name.encode() + b"\0" + f.read())
    commit = None
    if os.path.isdir(".git"):
        done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              timeout=30)
        commit = done.stdout.strip() or None
    return {"python": platform.python_version(), "numpy": numpy.__version__, "blas": blas,
            "threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "commit": commit, "source_sha256": h.hexdigest(), "seed": seed}


def call_rates(calls, per_job_walls):
    """Figures named per call kind, each a median over jobs."""
    def rate(attr, select):
        idx = [i for i, c in enumerate(calls) if select(c) and getattr(c, attr)]
        if not idx:
            return None
        work = sum(getattr(calls[i], attr) for i in idx)
        return median([work / sum(w[i] for i in idx) for w in per_job_walls])

    out = {
        "audit_rows_per_s": rate("audit_rows", lambda c: c.runner == "audit"),
        "attack_steps_per_s": rate("attack_steps", lambda c: c.runner == "fairness"),
        "jacobians_per_s": rate("jacobians", lambda c: True),
    }
    val = [i for i, c in enumerate(calls) if c.runner == "validate"]
    if val:
        out["validate_s"] = median([w[val[0]] for w in per_job_walls])
    out["call_s"] = {c.name: median([w[i] for w in per_job_walls]) for i, c in enumerate(calls)}
    return {k: v for k, v in out.items() if v is not None}


def run_plain(bench, seconds):
    """Passes over the pool of jobs until `seconds` is spent, at least one
    whole pass; returns the per-call walls of every job and the job walls
    by job index.  A job run again must write the same bytes, so job 0
    runs once more if the time allowed only one pass."""
    pool = POOL[bench.workload]
    start = time.perf_counter()
    per_call, walls, done = [], {j: [] for j in range(pool)}, []
    while len(done) < pool or time.perf_counter() - start + median(done) <= seconds:
        w, wall = bench.job(len(done) % pool)
        per_call.append(w)
        walls[len(done) % pool].append(wall)
        done.append(wall)
    if len(done) == pool:
        bench.job(0)
    return per_call, walls


def run_traced(bench, seconds):
    """Each job untraced, then traced (same inputs, so the same bytes);
    returns (untraced walls, traced walls, tracers)."""
    start = time.perf_counter()
    plain, traced, tracers = [], [], []
    while not traced or time.perf_counter() - start + median(plain) + median(traced) <= seconds:
        index = len(plain) % POOL[bench.workload]
        plain.append(bench.job(index)[1])
        tracer = Tracer()
        with tracer:
            traced.append(bench.job(index, tracer)[1])
        tracers.append(tracer)
    return plain, traced, tracers


def layer_figures(bench, plain, traced, tracers):
    """Per-layer figures: work counts of job 0 (exact for a given seed),
    timings as medians over the traced jobs."""
    flats = []
    for tracer in tracers:
        flat = flatten(tracer.summary())
        run = tracer.stats["run"]
        flat["trace.attributed_share"] = 1.0 - run.self / run.total
        flat["trace.self_sum_error"] = abs(sum(s.self for s in tracer.stats.values())
                                           - run.total) / run.total
        flats.append(flat)
    figures = {k: v for k, v in flats[0].items() if is_count(k)}
    for key in flats[0]:
        if not is_count(key):
            figures[key] = median([f.get(key, 0.0) for f in flats])
    figures["influence.lower_bound_violations"] = bench.counters[0]["lower_bound_violations"]
    figures["attacks.diverged_rows"] = bench.counters[0]["diverged_rows"]
    figures["trace.overhead_ratio"] = median([t / p for t, p in zip(traced, plain)])
    attack_s = figures.get("attacks.run_attack.s", 0.0)
    metric_s = figures.get("influence.i2f_exact.s", 0.0) + figures.get(
        "influence.i2f_lower_bound.s", 0.0)
    if attack_s and metric_s:
        figures["attack_over_metric_ratio"] = attack_s / metric_s
    return figures


def write_spans(path, tracers):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump({"columns": ["name", "start", "end", "parent"],
                   "jobs": [t.spans for t in tracers]}, f, separators=(",", ":"))


def main(argv=None):
    args = parse_args(argv)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "gradleak", "cli.py")):
        print(f"perfbench: no gradleak sources under {src}", file=sys.stderr)
        return 2
    os.chdir(root)
    for var in THREAD_VARS:  # before numpy is first imported, here and in the probes
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    sys.path.insert(0, src)
    load_start = loadavg()

    bench = Bench(args.workload, args.seed, os.path.join(OUT, args.workload, f"seed-{args.seed}"))
    setup_s, setup_samples = measure_setup(bench.prepare(0)[1])
    info = {"workload": args.workload, "trace": args.trace, "env": environment(args.seed),
            "setup_s_samples": setup_samples}
    if args.trace:
        plain, traced, tracers = run_traced(bench, args.seconds)
        figures = layer_figures(bench, plain, traced, tracers)
        write_spans(os.path.join(OUT, "spans", f"{args.workload}-seed{args.seed}.json"), tracers)
        metrics = {name: {"value": figures.get(name, 0), "unit": unit}
                   for name, unit in LAYER_METRICS}
        info.update(plain_job_s=plain, traced_job_s=traced, layers=figures)
    else:
        per_call, walls = run_plain(bench, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # each job's median, averaged over the pool: the same work in every run
        job_s = statistics.fmean(median(w) for w in walls.values())
        metrics = {"setup_s": {"value": setup_s, "unit": "s"},
                   "job_s": {"value": job_s, "unit": "s"},
                   "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}}
        info.update(job_walls=walls, **call_rates(bench.calls, per_call))
    info.update(attempted=bench.attempted, failed=bench.failed,
                failed_ratio=bench.failed / bench.attempted, problems=bench.problems[:20],
                counters=bench.counters, digests=bench.digests)
    info["env"]["loadavg"] = {"start": load_start, "end": loadavg()}
    for p in bench.problems:
        print(f"perfbench: {p}", file=sys.stderr)

    result = {"correct": bench.failed == 0, "attempted": bench.attempted,
              "failed": bench.failed, "metrics": metrics}
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    with open(os.path.join(OUT, "results",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as f:
        json.dump({"info": info, "result": result}, f, indent=1)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
