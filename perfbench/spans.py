"""Tracing from outside the program: wrap public gradleak functions.

`Tracer.install()` replaces each traced function with a timing wrapper
wherever a gradleak module binds it (`gradleak.models.grad` and
`gradleak.attacks.grad` are the same function bound twice, and
`models.ACTIVATIONS` holds `autodiff.sigmoid`), and
`uninstall()` puts every original back.  Nothing under `src/` changes.

Each wrapped call pushes a frame on one stack, so a call's self time is
its duration minus the time of the wrapped calls nested in it.  Layer
functions also keep a span (name, start, end, parent index) in memory;
the small autodiff primitives, called hundreds of thousands of times,
keep only their call count and times.  The self times of all names sum
to the duration of the outermost span.
"""

from __future__ import annotations

import importlib
import os
import statistics
import sys
import time

_clock = time.perf_counter


class Stat:
    """Per-name totals plus per-call values for the names that keep spans."""

    __slots__ = ("calls", "total", "self", "durations", "values")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.durations = []
        self.values = {}

    def add_value(self, key, value):
        self.values.setdefault(key, []).append(value)


def _run_attack_after(stat, args, kwargs, out, dur):
    n = len(out.loss_trace)
    stat.add_value("iterations", n)
    stat.add_value("step_ms", 1e3 * dur / n)


def _i2f_after(stat, args, kwargs, out, dur):
    stat.add_value("iterations", out.iterations)
    stat.add_value("unconverged", 0 if out.converged else 1)


def _power_after(stat, args, kwargs, out, dur):
    _, iterations, converged, _ = out
    stat.add_value("iterations", iterations)
    stat.add_value("unconverged", 0 if converged else 1)


def _csv_after(stat, args, kwargs, out, dur):
    path = kwargs["path"] if "path" in kwargs else args[1]
    stat.add_value("bytes", os.path.getsize(path))


# (module, attribute, traced name, keeps spans, post-call hook)
# A "Class.method" attribute patches the method on the class.
TARGETS = (
    ("gradleak.autodiff", "grad", "autodiff.grad", True, None),
    ("gradleak.autodiff", "matmul", "autodiff.matmul", False, None),
    ("gradleak.autodiff", "im2col", "autodiff.im2col", False, None),
    ("gradleak.autodiff", "col2im", "autodiff.col2im", False, None),
    ("gradleak.autodiff", "sigmoid", "autodiff.sigmoid", False, None),
    ("gradleak.autodiff", "mul", "autodiff.mul", False, None),
    ("gradleak.autodiff", "add", "autodiff.add", False, None),
    ("gradleak.models", "MixedJacobianOperator.__init__", "models.operator_build", True, None),
    ("gradleak.models", "MixedJacobianOperator.jvp", "models.jvp", True, None),
    ("gradleak.models", "MixedJacobianOperator.vjp", "models.vjp", True, None),
    ("gradleak.models", "train_model", "models.train_model", True, None),
    ("gradleak.influence", "i2f_exact", "influence.i2f_exact", True, _i2f_after),
    ("gradleak.influence", "i2f_lower_bound", "influence.i2f_lower_bound", True, None),
    ("gradleak.influence", "lambda_max_power_iteration", "influence.power_iteration", True,
     _power_after),
    ("gradleak.influence", "dense_spectrum", "influence.dense_spectrum", True, None),
    ("gradleak.influence", "_dense_from_operator", "influence.dense_jacobian", True, None),
    ("gradleak.attacks", "run_attack", "attacks.run_attack", True, _run_attack_after),
    ("gradleak.attacks", "gaussian_perturbation", "attacks.gaussian_perturbation", True, None),
    ("gradleak.attacks", "prune_gradient", "attacks.prune_gradient", True, None),
    ("numpy.linalg", "svd", "linalg.svd", True, None),
    ("numpy.linalg", "eigvalsh", "linalg.eigvalsh", True, None),
    ("numpy.linalg", "solve", "linalg.solve", True, None),
    ("numpy.linalg", "norm", "linalg.norm", False, None),
    ("gradleak.experiments", "run_audit", "experiments.audit", True, None),
    ("gradleak.experiments", "run_fairness", "experiments.fairness", True, None),
    ("gradleak.experiments", "run_spectrum", "experiments.spectrum", True, None),
    ("gradleak.experiments", "run_eigen_defense", "experiments.eigen-defense", True, None),
    ("gradleak.experiments", "run_validate", "experiments.validate", True, None),
    ("gradleak.data", "synthetic_samples", "data.synthetic_samples", True, None),
    ("gradleak.data", "write_report_csv", "data.write_report_csv", True, _csv_after),
    ("gradleak.config", "load_config", "config.load_config", True, None),
)


class Tracer:
    def __init__(self):
        self.spans = []    # (name, start, end, parent span index or -1)
        self.stats = {}    # name -> Stat
        self.nodes = []    # graph nodes visited by each autodiff.grad backward pass
        self._stack = []   # [child seconds, span index] per open wrapped call
        self._patches = []

    def wrap(self, name, fn, keep=True, after=None):
        """Return `fn` wrapped to record its calls under `name`."""
        stat = self.stats.setdefault(name, Stat())
        stack, spans = self._stack, self.spans

        def wrapper(*args, **kwargs):
            if keep:
                index = len(spans)
                spans.append(None)
            else:
                index = -1
            frame = [0.0, index]
            stack.append(frame)
            start = _clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][0] += dur
                stat.calls += 1
                stat.total += dur
                stat.self += dur - frame[0]
                if keep:
                    parent = next((f[1] for f in reversed(stack) if f[1] >= 0), -1)
                    spans[index] = (name, start, end, parent)
                    stat.durations.append(dur)
            if after is not None:
                after(stat, args, kwargs, out, dur)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Patch every target where gradleak binds it; undo with uninstall()."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        try:
            for module_name, attr, name, keep, after in TARGETS:
                module = importlib.import_module(module_name)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    owner = getattr(module, cls_name)
                    self._patch(owner, meth, self.wrap(name, owner.__dict__[meth], keep, after))
                    continue
                original = getattr(module, attr)
                wrapped = self.wrap(name, original, keep, after)
                self._patch(module, attr, wrapped)
                for mod_name, mod in list(sys.modules.items()):
                    if not mod_name.startswith("gradleak"):
                        continue
                    if mod is not module and mod.__dict__.get(attr) is original:
                        self._patch(mod, attr, wrapped)
                    # tables such as models.ACTIVATIONS bind functions too
                    for table in [v for v in vars(mod).values() if type(v) is dict]:
                        for key in [k for k, v in table.items() if v is original]:
                            self._patch(table, key, wrapped)
            ad = importlib.import_module("gradleak.autodiff")
            self._patch(ad, "_toposort", self._count_nodes(ad._toposort))
        except BaseException:
            self.uninstall()
            raise

    def _count_nodes(self, toposort):
        nodes = self.nodes

        def counted(root, needed):
            order = toposort(root, needed)
            nodes.append(len(order))
            return order

        return counted

    def _patch(self, owner, key, value):
        """Replace a module or class attribute, or a dict entry."""
        table = owner if type(owner) is dict else owner.__dict__
        self._patches.append((owner, key, table[key]))
        if owner is table:
            table[key] = value
        else:
            setattr(owner, key, value)

    def uninstall(self):
        while self._patches:
            owner, key, original = self._patches.pop()
            if type(owner) is dict:
                owner[key] = original
            else:
                setattr(owner, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def summary(self):
        """name -> {calls, s, self_s, p50_ms, <value>: sum, <value>_p50: median}."""
        out = {}
        for name, st in self.stats.items():
            row = {"calls": st.calls, "s": st.total, "self_s": st.self}
            if st.durations:
                row["p50_ms"] = 1e3 * statistics.median(st.durations)
            for key, vals in st.values.items():
                row[key] = sum(vals)
                row[f"{key}_p50"] = statistics.median(vals)
            out[name] = row
        if self.nodes:
            out.setdefault("autodiff.grad", {})["nodes_p50"] = statistics.median(self.nodes)
            out["autodiff.grad"]["nodes"] = sum(self.nodes)
        return out
