"""The benchmark's own checks: exact work counts and the output checker.

Run from the repository root with `PYTHONPATH=src python3 -m pytest -q perfbench`.
Timings are never asserted; counts are.
"""

import math

import pytest

from checks import check_call
from run import Bench, flatten, is_count
from spans import Tracer
from workloads import build_calls

import gradleak.autodiff as ad
import gradleak.models as models


def traced_counts(workload, out):
    """Work counts of one traced job of the small slice of `workload`."""
    bench = Bench(workload, 3, str(out), small=True)
    bench.job(0)
    tracer = Tracer()
    with tracer:
        bench.job(0, tracer)
    assert bench.failed == 0, bench.problems
    run = tracer.stats["run"]
    assert math.isclose(sum(s.self for s in tracer.stats.values()), run.total, rel_tol=1e-9)
    counts = {k: v for k, v in flatten(tracer.summary()).items() if is_count(k)}
    return {**counts, **bench.counters[0]}


@pytest.mark.parametrize("workload", ["audit-metric", "attack-lenet", "small-models"])
def test_work_counts_repeat_exactly(workload, tmp_path):
    bindings = (ad.grad, models.grad, models.ACTIVATIONS["sigmoid"],
                models.MixedJacobianOperator.jvp)
    first = traced_counts(workload, tmp_path / "a")
    second = traced_counts(workload, tmp_path / "b")
    assert first == second
    assert first["autodiff.grad.calls"] > 0 and first["attacks.run_attack.iterations"] > 0
    assert (ad.grad, models.grad, models.ACTIVATIONS["sigmoid"],
            models.MixedJacobianOperator.jvp) == bindings


def test_checker_flags_bad_rows_and_exit_codes(tmp_path):
    (call,) = build_calls("audit-metric", 0, str(tmp_path), small=True)
    out = tmp_path / "audit-lenet"
    out.mkdir()
    header = "sample,epoch,pert_kind,i2f_exact,i2f_lower_bound,attack_l2\n"
    (out / "audit.csv").write_text("# seed=0\n" + header + "0,0,gaussian,0.5,0.75,3\n"
                                   "0,0,prune,0.5,0.25,30\n")
    problems, digests, counters = check_call(call, 0, "")
    assert problems == [] and len(digests["audit.csv"]) == 64
    assert counters == {"lower_bound_violations": 1, "diverged_rows": 1}

    (out / "audit.csv").write_text(header + "0,0,gaussian,nan,0.75,3\n")
    problems, _, _ = check_call(call, 1, "")
    assert any("exit code 1" in p for p in problems)
    assert any("1 rows, expected 2" in p for p in problems)
    assert any("i2f_exact='nan'" in p for p in problems)
