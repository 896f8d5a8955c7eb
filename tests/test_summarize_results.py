"""scripts/summarize_results.py: no statistic from too few rows."""

import importlib.util
import os

import pytest

SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "summarize_results.py")


@pytest.fixture(scope="module")
def summarize():
    spec = importlib.util.spec_from_file_location("summarize_results", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_runs(root, attack_l2, class_mses):
    (root / "audit_lenet").mkdir(parents=True)
    (root / "fairness").mkdir()
    (root / "audit_lenet" / "audit.csv").write_text(
        "# seed=0\ni2f_lower_bound,attack_l2\n"
        + "".join(f"{i + 1},{v}\n" for i, v in enumerate(attack_l2)))
    (root / "fairness" / "fairness_classes.csv").write_text(
        "# seed=0\nlabel,count,mean_mse\n"
        + "".join(f"{i},1,{m}\n" for i, m in enumerate(class_mses)))


def test_too_few_rows_print_no_statistic(tmp_path, summarize, capsys):
    # two audit rows always correlate by +-1, and one class has no spread
    write_runs(tmp_path, [2.0, 1.0], [0.5])
    summarize.main(["summarize_results.py", str(tmp_path)])
    assert capsys.readouterr().out.splitlines() == [
        "audit: 2 rows, corr(lower bound, attack L2) = n/a (2 rows)",
        "fairness: class-mean MSE spread n/a (1 rows)",
    ]


def test_enough_rows_print_the_statistic(tmp_path, summarize, capsys):
    write_runs(tmp_path, [3.0, 2.0, 1.0], [0.5, 2.0])
    summarize.main(["summarize_results.py", str(tmp_path)])
    assert capsys.readouterr().out.splitlines() == [
        "audit: 3 rows, corr(lower bound, attack L2) = -1.000",
        "fairness: class-mean MSE spread 0.500 .. 2.000 (ratio 4.00)",
    ]
