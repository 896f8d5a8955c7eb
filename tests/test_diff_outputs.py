"""scripts/diff_outputs.py: per-file verdicts and per-column changes."""

import importlib.util
import os

import pytest

SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "diff_outputs.py")


@pytest.fixture(scope="module")
def diff_outputs():
    spec = importlib.util.spec_from_file_location("diff_outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write(root, rel, text):
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def test_reports_identical_files_and_moved_columns(tmp_path, diff_outputs, capsys):
    old, new = tmp_path / "old", tmp_path / "new"
    for root, lam, seed in ((old, "2.0", "1"), (new, "2.000001", "2")):
        write(root, "run/spectrum.csv",
              f"# seed={seed}\nsample,rank,eigenvalue\n0,0,{lam}\n0,1,0.5\n")
        write(root, "run/same.csv", "a,b\n1,x\n")
        write(root, "validate.txt", f"PASS a\nPASS {seed}\n")
    write(new, "extra.csv", "a\n1\n")
    assert diff_outputs.main(["diff_outputs.py", str(old), str(new)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert f"extra.csv: only in {new}" in out
    assert "run/same.csv: byte-identical" in out
    i = out.index("run/spectrum.csv:")
    assert out[i + 1].startswith("  eigenvalue: max relative 5.00e-07, max absolute 1.00e-06, "
                                 "in 1 of 2 rows")
    assert not out[i + 2].startswith("  ")
    assert out[out.index("validate.txt:") + 1] == "  1 of 2 lines differ"
    assert diff_outputs.main(["diff_outputs.py", str(old), str(old)]) == 0

