"""Every fenced `python` block of README.md runs as written: each in a fresh
namespace, from a temporary working directory, so that an example that
names a removed type or attribute fails here rather than for a reader."""

import pathlib
import re

import pytest

TEXT = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
# (line of the opening fence, code) per ```python block
BLOCKS = [(TEXT.count("\n", 0, m.start()) + 1, m.group(1))
          for m in re.finditer(r"^```python\n(.*?)^```$", TEXT, re.M | re.S)]


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("line,code", BLOCKS, ids=[f"README.md:{line}" for line, _ in BLOCKS])
def test_readme_python_block_runs(tmp_path, monkeypatch, line, code):
    monkeypatch.chdir(tmp_path)
    exec(compile(code, f"README.md:{line}", "exec"), {"__name__": "__readme__"})
