"""The README's library example runs as written."""

import re
import subprocess
import sys

import pytest

from conftest import ROOT, source_env

_BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)


def test_readme_has_a_python_block():
    assert _BLOCKS


@pytest.mark.parametrize("block", _BLOCKS, ids=[f"block{k}" for k in range(len(_BLOCKS))])
def test_readme_python_block_runs(block, tmp_path):
    done = subprocess.run(
        [sys.executable, "-W", "error", "-c", block],
        cwd=tmp_path,
        env=source_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
