"""Every example script runs to completion against the public API."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((REPO / "examples").glob("*.py"))


def test_examples_found():
    assert EXAMPLES


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.name)
def test_example_exits_0(script, src_env):
    completed = subprocess.run(
        [sys.executable, str(script)], cwd=REPO, env=src_env, capture_output=True, text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
