"""Every script under ``examples/`` runs to completion.

The examples are the library's documented entry points, so each one runs in
its own interpreter (exactly as ``python examples/<name>.py`` would) and must
exit with status 0.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def test_examples_are_collected():
    # An empty glob would parametrise test_example_runs into a silent skip.
    assert len(EXAMPLES) >= 4


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda script: script.stem)
def test_example_runs(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), env.get("PYTHONPATH")))
    )
    completed = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
