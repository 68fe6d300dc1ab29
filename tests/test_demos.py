"""Smoke tests: every script in demos/, and the README's Python blocks taken
together, run to completion without warnings."""

import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_CODE = "".join(re.findall(r"^```python\n(.*?)^```$",
                                 (ROOT / "README.md").read_text(),
                                 re.MULTILINE | re.DOTALL))


@pytest.mark.parametrize("args", [[str(p)] for p in DEMOS]
                         + [["-c", README_CODE]],
                         ids=[p.stem for p in DEMOS] + ["README"])
def test_demo_runs_cleanly(args, tmp_path):
    assert args[-1].strip(), "no code to run"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-W", "error", *args],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
