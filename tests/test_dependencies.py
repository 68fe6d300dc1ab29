"""The library runs on numpy alone: scipy is needed by the tests only."""

import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

# one short stream per engine; the smc pool includes the Student's t
# candidate, whose density constant needs a log-gamma
CONFIGS = {
    "kf": """\
engine = kf
kf.models = 2
kf.model.1.A = [1.0]
kf.model.1.Q = [0.05]
kf.model.1.B = [1.0]
kf.model.1.R = [0.04]
kf.model.2.A = [1.0]
kf.model.2.Q = [0.05]
kf.model.2.B = [1.0]
kf.model.2.R = [4.0]
kf.init.mean = [0.0]
kf.init.cov = [1.0]
""",
    "intel": "engine = intel\nintel.window = 4\n",
    "smc": """\
engine = smc
smc.models = 2
smc.particles = 50
smc.model.1.kind = toy_gaussian
smc.model.2.kind = toy_student_t
smc.init.point = [1.0]
""",
}

SCRIPT = """\
import sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
import bdemm, bdemm.cli, bdemm.stream, bdemm.toy
for engine in sys.argv[1:]:
    rows = bdemm.stream.run_stream(engine + ".cfg", "obs.csv", engine + ".out")
    print(engine, rows)
"""


def test_library_imports_and_streams_without_scipy(tmp_path):
    for engine, text in CONFIGS.items():
        (tmp_path / (engine + ".cfg")).write_text(text)
    (tmp_path / "obs.csv").write_text("0.1\n0.3\n-0.2\n5.0\n0.0\n0.4\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", SCRIPT, *CONFIGS],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["kf 6", "intel 6", "smc 6"]


def test_numpy_floor_is_two():
    # the error scope is numpy's errstate decorator, which keeps each
    # call's state in that call only from numpy 2.0 on; tomllib is 3.11+,
    # so the line is read with a pattern
    text = (ROOT / "pyproject.toml").read_text()
    floors = re.findall(r'"numpy>=(\d+)(?:\.\d+)*"', text)
    assert len(floors) == 1 and int(floors[0]) >= 2
