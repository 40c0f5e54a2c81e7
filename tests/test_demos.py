"""Each demo runs standalone, as the README promises."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name)
def test_demo_runs_standalone(demo, tmp_path):
    # the demos that write files make m2i2_demo_* directories under TMPDIR
    # and remove them before they exit
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "TMPDIR": str(tmp_path)}
    done = subprocess.run([sys.executable, str(demo)], env=env, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert not list(tmp_path.glob("m2i2_demo_*"))
