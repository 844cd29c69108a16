"""The benchmark's own output checks run on every change to the library."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parent.parent


def test_perfbench_quick_passes_its_checks():
    # the thread settings of the declared benchmark command, on this interpreter
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    env = dict(os.environ)
    env.update(arg.split("=", 1) for arg in command if "=" in arg)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--quick"], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
