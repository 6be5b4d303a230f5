"""Smoke test of the narrative demos: each runs to exit 0 as a script.

The demos import from the package's top level, so a name dropped from
sparsepr/__init__.py that a demo still uses fails here.  Demo 04 is left
out: it runs for about 20 s and prints timings.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ["01_measure_and_recover.py", "02_certify_uniqueness.py", "03_collisions_below_threshold.py"]


def _run_demo(name: str, cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "demos" / name)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name, tmp_path):
    proc = _run_demo(name, tmp_path)
    assert proc.returncode == 0, proc.stderr
    if name.startswith("03"):
        lines = proc.stdout.splitlines()
        threshold = lines.index("Complex collision probe at m = 4k - 2 (falsification attempt):")
        assert lines[threshold + 1].startswith("  verdict: no_collision_found")
        embedding = lines.index("And a probe that must find one (real 1x2 embedding, k = 1):")
        assert lines[embedding + 1].startswith("  verdict: collision_found")
