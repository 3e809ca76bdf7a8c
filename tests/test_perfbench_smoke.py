"""The benchmark's own smoke check, run as a test.

``perfbench/smoke.py`` runs every workload at a tiny size, untraced and
traced; it fails when the program stops calling a name the tracer wraps or
a per-layer metric reads 0.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke():
    proc = subprocess.run(
        [sys.executable, "perfbench/smoke.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
