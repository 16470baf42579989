"""Smoke test of the benchmark: every workload, traced and untraced, at a tiny size.

    python3 -m pytest bench/test_smoke.py
"""

import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def test_every_workload_prints_every_metric_with_its_unit():
    proc = subprocess.run([sys.executable, str(RUN), "--smoke"], capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count("metrics ok") == 6, proc.stdout
