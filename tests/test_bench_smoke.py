"""The committed benchmark still runs against the package: every workload at
its tiny size passes its correctness checks and no operation fails."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_runs_every_workload_tiny():
    # --seconds 0.5: a zero measuring window leaves the benchmark no samples
    args = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "all", "--tiny",
            "--seed", "1", "--seconds", "0.5", "--trace", "0"]
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    final = json.loads(proc.stdout.strip().splitlines()[-1])
    assert final["correct"] is True
    assert final["failed"] == 0
