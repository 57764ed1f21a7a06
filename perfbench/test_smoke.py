"""Tests of the benchmark itself, kept out of the package's test suite:

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def test_smoke_reports_every_metric_and_checks_outputs():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {"smoke": "ok"}


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py",
                           "--workload", "falsify", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=180, check=False)
    assert proc.returncode != 0
    assert proc.stdout == ""
