"""The benchmark's own self-check, run on a copy of the checkout.

``bench/run.py --self-check`` runs every workload at tiny sizes and
corrupts the library functions the benchmark patches (``simulate._run``,
``exact.propagate``, ``cli._csv_table``), so a renamed hook or a broken
output check fails here and not only in a benchmark run.
"""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_self_check_passes(tmp_path):
    # the run writes .bench_out/ beside bench/, so it runs on a copy
    ignore = shutil.ignore_patterns("__pycache__", "*.egg-info")
    for name in ("bench", "src"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "bench/run.py", "--self-check"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == "self-check passed", done.stdout
