"""The benchmark's ``algebra`` workload calls the library directly: it builds
frames, measures and spaces, and runs the integrals and the bridge.  Its
own per-op check runs here in a fresh interpreter, so removing or renaming
a call the benchmark still makes fails these tests, not only a benchmark
run."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_benchmark_algebra_op_passes_its_own_check():
    """``perfbench/test_perfbench.py::test_algebra_ops_pass`` sets up the
    carriers, runs the first op of every kind and checks its result, in
    about a second."""
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "perfbench/test_perfbench.py::test_algebra_ops_pass"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
