"""benchmarks/bench_kernels.py runs end to end at a small size.

The script reaches into private code (`fitting._newton_fit`, the oracles in
tests/_oracles.py, the fact tests), so a change there can break it; this
runs it in a child process and checks that both CSV writers still write
their oracles' bytes.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_kernels_runs_and_the_writers_match_their_oracles():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "bench_kernels.py"),
         "--n", "2000", "--repeat", "1", "--boot", "20"],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    for writer in ("write_csv", "write_curve_csv"):
        assert re.search(rf"^{writer} .* identical; ", proc.stdout, re.MULTILINE), \
            (writer, proc.stdout)
