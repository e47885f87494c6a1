"""The benchmark's pinned reference outputs hold for this tree.

`perfbench/run.py` checks two float64 eval digests and a float32 loss curve
against `perfbench/reference.json` on every benchmark run. Running the same
checks here makes a shifted initialisation draw or a changed forward pass
fail the test suite, not only the benchmark. They run in a child process
because `run.py` pins the BLAS thread count before numpy is imported.
"""

import json
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

CHILD = """
import json, sys, tempfile
sys.path.insert(0, sys.argv[1])
import run
with tempfile.TemporaryDirectory() as work:
    print(json.dumps(run.reference_checks(run.import_kkt(), work)))
"""


def test_benchmark_reference_checks_pass():
    proc = subprocess.run(
        [sys.executable, "-B", "-c", CHILD, str(PERFBENCH)], capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stderr
    checks = json.loads(proc.stdout.splitlines()[-1])
    assert [c["check"] for c in checks] == ["float64_eval_digest", "float64_nli_eval_digest", "float32_train_loss"]
    failed = [c for c in checks if not c["ok"]]
    assert not failed, failed
