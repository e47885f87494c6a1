"""The benchmark's layer hooks still find, and are reached by, what they wrap.

`perfbench/run.py` wraps kkt functions by name (`NliProvider.select`,
`keyturns.score_turn`, `model.encode_pair`, ...). A rename makes the
benchmark fail to start; a caller that stops going through the module
attribute makes a layer metric read 0. Here the full set of hooks is
installed, a tiny NLI train and eval runs, every wrapped name must record a
span, and uninstalling must restore every original. It runs in a child
process because `run.py` pins the BLAS thread count before numpy is imported.
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

class Recording(run.Tracer):
    wrapped = set()

    def wrap(self, owner, attr, name, **kwargs):
        self.wrapped.add(name)
        super().wrap(owner, attr, name, **kwargs)

kkt = run.import_kkt()
tracer = Recording()
run.install(tracer, run.Observer(), kkt, full=True)
patches = list(tracer._patches)
try:
    with tempfile.TemporaryDirectory() as work:
        bundle = kkt.data.gen_synthetic(seed=1, n=4, mode="mixed", split="train")
        kg = kkt.data.write_bundle(bundle, work)["kg"]
        cfg = kkt.RunConfig(d_model=8, h=2, layers=1, k=2, p=2, epochs=1, nli_epochs=1, batch_size=4,
                            key_turn_provider="nli")
        res = kkt.training.train(cfg, bundle.dataset, kg_path=kg, nli_corpus=bundle.nli_records[:6])
        pipe = kkt.training.pipeline_from_checkpoint(res.best_blob(), cfg, res.vocab, kg_path=kg)
        kkt.training.evaluate_pipeline(pipe, bundle.dataset)
finally:
    tracer.uninstall()
print(json.dumps({
    "wrapped": sorted(tracer.wrapped),
    "spans": sorted({s.name for s in tracer.spans}),
    "restored": all(getattr(owner, attr) is original for owner, attr, original in patches),
}))
"""


def test_every_benchmark_hook_installs_records_and_uninstalls():
    proc = subprocess.run(
        [sys.executable, "-B", "-c", CHILD, str(PERFBENCH)], capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert {"keyturns.select", "keyturns.score_turn", "model.encode_pair"} <= set(out["wrapped"])
    assert set(out["wrapped"]) - set(out["spans"]) == set()
    assert out["restored"]
