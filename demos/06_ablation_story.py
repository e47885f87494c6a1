#!/usr/bin/env python3
# Why the knowledge path earns its keep: on dialogues whose answer depends
# on an entity-to-location fact that is never stated in the text, the full
# model beats a context-only baseline by a wide margin. Dev entities are
# disjoint from training entities, so memorizing the text cannot help.
#
# Scaled down from the release gate (tests/test_acceptance.py, criterion 6);
# expect roughly 1 minute.

import tempfile

from kkt.data import gen_synthetic, write_bundle
from kkt.training import RunConfig, evaluate_pipeline, train

SEED = 5

train_bundle = gen_synthetic(seed=11, n=120, mode="knowledge-signal", split="train")
dev_bundle = gen_synthetic(seed=11, n=90, mode="knowledge-signal", split="dev")
print(f"train {len(train_bundle.dataset.examples)} / dev {len(dev_bundle.dataset.examples)} "
      "(disjoint entity pools, shared fact table)")

with tempfile.TemporaryDirectory() as td:
    paths = write_bundle(train_bundle, td)
    for mode in ("base", "full"):
        cfg = RunConfig(
            d_model=24, h=2, layers=1, k=2, p=2, epochs=5, batch_size=8,
            max_length=80, key_turn_provider="leading", warmup_steps=20,
            learning_rate=2e-3, ablation=mode, seed=SEED,
        )
        result = train(
            cfg, train_bundle.dataset, kg_path=paths["kg"],
            dev_dataset=dev_bundle.dataset,
            surfaces_path=paths["surfaces"], lexicon_path=paths["lexicon"],
        )
        pipe = result.eval_pipeline(result.best_blob(), cfg)
        acc = evaluate_pipeline(pipe, dev_bundle.dataset).accuracy
        print(f"  {mode:5s}: best dev {acc:.3f} (chance is 0.333)")

print("the gap is the retrieved facts doing the answering")
