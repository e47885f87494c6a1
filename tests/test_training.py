"""Training harness: config, optimizer, train loop, evaluation, sweep."""

import contextlib
import dataclasses
import json
import math
import re

import numpy as np
import pytest

import kkt.training as training
from kkt import knowledge
from kkt import tensor as T
from kkt.attention import encode
from kkt.checkpoint import checkpoint_bytes, parse_checkpoint
from kkt.data import gen_synthetic, planted_turns_from_meta, write_bundle
from kkt.keyturns import LeadingProvider, NliProvider, OracleProvider
from kkt.knowledge import read_graph
from kkt.model import ABLATIONS
from kkt.optim import Adam
from kkt.tensor import Tensor
from kkt.tokenizer import Tokenizer
from kkt.training import (
    ConfigurationError,
    EvalReport,
    RunConfig,
    ablation_sweep,
    build_vocab,
    effective_seed,
    evaluate,
    evaluate_pipeline,
    fingerprint,
    pipeline_from_checkpoint,
    restore_checkpoint,
    train,
)


# ---------------------------------------------------------------- RunConfig


def test_config_derived_fields():
    cfg = RunConfig(d_model=24)
    assert cfg.d_ff == 96
    assert cfg.np_dtype == np.float32
    assert RunConfig(dtype="float64").np_dtype == np.float64


def test_config_dict_round_trip():
    cfg = RunConfig(d_model=8, h=2, layers=1, k=3, seed=11, ablation="kt")
    assert RunConfig.from_dict(cfg.to_dict()) == cfg


def test_config_rejects_unknown_fields():
    with pytest.raises(ConfigurationError, match="momentum"):
        RunConfig.from_dict({"momentum": 0.9})
    with pytest.raises(ConfigurationError, match="JSON object"):
        RunConfig.from_dict(5)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"ablation": "everything"},
        {"dtype": "float16"},
        {"key_turn_provider": "psychic"},
        {"k": -1},
        {"p": -2},
        {"d_model": "8"},
        {"d_model": 0},
        {"h": 0},
        {"h": 3},
        {"layers": 0},
        {"batch_size": 0},
        {"max_length": 0},
        {"epochs": -1},
        {"warmup_steps": -1},
        {"nli_epochs": -1},
        {"seed": -1},
        {"epochs": True},
        {"k": 2.0},
        {"learning_rate": 0.0},
        {"learning_rate": -1e-3},
        {"learning_rate": float("inf")},
        {"learning_rate": float("nan")},
        {"learning_rate": "1e-3"},
        {"learning_rate": True},
        {"weight_threshold": float("-inf")},
        {"weight_threshold": None},
        {"ablation": ["full"]},
        {"dtype": ["float32"]},
    ],
)
def test_config_validation(kwargs):
    # Every rejection names the offending field.
    (name,) = kwargs
    with pytest.raises(ConfigurationError, match=rf"\b{name}\b"):
        RunConfig(**kwargs)


def test_config_accepts_range_boundaries():
    cfg = RunConfig(d_model=1, h=1, layers=1, batch_size=1, max_length=1, epochs=0, warmup_steps=0,
                    nli_epochs=0, k=0, p=0, seed=0, learning_rate=1, weight_threshold=-2)
    assert RunConfig.from_dict(cfg.to_dict()) == cfg


# ---------------------------------------------------------- seed/fingerprint


def test_effective_seed_env_override(monkeypatch):
    cfg = RunConfig(seed=3)
    monkeypatch.delenv("KKT_SEED", raising=False)
    assert effective_seed(cfg) == 3
    monkeypatch.setenv("KKT_SEED", "41")
    assert effective_seed(cfg) == 41
    monkeypatch.setenv("KKT_SEED", "")
    assert effective_seed(cfg) == 3


def test_fingerprint_determinism_and_sensitivity():
    cfg = RunConfig(seed=0)
    fp = fingerprint(cfg, 0, {"train": "aa"})
    assert fp == fingerprint(RunConfig(seed=0), 0, {"train": "aa"})
    assert re.fullmatch(r"[0-9a-f]{64}", fp)
    assert fp != fingerprint(cfg, 1, {"train": "aa"})
    assert fp != fingerprint(cfg, 0, {"train": "ab"})
    assert fp != fingerprint(RunConfig(seed=0, k=7), 0, {"train": "aa"})


# -------------------------------------------------------------------- vocab


def test_build_vocab_includes_graph_words(tmp_path):
    bundle = gen_synthetic(seed=2, n=4, mode="knowledge-signal")
    kg = tmp_path / "kg.tsv"
    kg.write_text("locatedat\tzanzibar\tqoph\t2.0\nlocatedat\tjib\tkex\t0.5\n", encoding="utf-8")
    vocab = build_vocab(bundle.dataset, read_graph(kg).triples, weight_threshold=1.0)
    assert vocab.has("zanzibar") and vocab.has("qoph")
    # Below the weight threshold the triple contributes nothing.
    assert not vocab.has("jib") and not vocab.has("kex")
    plain = build_vocab(bundle.dataset)
    assert not plain.has("zanzibar")


# --------------------------------------------------------------- EvalReport


def test_eval_report_accuracy_and_json():
    preds = [{"example_id": f"d{i}", "predicted": 0, "gold": 0, "correct": i < 3} for i in range(4)]
    rep = EvalReport(n=4, n_plus=3, mean_loss=1.0, predictions=preds, fingerprint="f", ablation="full")
    assert rep.accuracy == 0.75
    obj = json.loads(rep.to_json())
    assert obj["n"] == 4 and obj["n_plus"] == 3 and obj["accuracy"] == 0.75
    assert obj["ablation"] == "full" and len(obj["predictions"]) == 4
    assert rep.to_json() == rep.to_json()


# --------------------------------------------------------------------- Adam


def _param(values):
    return Tensor(np.array(values, dtype=np.float64), requires_grad=True)


def test_adam_first_step_moves_by_lr():
    # For the very first update Adam's step is lr * sign(g) up to eps.
    p = _param([1.0, -2.0])
    opt = Adam({"p": p}, lr=0.1)
    p.grad = np.array([0.5, -0.25])
    opt.step()
    np.testing.assert_allclose(p.data, [0.9, -1.9], atol=1e-6)
    assert opt.t == 1


def test_adam_warmup_schedule():
    p = _param([0.0])
    opt = Adam({"p": p}, lr=1.0, warmup_steps=4)
    seen = []
    for _ in range(6):
        seen.append(opt.current_lr())
        p.grad = np.array([1.0])
        opt.step()
    assert seen == [0.25, 0.5, 0.75, 1.0, 1.0, 1.0]


def test_adam_skips_missing_grads_and_zero_grad():
    p, q = _param([1.0]), _param([2.0])
    opt = Adam({"p": p, "q": q}, lr=0.5)
    p.grad = np.array([1.0])
    opt.step()
    assert q.data[0] == 2.0 and p.data[0] != 1.0
    opt.zero_grad()
    assert p.grad is None and q.grad is None


def test_adam_keeps_float32_parameters_under_a_numpy_scalar_lr():
    # A float64 numpy scalar would promote the update (NEP 50); lr is a Python float.
    p = Tensor(np.array([1.0, -2.0], dtype=np.float32), requires_grad=True)
    opt = Adam({"p": p}, lr=np.float64(0.1), warmup_steps=2)
    for _ in range(3):
        p.grad = np.array([0.5, -0.25], dtype=np.float32)
        opt.step()
    assert p.data.dtype == np.float32
    assert type(opt.current_lr()) is float


def test_adam_second_step_matches_reference():
    # Replay the textbook update rule by hand for two steps.
    p = _param([1.0])
    opt = Adam({"p": p}, lr=0.1)
    grads = [0.5, -0.3]
    m = v = 0.0
    x = 1.0
    for t, g in enumerate(grads, start=1):
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        x -= 0.1 * (m / (1 - 0.9**t)) / (math.sqrt(v / (1 - 0.999**t)) + 1e-8)
        p.grad = np.array([g])
        opt.step()
    np.testing.assert_allclose(p.data, [x], rtol=1e-12)


# ------------------------------------------------------------ train fixture


def _small_cfg(**overrides):
    base = dict(
        d_model=8, h=2, layers=1, k=2, p=2, epochs=2, batch_size=4,
        max_length=96, warmup_steps=4, learning_rate=1e-3,
        key_turn_provider="leading", seed=0,
    )
    base.update(overrides)
    return RunConfig(**base)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("bundle")
    bundle = gen_synthetic(seed=5, n=12, mode="mixed")
    dev = gen_synthetic(seed=5, n=6, mode="mixed", split="dev")
    paths = write_bundle(bundle, root)
    return {"bundle": bundle, "dev": dev.dataset, "paths": paths}


@pytest.fixture(scope="module")
def run(corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    cfg = _small_cfg()
    result = train(
        cfg,
        corpus["bundle"].dataset,
        kg_path=corpus["paths"]["kg"],
        dev_dataset=corpus["dev"],
        out_dir=out,
        surfaces_path=corpus["paths"]["surfaces"],
        lexicon_path=corpus["paths"]["lexicon"],
    )
    return {"cfg": cfg, "result": result, "out": out}


# -------------------------------------------------------------------- train


def test_train_rejects_empty_dataset(corpus):
    empty = corpus["bundle"].dataset.__class__(dialogues=[], examples=[])
    with pytest.raises(ValueError, match="empty"):
        train(_small_cfg(), empty)


def test_train_history_shape(run):
    history = run["result"].history
    assert len(history) == 2
    for i, rec in enumerate(history, start=1):
        assert rec["epoch"] == i
        assert math.isfinite(rec["train_loss"])
        assert 0.0 <= rec["train_accuracy"] <= 1.0
        assert 0.0 <= rec["dev_accuracy"] <= 1.0


def test_train_writes_run_directory(run, corpus):
    out, result, cfg = run["out"], run["result"], run["cfg"]
    assert (out / "vocab.txt").exists()
    assert json.loads((out / "config.json").read_text()) == cfg.to_dict()
    assert (out / "epoch_001.kkt").exists() and (out / "epoch_002.kkt").exists()
    assert (out / "model.kkt").read_bytes() == result.best_blob()
    report = json.loads((out / "report.json").read_text())
    assert report["fingerprint"] == result.fingerprint
    assert report["history"] == result.history
    assert report["best_epoch"] == result.best["epoch"]
    assert report["best_dev_accuracy"] == result.best["dev_accuracy"]


def test_best_epoch_matches_history(run):
    # Strict improvement only, so the earliest maximum wins.
    history = run["result"].history
    best_epoch, best_acc = 0, None
    for rec in history:
        if best_acc is None or rec["dev_accuracy"] > best_acc:
            best_epoch, best_acc = rec["epoch"], rec["dev_accuracy"]
    assert run["result"].best["epoch"] == best_epoch
    assert run["result"].best["dev_accuracy"] == best_acc
    stored = (run["out"] / f"epoch_{best_epoch:03d}.kkt").read_bytes()
    assert run["result"].best_blob() == stored


def test_train_is_deterministic(corpus, run):
    again = train(
        run["cfg"],
        corpus["bundle"].dataset,
        kg_path=corpus["paths"]["kg"],
        dev_dataset=corpus["dev"],
        surfaces_path=corpus["paths"]["surfaces"],
        lexicon_path=corpus["paths"]["lexicon"],
    )
    assert again.history == run["result"].history
    assert again.final_blob == run["result"].final_blob
    assert again.fingerprint == run["result"].fingerprint


def test_zero_epochs_leaves_initialization(corpus):
    result = train(_small_cfg(epochs=0), corpus["bundle"].dataset)
    assert result.history == []
    assert result.best["epoch"] == 0 and result.best["dev_accuracy"] is None
    assert result.final_blob == result.best_blob()


def test_each_epoch_is_serialized_once(corpus, tmp_path, monkeypatch):
    calls = []
    real = training.checkpoint_bytes
    monkeypatch.setattr(training, "checkpoint_bytes", lambda *a, **kw: calls.append(a) or real(*a, **kw))
    result = train(_small_cfg(epochs=2), corpus["bundle"].dataset, out_dir=tmp_path)
    # The initial weights, then one blob per epoch; the last one is final.
    assert len(calls) == 1 + 2
    assert result.final_blob == (tmp_path / "epoch_002.kkt").read_bytes()


def test_nli_provider_needs_a_trained_scorer(run, corpus):
    nli_cfg = _small_cfg(epochs=0, key_turn_provider="nli", nli_epochs=1)
    with pytest.raises(ConfigurationError, match="NLI"):
        train(nli_cfg, corpus["bundle"].dataset)
    # A checkpoint without NLI tensors cannot serve the `nli` provider either.
    with pytest.raises(ConfigurationError, match="NLI"):
        pipeline_from_checkpoint(run["result"].best_blob(), nli_cfg, run["result"].vocab)
    fitted = train(nli_cfg, corpus["bundle"].dataset, nli_corpus=corpus["bundle"].nli_records)
    assert isinstance(fitted.pipeline.provider, NliProvider)
    assert fitted.nli_report["n"] == len(corpus["bundle"].nli_records)


def test_without_dev_final_epoch_is_best(corpus):
    result = train(_small_cfg(epochs=2), corpus["bundle"].dataset)
    assert result.best["epoch"] == 2
    assert result.best["dev_accuracy"] is None
    assert result.best_blob() == result.final_blob


def test_log_callback_sees_every_epoch(corpus):
    seen = []
    result = train(_small_cfg(epochs=2), corpus["bundle"].dataset, log=seen.append)
    assert seen == result.history


def test_seed_env_override_changes_run(corpus, monkeypatch):
    monkeypatch.delenv("KKT_SEED", raising=False)
    plain = train(_small_cfg(epochs=1, seed=7), corpus["bundle"].dataset)
    monkeypatch.setenv("KKT_SEED", "7")
    overridden = train(_small_cfg(epochs=1, seed=0), corpus["bundle"].dataset)
    assert overridden.final_blob == plain.final_blob
    assert overridden.history == plain.history
    # The fingerprint keeps the configured seed, so provenance still differs.
    assert overridden.fingerprint != plain.fingerprint


def test_small_set_overfits(corpus):
    cfg = _small_cfg(epochs=60, learning_rate=3e-3, warmup_steps=10)
    subset = corpus["bundle"].dataset.__class__(
        dialogues=corpus["bundle"].dataset.dialogues[:8],
        examples=corpus["bundle"].dataset.examples[:8],
    )
    result = train(cfg, subset, stop_at_train_accuracy=1.0)
    assert result.history[-1]["train_accuracy"] == 1.0
    assert len(result.history) < 60


def test_non_finite_loss_aborts_with_location(corpus):
    cfg = _small_cfg(epochs=1, batch_size=2, learning_rate=1e30)
    with np.errstate(all="ignore"), pytest.raises(RuntimeError) as err:
        train(cfg, corpus["bundle"].dataset)
    assert re.search(r"non-finite loss at epoch 1 step \d+ example mixed-train-\d+#0", str(err.value))


# ------------------------------------------------- checkpoint -> evaluation


def test_evaluate_round_trip_is_stable(run, corpus):
    cfg, result = run["cfg"], run["result"]
    first = evaluate(result.best_blob(), cfg, result.vocab, corpus["dev"], kg_path=corpus["paths"]["kg"])
    second = evaluate(result.best_blob(), cfg, result.vocab, corpus["dev"], kg_path=corpus["paths"]["kg"])
    assert first.to_json() == second.to_json()
    assert first.n == len(corpus["dev"].examples)
    assert first.ablation == "full"


def test_evaluate_from_file(run, corpus, tmp_path):
    path = tmp_path / "model.kkt"
    path.write_bytes(run["result"].best_blob())
    rep = evaluate(path, run["cfg"], run["result"].vocab, corpus["dev"])
    direct = evaluate(run["result"].best_blob(), run["cfg"], run["result"].vocab, corpus["dev"])
    assert rep.to_json() == direct.to_json()


def test_checkpoint_ablation_must_match(run, corpus):
    with pytest.raises(ConfigurationError, match="'full'.*'base'"):
        pipeline_from_checkpoint(run["result"].best_blob(), run["cfg"], run["result"].vocab, ablation="base")


def test_checkpoint_adopts_tag_when_unspecified(run):
    pipe = pipeline_from_checkpoint(run["result"].best_blob(), run["cfg"], run["result"].vocab)
    assert pipe.ablation == "full"
    assert isinstance(pipe.provider, LeadingProvider)


def test_checkpoint_restores_trained_weights(run):
    pipe = pipeline_from_checkpoint(run["result"].best_blob(), run["cfg"], run["result"].vocab)
    trained = run["result"].params.named_parameters()
    rebuilt = pipe.params.named_parameters()
    assert sorted(rebuilt) == sorted(trained)
    # The shared fixture has best == final, so live weights match the blob.
    if run["result"].best_blob() == run["result"].final_blob:
        for name, p in rebuilt.items():
            np.testing.assert_array_equal(p.data, trained[name].data)


@pytest.mark.parametrize("ablation", ABLATIONS)
def test_every_ablation_restores_its_checkpoint(corpus, ablation):
    cfg = _small_cfg(epochs=1, ablation=ablation)
    result = train(cfg, corpus["bundle"].dataset, kg_path=corpus["paths"]["kg"])
    params, head = restore_checkpoint(parse_checkpoint(result.final_blob), cfg, result.vocab)
    assert params.ablation == ablation and head is None
    trained = result.params.named_parameters()
    rebuilt = params.named_parameters()
    assert sorted(rebuilt) == sorted(trained)
    for name, p in rebuilt.items():
        np.testing.assert_array_equal(p.data, trained[name].data)
    assert checkpoint_bytes(rebuilt, ablation) == result.final_blob


def test_oracle_provider_from_config(run, corpus):
    cfg = _small_cfg(key_turn_provider="oracle")
    planted = planted_turns_from_meta(corpus["bundle"].meta)
    pipe = pipeline_from_checkpoint(run["result"].best_blob(), cfg, run["result"].vocab, planted=planted)
    assert isinstance(pipe.provider, OracleProvider)


def test_predictions_reproduce_training_pipeline(run, corpus):
    # Re-wrapping the final blob must reproduce the live pipeline's answers.
    live = evaluate_pipeline(run["result"].pipeline, corpus["dev"])
    rebuilt = pipeline_from_checkpoint(
        run["result"].final_blob, run["cfg"], run["result"].vocab,
        kg_path=corpus["paths"]["kg"],
        surfaces_path=corpus["paths"]["surfaces"],
        lexicon_path=corpus["paths"]["lexicon"],
    )
    again = evaluate_pipeline(rebuilt, corpus["dev"])
    assert [p["predicted"] for p in again.predictions] == [p["predicted"] for p in live.predictions]


def _kg_pipeline(blob, cfg, vocab, paths):
    return pipeline_from_checkpoint(blob, cfg, vocab, paths["kg"], paths["surfaces"], paths["lexicon"])


def test_caches_are_keyed_by_content(run, corpus):
    # Two examples that share an id must not share cached facts.
    a, b = corpus["dev"].examples[0], corpus["dev"].examples[-1]
    b = dataclasses.replace(b, dialogue_id=a.dialogue_id, qa_index=a.qa_index)
    assert a.example_id == b.example_id and a.turns != b.turns
    blob, vocab = run["result"].final_blob, run["result"].vocab
    shared = _kg_pipeline(blob, run["cfg"], vocab, corpus["paths"])
    together = [shared.predict(ex).logits for ex in (a, b)]
    apart = [_kg_pipeline(blob, run["cfg"], vocab, corpus["paths"]).predict(ex).logits for ex in (a, b)]
    assert all(np.array_equal(x, y) for x, y in zip(together, apart))


def test_eval_fingerprint_hashes_checkpoint(run, corpus):
    cfg, result = run["cfg"], run["result"]
    untrained = train(dataclasses.replace(cfg, epochs=0), corpus["bundle"].dataset, kg_path=corpus["paths"]["kg"],
                      surfaces_path=corpus["paths"]["surfaces"], lexicon_path=corpus["paths"]["lexicon"])
    assert untrained.final_blob != result.best_blob()
    fps = [evaluate(blob, cfg, result.vocab, corpus["dev"]).fingerprint
           for blob in (result.best_blob(), result.best_blob(), untrained.final_blob)]
    assert fps[0] == fps[1]
    assert fps[0] != fps[2]


def test_eval_fingerprint_hashes_the_vocabulary(run, corpus):
    # Same checkpoint, same vocabulary size, words in reverse order: the
    # ids, and so the report, change, and the fingerprint must too.
    cfg, result = run["cfg"], run["result"]
    words = result.vocab.tokens[5:]
    reversed_vocab = Tokenizer(list(reversed(words)))
    assert len(reversed_vocab) == len(result.vocab)
    reports = [evaluate(result.best_blob(), cfg, vocab, corpus["dev"])
               for vocab in (result.vocab, reversed_vocab, result.vocab)]
    assert reports[0].to_json() == reports[2].to_json()
    assert reports[0].fingerprint != reports[1].fingerprint
    assert reports[0].mean_loss != reports[1].mean_loss


def test_train_fingerprint_hashes_every_input(corpus):
    paths = corpus["paths"]
    dataset = corpus["bundle"].dataset
    cfg = _small_cfg(epochs=0)
    inputs = {
        "surfaces_path": paths["surfaces"],
        "lexicon_path": paths["lexicon"],
        "nli_corpus": [{"premise": "a", "hypothesis": "b", "label": 1}],
        "planted": planted_turns_from_meta(corpus["bundle"].meta),
    }
    plain = train(cfg, dataset, kg_path=paths["kg"]).fingerprint
    seen = {plain}
    for name, value in inputs.items():
        fp = train(cfg, dataset, kg_path=paths["kg"], **{name: value}).fingerprint
        assert fp not in seen, name
        seen.add(fp)
    assert train(cfg, dataset, kg_path=paths["kg"]).fingerprint == plain


# ----------------------------------------------------- graph-free evaluation


def _kg_args(corpus):
    paths = corpus["paths"]
    return dict(kg_path=paths["kg"], surfaces_path=paths["surfaces"], lexicon_path=paths["lexicon"])


@pytest.fixture(scope="module")
def f64_init(corpus):
    """An untrained float64 knowledge model and a way to wrap it in fresh pipelines."""
    cfg = _small_cfg(dtype="float64", epochs=0)
    init = train(cfg, corpus["bundle"].dataset, **_kg_args(corpus))

    def fresh():
        return _kg_pipeline(init.final_blob, cfg, init.vocab, corpus["paths"])

    return fresh


def test_eval_report_matches_a_graph_building_predict_loop(f64_init, corpus):
    report = evaluate_pipeline(f64_init(), corpus["dev"], "fp")
    pipe = f64_init()
    results = [pipe.predict(ex) for ex in corpus["dev"].examples]
    assert all(res.loss.requires_grad for res in results)
    examples = corpus["dev"].examples
    by_hand = EvalReport(
        n=len(results),
        n_plus=sum(res.predicted == ex.gold for res, ex in zip(results, examples)),
        mean_loss=sum(res.loss.item() for res in results) / len(results),
        predictions=[{"example_id": ex.example_id, "predicted": res.predicted, "gold": ex.gold,
                      "correct": res.predicted == ex.gold} for res, ex in zip(results, examples)],
        fingerprint="fp",
        ablation=pipe.ablation,
    )
    assert report.to_json() == by_hand.to_json()


def _grads_of(pipe, example):
    named = pipe.params.named_parameters()
    for p in named.values():
        p.grad = None
    res = pipe.predict(example)
    assert not any(flags["ck_identity"] for flags in res.flags)  # the fact encoder is on the path
    res.loss.backward()
    return {name: p.grad for name, p in named.items()}


def test_evaluation_leaves_training_gradients_intact(f64_init, corpus):
    # Evaluation caches graph-free fact embeddings; a later graph-building
    # predict must not reuse them, or the fact encoder loses its gradient.
    pipe = f64_init()
    evaluate_pipeline(pipe, corpus["dev"])
    example = corpus["dev"].examples[1]
    after_eval = _grads_of(pipe, example)
    fresh = _grads_of(f64_init(), example)
    assert sorted(after_eval) == sorted(fresh)
    for name, g in fresh.items():
        assert (g is None) == (after_eval[name] is None), name
        if g is not None:
            np.testing.assert_array_equal(after_eval[name], g, err_msg=name)
    assert fresh["fact_sa.wq"] is not None


def test_step_scope_gives_the_per_example_gradients_of_a_batch(f64_init, corpus):
    # One optimizer step's leaf gradients: with the step scope, each fact's
    # encoder graph is walked once on leaving it; without, once per example.
    batch = corpus["bundle"].dataset.examples[:6]

    def step_grads(scoped):
        pipe = f64_init()
        named = pipe.params.named_parameters()
        fe = pipe.fact_encoder
        with fe.step() if scoped else contextlib.nullcontext():
            pipe.prepare_knowledge(batch)
            for ex in batch:
                T.mul(pipe.predict(ex).loss, 1.0 / len(batch)).backward()
        return {name: p.grad for name, p in named.items() if p.grad is not None}

    want, got = step_grads(False), step_grads(True)
    assert sorted(got) == sorted(want)
    assert {"fact_sa.wq", "fact_sa.wv", "enc.tok_emb", "enc.block0.attn.wk"} <= set(got)
    for name, g in want.items():
        np.testing.assert_allclose(got[name], g, rtol=1e-10, atol=1e-15, err_msg=name)


def test_a_batch_encodes_its_facts_in_one_encoder_call(f64_init, corpus, monkeypatch):
    calls = []

    def counting(params, *seqs):
        calls.append(len(seqs))
        return encode(params, *seqs)

    monkeypatch.setattr(knowledge, "encode", counting)
    pipe = f64_init()
    batch = corpus["bundle"].dataset.examples[:4]
    with pipe.fact_encoder.step():
        pipe.prepare_knowledge(batch)
        assert len(calls) == 1 and calls[0] > 1
        for ex in batch:
            pipe.predict(ex).loss.backward()
        assert len(calls) == 1
    # Training makes one fact-encoder call per optimizer step.
    calls.clear()
    cfg = _small_cfg(epochs=1, batch_size=4)
    train(cfg, corpus["bundle"].dataset, **_kg_args(corpus))
    assert len(calls) == math.ceil(len(corpus["bundle"].dataset.examples) / cfg.batch_size)


def test_train_with_dev_keeps_the_loss_history(corpus):
    # Dev evaluation between epochs must not change what training computes.
    cfg = _small_cfg(dtype="float64", epochs=3)
    with_dev = train(cfg, corpus["bundle"].dataset, dev_dataset=corpus["dev"], **_kg_args(corpus))
    without = train(cfg, corpus["bundle"].dataset, **_kg_args(corpus))
    dev_accuracies = [h.pop("dev_accuracy") for h in with_dev.history]
    assert len(dev_accuracies) == 3 and None not in dev_accuracies
    assert with_dev.history == without.history
    assert with_dev.final_blob == without.final_blob


# -------------------------------------------------------------------- sweep


def test_sweep_reports_grid_cells(corpus, monkeypatch):
    calls = []
    original = training.train

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(training, "train", counting)
    cfg = _small_cfg(epochs=1)
    rows = ablation_sweep(
        cfg, corpus["bundle"].dataset, corpus["dev"],
        kg_path=corpus["paths"]["kg"], grid={"k": [2, 6], "p": [30]},
    )
    assert len(calls) == 1
    assert [(r["k"], r["p"]) for r in rows] == [(2, 30), (6, 30)]
    for row in rows:
        assert set(row) == {"k", "p", "n", "n_plus", "accuracy", "fingerprint"}
        assert row["n"] == len(corpus["dev"].examples)
        assert row["accuracy"] == row["n_plus"] / row["n"]
    assert rows[0]["fingerprint"] != rows[1]["fingerprint"]


def test_sweep_can_retrain_per_cell(corpus, monkeypatch):
    calls = []
    original = training.train

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(training, "train", counting)
    cfg = _small_cfg(epochs=1)
    rows = ablation_sweep(
        cfg, corpus["bundle"].dataset, corpus["dev"],
        grid={"k": [1, 2]}, train_per_cell=True,
    )
    assert len(calls) == 2
    assert len(rows) == 2


def test_sweep_fingerprint_hashes_checkpoint(corpus):
    # Same config, seed and eval set; only the training data differs.
    dataset = corpus["bundle"].dataset
    half = dataset.__class__(dialogues=dataset.dialogues[:6], examples=dataset.examples[:6])
    cfg = _small_cfg(epochs=1)
    rows = [ablation_sweep(cfg, data, corpus["dev"])[0] for data in (dataset, half, dataset)]
    assert rows[0]["fingerprint"] == rows[2]["fingerprint"]
    assert rows[0]["fingerprint"] != rows[1]["fingerprint"]


def test_sweep_rejects_empty_grid(corpus):
    with pytest.raises(ConfigurationError, match="grid"):
        ablation_sweep(_small_cfg(), corpus["bundle"].dataset, corpus["dev"], grid={"k": []})
