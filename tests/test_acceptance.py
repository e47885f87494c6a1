"""Release gate: ten criteria, one test each, in order.

Each test prints a single scoreboard line (bypassing capture) before its
assertions, so a partial run still shows which criteria were met. The two
training-based ablation checks (6 and 7) dominate the runtime; the whole
module takes a few minutes single-core.

Run just this gate with:  pytest tests/test_acceptance.py -v
"""

import dataclasses
import math
import tempfile
import time
from pathlib import Path

import numpy as np

import helpers
from kkt import tensor as T
from kkt.attention import MhaParams, mha, self_attention
from kkt.checkpoint import checkpoint_bytes, named_parameters, parse_checkpoint
from kkt.data import gen_synthetic, planted_turns_from_meta, write_bundle
from kkt.keyturns import LeadingProvider, select_key_turns
from kkt.knowledge import load_kg, rank_triples, read_graph
from kkt.model import DialogueExample, EncodedPair, KktParams, KktPipeline, dual_coattention, refine
from kkt.tokenizer import Tokenizer
from kkt.training import (
    RunConfig,
    build_vocab,
    evaluate,
    evaluate_pipeline,
    pipeline_from_checkpoint,
    train,
)
from test_model import fake_fact
from test_tensor import _fd_cases, make


def report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} ({detail})")


# ------------------------------------------------------------- criterion 1


def _extra_fd_cases(seed):
    """Composite and attention-level differentiable operations."""
    rng = np.random.default_rng(seed)

    def r(*shape):
        return make(rng.standard_normal(shape))

    x, w = r(3, 4), r(4, 2)
    e = r(5, 4)
    v1, v2 = r(1, 4), r(1, 4)
    logits = r(3)
    p = MhaParams.init(4, 2, rng)
    p2 = MhaParams.init(4, 2, rng)
    h_c, h_qa = r(4, 4), r(2, 4)
    mha_leaves = [h_c, h_qa, p.wq, p.wk, p.wv]
    duma_leaves = mha_leaves + [p2.wq, p2.wk, p2.wv]
    return {
        "matmul": (lambda: T.sum_all(T.matmul(x, w)), [x, w]),
        "segment_mean": (lambda: T.sum_all(T.mul(T.segment_mean(e, [2, 3]), T.concat_rows([v1, v2]))), [e, v1, v2]),
        "concat_last_axis": (lambda: T.sum_all(T.mul(T.concat_last_axis([v1, v2]), T.concat_last_axis([v2, v1]))), [v1, v2]),
        "concat_rows": (lambda: T.sum_all(T.matmul(T.concat_rows([v1, v2]), w)), [v1, v2, w]),
        "cross_entropy": (lambda: T.cross_entropy_from_logits(logits, 1), [logits]),
        "mha": (lambda: T.sum_all(mha(p, h_c, h_qa, h_qa)), mha_leaves),
        "self_attention": (lambda: T.sum_all(self_attention(p, h_c)), [h_c, p.wq, p.wk, p.wv]),
        "dual_coattention": (lambda: T.sum_all(dual_coattention(p, p2, h_c, h_qa, (4,), (2,))), duma_leaves),
    }


def _fd_pipeline(tmp_path):
    """Tiny full-ablation pipeline where knowledge and key turns are active."""
    kg = tmp_path / "kg.tsv"
    kg.write_text(
        "atlocation\tbike\tstreet\t2.0\n"
        "relatedto\tbike\twheel\t1.5\n"
        "atlocation\tbook\tlibrary\t2.0\n",
        encoding="utf-8",
    )
    ex = DialogueExample(
        turns=["m : my bike is broken", "w : take it outside", "m : i will go now"],
        question="where can you find a bike ?",
        options=["street", "library", "wheel"],
        gold=0,
        dialogue_id="fd0",
    )
    texts = ex.turns + [ex.qa_text(j) for j in range(3)]
    vocab = Tokenizer.build(texts + ["bike street wheel book library atlocation relatedto"])
    rng = np.random.default_rng(17)
    params = KktParams.init(len(vocab), 8, 2, 1, 32, 64, "full", rng)
    store = load_kg(read_graph(kg), 1.0, vocab)
    pipeline = KktPipeline(params, vocab, store, LeadingProvider(), k=2, p=2, max_len=64)
    return pipeline, ex


def test_criterion_1_gradient_suite(capsys, tmp_path):
    t0 = time.perf_counter()
    worst_ops = 0.0
    for seed in range(2):
        for cases in (_fd_cases(seed), _extra_fd_cases(seed)):
            for name, (loss_fn, leaves) in cases.items():
                err = helpers.gradcheck(loss_fn, leaves)
                worst_ops = max(worst_ops, err)

    pipeline, ex = _fd_pipeline(tmp_path)
    probe = pipeline.predict(ex)
    flags = probe.flags[0]
    assert not flags["ck_identity"] and not flags["qak_identity"] and not flags["kt_identity"]

    def loss_fn():
        pipeline.fact_encoder.invalidate()
        return pipeline.predict(ex).loss

    named = named_parameters(pipeline.params)
    for p in named.values():
        p.grad = None
    loss_fn().backward()
    # Every parameter of the model is inside this loss, and every one gets FD.
    inert = sorted(name for name, p in named.items() if p.grad is None)
    assert inert == []
    leaves = list(named.values())
    errs = helpers.sampled_rel_errs(loss_fn, leaves, np.random.default_rng(0), per_tensor=2)
    worst_model = max(errs)
    elapsed = time.perf_counter() - t0
    ok = worst_ops < 1e-4 and worst_model < 1e-3 and elapsed < 120.0
    report(capsys, 1, ok, f"ops rel err {worst_ops:.2e}, model rel err {worst_model:.2e}, {elapsed:.1f}s")
    assert worst_ops < 1e-4
    assert worst_model < 1e-3
    assert elapsed < 120.0


# ------------------------------------------------------------- criterion 2


def test_criterion_2_oracle_equivalence(capsys):
    rng = np.random.default_rng(12)
    worst = 0.0
    count = 0

    def rand_mha(d, h):
        return MhaParams.init(d, h, rng)

    def shapes():
        h = int(rng.choice([1, 2]))
        d = h * int(rng.choice([1, 2, 4]))
        return d, h

    for _ in range(25):
        d, h = shapes()
        nq, nk = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        p = rand_mha(d, h)
        q, k, v = (rng.standard_normal((n, d)) for n in (nq, nk, nk))
        got = mha(p, T.Tensor(q), T.Tensor(k), T.Tensor(v)).data
        want, _ = helpers.naive_mha(*helpers.mha_arrays(p), q, k, v)
        worst = max(worst, float(np.max(np.abs(got - want))))
        count += 1

    for _ in range(25):
        d, h = shapes()
        n = int(rng.integers(1, 9))
        p = rand_mha(d, h)
        x = rng.standard_normal((n, d))
        got = self_attention(p, T.Tensor(x)).data
        want, _ = helpers.naive_mha(*helpers.mha_arrays(p), x, x, x)
        worst = max(worst, float(np.max(np.abs(got - want))))
        count += 1

    for _ in range(25):
        d, h = shapes()
        nc, nqa = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        p1, p2 = rand_mha(d, h), rand_mha(d, h)
        h_c, h_qa = rng.standard_normal((nc, d)), rng.standard_normal((nqa, d))
        got = dual_coattention(p1, p2, T.Tensor(h_c), T.Tensor(h_qa), (nc,), (nqa,)).data
        want = helpers.naive_duma(p1, p2, h_c, h_qa)
        worst = max(worst, float(np.max(np.abs(got - want))))
        count += 1

    for _ in range(25):
        d, h = shapes()
        params = KktParams.init(16, d, h, 1, 4 * d, 32, "full", rng)
        nc = int(rng.integers(2, 9))
        cut = int(rng.integers(1, nc))
        spans = [(0, cut), (cut, nc)]
        # Draws in this order: context rows, QA row count, QA rows.
        h_c = T.Tensor(rng.standard_normal((nc, d)))
        nqa = int(rng.integers(1, 9))
        enc = EncodedPair(
            h_c=h_c,
            h_qa=T.Tensor(rng.standard_normal((nqa, d))),
            turn_spans=[spans],
            truncated=False,
            c_lengths=(nc,),
            qa_lengths=(nqa,),
        )
        key_turns = tuple(t for t in range(2) if rng.random() < 0.7)
        ck = [fake_fact(rng.standard_normal(d)) for _ in range(int(rng.integers(0, 3)))]
        qak = [fake_fact(rng.standard_normal(d)) for _ in range(int(rng.integers(0, 3)))]
        got = refine(params, enc, [key_turns], ck, [qak])
        ck_rows = np.array([f.data for f in ck]).reshape(len(ck), d)
        qak_rows = np.array([f.data for f in qak]).reshape(len(qak), d)
        _, h_c_kt, h_c_k, h_qa_k = helpers.naive_refine(
            params, enc.h_c.data, enc.h_qa.data, spans, key_turns, ck_rows, qak_rows
        )
        for a, b in ((got.h_c_kt.data, h_c_kt), (got.h_c_k.data, h_c_k), (got.h_qa_k.data, h_qa_k)):
            worst = max(worst, float(np.max(np.abs(a - b))))
        count += 1

    ok = worst < 1e-10 and count == 100
    report(capsys, 2, ok, f"{count} instances, worst abs diff {worst:.2e}")
    assert count == 100
    assert worst < 1e-10


# ------------------------------------------------------------- criterion 3


def test_criterion_3_selection_contract(capsys):
    scores = [-1.91, -1.49, -2.53, -1.66, -2.26, -1.87]
    got = select_key_turns(scores, 2)
    ok = got == (1, 3)
    report(capsys, 3, ok, f"k=2 selected turns {tuple(i + 1 for i in got)} (1-indexed), expected (2, 4)")
    assert got == (1, 3)


# ------------------------------------------------------------- criterion 4


def test_criterion_4_retrieval_contract(capsys, tmp_path):
    rng = np.random.default_rng(21)
    nouns = [
        "bike", "street", "book", "library", "shelf", "wheel", "garden", "kitchen",
        "school", "ticket", "window", "doctor", "river", "market", "bridge", "engine",
    ]
    relations = ["atlocation", "relatedto", "capableof"]
    lines = []
    for _ in range(60):
        head, tail = rng.choice(nouns, size=2, replace=False)
        weight = float(rng.choice([0.5, 1.0, 1.5, 2.0, 3.0]))
        lines.append(f"{rng.choice(relations)}\t{head}\t{tail}\t{weight}")
    kg = tmp_path / "kg.tsv"
    kg.write_text("\n".join(lines) + "\n", encoding="utf-8")
    vocab = Tokenizer.build([" ".join(nouns + relations)])
    store = load_kg(read_graph(kg), 1.0, vocab)
    assert len(store) > 10

    mismatches = 0
    for _ in range(100):
        n_words = int(rng.integers(1, 5))
        query = ["the " + " ".join(rng.choice(nouns, size=n_words, replace=False))]
        p = int(rng.choice([1, 3, 5]))
        if rank_triples(store, query, p) != helpers.brute_retrieve_ids(store, query, p):
            mismatches += 1

    fixture = tmp_path / "bike.tsv"
    fixture.write_text(
        "atlocation\tbike\tstreet\t2.0\n"
        "atlocation\tbook\tshelf\t3.0\n"
        "relatedto\tstreet\tcity\t2.5\n",
        encoding="utf-8",
    )
    fixture_vocab = Tokenizer.build(["bike street book shelf city my is broken"])
    fixture_store = load_kg(read_graph(fixture), 1.0, fixture_vocab)
    ids = rank_triples(fixture_store, ["m : my bike is broken"], 2)
    heads = [(fixture_store.triples[t].relation, fixture_store.triples[t].head, fixture_store.triples[t].tail) for t in ids]
    fixture_ok = ("atlocation", "bike", "street") in heads

    ok = mismatches == 0 and fixture_ok
    report(capsys, 4, ok, f"100 queries, {mismatches} mismatches; bike fixture hit={fixture_ok}")
    assert mismatches == 0
    assert fixture_ok


# ------------------------------------------------------------- criterion 5


def test_criterion_5_overfit(capsys):
    t0 = time.perf_counter()
    bundle = gen_synthetic(seed=3, n=32, mode="mixed")
    cfg = RunConfig(
        d_model=8, h=2, layers=1, k=2, p=2, epochs=200, batch_size=8,
        max_length=96, warmup_steps=20, learning_rate=3e-3, ablation="full", seed=0,
    )
    result = train(cfg, bundle.dataset, stop_at_train_accuracy=1.0)
    elapsed = time.perf_counter() - t0
    final = result.history[-1]["train_accuracy"]
    epochs_run = len(result.history)
    ok = final == 1.0 and epochs_run <= 200 and elapsed < 300.0
    report(capsys, 5, ok, f"train acc {final:.2f} at epoch {epochs_run}, {elapsed:.1f}s")
    assert final == 1.0
    assert epochs_run <= 200
    assert elapsed < 300.0


# ------------------------------------------------------------- criterion 6


def test_criterion_6_knowledge_ablation(capsys):
    """Mean over 3 seeds on a 510-example knowledge-signal dev set.

    Answering needs an entity->location fact that never appears in the
    dialogue text, so the knowledge path has to supply it.
    """
    tr = gen_synthetic(seed=11, n=240, mode="knowledge-signal", split="train")
    sel = gen_synthetic(seed=11, n=150, mode="knowledge-signal", split="dev")
    rep = gen_synthetic(seed=11, n=510, mode="knowledge-signal", split="dev")
    accs = {m: [] for m in ("full", "base", "kt")}
    with tempfile.TemporaryDirectory() as td:
        paths = write_bundle(tr, td)
        for seed in (5, 6, 7):
            for mode in ("full", "base", "kt"):
                cfg = RunConfig(
                    d_model=24, h=2, layers=1, k=2, p=2, epochs=6, batch_size=8,
                    max_length=80, key_turn_provider="leading", warmup_steps=20,
                    learning_rate=2e-3, ablation=mode, seed=seed,
                )
                res = train(
                    cfg, tr.dataset, kg_path=paths["kg"], dev_dataset=sel.dataset,
                    surfaces_path=paths["surfaces"], lexicon_path=paths["lexicon"],
                )
                pipe = res.eval_pipeline(res.best_blob(), cfg)
                accs[mode].append(evaluate_pipeline(pipe, rep.dataset).accuracy)
    means = {m: float(np.mean(v)) for m, v in accs.items()}
    margin_base = means["full"] - means["base"]
    margin_kt = means["full"] - means["kt"]
    ok = len(rep.dataset.examples) >= 500 and margin_base >= 0.05 and margin_kt >= 0.02
    report(
        capsys, 6, ok,
        f"mean acc full {means['full']:.3f} base {means['base']:.3f} kt {means['kt']:.3f}; "
        f"margins +{margin_base * 100:.1f}/+{margin_kt * 100:.1f} pts (need +5/+2)",
    )
    assert len(rep.dataset.examples) >= 500
    assert margin_base >= 0.05
    assert margin_kt >= 0.02


# ------------------------------------------------------------- criterion 7


def test_criterion_7_keyturn_trend(capsys):
    """k=1 with the planted turn rivals full context; k=1 without it collapses.

    The planted turn never opens the dialogue, so a leading-turns picker at
    k=1 is guaranteed to miss it.
    """
    tr = gen_synthetic(seed=11, n=240, mode="keyturn-signal", split="train")
    sel = gen_synthetic(seed=11, n=150, mode="keyturn-signal", split="dev")
    rep = gen_synthetic(seed=11, n=510, mode="keyturn-signal", split="dev")
    planted = {}
    for b in (tr, sel, rep):
        planted.update(planted_turns_from_meta(b.meta))

    cfg_b = RunConfig(
        d_model=24, h=2, layers=1, k=1, p=2, epochs=8, batch_size=8,
        max_length=80, warmup_steps=20, learning_rate=2e-3, ablation="base", seed=5,
    )
    res_b = train(cfg_b, tr.dataset, dev_dataset=sel.dataset)
    pipe_b = pipeline_from_checkpoint(res_b.best_blob(), cfg_b, res_b.vocab)
    acc_full_context = evaluate_pipeline(pipe_b, rep.dataset).accuracy

    cfg_o = RunConfig(
        d_model=24, h=2, layers=1, k=1, p=2, epochs=8, batch_size=8,
        max_length=80, key_turn_provider="oracle", warmup_steps=20,
        learning_rate=2e-3, ablation="keyturns-only", seed=5,
    )
    res_o = train(cfg_o, tr.dataset, dev_dataset=sel.dataset, planted=planted)
    pipe_o = pipeline_from_checkpoint(res_o.best_blob(), cfg_o, res_o.vocab, planted=planted)
    acc_oracle = evaluate_pipeline(pipe_o, rep.dataset).accuracy

    pipe_l = pipeline_from_checkpoint(res_o.best_blob(), cfg_o, res_o.vocab)
    pipe_l.provider = LeadingProvider()
    acc_missing = evaluate_pipeline(pipe_l, rep.dataset).accuracy

    within = acc_oracle - acc_full_context
    degrade = acc_oracle - acc_missing
    ok = within >= -0.02 and degrade >= 0.10
    report(
        capsys, 7, ok,
        f"k=1 oracle {acc_oracle:.3f} vs full-context {acc_full_context:.3f} "
        f"({within * 100:+.1f} pts, allow -2); planted turn missed {acc_missing:.3f} "
        f"(degrades {degrade * 100:.1f} pts, need 10)",
    )
    assert within >= -0.02
    assert degrade >= 0.10


# ------------------------------------------------------------- criterion 8


def test_criterion_8_determinism(capsys):
    bundle = gen_synthetic(seed=4, n=12, mode="mixed")
    cfg = RunConfig(
        d_model=8, h=2, layers=1, k=2, p=2, epochs=2, batch_size=4,
        max_length=96, warmup_steps=4, learning_rate=1e-3,
        key_turn_provider="leading", seed=1,
    )
    r1 = train(cfg, bundle.dataset)
    r2 = train(cfg, bundle.dataset)
    blob_ok = r1.final_blob == r2.final_blob
    rep1 = evaluate(r1.final_blob, cfg, r1.vocab, bundle.dataset)
    rep2 = evaluate(r2.final_blob, cfg, r2.vocab, bundle.dataset)
    report_ok = rep1.to_json() == rep2.to_json()
    parsed = parse_checkpoint(r1.final_blob)
    round_trip_ok = checkpoint_bytes(parsed.tensors, parsed.ablation) == r1.final_blob
    ok = blob_ok and report_ok and round_trip_ok
    report(
        capsys, 8, ok,
        f"checkpoints identical={blob_ok}, reports identical={report_ok}, round trip bit-exact={round_trip_ok}",
    )
    assert blob_ok
    assert report_ok
    assert round_trip_ok


# ------------------------------------------------------------- criterion 9


def _untrained_pipeline(dataset, seed=0):
    vocab = build_vocab(dataset)
    params = KktParams.init(len(vocab), 8, 2, 1, 32, 160, "full", np.random.default_rng(seed))
    return KktPipeline(params, vocab, None, LeadingProvider(), k=2, p=2, max_len=160)


def test_criterion_9_chance_level(capsys):
    # 1002 examples: the nearest multiple of three, so gold positions are
    # exactly balanced and a degenerate always-same-option model scores 1/3.
    bundle = gen_synthetic(seed=6, n=1002, mode="mixed")
    counts = [0, 0, 0]
    for ex in bundle.dataset.examples:
        counts[ex.gold] += 1
    assert counts == [334, 334, 334]
    pipeline = _untrained_pipeline(bundle.dataset)
    rep = evaluate_pipeline(pipeline, bundle.dataset)
    acc_err = abs(rep.accuracy - 1.0 / 3.0)
    loss_err = abs(rep.mean_loss - math.log(3.0))
    ok = acc_err <= 0.05 and loss_err <= 0.5
    report(
        capsys, 9, ok,
        f"untrained acc {rep.accuracy:.3f} (1/3 ± 0.05), mean loss {rep.mean_loss:.3f} (ln 3 ± 0.5), n={rep.n}",
    )
    assert acc_err <= 0.05
    assert loss_err <= 0.5


# ------------------------------------------------------------ criterion 10


def test_criterion_10_option_permutation(capsys):
    bundle = gen_synthetic(seed=8, n=200, mode="mixed")
    pipeline = _untrained_pipeline(bundle.dataset, seed=3)
    rng = np.random.default_rng(0)
    failures = 0
    for ex in bundle.dataset.examples:
        perm = rng.permutation(len(ex.options))
        permuted = dataclasses.replace(
            ex,
            options=[ex.options[j] for j in perm],
            gold=int(np.where(perm == ex.gold)[0][0]),
        )
        base = pipeline.predict(ex)
        other = pipeline.predict(permuted)
        if not np.array_equal(other.logits, base.logits[perm]):
            failures += 1
    ok = failures == 0
    report(capsys, 10, ok, f"200 examples, {failures} equivariance violations (exact)")
    assert failures == 0
