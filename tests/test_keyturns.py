"""NLI scoring head, top-k turn selection, and the three providers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kkt import keyturns
from kkt import tensor as T
from kkt.attention import ConfigurationError, encode
from kkt.checkpoint import named_parameters
from kkt.keyturns import (
    CONTRADICTION,
    ENTAILMENT,
    NEUTRAL,
    LeadingProvider,
    NliHead,
    NliProvider,
    OracleProvider,
    score_turn,
    select_key_turns,
    train_nli_head,
)
from kkt.model import DialogueExample
from kkt.tokenizer import Tokenizer


def rs(scores):
    return [float(s) for s in scores]


def make_head(tk, seed=0, d=8):
    return NliHead.init(len(tk), d, 2, 1, 4 * d, 32, np.random.default_rng(seed))


def make_example(turns, question="what happened ?", options=("a", "b", "c"), gold=0):
    return DialogueExample(
        turns=list(turns), question=question, options=list(options), gold=gold,
        dialogue_id="d0", qa_index=0,
    )


# ---------------------------------------------------------------------------
# scoring

def test_label_order_contract():
    assert (CONTRADICTION, ENTAILMENT, NEUTRAL) == (0, 1, 2)


def test_score_turn_uniform_logits_is_ln_third():
    tk = Tokenizer.build(["m : hello there", "what happened ? nothing"])
    head = make_head(tk)
    head.out_w.data[:] = 0.0
    head.out_b.data[:] = 0.0
    (score,) = score_turn(head, tk, [("m : hello there", "what happened ? nothing")])
    assert abs(score - math.log(1.0 / 3.0)) < 1e-12


def test_score_turn_is_log_probability():
    tk = Tokenizer.build(["m : hello", "w : goodbye", "what was said ? hello"])
    head = make_head(tk, seed=3)
    for turn in ("m : hello", "w : goodbye"):
        assert score_turn(head, tk, [(turn, "what was said ? hello")])[0] <= 0.0


def test_score_turn_rejects_empty_text():
    tk = Tokenizer.build(["hello"])
    head = make_head(tk)
    with pytest.raises(ValueError):
        score_turn(head, tk, [("  ", "hello")])
    with pytest.raises(ValueError):
        score_turn(head, tk, [("hello", "")])


def test_nli_pair_that_overruns_the_positions_is_an_error():
    # [BOS] turn [SEP] QA [EOS] must fit the scorer's 32 positions whole:
    # a cut would drop the QA tail and [EOS] and change the score unseen.
    tk = Tokenizer.build(["a b"])
    head = make_head(tk)
    turn, qa = " ".join(["a"] * 14), " ".join(["b"] * 15)
    assert score_turn(head, tk, [(turn, qa)])[0] <= 0.0  # 32 tokens
    with pytest.raises(ConfigurationError, match=r"has 33 tokens, more than the scorer encoder's 32 positions"):
        score_turn(head, tk, [(turn + " a", qa)])
    with pytest.raises(ConfigurationError, match=r"has 33 tokens, more than the scorer encoder's 32 positions"):
        train_nli_head(head, tk, [{"premise": turn, "hypothesis": qa + " b", "label": 1}], epochs=1)


WORDS = ["m", "w", ":", "the", "lamp", "turned", "green", "red", "we", "waited", "what", "?"]


@st.composite
def nli_pairs(draw, max_tokens):
    # A (turn, QA) pair whose ids, with [BOS], [SEP] and [EOS], fit in `max_tokens`.
    words = st.sampled_from(WORDS)
    turn = draw(st.lists(words, min_size=1, max_size=max_tokens - 4))
    qa = draw(st.lists(words, min_size=1, max_size=max_tokens - 3 - len(turn)))
    return " ".join(turn), " ".join(qa)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_batched_scores_equal_one_pair_scores(data):
    tk = Tokenizer.build([" ".join(WORDS)])
    distinct = data.draw(st.lists(nli_pairs(32), min_size=1, max_size=6), label="distinct")
    pairs = data.draw(st.lists(st.sampled_from(distinct), min_size=0, max_size=11), label="pairs")
    # One pair exactly at the scorer's 32 positions: 14 + 15 words plus 3 markers.
    full = (" ".join(["lamp"] * 14), " ".join(["green"] * 15))
    pairs.insert(data.draw(st.integers(0, len(pairs)), label="at"), full)
    turn, qa = pairs[0]
    ids = [tk.bos_id] + tk.encode(turn) + [tk.sep_id] + tk.encode(qa) + [tk.eos_id]
    for dtype in (np.float64, np.float32):
        head = NliHead.init(len(tk), 8, 2, 1, 32, 32, np.random.default_rng(7))
        for tensor in named_parameters(head).values():
            tensor.data = tensor.data.astype(dtype)
        batched = score_turn(head, tk, pairs)
        alone = [score_turn(head, tk, [pair])[0] for pair in pairs]
        assert len(batched) == len(pairs)
        if dtype is np.float64:
            assert list(batched) == alone
        else:
            np.testing.assert_allclose(batched, alone, rtol=1e-5)
        # A one-pair call is minus the cross entropy of the pair's own logits, bit for bit:
        # the head's tanh pooler over the first row, then its output map.
        with T.no_grad():
            first = T.take_rows(encode(head.enc, ids), [0])
            pooled = T.tanh(T.affine(first, head.pooler_w, head.pooler_b))
            logits = T.reshape(T.affine(pooled, head.out_w, head.out_b), (3,))
        assert alone[0] == -T.cross_entropy_from_logits(logits, ENTAILMENT).item()


def test_score_turn_deterministic():
    tk = Tokenizer.build(["m : the train is late", "why is he late ? the train"])
    head = make_head(tk, seed=5)
    a = score_turn(head, tk, [("m : the train is late", "why is he late ? the train")])
    b = score_turn(head, tk, [("m : the train is late", "why is he late ? the train")])
    assert a == b


# ---------------------------------------------------------------------------
# selection

def test_select_published_example():
    # Scores for a 6-turn dialogue; top 2 are turns 2 and 4 (1-indexed).
    scores = rs([-1.91, -1.49, -2.53, -1.66, -2.26, -1.87])
    assert select_key_turns(scores, 2) == (1, 3)


def test_select_saturates_at_turn_count():
    assert select_key_turns(rs([-3.0, -1.0, -2.0]), 10) == (0, 1, 2)


def test_select_all_equal_prefers_earliest():
    assert select_key_turns(rs([-1.0, -1.0, -1.0, -1.0]), 2) == (0, 1)


def test_select_emits_dialogue_order():
    chosen = select_key_turns(rs([-5.0, -1.0, -4.0, -2.0]), 3)
    assert chosen == (1, 2, 3)
    assert list(chosen) == sorted(chosen)


def test_select_validates_input():
    with pytest.raises(ValueError):
        select_key_turns([], 2)
    with pytest.raises(ValueError):
        select_key_turns(rs([-1.0]), 0)


def brute_topk(scores, k):
    # Repeated linear max-scan, ties to the earlier turn; order-free result.
    remaining = list(range(len(scores)))
    chosen = []
    for _ in range(min(k, len(remaining))):
        best = remaining[0]
        for i in remaining[1:]:
            if scores[i] > scores[best]:
                best = i
        chosen.append(best)
        remaining.remove(best)
    return tuple(sorted(chosen))


def test_select_matches_brute_oracle_on_random_lists():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        n = int(rng.integers(1, 12))
        # Draw from a tiny value set so ties are common.
        scores = rs((-rng.integers(0, 5, size=n)).astype(float))
        k = int(rng.integers(1, n + 2))
        assert select_key_turns(scores, k) == brute_topk(scores, k)


def test_select_invariant_under_monotone_transform():
    rng = np.random.default_rng(12)
    for _ in range(50):
        n = int(rng.integers(2, 10))
        raw = -rng.random(size=n) * 3.0
        k = int(rng.integers(1, n + 1))
        base = select_key_turns(rs(raw), k)
        warped = select_key_turns(rs(0.5 * raw - 7.0), k)
        assert warped == base


# ---------------------------------------------------------------------------
# training

def separable_corpus():
    # Label is fully determined by a single marker word in the premise.
    fillers = ["the sky looks calm today", "we talked for a while", "dinner was quiet", "the room felt warm"]
    markers = {ENTAILMENT: "green", CONTRADICTION: "red", NEUTRAL: "blue"}
    corpus = []
    for label, marker in markers.items():
        for i in range(20):
            corpus.append({
                "premise": f"the lamp turned {marker} again",
                "hypothesis": fillers[i % len(fillers)],
                "label": label,
            })
    return corpus


def corpus_tokenizer(corpus):
    return Tokenizer.build(r["premise"] + " " + r["hypothesis"] for r in corpus)


def test_train_nli_head_learns_separable_corpus():
    corpus = separable_corpus()
    tk = corpus_tokenizer(corpus)
    head = make_head(tk, seed=1)
    report = train_nli_head(head, tk, corpus, epochs=30, lr=3e-3, seed=0)
    assert report["n"] == 60
    assert report["train_accuracy"] >= 0.95
    # The accuracy pass runs in stacked chunks; it counts as a pass over each record alone does.
    with T.no_grad():
        alone = [keyturns._nli_logits(head, [keyturns._nli_ids(head, tk, r["premise"], r["hypothesis"])]).data[0]
                 for r in corpus]
    assert report["train_accuracy"] == sum(int(np.argmax(z)) == r["label"] for z, r in zip(alone, corpus)) / 60
    assert len(report["loss_curve"]) == 30


def test_train_nli_head_zero_epochs_is_noop():
    corpus = separable_corpus()
    tk = corpus_tokenizer(corpus)
    head = make_head(tk, seed=2)
    before = {k: v.data.copy() for k, v in named_parameters(head).items()}
    train_nli_head(head, tk, corpus, epochs=0)
    for name, t in named_parameters(head).items():
        assert np.array_equal(t.data, before[name]), name


def test_train_nli_head_deterministic():
    corpus = separable_corpus()
    tk = corpus_tokenizer(corpus)
    r1 = train_nli_head(make_head(tk, seed=4), tk, corpus, epochs=2, seed=9)
    r2 = train_nli_head(make_head(tk, seed=4), tk, corpus, epochs=2, seed=9)
    assert r1["loss_curve"] == r2["loss_curve"]


def test_train_nli_head_checks_every_record_before_the_first_step():
    # The last record overruns the 32 positions; no parameter may move before that is found.
    tk = Tokenizer.build(["a b"])
    head = make_head(tk)
    corpus = [{"premise": "a", "hypothesis": "b", "label": i % 3} for i in range(3)]
    corpus.append({"premise": " ".join(["a"] * 15), "hypothesis": " ".join(["b"] * 15), "label": 1})
    before = {k: v.data.copy() for k, v in named_parameters(head).items()}
    with pytest.raises(ConfigurationError, match=r"has 33 tokens"):
        train_nli_head(head, tk, corpus, epochs=1, seed=0)
    for name, t in named_parameters(head).items():
        assert np.array_equal(t.data, before[name]), name


def test_train_nli_head_rejects_bad_label():
    # True == 1 and 1.0 == 1, yet neither is an integer label.
    tk = Tokenizer.build(["text"])
    head = make_head(tk)
    before = {k: v.data.copy() for k, v in named_parameters(head).items()}
    for label in (3, True, 1.0):
        with pytest.raises(ValueError, match="NLI label"):
            train_nli_head(head, tk, [{"premise": "text", "hypothesis": "text", "label": label}], epochs=1)
    for name, t in named_parameters(head).items():
        assert np.array_equal(t.data, before[name]), name


def test_one_nli_record_gives_every_head_parameter_a_gradient():
    tk = Tokenizer.build(["the train is late", "why is he late"])
    head = make_head(tk, seed=3)
    params = named_parameters(head)
    assert {"pooler_w", "pooler_b", "out_w", "out_b"} <= set(params)
    assert all(name.startswith("enc.") for name in set(params) - {"pooler_w", "pooler_b", "out_w", "out_b"})
    ids = keyturns._nli_ids(head, tk, "the train is late", "why is he late")
    T.cross_entropy_from_logits(T.reshape(keyturns._nli_logits(head, [ids]), (3,)), ENTAILMENT).backward()
    assert sorted(name for name, p in params.items() if p.grad is None or not np.any(p.grad)) == []


# ---------------------------------------------------------------------------
# providers

def test_leading_provider_takes_first_k():
    ex = make_example(["t0", "t1", "t2", "t3", "t4"])
    assert LeadingProvider().select(ex, "q a", 3) == (0, 1, 2)
    assert LeadingProvider().select(ex, "q a", 9) == (0, 1, 2, 3, 4)


def test_oracle_provider_returns_planted_then_pads():
    ex = make_example(["t0", "t1", "t2", "t3"])
    provider = OracleProvider({ex.example_id: 2})
    assert provider.select(ex, "q a", 1) == (2,)
    assert provider.select(ex, "q a", 3) == (0, 1, 2)


def test_oracle_provider_falls_back_to_leading():
    ex = make_example(["t0", "t1", "t2"])
    assert OracleProvider({}).select(ex, "q a", 2) == (0, 1)


def leading_reference(n, k):
    # The leading provider before it selected through select_key_turns.
    return tuple(range(min(k, n)))


def oracle_reference(n, k, target):
    # The oracle provider before it selected through select_key_turns.
    if target is None or not 0 <= target < n:
        return tuple(range(min(k, n)))
    chosen = [target]
    for i in range(n):
        if len(chosen) >= k:
            break
        if i != target:
            chosen.append(i)
    return tuple(sorted(chosen))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_providers_select_as_their_own_rules_did(data):
    n = data.draw(st.integers(1, 12), label="n")
    k = data.draw(st.integers(1, n + 2), label="k")
    target = data.draw(st.one_of(st.none(), st.just(-1), st.integers(0, n + 1)), label="target")
    ex = make_example([f"t{i}" for i in range(n)])
    planted = {} if target is None else {ex.example_id: target}
    assert LeadingProvider().select(ex, "q a", k) == leading_reference(n, k)
    assert OracleProvider(planted).select(ex, "q a", k) == oracle_reference(n, k, target)
    scores = rs(data.draw(st.lists(st.integers(-4, 0), min_size=n, max_size=n), label="scores"))
    assert select_key_turns(scores, k) == brute_topk(scores, k)


def test_nli_provider_matches_direct_scoring():
    turns = ["m : the lamp turned green", "w : dinner was quiet", "m : we waited outside"]
    qa = "what turned ? green"
    tk = Tokenizer.build(turns + [qa])
    head = make_head(tk, seed=6)
    provider = NliProvider(head, tk)
    want = select_key_turns([score_turn(head, tk, [(t, qa)])[0] for t in turns], 2)
    ex = make_example(turns)
    assert provider.select(ex, qa, 2) == want
    # Second call is served from the cache and stays identical.
    assert provider.select(ex, qa, 2) == want


def test_nli_provider_scores_each_turn_once_across_k(monkeypatch):
    turns = ["m : the lamp turned green", "w : dinner was quiet", "m : we waited outside"]
    qa = "what turned ? green"
    tk = Tokenizer.build(turns + [qa])
    provider = NliProvider(make_head(tk, seed=6), tk)
    scored = []
    real = keyturns.score_turn
    monkeypatch.setattr(keyturns, "score_turn", lambda head, tk, pairs: scored.extend(pairs) or real(head, tk, pairs))
    ex = make_example(turns)
    picks = [provider.select(ex, qa, k) for k in (1, 2, 3, 1)]
    for j in range(len(ex.options)):
        provider.select(ex, ex.qa_text(j), 2)
    # The asked QA text and every option's QA text, each pair exactly once.
    qas = [qa] + [ex.qa_text(j) for j in range(len(ex.options))]
    assert sorted(scored) == sorted((turn, q) for q in qas for turn in turns)
    assert picks == [select_key_turns(provider.scores(ex, qa), k) for k in (1, 2, 3, 1)]


def test_nli_provider_scores_an_example_in_one_encoder_pass(monkeypatch):
    turns = ["m : the lamp turned green", "w : dinner was quiet", "m : we waited outside"]
    ex = make_example(turns, question="what turned ?", options=("green", "red", "blue"))
    tk = Tokenizer.build(turns + [ex.qa_text(j) for j in range(3)])
    provider = NliProvider(make_head(tk, seed=6), tk)
    calls = []
    real = keyturns.encode
    monkeypatch.setattr(keyturns, "encode", lambda *args: calls.append(len(args) - 1) or real(*args))
    provider.select(ex, ex.qa_text(0), 2)
    assert calls == [len(turns) * len(ex.options)]
    for j in (1, 2):
        provider.select(ex, ex.qa_text(j), 2)
    for k in (1, 3):
        for j in range(3):
            provider.select(ex, ex.qa_text(j), k)
    assert len(calls) == 1


def test_nli_provider_cache_is_keyed_by_content():
    # Two dialogues that share an id must not share cached scores.
    turns = ["m : the lamp turned green", "w : dinner was quiet"]
    qa = "what turned ? green"
    tk = Tokenizer.build(turns + [qa])
    head = make_head(tk, seed=6)
    examples = [make_example(turns), make_example(turns[::-1])]
    assert examples[0].example_id == examples[1].example_id
    shared = NliProvider(head, tk)
    together = [shared.select(ex, qa, 1) for ex in examples]
    apart = [NliProvider(head, tk).select(ex, qa, 1) for ex in examples]
    assert together == apart
    assert apart[0] != apart[1]
