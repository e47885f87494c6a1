"""NLI scoring head, top-k turn selection, and the three providers."""

import math

import numpy as np
import pytest

from kkt.keyturns import (
    CONTRADICTION,
    ENTAILMENT,
    NEUTRAL,
    LeadingProvider,
    NliHead,
    NliProvider,
    OracleProvider,
    RelevanceScore,
    score_turn,
    pool,
    select_key_turns,
    train_nli_head,
)
from kkt.model import DialogueExample
from kkt.tokenizer import Tokenizer


def rs(scores):
    return [RelevanceScore(turn_index=i, qa_index=0, score=s) for i, s in enumerate(scores)]


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
    score = score_turn(head, tk, "m : hello there", "what happened ? nothing")
    assert abs(score - math.log(1.0 / 3.0)) < 1e-12


def test_score_turn_is_log_probability():
    tk = Tokenizer.build(["m : hello", "w : goodbye", "what was said ? hello"])
    head = make_head(tk, seed=3)
    for turn in ("m : hello", "w : goodbye"):
        assert score_turn(head, tk, turn, "what was said ? hello") <= 0.0


def test_score_turn_rejects_empty_text():
    tk = Tokenizer.build(["hello"])
    head = make_head(tk)
    with pytest.raises(ValueError):
        score_turn(head, tk, "  ", "hello")
    with pytest.raises(ValueError):
        score_turn(head, tk, "hello", "")


def test_score_turn_deterministic():
    tk = Tokenizer.build(["m : the train is late", "why is he late ? the train"])
    head = make_head(tk, seed=5)
    a = score_turn(head, tk, "m : the train is late", "why is he late ? the train")
    b = score_turn(head, tk, "m : the train is late", "why is he late ? the train")
    assert a == b


# ---------------------------------------------------------------------------
# selection

def test_select_published_example():
    # Scores for a 6-turn dialogue; top 2 are turns 2 and 4 (1-indexed).
    scores = rs([-1.91, -1.49, -2.53, -1.66, -2.26, -1.87])
    assert select_key_turns(scores, 2).turn_indices == (1, 3)


def test_select_saturates_at_turn_count():
    assert select_key_turns(rs([-3.0, -1.0, -2.0]), 10).turn_indices == (0, 1, 2)


def test_select_all_equal_prefers_earliest():
    assert select_key_turns(rs([-1.0, -1.0, -1.0, -1.0]), 2).turn_indices == (0, 1)


def test_select_emits_dialogue_order():
    chosen = select_key_turns(rs([-5.0, -1.0, -4.0, -2.0]), 3).turn_indices
    assert chosen == (1, 2, 3)
    assert list(chosen) == sorted(chosen)


def test_select_validates_input():
    with pytest.raises(ValueError):
        select_key_turns([], 2)
    with pytest.raises(ValueError):
        select_key_turns(rs([-1.0]), 0)
    mixed = [RelevanceScore(0, 0, -1.0), RelevanceScore(1, 1, -2.0)]
    with pytest.raises(ValueError):
        select_key_turns(mixed, 1)


def brute_topk(scores, k):
    # Repeated linear max-scan, ties to the earlier turn; order-free result.
    remaining = list(scores)
    chosen = []
    for _ in range(min(k, len(remaining))):
        best = remaining[0]
        for s in remaining[1:]:
            if s.score > best.score or (s.score == best.score and s.turn_index < best.turn_index):
                best = s
        chosen.append(best.turn_index)
        remaining.remove(best)
    return tuple(sorted(chosen))


def test_select_matches_brute_oracle_on_random_lists():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        n = int(rng.integers(1, 12))
        # Draw from a tiny value set so ties are common.
        scores = rs((-rng.integers(0, 5, size=n)).astype(float))
        k = int(rng.integers(1, n + 2))
        assert select_key_turns(scores, k).turn_indices == brute_topk(scores, k)


def test_select_invariant_under_monotone_transform():
    rng = np.random.default_rng(12)
    for _ in range(50):
        n = int(rng.integers(2, 10))
        raw = -rng.random(size=n) * 3.0
        k = int(rng.integers(1, n + 1))
        base = select_key_turns(rs(raw), k).turn_indices
        warped = select_key_turns(rs(0.5 * raw - 7.0), k).turn_indices
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
    assert len(report["loss_curve"]) == 30


def test_train_nli_head_zero_epochs_is_noop():
    corpus = separable_corpus()
    tk = corpus_tokenizer(corpus)
    head = make_head(tk, seed=2)
    before = {k: v.data.copy() for k, v in head.named_parameters().items()}
    train_nli_head(head, tk, corpus, epochs=0)
    for name, t in head.named_parameters().items():
        assert np.array_equal(t.data, before[name]), name


def test_train_nli_head_deterministic():
    corpus = separable_corpus()
    tk = corpus_tokenizer(corpus)
    r1 = train_nli_head(make_head(tk, seed=4), tk, corpus, epochs=2, seed=9)
    r2 = train_nli_head(make_head(tk, seed=4), tk, corpus, epochs=2, seed=9)
    assert r1["loss_curve"] == r2["loss_curve"]


def test_train_nli_head_rejects_bad_label():
    tk = Tokenizer.build(["text"])
    head = make_head(tk)
    with pytest.raises(ValueError):
        train_nli_head(head, tk, [{"premise": "text", "hypothesis": "text", "label": 3}], epochs=1)


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


def test_nli_provider_matches_direct_scoring():
    turns = ["m : the lamp turned green", "w : dinner was quiet", "m : we waited outside"]
    qa = "what turned ? green"
    tk = Tokenizer.build(turns + [qa])
    head = make_head(tk, seed=6)
    provider = NliProvider(head, tk)
    scores = [
        RelevanceScore(turn_index=i, qa_index=0, score=score_turn(head, tk, t, qa))
        for i, t in enumerate(turns)
    ]
    want = select_key_turns(scores, 2).turn_indices
    ex = make_example(turns)
    assert provider.select(ex, qa, 2) == want
    # Second call is served from the cache and stays identical.
    assert provider.select(ex, qa, 2) == want


def test_nli_provider_cache_is_keyed_by_content():
    # Two dialogues that share an id must not share a cached selection.
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
