"""Turn relevance scoring with a 3-way entailment head, and top-k selection.

Each dialogue turn is scored against a question/option pair by a separate
small encoder with a 3-class output (contradiction, entailment, neutral);
the entailment log-probability is the relevance score, so scores are always
<= 0. The k highest-scoring turns become the key turns, re-emitted in
dialogue order so downstream extraction preserves discourse order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .attention import EncoderParams, encode
from .optim import Adam
from .tokenizer import Tokenizer

CONTRADICTION, ENTAILMENT, NEUTRAL = 0, 1, 2


@dataclass
class NliHead:
    """Scorer encoder plus an affine map from the pooled vector to 3 logits."""

    enc: EncoderParams
    out_w: T.Tensor
    out_b: T.Tensor

    @classmethod
    def init(cls, vocab_size, d_model, h, layers, d_ff, max_len, rng, dtype=T.DEFAULT_DTYPE) -> "NliHead":
        return cls(
            enc=EncoderParams.init(vocab_size, d_model, h, layers, d_ff, max_len, rng, dtype=dtype),
            out_w=T.uniform_param((d_model, 3), rng, dtype=dtype),
            out_b=T.uniform_param((3,), rng, fan_in=d_model, dtype=dtype),
        )

    def named_parameters(self, prefix="nli") -> dict:
        out = self.enc.named_parameters(f"{prefix}.enc")
        out[f"{prefix}.out_w"] = self.out_w
        out[f"{prefix}.out_b"] = self.out_b
        return out


@dataclass(frozen=True)
class RelevanceScore:
    turn_index: int
    qa_index: int
    score: float


@dataclass(frozen=True)
class KeyTurnSet:
    qa_index: int
    turn_indices: tuple
    k: int


def pool(enc: EncoderParams, hidden: T.Tensor) -> T.Tensor:
    """Sentence vector tanh(affine(h[0])) over the encoder's pooler weights."""
    first = T.reshape(T.take_rows(hidden, [0]), (enc.d_model,))
    return T.tanh(T.affine(first, enc.pooler_w, enc.pooler_b))


def _nli_logits(head: NliHead, tokenizer: Tokenizer, premise: str, hypothesis: str) -> T.Tensor:
    ids = (
        [tokenizer.bos_id]
        + tokenizer.encode(premise)
        + [tokenizer.sep_id]
        + tokenizer.encode(hypothesis)
        + [tokenizer.eos_id]
    )
    return T.affine(pool(head.enc, encode(head.enc, ids).hidden), head.out_w, head.out_b)


def score_turn(head: NliHead, tokenizer: Tokenizer, turn_text: str, qa_text: str) -> float:
    """Entailment log-probability of the (turn, question+option) pair.

    A plain float, computed under `T.no_grad()`: scoring builds no graph.
    """
    if not turn_text.strip() or not qa_text.strip():
        raise ValueError("score_turn: turn and QA text must be non-empty")
    with T.no_grad():
        logits = _nli_logits(head, tokenizer, turn_text, qa_text)
        # log softmax(logits)[ENTAILMENT] is exactly minus the cross entropy.
        return -T.cross_entropy_from_logits(logits, ENTAILMENT).item()


def select_key_turns(scores, k: int) -> KeyTurnSet:
    """Pick the k highest-scoring turns, ties toward the earlier turn.

    The selected indices are emitted in dialogue order, not score order.
    """
    scores = list(scores)
    if not scores:
        raise ValueError("select_key_turns: empty score list")
    if k < 1:
        raise ValueError(f"select_key_turns: k must be >= 1, got {k}")
    qa = scores[0].qa_index
    if any(s.qa_index != qa for s in scores):
        raise ValueError("select_key_turns: scores mix different QA indices")
    ranked = sorted(scores, key=lambda s: (-s.score, s.turn_index))
    chosen = sorted(s.turn_index for s in ranked[:k])
    return KeyTurnSet(qa_index=qa, turn_indices=tuple(chosen), k=k)


def train_nli_head(head: NliHead, tokenizer: Tokenizer, corpus, epochs: int, lr=1e-3, seed=0):
    """Cross-entropy training over (premise, hypothesis, label) records.

    Returns a report dict with the loss curve and final training accuracy.
    Zero epochs leaves the parameters untouched.
    """
    records = list(corpus)
    for rec in records:
        if rec["label"] not in (0, 1, 2):
            raise ValueError(f"NLI label must be 0, 1 or 2, got {rec['label']!r}")
    params = head.named_parameters()
    opt = Adam(params, lr=lr)
    rng = np.random.default_rng(seed)
    losses = []
    for _ in range(epochs):
        order = rng.permutation(len(records))
        total = 0.0
        for i in order:
            rec = records[int(i)]
            logits = _nli_logits(head, tokenizer, rec["premise"], rec["hypothesis"])
            loss = T.cross_entropy_from_logits(logits, rec["label"])
            opt.zero_grad()
            loss.backward()
            opt.step()
            total += loss.item()
        losses.append(total / max(len(records), 1))
    correct = 0
    with T.no_grad():
        for rec in records:
            logits = _nli_logits(head, tokenizer, rec["premise"], rec["hypothesis"])
            if int(np.argmax(logits.data)) == rec["label"]:
                correct += 1
    accuracy = correct / len(records) if records else 0.0
    return {"epochs": epochs, "loss_curve": losses, "train_accuracy": accuracy, "n": len(records)}


class NliProvider:
    """Key-turn provider that scores every turn against the QA text.

    Selections are cached by content (turns, QA text, k): the head is frozen
    while the provider serves, so equal inputs always select equal turns.
    """

    def __init__(self, head: NliHead, tokenizer: Tokenizer):
        self.head = head
        self.tokenizer = tokenizer
        self._cache = {}

    def select(self, example, qa_text: str, k: int) -> tuple:
        key = (tuple(example.turns), qa_text, k)
        chosen = self._cache.get(key)
        if chosen is None:
            scores = [
                RelevanceScore(turn_index=i, qa_index=example.qa_index, score=score_turn(self.head, self.tokenizer, turn, qa_text))
                for i, turn in enumerate(example.turns)
            ]
            chosen = self._cache[key] = select_key_turns(scores, k).turn_indices
        return chosen


class LeadingProvider:
    """Degenerate provider: the first k turns, ignoring content."""

    def select(self, example, qa_text: str, k: int) -> tuple:
        return tuple(range(min(k, len(example.turns))))


class OracleProvider:
    """Provider that reads planted turn indices from generator metadata.

    `planted` maps example id to a turn index. Missing entries fall back to
    the leading turns. When k exceeds 1 the planted turn is padded with the
    earliest other turns.
    """

    def __init__(self, planted: dict):
        self.planted = dict(planted)

    def select(self, example, qa_text: str, k: int) -> tuple:
        n = len(example.turns)
        target = self.planted.get(example.example_id)
        if target is None or not 0 <= target < n:
            return tuple(range(min(k, n)))
        chosen = [target]
        for i in range(n):
            if len(chosen) >= k:
                break
            if i != target:
                chosen.append(i)
        return tuple(sorted(chosen))
