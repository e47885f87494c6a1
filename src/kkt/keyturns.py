"""Turn relevance scoring with a 3-way entailment head, and top-k selection.

Each dialogue turn is scored against a question/option pair by a separate
small encoder with a 3-class output (contradiction, entailment, neutral);
the entailment log-probability is the relevance score, so scores are always
<= 0. The k highest-scoring turns become the key turns, re-emitted in
dialogue order so downstream extraction preserves discourse order.

Every provider selects through that one rule, `select_key_turns`: the NLI
provider with the entailment scores, the leading provider with equal scores
and the oracle provider with the planted turn scored above the rest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .attention import ConfigurationError, EncoderParams, encode
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


def pool(enc: EncoderParams, hidden: T.Tensor) -> T.Tensor:
    """Sentence vector tanh(affine(h[0])) over the encoder's pooler weights,
    as a [1, d_model] row."""
    return T.tanh(T.affine(T.take_rows(hidden, [0]), enc.pooler_w, enc.pooler_b))


def _nli_logits(head: NliHead, tokenizer: Tokenizer, premise: str, hypothesis: str) -> T.Tensor:
    ids = (
        [tokenizer.bos_id]
        + tokenizer.encode(premise)
        + [tokenizer.sep_id]
        + tokenizer.encode(hypothesis)
        + [tokenizer.eos_id]
    )
    if len(ids) > head.enc.max_len:
        raise ConfigurationError(f"NLI pair ({premise!r}, {hypothesis!r}) has {len(ids)} tokens, more than the "
                                 f"scorer encoder's {head.enc.max_len} positions (max_length)")
    return T.reshape(T.affine(pool(head.enc, encode(head.enc, ids)), head.out_w, head.out_b), (3,))


def score_turn(head: NliHead, tokenizer: Tokenizer, turn_text: str, qa_text: str) -> float:
    """Entailment log-probability of the (turn, question+option) pair.

    A plain float, computed under `T.no_grad()`: scoring builds no graph.
    A pair longer than the scorer's position table raises
    `ConfigurationError`, as does such a record in `train_nli_head`.
    """
    if not turn_text.strip() or not qa_text.strip():
        raise ValueError("score_turn: turn and QA text must be non-empty")
    with T.no_grad():
        logits = _nli_logits(head, tokenizer, turn_text, qa_text)
        # log softmax(logits)[ENTAILMENT] is exactly minus the cross entropy.
        return -T.cross_entropy_from_logits(logits, ENTAILMENT).item()


def select_key_turns(scores, k: int) -> tuple:
    """Indices of the k highest of the per-turn scores, ties toward the
    earlier turn, emitted in dialogue order rather than score order."""
    scores = list(scores)
    if not scores:
        raise ValueError("select_key_turns: empty score list")
    if k < 1:
        raise ValueError(f"select_key_turns: k must be >= 1, got {k}")
    ranked = sorted(range(len(scores)), key=lambda i: -scores[i])  # stable: ties keep dialogue order
    return tuple(sorted(ranked[:k]))


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

    Score lists are cached by content (turns, QA text): the head is frozen
    while the provider serves, so equal inputs always score equally, and a
    second epoch or another k reuses the scores.
    """

    def __init__(self, head: NliHead, tokenizer: Tokenizer):
        self.head = head
        self.tokenizer = tokenizer
        self._cache = {}

    def scores(self, example, qa_text: str) -> tuple:
        """The entailment log-probability of every turn, in dialogue order."""
        key = (tuple(example.turns), qa_text)
        if key not in self._cache:
            self._cache[key] = tuple(score_turn(self.head, self.tokenizer, turn, qa_text) for turn in example.turns)
        return self._cache[key]

    def select(self, example, qa_text: str, k: int) -> tuple:
        return select_key_turns(self.scores(example, qa_text), k)


class LeadingProvider:
    """Degenerate provider: every turn scores the same, so the first k win."""

    def select(self, example, qa_text: str, k: int) -> tuple:
        return select_key_turns([0.0] * len(example.turns), k)


class OracleProvider:
    """Provider that reads planted turn indices from generator metadata.

    `planted` maps example id to a turn index. The planted turn scores above
    the rest, which all tie, so for k > 1 it is padded with the earliest
    other turns. A missing or out-of-range entry scores no turn higher, which
    gives the leading turns.
    """

    def __init__(self, planted: dict):
        self.planted = dict(planted)

    def select(self, example, qa_text: str, k: int) -> tuple:
        target = self.planted.get(example.example_id)
        return select_key_turns([float(i == target) for i in range(len(example.turns))], k)
