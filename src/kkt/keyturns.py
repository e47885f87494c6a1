"""Turn relevance scoring with a 3-way entailment head, and top-k selection.

Each dialogue turn is scored against a question/option pair by a separate
small encoder, pooled over its first row, with a 3-class output
(contradiction, entailment, neutral); the entailment log-probability is the
relevance score, so scores are always <= 0. The k highest-scoring turns
become the key turns, re-emitted in dialogue order so downstream extraction
preserves discourse order.
`score_turn` scores a list of pairs in one stacked encoder pass; the NLI
provider scores all uncached pairs of an example, every option's, in one call.

Every provider selects through that one rule, `select_key_turns`: the NLI
provider with the entailment scores, the leading provider with equal scores
and the oracle provider with the planted turn scored above the rest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .attention import ConfigurationError, EncoderParams, encode
from .checkpoint import named_parameters
from .optim import Adam
from .tokenizer import Tokenizer

CONTRADICTION, ENTAILMENT, NEUTRAL = 0, 1, 2
# Records per stacked pass of `train_nli_head`'s accuracy check, which bounds its memory.
NLI_CHUNK = 32


@dataclass
class NliHead:
    """Scorer encoder, a tanh pooler over each sequence's first row and an
    affine map from the pooled vector to 3 logits, drawn in that order."""

    enc: EncoderParams
    pooler_w: T.Tensor
    pooler_b: T.Tensor
    out_w: T.Tensor
    out_b: T.Tensor

    @classmethod
    def init(cls, vocab_size, d_model, h, layers, d_ff, max_len, rng) -> "NliHead":
        return cls(
            enc=EncoderParams.init(vocab_size, d_model, h, layers, d_ff, max_len, rng),
            pooler_w=T.uniform_param((d_model, d_model), rng),
            pooler_b=T.uniform_param((d_model,), rng, fan_in=d_model),
            out_w=T.uniform_param((d_model, 3), rng),
            out_b=T.uniform_param((3,), rng, fan_in=d_model),
        )


def _nli_ids(head: NliHead, tokenizer: Tokenizer, premise: str, hypothesis: str) -> list:
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
    return ids


def _nli_logits(head: NliHead, sequences) -> T.Tensor:
    """[n, 3] logits of n `_nli_ids` sequences from one stacked encoder pass."""
    starts = np.cumsum([0] + [len(ids) for ids in sequences[:-1]])
    pooled = T.tanh(T.affine(T.take_rows(encode(head.enc, *sequences), starts), head.pooler_w, head.pooler_b))
    return T.affine(pooled, head.out_w, head.out_b)


def score_turn(head: NliHead, tokenizer: Tokenizer, pairs) -> tuple:
    """Entailment log-probability of each (turn, question+option) pair.

    One plain float per pair, in order, from one encoder pass over all the
    pairs under `T.no_grad()`: scoring builds no graph. Each score has the
    bits of scoring its pair alone in float64 (and agrees to rounding in
    float32). Every pair is checked before any is encoded: empty text
    raises `ValueError`, and a pair longer than the scorer's position table
    `ConfigurationError`, as does such a record in `train_nli_head`.
    """
    if any(not turn.strip() or not qa.strip() for turn, qa in pairs):
        raise ValueError("score_turn: turn and QA text must be non-empty")
    sequences = [_nli_ids(head, tokenizer, turn, qa) for turn, qa in pairs]
    with T.no_grad():
        logits = _nli_logits(head, sequences)
        # log softmax(row)[ENTAILMENT] is exactly minus the row's cross entropy.
        return tuple(-T.cross_entropy_from_logits(T.Tensor(row), ENTAILMENT).item() for row in logits.data)


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
        if type(rec["label"]) is not int or rec["label"] not in (0, 1, 2):
            raise ValueError(f"NLI label must be 0, 1 or 2, got {rec['label']!r}")
    # Every record is tokenized and length-checked before the first step.
    sequences = [_nli_ids(head, tokenizer, rec["premise"], rec["hypothesis"]) for rec in records]
    opt = Adam(named_parameters(head), lr=lr)
    rng = np.random.default_rng(seed)
    losses = []
    for _ in range(epochs):
        order = rng.permutation(len(records))
        total = 0.0
        for i in order:
            logits = T.reshape(_nli_logits(head, [sequences[int(i)]]), (3,))
            loss = T.cross_entropy_from_logits(logits, records[int(i)]["label"])
            opt.zero_grad()
            loss.backward()
            opt.step()
            total += loss.item()
        losses.append(total / max(len(records), 1))
    with T.no_grad():
        rows = [row for i in range(0, len(records), NLI_CHUNK)
                for row in _nli_logits(head, sequences[i : i + NLI_CHUNK]).data]
    correct = sum(int(np.argmax(row)) == rec["label"] for row, rec in zip(rows, records))
    return {"epochs": epochs, "loss_curve": losses, "train_accuracy": correct / max(len(records), 1), "n": len(records)}


class NliProvider:
    """Key-turn provider that scores every turn against the QA text.

    Score lists are cached by content (turns, QA text): the head is frozen
    while the provider serves, so equal inputs always score equally, and a
    second epoch or another k reuses the scores. A miss scores the turns
    against the asked QA text and every option's QA text not yet cached,
    all in one `score_turn` call, so the example's other options hit.
    """

    def __init__(self, head: NliHead, tokenizer: Tokenizer):
        self.head = head
        self.tokenizer = tokenizer
        self._cache = {}

    def scores(self, example, qa_text: str) -> tuple:
        """The entailment log-probability of every turn, in dialogue order."""
        turns = tuple(example.turns)
        if (turns, qa_text) not in self._cache:
            asked = [qa_text] + [example.qa_text(j) for j in range(len(example.options))]
            qas = [qa for qa in dict.fromkeys(asked) if (turns, qa) not in self._cache]
            flat = score_turn(self.head, self.tokenizer, [(turn, qa) for qa in qas for turn in turns])
            for i, qa in enumerate(qas):
                self._cache[turns, qa] = flat[i * len(turns) : (i + 1) * len(turns)]
        return self._cache[turns, qa_text]

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
