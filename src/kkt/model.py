"""End-to-end forward pass for dialogue multi-choice reading comprehension.

Per answer option the dialogue and the question/option pair are encoded
jointly, split back into context rows H_c and QA rows H_qa, refined three
ways (key-turn rows over the context, context over dialogue-level facts, QA
over option-level facts), then fused by dual co-attention into fixed-width
vectors and decoded to a scalar logit. Cross-entropy over the per-option
logits trains the whole stack.

All options of an example run through each layer in one pass. Their
sequences go through one encoder call; their H_c and H_qa rows are stacked
in option order with per-option lengths, and every refinement is one `mha`
call in which option i's queries attend over option i's keys only (segment
pairs of `tensor.attention`, on exact row slices). The co-attention of the
plain rows and of every path's refined rows is one `mha` call per
direction, over the paths' rows stacked as further blocks of options. So in
float64 each option's values, and every logit, equal those of running the
option alone, bit for bit. `encode_pair`, `refine`,
`dual_coattention` and `forward` take the stacked options only; one option
alone is an example with that one option, run through the same code.

Ablation wiring lives in one table, PATHS: each ablation names the
refinement paths it fuses next to the plain co-attention output O_o, in
fusion order. "k" is the knowledge path (context and QA over retrieved
facts), "kt" the key-turn path (context over its key-turn rows).

    full           ("k", "kt")
    kt             ("kt",)
    k              ("k",)
    base           ()
    keyturns-only  ("k", "kt"), over a context rebuilt from the selected turns

An ablation builds, trains and saves only the parameters its paths read.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .attention import ConfigurationError, EncoderParams, MhaParams, encode, mha
from .knowledge import FactEncoder, KnowledgeStore, rank_triples
from .tensor import ShapeError, Tensor
from .tokenizer import Tokenizer

PATHS = {
    "full": ("k", "kt"),
    "kt": ("kt",),
    "k": ("k",),
    "base": (),
    "keyturns-only": ("k", "kt"),
}
ABLATIONS = tuple(PATHS)


@dataclass
class DialogueExample:
    """One question over one multi-turn dialogue."""

    turns: list
    question: str
    options: list
    gold: int
    dialogue_id: str = ""
    qa_index: int = 0

    def __post_init__(self):
        if len(self.options) < 2:
            raise ValueError(f"example {self.dialogue_id}: need at least 2 options")
        if not 0 <= self.gold < len(self.options):
            raise ValueError(f"example {self.dialogue_id}: gold index {self.gold} out of range")
        if not self.turns or any(not t.strip() for t in self.turns):
            raise ValueError(f"example {self.dialogue_id}: empty turn")

    @property
    def example_id(self) -> str:
        return f"{self.dialogue_id}#{self.qa_index}"

    def qa_text(self, option_index: int) -> str:
        return f"{self.question} {self.options[option_index]}"


@dataclass
class EncodedPair:
    """Context and QA hidden rows of an example's options, stacked in option order.

    H_c holds each option's context rows and H_qa its question+option rows;
    `c_lengths` and `qa_lengths` give each option's row counts, and
    `turn_spans` holds one list per option of where each turn's tokens sit
    in that option's own context rows. `truncated` flags whether any
    option's context was cut.
    """

    h_c: Tensor
    h_qa: Tensor
    turn_spans: list
    truncated: bool
    c_lengths: tuple
    qa_lengths: tuple


@dataclass
class RefinedReprs:
    """Refined rows, stacked like the pair's. `flags` holds one dict per
    option of which paths fell back to identity: `kt_identity`,
    `ck_identity` and `qak_identity`."""

    h_kt: Tensor | None
    h_c_kt: Tensor
    h_c_k: Tensor
    h_qa_k: Tensor
    flags: list


@dataclass
class KktParams:
    """Every trainable tensor of the model, grouped by role.

    Groups that the ablation's paths never read are None: `fact_sa`,
    `refine_ck` and `refine_qak` exist only with path "k", `refine_kt` only
    with "kt", and the fusion pair only when there is a path.
    """

    enc: EncoderParams
    duma1: MhaParams
    duma2: MhaParams
    decoder_w: Tensor
    fact_sa: MhaParams | None = None
    refine_kt: MhaParams | None = None
    refine_ck: MhaParams | None = None
    refine_qak: MhaParams | None = None
    fusion_w: Tensor | None = None
    fusion_b: Tensor | None = None
    ablation: str = "full"

    @classmethod
    def init(cls, vocab_size, d_model, h, layers, d_ff, max_len, ablation, rng) -> "KktParams":
        if ablation not in ABLATIONS:
            raise ValueError(f"unknown ablation {ablation!r}, expected one of {ABLATIONS}")
        paths = PATHS[ablation]

        def group(path):
            return MhaParams.init(d_model, h, rng) if path in paths else None

        # Draw order: enc, d_model * d_model + d_model discarded values,
        # fact_sa, refine_kt, refine_ck, refine_qak, duma1, duma2, fusion pair,
        # decoder; absent groups draw nothing. Formats up to 3 drew an unread
        # encoder pooler in the discarded values' place; drawing them keeps
        # every later tensor, and the NLI head that `train` draws next from
        # the same generator, bit for bit as it was. With no generator
        # (`rng=None`, a restore) every tensor is zeros and nothing is drawn.
        enc = EncoderParams.init(vocab_size, d_model, h, layers, d_ff, max_len, rng)
        if rng is not None:
            rng.random(d_model * d_model + d_model)
        fact_sa, refine_kt, refine_ck, refine_qak = group("k"), group("kt"), group("k"), group("k")
        duma1 = MhaParams.init(d_model, h, rng)
        duma2 = MhaParams.init(d_model, h, rng)
        fusion_w = fusion_b = None
        if paths:
            fusion_in = 2 * d_model * len(paths)
            fusion_w = T.uniform_param((fusion_in, 2 * d_model), rng)
            fusion_b = T.uniform_param((2 * d_model,), rng, fan_in=fusion_in)
        decoder_w = T.uniform_param((4 * d_model if paths else 2 * d_model,), rng)
        return cls(enc=enc, duma1=duma1, duma2=duma2, decoder_w=decoder_w, fact_sa=fact_sa,
                   refine_kt=refine_kt, refine_ck=refine_ck, refine_qak=refine_qak,
                   fusion_w=fusion_w, fusion_b=fusion_b, ablation=ablation)


def encode_pair(params: EncoderParams, tokenizer: Tokenizer, example: DialogueExample, max_len: int, turns=None) -> EncodedPair:
    """Encode [BOS] turns [SEP] question [SEP] option [EOS] of every option
    of the example, in one encoder call, and split the rows.

    H_c holds the turn-token rows and H_qa the question+option rows; the
    four specials and the middle separator belong to neither. When the whole
    input would overrun max_len, context tokens are dropped from the front
    (the QA side is never cut) and the context additionally never takes more
    than 75% of the non-special budget. A QA side that leaves no room for
    context is a `ConfigurationError`.

    `turns` is None or one entry per option, a list of turn texts or None
    for the example's turns. Each distinct text is tokenized once.
    """
    token_ids = {}

    def ids_of(text):
        if text not in token_ids:
            token_ids[text] = tokenizer.encode(text)
        return token_ids[text]

    q_ids = ids_of(example.question)
    budget = max_len - 4
    sequences, spans_per, c_rows, qa_rows, c_lengths, qa_lengths = [], [], [], [], [], []
    truncated = False
    for option, turn_texts in zip(example.options, turns or [None] * len(example.options)):
        turn_ids = [ids_of(t) for t in (example.turns if turn_texts is None else turn_texts)]
        a_ids = ids_of(option)
        spans = []
        pos = 0
        for ids in turn_ids:
            spans.append((pos, pos + len(ids)))
            pos += len(ids)
        c_ids = [i for ids in turn_ids for i in ids]
        qa_len = len(q_ids) + len(a_ids)
        if qa_len > budget:
            raise ConfigurationError(
                f"example {example.example_id}: QA pair of {qa_len} tokens exceeds max_length {max_len}; QA is never truncated"
            )
        allowed_c = min(len(c_ids), int(budget * 0.75), budget - qa_len)
        if allowed_c < 1:
            raise ConfigurationError(f"example {example.example_id}: no room for context at max_length {max_len}")
        drop = len(c_ids) - allowed_c
        if drop > 0:
            truncated = True
            c_ids = c_ids[drop:]
            spans = [(max(s - drop, 0), max(e - drop, 0)) for s, e in spans]
        ids = [tokenizer.bos_id] + c_ids + [tokenizer.sep_id] + q_ids + [tokenizer.sep_id] + a_ids + [tokenizer.eos_id]
        # Row offsets in the stacked hidden matrix.
        start = sum(len(seq) for seq in sequences)
        q_start = start + 1 + allowed_c + 1
        a_start = q_start + len(q_ids) + 1
        c_rows += range(start + 1, start + 1 + allowed_c)
        qa_rows += list(range(q_start, q_start + len(q_ids))) + list(range(a_start, a_start + len(a_ids)))
        sequences.append(ids)
        spans_per.append(spans)
        c_lengths.append(allowed_c)
        qa_lengths.append(qa_len)
    hidden = encode(params, *sequences)
    return EncodedPair(
        h_c=T.take_rows(hidden, c_rows),
        h_qa=T.take_rows(hidden, qa_rows),
        turn_spans=spans_per,
        truncated=truncated,
        c_lengths=tuple(c_lengths),
        qa_lengths=tuple(qa_lengths),
    )


def refine(params: KktParams, enc: EncodedPair, key_turn_indices, ck, qak) -> RefinedReprs:
    """Attend the context over its key-turn rows and over retrieved facts.

    Each option's context attends over its own key-turn rows and over the
    dialogue's fact rows `ck` ([1, d] Tensors), and its QA rows over its own
    list of fact rows in `qak`; each of the three is one `mha` call for all
    options. `key_turn_indices` and `qak` hold one entry per option.

    Only the ablation's paths run: without "kt" the key turns are ignored,
    without "k" the facts. Ignored inputs, empty selections and empty fact
    lists fall back to identity (the option's unrefined rows pass through)
    and are flagged as such.
    """
    n = len(enc.c_lengths)
    if len(key_turn_indices) != n or len(qak) != n:
        raise ShapeError(f"refine: {n} options but {len(key_turn_indices)} key-turn and {len(qak)} fact lists")
    paths = PATHS[params.ablation]
    if "kt" not in paths:
        key_turn_indices = [()] * n
    if "k" not in paths:
        ck, qak = (), [()] * n
    kt_rows = []
    for start, spans, turns in zip(itertools.accumulate(enc.c_lengths, initial=0), enc.turn_spans, key_turn_indices):
        rows = []
        for t in turns:
            if not 0 <= t < len(spans):
                raise IndexError(f"key turn index {t} out of range for {len(spans)} turns")
            s, e = spans[t]
            rows.extend(range(start + s, start + e))
        kt_rows.append(rows)
    h_kt = T.take_rows(enc.h_c, [r for rows in kt_rows for r in rows]) if any(kt_rows) else None
    qak_mat = T.concat_rows([r for rows in qak for r in rows]) if any(qak) else None
    ck_mat = T.concat_rows(ck) if ck else None
    return RefinedReprs(
        h_kt=h_kt,
        h_c_kt=_attend(params.refine_kt, enc.h_c, enc.c_lengths, h_kt, [len(rows) for rows in kt_rows]),
        # The dialogue's facts are every option's keys: one segment pair of all rows.
        h_c_k=_attend(params.refine_ck, enc.h_c, None, ck_mat, None),
        h_qa_k=_attend(params.refine_qak, enc.h_qa, enc.qa_lengths, qak_mat, [len(rows) for rows in qak]),
        flags=[{"kt_identity": not kt_r, "ck_identity": not ck, "qak_identity": not qa_r}
               for kt_r, qa_r in zip(kt_rows, qak)],
    )


def _attend(p: MhaParams, h: Tensor, lengths, keys: Tensor | None, key_lengths) -> Tensor:
    """Each option's rows of `h` over its own rows of `keys`, one `mha` call.

    `key_lengths` has an entry per option; an option with none keeps its
    rows of `h`, gathered back in place. No keys at all returns `h`.
    """
    if keys is None:
        return h
    if lengths is None or all(key_lengths):
        return mha(p, h, keys, keys, lengths, key_lengths)
    keyed = [j for j, n in enumerate(key_lengths) if n]
    starts = list(itertools.accumulate(lengths, initial=0))
    rows = [r for j in keyed for r in range(starts[j], starts[j + 1])]
    out = mha(p, T.take_rows(h, rows), keys, keys, [lengths[j] for j in keyed], [key_lengths[j] for j in keyed])
    # Row r of the result: the op's output for a keyed option, else row r of h.
    source = dict(zip(rows, range(len(rows))))
    return T.take_rows(T.concat_rows([out, h]), [source.get(r, len(rows) + r) for r in range(starts[-1])])


def dual_coattention(p1: MhaParams, p2: MhaParams, h_c: Tensor, h_qa: Tensor, c_lengths, qa_lengths) -> Tensor:
    """Attend context over QA and QA over context; mean-pool and concatenate.

    h_c and h_qa stack the options' rows, split by the lengths. Per option
    the output row is [mean(mha(h_c, h_qa, h_qa)) ; mean(mha(h_qa, h_c,
    h_c))], of width 2*d_model, each option's rows attending over its own
    rows of the other side; one `mha` call per direction. The output is
    [options, 2*d_model].
    """
    m1 = mha(p1, h_c, h_qa, h_qa, c_lengths, qa_lengths)
    m2 = mha(p2, h_qa, h_c, h_c, qa_lengths, c_lengths)
    return T.concat_last_axis([T.segment_mean(m1, c_lengths), T.segment_mean(m2, qa_lengths)])


def forward(params: KktParams, enc: EncodedPair, key_turn_indices, ck, qak):
    """Logits of the pair's options; returns (logits, RefinedReprs).

    O_o is the co-attention of the plain rows. Each of the ablation's paths
    adds one co-attention over its refined rows; their concatenation goes
    through the fusion affine and is appended to O_o before the decoder.
    The plain rows and every path's rows run as one `dual_coattention`: the
    sides are stacked block by block (plain first, then the paths in PATHS
    order), each block holding every option, and O_o and each path's rows
    are taken back from their blocks. The arguments are those of `refine`;
    the logits are one per option.
    """
    refined = refine(params, enc, key_turn_indices, ck, qak)
    paths = PATHS[params.ablation]
    sides = {"k": (refined.h_c_k, refined.h_qa_k), "kt": (refined.h_c_kt, enc.h_qa)}
    blocks = [(enc.h_c, enc.h_qa)] + [sides[p] for p in paths]
    h_c, h_qa = (T.concat_rows(side) for side in zip(*blocks))
    o = dual_coattention(params.duma1, params.duma2, h_c, h_qa, enc.c_lengths * len(blocks), enc.qa_lengths * len(blocks))
    if paths:
        n = len(enc.c_lengths)
        o_o, *fused = (T.take_rows(o, range(b * n, b * n + n)) for b in range(len(blocks)))
        o = T.concat_last_axis([o_o, T.affine(T.concat_last_axis(fused), params.fusion_w, params.fusion_b)])
    logits = T.matmul(o, T.reshape(params.decoder_w, (o.shape[1], 1)))
    return T.reshape(logits, (o.shape[0],)), refined


@dataclass
class PredictResult:
    predicted: int
    logits: np.ndarray
    loss: Tensor
    truncated: bool
    flags: list


class KktPipeline:
    """Bundles parameters, tokenizer, knowledge store and key-turn provider.

    Owns the caches: the top-p fact sentences per query, the texts ranked
    against (a dialogue's turns, shared across its questions, or one
    question+option text), and the fact encoder's rows, which training drops
    after every optimizer step (`FactEncoder.step`). `prepare_knowledge`
    maps examples to their fact rows; `predict` reads its own from it. Only
    an ablation with path "k" has a fact encoder; without it
    `fact_encoder` is None. All caches are keyed by content, not by ids, so
    results are independent of call order and of how examples are named.
    """

    def __init__(self, params: KktParams, tokenizer: Tokenizer, store: KnowledgeStore | None = None,
                 provider=None, *, k: int, p: int, max_len: int):
        self.params = params
        self.tokenizer = tokenizer
        self.store = store
        self.provider = provider
        self.k = k
        self.p = p
        self.max_len = max_len
        self.fact_encoder = FactEncoder(tokenizer, params.enc, params.fact_sa) if "k" in PATHS[self.ablation] else None
        self._ranked: dict = {}

    @property
    def ablation(self) -> str:
        return self.params.ablation

    def _needs_knowledge(self) -> bool:
        return "k" in PATHS[self.ablation] and self.store is not None and self.p >= 1

    def _needs_key_turns(self) -> bool:
        return "kt" in PATHS[self.ablation] and self.provider is not None and self.k >= 1

    def prepare_knowledge(self, examples) -> list:
        """Per example, the pair `(ck, qak)` of fact rows `predict` reads: the
        rows of its dialogue's top-p facts, and one list of rows per option
        for its question+option text. The call's uncached facts go through
        the encoder at once. Without the knowledge path every list is empty."""
        if not self._needs_knowledge():
            return [([], [[] for _ in ex.options]) for ex in examples]
        queries = [[ex.turns] + [[ex.qa_text(j)] for j in range(len(ex.options))] for ex in examples]
        ranked = [[self._top_facts(texts) for texts in per_ex] for per_ex in queries]
        self.fact_encoder.encode_facts([fact for per_ex in ranked for facts in per_ex for fact in facts])
        rows = [[[self.fact_encoder.encode_fact(fact) for fact in facts] for facts in per_ex] for per_ex in ranked]
        return [(ck, qak) for ck, *qak in rows]

    def _top_facts(self, texts) -> list:
        key = tuple(texts)
        if key not in self._ranked:
            self._ranked[key] = [self.store.triples[tid].fact for tid in rank_triples(self.store, texts, self.p)]
        return self._ranked[key]

    def predict(self, example: DialogueExample) -> PredictResult:
        """Logits of all options, cross-entropy loss against gold, argmax prediction.

        The options run through every layer together: one encoder call, and
        one `mha` call per refinement path and co-attention direction.
        """
        ck, qak = self.prepare_knowledge([example])[0]
        options = range(len(example.options))
        selected = [
            self.provider.select(example, example.qa_text(j), self.k) if self._needs_key_turns() else () for j in options
        ]
        turns = None
        if self.ablation == "keyturns-only":
            # Each option's context is rebuilt from its own selection, all of it key turns.
            turns = [[example.turns[i] for i in chosen] if chosen else None for chosen in selected]
            selected = [tuple(range(len(chosen))) for chosen in selected]
        enc = encode_pair(self.params.enc, self.tokenizer, example, self.max_len, turns=turns)
        logits, refined = forward(self.params, enc, selected, ck, qak)
        loss = T.cross_entropy_from_logits(logits, example.gold)
        return PredictResult(predicted=int(np.argmax(logits.data)), logits=logits.data.copy(), loss=loss,
                             truncated=enc.truncated, flags=refined.flags)
