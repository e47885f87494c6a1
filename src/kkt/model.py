"""End-to-end forward pass for dialogue multi-choice reading comprehension.

Per answer option the dialogue and the question/option pair are encoded
jointly, split back into context rows H_c and QA rows H_qa, refined three
ways (key-turn rows over the context, context over dialogue-level facts, QA
over option-level facts), then fused by dual co-attention into fixed-width
vectors and decoded to a scalar logit. Cross-entropy over the per-option
logits trains the whole stack.

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

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .attention import ConfigurationError, EncoderParams, MhaParams, encode, mha
from .knowledge import FactEmbedding, FactEncoder, KnowledgeStore, rank_triples
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
    """Context and QA hidden rows, plus where each turn's tokens sit in H_c."""

    h_c: Tensor
    h_qa: Tensor
    turn_spans: list
    truncated: bool


@dataclass
class RefinedReprs:
    h_kt: Tensor | None
    h_c_kt: Tensor
    h_c_k: Tensor
    h_qa_k: Tensor
    kt_identity: bool
    ck_identity: bool
    qak_identity: bool


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

    @property
    def d_model(self) -> int:
        return self.enc.d_model

    @classmethod
    def init(cls, vocab_size, d_model, h, layers, d_ff, max_len, ablation, rng, dtype=T.DEFAULT_DTYPE) -> "KktParams":
        if ablation not in ABLATIONS:
            raise ValueError(f"unknown ablation {ablation!r}, expected one of {ABLATIONS}")
        paths = PATHS[ablation]

        def group(path):
            return MhaParams.init(d_model, h, rng, dtype=dtype) if path in paths else None

        # Draw order: enc, fact_sa, refine_kt, refine_ck, refine_qak, duma1,
        # duma2, fusion pair, decoder; absent groups draw nothing.
        enc = EncoderParams.init(vocab_size, d_model, h, layers, d_ff, max_len, rng, dtype=dtype)
        fact_sa, refine_kt, refine_ck, refine_qak = group("k"), group("kt"), group("k"), group("k")
        duma1 = MhaParams.init(d_model, h, rng, dtype=dtype)
        duma2 = MhaParams.init(d_model, h, rng, dtype=dtype)
        fusion_w = fusion_b = None
        if paths:
            fusion_in = 2 * d_model * len(paths)
            fusion_w = T.uniform_param((fusion_in, 2 * d_model), rng, dtype=dtype)
            fusion_b = T.uniform_param((2 * d_model,), rng, fan_in=fusion_in, dtype=dtype)
        decoder_w = T.uniform_param((4 * d_model if paths else 2 * d_model,), rng, dtype=dtype)
        return cls(enc=enc, duma1=duma1, duma2=duma2, decoder_w=decoder_w, fact_sa=fact_sa,
                   refine_kt=refine_kt, refine_ck=refine_ck, refine_qak=refine_qak,
                   fusion_w=fusion_w, fusion_b=fusion_b, ablation=ablation)

    def named_parameters(self) -> dict:
        out = self.enc.named_parameters("enc")
        for name in ("fact_sa", "refine_kt", "refine_ck", "refine_qak", "duma1", "duma2"):
            group = getattr(self, name)
            if group is not None:
                out.update(group.named_parameters(name))
        for name in ("fusion_w", "fusion_b", "decoder_w"):
            if getattr(self, name) is not None:
                out[name] = getattr(self, name)
        return out


def encode_pair(params: EncoderParams, tokenizer: Tokenizer, example: DialogueExample, option_index: int, max_len: int, turns=None) -> EncodedPair:
    """Encode [BOS] turns [SEP] question [SEP] option [EOS] and split the rows.

    H_c holds the turn-token rows and H_qa the question+option rows; the
    four specials and the middle separator belong to neither. When the whole
    input would overrun max_len, context tokens are dropped from the front
    (the QA side is never cut) and the context additionally never takes more
    than 75% of the non-special budget.
    """
    if not 0 <= option_index < len(example.options):
        raise IndexError(f"option index {option_index} out of range")
    turn_texts = example.turns if turns is None else turns
    turn_ids = [tokenizer.encode(t) for t in turn_texts]
    q_ids = tokenizer.encode(example.question)
    a_ids = tokenizer.encode(example.options[option_index])
    spans = []
    pos = 0
    for ids in turn_ids:
        spans.append((pos, pos + len(ids)))
        pos += len(ids)
    c_ids = [i for ids in turn_ids for i in ids]
    qa_len = len(q_ids) + len(a_ids)
    budget = max_len - 4
    if qa_len > budget:
        raise ValueError(
            f"example {example.example_id}: QA pair of {qa_len} tokens exceeds max_length {max_len}; QA is never truncated"
        )
    allowed_c = min(len(c_ids), int(budget * 0.75), budget - qa_len)
    if allowed_c < 1:
        raise ValueError(f"example {example.example_id}: no room for context at max_length {max_len}")
    drop = len(c_ids) - allowed_c
    truncated = drop > 0
    if truncated:
        c_ids = c_ids[drop:]
        spans = [(max(s - drop, 0), max(e - drop, 0)) for s, e in spans]
    ids = (
        [tokenizer.bos_id]
        + c_ids
        + [tokenizer.sep_id]
        + q_ids
        + [tokenizer.sep_id]
        + a_ids
        + [tokenizer.eos_id]
    )
    hidden = encode(params, ids).hidden
    c_rows = range(1, 1 + allowed_c)
    q_start = 1 + allowed_c + 1
    qa_rows = list(range(q_start, q_start + len(q_ids))) + list(
        range(q_start + len(q_ids) + 1, q_start + len(q_ids) + 1 + len(a_ids))
    )
    return EncodedPair(
        h_c=T.take_rows(hidden, c_rows),
        h_qa=T.take_rows(hidden, qa_rows),
        turn_spans=spans,
        truncated=truncated,
    )


def refine(params: KktParams, enc: EncodedPair, key_turn_indices, ck, qak) -> RefinedReprs:
    """Attend the context over its key-turn rows and over retrieved facts.

    Only the ablation's paths run: without "kt" the key turns are ignored,
    without "k" the facts. Ignored inputs, empty selections and empty fact
    lists fall back to identity (the unrefined rows pass through) and are
    flagged as such.
    """
    paths = PATHS[params.ablation]
    if "kt" not in paths:
        key_turn_indices = ()
    if "k" not in paths:
        ck = qak = ()
    rows = []
    for t in key_turn_indices:
        if not 0 <= t < len(enc.turn_spans):
            raise IndexError(f"key turn index {t} out of range for {len(enc.turn_spans)} turns")
        s, e = enc.turn_spans[t]
        rows.extend(range(s, e))
    h_kt = T.take_rows(enc.h_c, rows) if rows else None
    return RefinedReprs(
        h_kt=h_kt,
        h_c_kt=mha(params.refine_kt, enc.h_c, h_kt, h_kt) if rows else enc.h_c,
        h_c_k=_attend_facts(params.refine_ck, enc.h_c, ck),
        h_qa_k=_attend_facts(params.refine_qak, enc.h_qa, qak),
        kt_identity=not rows,
        ck_identity=not ck,
        qak_identity=not qak,
    )


def _attend_facts(p: MhaParams, h: Tensor, facts) -> Tensor:
    if not facts:
        return h
    mat = T.stack_rows([f.r_k for f in facts])
    return mha(p, h, mat, mat)


def dual_coattention(p1: MhaParams, p2: MhaParams, h_c: Tensor, h_qa: Tensor) -> Tensor:
    """Attend context over QA and QA over context; mean-pool and concatenate.

    Output width is 2*d_model: [mean(mha(h_c, h_qa, h_qa)) ; mean(mha(h_qa, h_c, h_c))].
    """
    if h_c.shape[0] == 0 or h_qa.shape[0] == 0:
        raise ShapeError(f"dual_coattention: empty sequence ({h_c.shape} vs {h_qa.shape})")
    m1 = mha(p1, h_c, h_qa, h_qa)
    m2 = mha(p2, h_qa, h_c, h_c)
    return T.concat_last_axis([T.mean_rows(m1), T.mean_rows(m2)])


def forward(params: KktParams, enc: EncodedPair, key_turn_indices, ck, qak):
    """Scalar logit for one option; returns (logit, RefinedReprs).

    O_o is the co-attention of the plain rows. Each of the ablation's paths
    adds one co-attention over its refined rows; their concatenation goes
    through the fusion affine and is appended to O_o before the decoder.
    """
    refined = refine(params, enc, key_turn_indices, ck, qak)
    o = dual_coattention(params.duma1, params.duma2, enc.h_c, enc.h_qa)
    paths = PATHS[params.ablation]
    if paths:
        sides = {"k": (refined.h_c_k, refined.h_qa_k), "kt": (refined.h_c_kt, enc.h_qa)}
        fused = T.concat_last_axis([dual_coattention(params.duma1, params.duma2, *sides[p]) for p in paths])
        o = T.concat_last_axis([o, T.affine(fused, params.fusion_w, params.fusion_b)])
    return T.dot(params.decoder_w, o), refined


@dataclass
class PredictResult:
    predicted: int
    logits: np.ndarray
    loss: Tensor
    truncated: bool
    flags: list = field(default_factory=list)


class KktPipeline:
    """Bundles parameters, tokenizer, knowledge store and key-turn provider.

    Owns the caches: ranked fact ids per dialogue text (context knowledge is
    shared across a dialogue's questions) and per QA text, plus the fact
    encoder's embedding cache, which training drops after every optimizer
    step (`FactEncoder.step`). `prepare_knowledge` encodes the facts of a
    list of examples in one call; `predict` calls it for its own example.
    Only an ablation with path "k" has a fact encoder; without it
    `fact_encoder` is None. All caches are keyed by content, not by ids, so
    results are independent of call order and of how examples are named.
    """

    def __init__(self, params: KktParams, tokenizer: Tokenizer, store: KnowledgeStore | None = None,
                 provider=None, k: int = 6, p: int = 5, max_len: int = 256):
        self.params = params
        self.tokenizer = tokenizer
        self.store = store
        self.provider = provider
        self.k = k
        self.p = p
        self.max_len = max_len
        self.fact_encoder = FactEncoder(tokenizer, params.enc, params.fact_sa) if "k" in PATHS[self.ablation] else None
        self._ck_ids: dict = {}
        self._qak_ids: dict = {}

    @property
    def ablation(self) -> str:
        return self.params.ablation

    def _needs_knowledge(self) -> bool:
        return "k" in PATHS[self.ablation] and self.store is not None and self.p >= 1

    def _needs_key_turns(self) -> bool:
        return "kt" in PATHS[self.ablation] and self.provider is not None and self.k >= 1

    def context_knowledge(self, example: DialogueExample):
        """Top-p fact embeddings for the dialogue turns (cached ranking)."""
        return self._knowledge(self._ck_ids, tuple(example.turns), example.turns)

    def qa_knowledge(self, example: DialogueExample, option_index: int):
        """Top-p fact embeddings for one question+option text (cached ranking)."""
        qa = example.qa_text(option_index)
        return self._knowledge(self._qak_ids, qa, [qa])

    def prepare_knowledge(self, examples):
        """Rank the facts `predict` reads for each example (its dialogue's and
        each option's) and encode every one the fact encoder has not cached,
        all in one encoder call. A no-op without the knowledge path."""
        if not self._needs_knowledge():
            return
        ids = []
        for ex in examples:
            ids += self._ranked(self._ck_ids, tuple(ex.turns), ex.turns)
            for j in range(len(ex.options)):
                qa = ex.qa_text(j)
                ids += self._ranked(self._qak_ids, qa, [qa])
        self.fact_encoder.encode_facts([self.store.facts[tid] for tid in dict.fromkeys(ids)])

    def _ranked(self, ranked: dict, key, texts) -> list:
        ids = ranked.get(key)
        if ids is None:
            ids = ranked[key] = rank_triples(self.store, texts, self.p)
        return ids

    def _knowledge(self, ranked: dict, key, texts):
        if self.fact_encoder is None:
            raise ConfigurationError(f"ablation {self.ablation!r} has no knowledge path to encode facts with")
        ids = self._ranked(ranked, key, texts)
        return [
            FactEmbedding(r_k=self.fact_encoder.encode_fact(self.store.facts[tid]), fact=self.store.facts[tid], triple_id=tid)
            for tid in ids
        ]

    def option_logit(self, example: DialogueExample, option_index: int):
        """Logit for one option plus bookkeeping flags."""
        selected = ()
        if self._needs_key_turns():
            selected = self.provider.select(example, example.qa_text(option_index), self.k)
        if self.ablation == "keyturns-only" and selected:
            turns = [example.turns[i] for i in selected]
            enc = encode_pair(self.params.enc, self.tokenizer, example, option_index, self.max_len, turns=turns)
            key_turn_indices = tuple(range(len(turns)))
        else:
            enc = encode_pair(self.params.enc, self.tokenizer, example, option_index, self.max_len)
            key_turn_indices = selected
        ck = self.context_knowledge(example) if self._needs_knowledge() else []
        qak = self.qa_knowledge(example, option_index) if self._needs_knowledge() else []
        logit, refined = forward(self.params, enc, key_turn_indices, ck, qak)
        return logit, enc, refined

    def predict(self, example: DialogueExample) -> PredictResult:
        """Per-option logits, cross-entropy loss against gold, argmax prediction."""
        self.prepare_knowledge([example])
        logits = []
        truncated = False
        flags = []
        for j in range(len(example.options)):
            logit, enc, refined = self.option_logit(example, j)
            logits.append(logit)
            truncated = truncated or enc.truncated
            flags.append(
                {"kt_identity": refined.kt_identity, "ck_identity": refined.ck_identity, "qak_identity": refined.qak_identity}
            )
        vec = T.concat_last_axis([T.reshape(x, (1,)) for x in logits])
        loss = T.cross_entropy_from_logits(vec, example.gold)
        predicted = int(np.argmax(vec.data))
        return PredictResult(predicted=predicted, logits=vec.data.copy(), loss=loss, truncated=truncated, flags=flags)
