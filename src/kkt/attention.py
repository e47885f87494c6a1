"""Multi-head attention and a small trainable transformer encoder.

The encoder stands in for a large pre-trained language model: token plus
learned position embeddings and a stack of post-norm blocks (attention, then
a tanh feed-forward, each with a residual and layer norm). `encode` returns
the hidden rows only. Every encoder also carries tanh pooler weights for the
first position; only the NLI turn scorer reads them, and it does its own
pooling (`keyturns`).

Attention follows the convention here that heads are bare-concatenated back
to d_model; there is no output projection after the concat. Any further
mapping is explicit in the consuming code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .tensor import ShapeError, Tensor


class ConfigError(ValueError):
    """Raised when a structural hyperparameter combination is invalid."""


class VocabularyError(ValueError):
    """Raised when a token id falls outside the embedding table."""


@dataclass
class MhaParams:
    """Per-head query/key/value projections, each d_model x d_head."""

    wq: list
    wk: list
    wv: list

    @property
    def heads(self) -> int:
        return len(self.wq)

    @property
    def d_model(self) -> int:
        return self.wq[0].shape[0]

    @property
    def d_head(self) -> int:
        return self.wq[0].shape[1]

    @classmethod
    def init(cls, d_model: int, h: int, rng: np.random.Generator, dtype=T.DEFAULT_DTYPE) -> "MhaParams":
        if h <= 0 or d_model % h != 0:
            raise ConfigError(f"d_model {d_model} is not divisible by head count {h}")
        d_head = d_model // h

        def mk():
            return T.uniform_param((d_model, d_head), rng, dtype=dtype)

        return cls(wq=[mk() for _ in range(h)], wk=[mk() for _ in range(h)], wv=[mk() for _ in range(h)])

    def named_parameters(self, prefix: str) -> dict:
        out = {}
        for i in range(self.heads):
            out[f"{prefix}.wq{i}"] = self.wq[i]
            out[f"{prefix}.wk{i}"] = self.wk[i]
            out[f"{prefix}.wv{i}"] = self.wv[i]
        return out


def mha(params: MhaParams, q_seq: Tensor, k_seq: Tensor, v_seq: Tensor) -> Tensor:
    """Multi-head scaled dot-product attention.

    Per head i: softmax(q W^Q_i (k W^K_i)^T / sqrt(d_head)) (v W^V_i), then
    the head outputs are concatenated back to width d_model.
    """
    if k_seq.shape[0] != v_seq.shape[0]:
        raise ShapeError(f"mha: key length {k_seq.shape} != value length {v_seq.shape}")
    scale = 1.0 / math.sqrt(params.d_head)
    heads = []
    for i in range(params.heads):
        q = T.matmul(q_seq, params.wq[i])
        k = T.matmul(k_seq, params.wk[i])
        v = T.matmul(v_seq, params.wv[i])
        scores = T.mul(T.matmul(q, T.transpose(k)), scale)
        heads.append(T.matmul(T.softmax_rows(scores), v))
    return T.concat_last_axis(heads)


def self_attention(params: MhaParams, x: Tensor) -> Tensor:
    """Attention of a sequence over itself: mha(x, x, x)."""
    return mha(params, x, x, x)


@dataclass
class BlockParams:
    """One post-norm encoder block: attention and a two-layer tanh feed-forward."""

    attn: MhaParams
    ff_w1: Tensor
    ff_b1: Tensor
    ff_w2: Tensor
    ff_b2: Tensor
    ln1_gain: Tensor
    ln1_bias: Tensor
    ln2_gain: Tensor
    ln2_bias: Tensor

    @classmethod
    def init(cls, d_model, h, d_ff, rng, dtype=T.DEFAULT_DTYPE) -> "BlockParams":
        return cls(
            attn=MhaParams.init(d_model, h, rng, dtype=dtype),
            ff_w1=T.uniform_param((d_model, d_ff), rng, dtype=dtype),
            ff_b1=T.uniform_param((d_ff,), rng, fan_in=d_model, dtype=dtype),
            ff_w2=T.uniform_param((d_ff, d_model), rng, dtype=dtype),
            ff_b2=T.uniform_param((d_model,), rng, fan_in=d_ff, dtype=dtype),
            # Norm layers start as the identity map.
            ln1_gain=T.const_param(1.0, (d_model,), dtype=dtype),
            ln1_bias=T.const_param(0.0, (d_model,), dtype=dtype),
            ln2_gain=T.const_param(1.0, (d_model,), dtype=dtype),
            ln2_bias=T.const_param(0.0, (d_model,), dtype=dtype),
        )

    def named_parameters(self, prefix: str) -> dict:
        out = self.attn.named_parameters(f"{prefix}.attn")
        for name in ("ff_w1", "ff_b1", "ff_w2", "ff_b2", "ln1_gain", "ln1_bias", "ln2_gain", "ln2_bias"):
            out[f"{prefix}.{name}"] = getattr(self, name)
        return out


@dataclass
class EncoderParams:
    tok_emb: Tensor
    pos_emb: Tensor
    blocks: list = field(default_factory=list)
    pooler_w: Tensor = None
    pooler_b: Tensor = None

    @property
    def d_model(self) -> int:
        return self.tok_emb.shape[1]

    @property
    def vocab_size(self) -> int:
        return self.tok_emb.shape[0]

    @property
    def max_len(self) -> int:
        return self.pos_emb.shape[0]

    @classmethod
    def init(cls, vocab_size, d_model, h, layers, d_ff, max_len, rng, dtype=T.DEFAULT_DTYPE) -> "EncoderParams":
        # Embedding tables scale by the embedding width, not the table height.
        return cls(
            tok_emb=T.uniform_param((vocab_size, d_model), rng, fan_in=d_model, dtype=dtype),
            pos_emb=T.uniform_param((max_len, d_model), rng, fan_in=d_model, dtype=dtype),
            blocks=[BlockParams.init(d_model, h, d_ff, rng, dtype=dtype) for _ in range(layers)],
            pooler_w=T.uniform_param((d_model, d_model), rng, dtype=dtype),
            pooler_b=T.uniform_param((d_model,), rng, fan_in=d_model, dtype=dtype),
        )

    def named_parameters(self, prefix: str) -> dict:
        out = {f"{prefix}.tok_emb": self.tok_emb, f"{prefix}.pos_emb": self.pos_emb}
        for i, block in enumerate(self.blocks):
            out.update(block.named_parameters(f"{prefix}.block{i}"))
        out[f"{prefix}.pooler_w"] = self.pooler_w
        out[f"{prefix}.pooler_b"] = self.pooler_b
        return out


@dataclass
class EncodeResult:
    hidden: Tensor
    truncated: bool


def _block_forward(block: BlockParams, x: Tensor) -> Tensor:
    a = T.layer_norm(T.add(x, self_attention(block.attn, x)), block.ln1_gain, block.ln1_bias)
    ff = T.affine(T.tanh(T.affine(a, block.ff_w1, block.ff_b1)), block.ff_w2, block.ff_b2)
    return T.layer_norm(T.add(a, ff), block.ln2_gain, block.ln2_bias)


def encode(params: EncoderParams, token_ids) -> EncodeResult:
    """Run the encoder over a sequence of token ids.

    Sequences longer than the position table are truncated to max_len and
    flagged.
    """
    ids = list(token_ids)
    if not ids:
        raise ShapeError("encode: empty token sequence")
    if min(ids) < 0 or max(ids) >= params.vocab_size:
        raise VocabularyError(
            f"token id out of range for vocabulary of {params.vocab_size}: {ids}"
        )
    truncated = len(ids) > params.max_len
    if truncated:
        ids = ids[: params.max_len]
    x = T.add(T.take_rows(params.tok_emb, ids), T.take_rows(params.pos_emb, range(len(ids))))
    for block in params.blocks:
        x = _block_forward(block, x)
    return EncodeResult(hidden=x, truncated=truncated)
