"""Multi-head attention and a small trainable transformer encoder.

The encoder stands in for a large pre-trained language model: token plus
learned position embeddings and a stack of post-norm blocks (attention, then
a tanh feed-forward, each with a residual and layer norm). `encode` returns
the hidden rows of one or more sequences stacked into one matrix (one pass,
each sequence attending over its own rows); a sequence longer than the
position table is an error, never cut.

Attention follows the convention here that heads are bare-concatenated back
to d_model; there is no output projection after the concat. Any further
mapping is explicit in the consuming code. Each `mha` call is one graph
node, the op `tensor.attention`, whatever the head count. Each role's
projections are one [h, d_model, d_head] tensor, stored in checkpoints
under one name per role (`duma1.wq`), so every head of a role has one
width by shape.
Self-attention over stacked sequences is that same `mha` call with the
sequences' lengths, and stacked cross-attentions (query segment i over key
segment i) add the keys' lengths.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .tensor import ShapeError, Tensor
from .tokenizer import InputError


class ConfigurationError(InputError):
    """Raised for an invalid run configuration, command-line setting,
    hyperparameter combination or checkpoint pairing, and for an input too
    long for the configured `max_length`."""


@dataclass
class MhaParams:
    """Query, key and value projections, each one [h, d_model, d_head]
    tensor whose slice i is head i's d_model x d_head matrix."""

    wq: Tensor
    wk: Tensor
    wv: Tensor

    @classmethod
    def init(cls, d_model: int, h: int, rng: np.random.Generator | None) -> "MhaParams":
        if h <= 0 or d_model % h != 0:
            raise ConfigurationError(f"d_model {d_model} is not divisible by head count {h}")
        shape = (h, d_model, d_model // h)
        return cls(*(T.uniform_param(shape, rng, fan_in=d_model) for _ in range(3)))


def mha(params: MhaParams, q_seq: Tensor, k_seq: Tensor, v_seq: Tensor, lengths=None, key_lengths=None) -> Tensor:
    """Multi-head scaled dot-product attention, one graph node per call.

    Per head i: softmax(q W^Q_i (k W^K_i)^T / sqrt(d_head)) (v W^V_i), then
    the head outputs are concatenated back to width d_model. The heads run
    inside the single op `tensor.attention`, whose values and gradients are
    those of the per-head chain of matmul, transpose, scale and softmax ops.
    `lengths` and `key_lengths` split the queries and the keys into segment
    pairs, each attending only within itself (see `tensor.attention`).
    """
    return T.attention(q_seq, k_seq, v_seq, params.wq, params.wk, params.wv, lengths, key_lengths)


def self_attention(params: MhaParams, x: Tensor, lengths=None) -> Tensor:
    """Attention of a sequence over itself: mha(x, x, x).

    With `lengths`, `x` stacks the rows of several sequences, and each
    attends over its own rows only, in the same single op.
    """
    return mha(params, x, x, x, lengths)


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
    def init(cls, d_model, h, d_ff, rng) -> "BlockParams":
        return cls(
            attn=MhaParams.init(d_model, h, rng),
            ff_w1=T.uniform_param((d_model, d_ff), rng),
            ff_b1=T.uniform_param((d_ff,), rng, fan_in=d_model),
            ff_w2=T.uniform_param((d_ff, d_model), rng),
            ff_b2=T.uniform_param((d_model,), rng, fan_in=d_ff),
            # Norm layers start as the identity map.
            ln1_gain=T.const_param(1.0, (d_model,)),
            ln1_bias=T.const_param(0.0, (d_model,)),
            ln2_gain=T.const_param(1.0, (d_model,)),
            ln2_bias=T.const_param(0.0, (d_model,)),
        )


@dataclass
class EncoderParams:
    tok_emb: Tensor
    pos_emb: Tensor
    blocks: list = field(default_factory=list)

    @property
    def max_len(self) -> int:
        return self.pos_emb.shape[0]

    @classmethod
    def init(cls, vocab_size, d_model, h, layers, d_ff, max_len, rng) -> "EncoderParams":
        # Embedding tables scale by the embedding width, not the table height.
        return cls(
            tok_emb=T.uniform_param((vocab_size, d_model), rng, fan_in=d_model),
            pos_emb=T.uniform_param((max_len, d_model), rng, fan_in=d_model),
            blocks=[BlockParams.init(d_model, h, d_ff, rng) for _ in range(layers)],
        )


def _block_forward(block: BlockParams, x: Tensor, lengths) -> Tensor:
    a = T.layer_norm(T.add(x, self_attention(block.attn, x, lengths)), block.ln1_gain, block.ln1_bias)
    ff = T.affine(T.tanh(T.affine(a, block.ff_w1, block.ff_b1)), block.ff_w2, block.ff_b2)
    return T.layer_norm(T.add(a, ff), block.ln2_gain, block.ln2_bias)


def encode(params: EncoderParams, *sequences) -> Tensor:
    """Run the encoder over one or more sequences of token ids in one pass.

    Returns the hidden rows of all sequences stacked in input order, one
    [sum of lengths, d] matrix, so the embeddings, layer norms, affines and
    tanh of the stack are one op each, and self-attention runs per sequence
    on its own rows. Every op but attention works row by row, so in float64
    each sequence's rows equal those of encoding it alone, bit for bit; one
    sequence is simply the one-segment case. No sequence, an empty one or one
    past the position table is a `ShapeError`, and an id outside the embedding
    table an `IndexError`: callers check inputs first, so either is a defect.
    """
    if not sequences:
        raise ShapeError("encode: no token sequences")
    seqs = [list(ids) for ids in sequences]
    for ids in seqs:
        if not ids:
            raise ShapeError("encode: empty token sequence")
        if len(ids) > params.max_len:
            raise ShapeError(f"encode: sequence of {len(ids)} tokens overruns the {params.max_len} positions")
    lengths = tuple(len(ids) for ids in seqs)
    tokens = [i for ids in seqs for i in ids]
    positions = [j for n in lengths for j in range(n)]
    x = T.add(T.take_rows(params.tok_emb, tokens), T.take_rows(params.pos_emb, positions))
    for block in params.blocks:
        x = _block_forward(block, x, lengths)
    return x
