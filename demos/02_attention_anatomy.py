#!/usr/bin/env python3
# What multi-head attention actually computes, on numbers small enough
# to eyeball, plus one pass through the toy transformer encoder.

import numpy as np

from kkt import tensor as T
from kkt.attention import EncoderParams, MhaParams, encode, mha, self_attention
from kkt.keyturns import pool
from kkt.tokenizer import Tokenizer

# With identity projections and a zero query, attention is a plain average
# of the value rows: every key scores the same.
eye = T.Tensor(np.eye(2))
p = MhaParams(wq=[eye], wk=[eye], wv=[eye])
values = T.Tensor(np.array([[1.0, 2.0], [3.0, 8.0]]))
keys = T.Tensor(np.array([[0.3, -0.7], [1.2, 0.4]]))
query = T.Tensor(np.array([[0.0, 0.0]]))
out = mha(p, query, keys, values)
print("zero query averages the values:", out.data, "expected [[2. 5.]]")

# A strongly aligned query picks out "its" value row instead.
query = T.Tensor(np.array([[12.0, 4.0]]))
out = mha(p, query, keys, values)
print("aligned query:", out.data)

# Two heads each see d_model/2 columns; their outputs are concatenated
# back to full width, with no extra output projection on top.
rng = np.random.default_rng(0)
p2 = MhaParams.init(4, 2, rng, dtype=np.float64)
x = T.Tensor(rng.standard_normal((3, 4)))
sa = self_attention(p2, x)
print("self-attention keeps the sequence shape:", x.shape, "->", sa.shape)

# The encoder wraps attention in post-norm blocks and adds [BOS]/[EOS].
vocab = Tokenizer.build(["the bike is on the street", "where is my bike"])
enc = EncoderParams.init(len(vocab), 8, 2, 1, 32, 32, np.random.default_rng(1))
ids = [vocab.bos_id] + vocab.encode("where is my bike") + [vocab.eos_id]
result = encode(enc, ids)
print("hidden rows:", result.hidden.shape)

# The turn scorer pools the first row into one sentence vector.
pooled = pool(enc, result.hidden)
print("pooled sentence vector:", pooled.shape, "values stay in (-1, 1):", np.round(pooled.data, 3))
