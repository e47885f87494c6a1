"""Multi-head attention and the encoder stand-in."""

import numpy as np
import pytest

import helpers
from kkt import tensor as T
from kkt.attention import (
    ConfigError,
    EncoderParams,
    MhaParams,
    VocabularyError,
    encode,
    mha,
    self_attention,
)
from kkt.keyturns import pool


def tens(x):
    return T.Tensor(np.asarray(x, dtype=np.float64))


def identity_params(d):
    eye = np.eye(d)
    return MhaParams(wq=[tens(eye)], wk=[tens(eye)], wv=[tens(eye)])


def rand_params(d, h, seed):
    return MhaParams.init(d, h, np.random.default_rng(seed))


def tiny_encoder(vocab=12, d=8, h=2, layers=1, max_len=32, seed=0):
    return EncoderParams.init(vocab, d, h, layers, 4 * d, max_len, np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# mha

def test_mha_single_key_passes_value_through():
    p = MhaParams(wq=[tens([[1.0]])], wk=[tens([[1.0]])], wv=[tens([[1.0]])])
    out = mha(p, tens([[1.0]]), tens([[1.0]]), tens([[5.0]]))
    assert np.array_equal(out.data, [[5.0]])


def test_mha_zero_query_averages_values():
    p = identity_params(2)
    keys = tens([[0.3, -0.7], [1.2, 0.4]])
    values = tens([[1.0, 2.0], [3.0, 8.0]])
    out = mha(p, tens([[0.0, 0.0]]), keys, values)
    assert np.allclose(out.data, [[2.0, 5.0]], atol=1e-12)


def test_mha_key_value_length_mismatch():
    p = identity_params(2)
    with pytest.raises(T.ShapeError):
        mha(p, tens(np.zeros((1, 2))), tens(np.zeros((2, 2))), tens(np.zeros((3, 2))))


def test_mha_head_count_must_divide_d_model():
    with pytest.raises(ConfigError):
        MhaParams.init(6, 4, np.random.default_rng(0))
    with pytest.raises(ConfigError):
        MhaParams.init(4, 0, np.random.default_rng(0))


def test_mha_matches_naive_oracle():
    rng = np.random.default_rng(0)
    p = rand_params(4, 2, seed=1)
    q, k = rng.standard_normal((3, 4)), rng.standard_normal((5, 4))
    v = rng.standard_normal((5, 4))
    want, _ = helpers.naive_mha(*helpers.mha_arrays(p), q, k, v)
    got = mha(p, tens(q), tens(k), tens(v)).data
    assert np.max(np.abs(got - want)) < 1e-10


def test_mha_oracle_sweep_small_instances():
    rng = np.random.default_rng(1)
    for _ in range(30):
        d = int(rng.choice([2, 4, 8]))
        h = int(rng.choice([1, 2]))
        nq, nk = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        p = rand_params(d, h, seed=int(rng.integers(1 << 30)))
        q, k, v = (rng.standard_normal((n, d)) for n in (nq, nk, nk))
        want, weights = helpers.naive_mha(*helpers.mha_arrays(p), q, k, v)
        got = mha(p, tens(q), tens(k), tens(v)).data
        assert got.shape == (nq, d)
        assert np.max(np.abs(got - want)) < 1e-10
        # Every head's attention matrix is row-stochastic.
        for att in weights:
            assert np.max(np.abs(att.sum(axis=1) - 1.0)) < 1e-9
            assert att.min() >= 0.0


def test_mha_gradient_through_projections():
    rng = np.random.default_rng(2)
    p = rand_params(4, 2, seed=3)
    q = T.Tensor(rng.standard_normal((2, 4)), requires_grad=True)
    k = T.Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    v = T.Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    leaves = [q, k, v] + p.wq + p.wk + p.wv
    worst = helpers.gradcheck(lambda: T.sum_all(mha(p, q, k, v)), leaves)
    assert worst < 1e-4


# ---------------------------------------------------------------------------
# self attention

def test_self_attention_single_token_value_projection():
    rng = np.random.default_rng(3)
    wv = rng.standard_normal((3, 3))
    p = MhaParams(wq=[tens(np.eye(3))], wk=[tens(np.eye(3))], wv=[tens(wv)])
    x = rng.standard_normal((1, 3))
    out = self_attention(p, tens(x))
    assert np.allclose(out.data, x @ wv, atol=1e-12)


def test_self_attention_permutation_equivariance():
    # No positions inside mha itself, so permuting rows permutes outputs.
    rng = np.random.default_rng(4)
    p = rand_params(4, 2, seed=5)
    x = rng.standard_normal((4, 4))
    perm = [2, 0, 3, 1]
    base = self_attention(p, tens(x)).data
    permuted = self_attention(p, tens(x[perm])).data
    assert np.max(np.abs(permuted - base[perm])) < 1e-10


def test_self_attention_matches_naive_oracle():
    rng = np.random.default_rng(5)
    p = rand_params(4, 1, seed=6)
    x = rng.standard_normal((4, 4))
    want, _ = helpers.naive_mha(*helpers.mha_arrays(p), x, x, x)
    assert np.max(np.abs(self_attention(p, tens(x)).data - want)) < 1e-10


# ---------------------------------------------------------------------------
# encoder

def test_encode_minimal_sequence_shapes():
    enc = tiny_encoder()
    res = encode(enc, [2, 4])  # [BOS, EOS]
    assert res.hidden.shape == (2, 8)
    assert pool(enc, res.hidden).shape == (8,)
    assert not res.truncated


def test_encode_deterministic():
    enc = tiny_encoder()
    a = encode(enc, [2, 7, 9, 4])
    b = encode(enc, [2, 7, 9, 4])
    assert np.array_equal(a.hidden.data, b.hidden.data)
    assert np.array_equal(pool(enc, a.hidden).data, pool(enc, b.hidden).data)


def test_encode_pooled_within_tanh_range():
    rng = np.random.default_rng(6)
    enc = tiny_encoder()
    for _ in range(100):
        n = int(rng.integers(1, 16))
        ids = rng.integers(0, 12, size=n).tolist()
        pooled = pool(enc, encode(enc, ids).hidden).data
        assert np.all(pooled > -1.0) and np.all(pooled < 1.0)


def test_encode_rejects_out_of_range_ids():
    enc = tiny_encoder(vocab=10)
    with pytest.raises(VocabularyError):
        encode(enc, [0, 10])
    with pytest.raises(VocabularyError):
        encode(enc, [-1])


def test_encode_truncates_overlength_with_flag():
    enc = tiny_encoder(max_len=8)
    res = encode(enc, list(range(10)) + [2, 4])
    assert res.truncated
    assert res.hidden.shape == (8, 8)


def test_encode_output_rows_match_input_length():
    rng = np.random.default_rng(7)
    enc = tiny_encoder()
    for n in (1, 3, 11):
        ids = rng.integers(0, 12, size=n).tolist()
        assert encode(enc, ids).hidden.shape == (n, 8)


def test_encoder_parameter_names():
    enc = tiny_encoder(d=8, h=2, layers=2)
    names = enc.named_parameters("enc")
    assert "enc.tok_emb" in names and "enc.pos_emb" in names
    assert "enc.block0.attn.wq0" in names and "enc.block1.attn.wv1" in names
    assert "enc.block1.ff_w2" in names and "enc.block0.ln2_gain" in names
    assert "enc.pooler_w" in names and "enc.pooler_b" in names
    # 2 embeddings + 2 blocks x (6 heads + 4 ff + 4 ln) + pooler pair
    assert len(names) == 2 + 2 * (6 + 4 + 4) + 2


def test_encoder_init_deterministic_by_seed():
    a = tiny_encoder(seed=9)
    b = tiny_encoder(seed=9)
    for name, t in a.named_parameters("enc").items():
        assert np.array_equal(t.data, b.named_parameters("enc")[name].data), name
