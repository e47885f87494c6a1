"""Multi-head attention and the encoder stand-in."""

import functools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import helpers
from kkt import attention
from kkt import tensor as T
from kkt.attention import (
    ConfigurationError,
    EncoderParams,
    MhaParams,
    encode,
    mha,
    self_attention,
)
from kkt.checkpoint import named_parameters


def tens(x):
    return T.Tensor(np.asarray(x, dtype=np.float64))


def identity_params(d):
    eye = np.eye(d)[None]
    return MhaParams(wq=tens(eye), wk=tens(eye), wv=tens(eye))


def rand_params(d, h, seed):
    return MhaParams.init(d, h, np.random.default_rng(seed))


def tiny_encoder(vocab=12, d=8, h=2, layers=1, max_len=32, seed=0):
    return EncoderParams.init(vocab, d, h, layers, 4 * d, max_len, np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# mha

def test_mha_single_key_passes_value_through():
    p = MhaParams(wq=tens([[[1.0]]]), wk=tens([[[1.0]]]), wv=tens([[[1.0]]]))
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
    with pytest.raises(ConfigurationError):
        MhaParams.init(6, 4, np.random.default_rng(0))
    with pytest.raises(ConfigurationError):
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
    leaves = [q, k, v, p.wq, p.wk, p.wv]
    worst = helpers.gradcheck(lambda: T.sum_all(mha(p, q, k, v)), leaves)
    assert worst < 1e-4


# ---------------------------------------------------------------------------
# one op against the per-head chain of ops

@pytest.mark.parametrize("h", [1, 2, 3])
def test_mha_forward_matches_the_op_chain_bit_for_bit(h):
    rng = np.random.default_rng(40 + h)
    p = rand_params(6, h, seed=h)
    x, q, kv = (tens(rng.standard_normal(shape)) for shape in ((5, 6), (3, 6), (4, 6)))
    for args in ((x, x, x), (q, kv, kv)):
        assert mha(p, *args).data.tobytes() == helpers.chain_mha(p, *args).data.tobytes()


@pytest.mark.parametrize("h", [1, 2, 3])
def test_encoder_gradients_match_the_op_chain_bit_for_bit(monkeypatch, h):
    # Self-attention inside residual blocks: a block's input sums the
    # residual's gradient and every head's value, key and query terms.
    enc = tiny_encoder(d=6, h=h, layers=2, seed=h)
    ids = [1, 4, 2, 9, 4, 3, 5]
    weight = tens(np.random.default_rng(h).standard_normal((len(ids), 6)))

    def leaf_grads():
        params = named_parameters(enc, "enc")
        for t in params.values():
            t.grad = None
        T.sum_all(T.mul(encode(enc, ids), weight)).backward()
        return {name: t.grad.tobytes() for name, t in params.items() if t.grad is not None}

    got = leaf_grads()
    monkeypatch.setattr(attention, "mha", helpers.chain_mha)
    assert got == leaf_grads()
    assert len(got) == len(named_parameters(enc, "enc"))  # every parameter


def test_mha_adds_one_graph_node():
    # Its parents are one input-gradient slot per (head, role), then the
    # three rank-3 projections, not one weight per head.
    rng = np.random.default_rng(44)
    q, kv = (T.Tensor(rng.standard_normal(shape), requires_grad=True) for shape in ((2, 6), (3, 6)))
    for h in (1, 3):
        p = rand_params(6, h, seed=4)
        for out in (mha(p, q, kv, kv), self_attention(p, q)):
            assert [node for node in T._topo_order(out) if node._parents] == [out]
            assert len(out._parents) == 3 * h + 3
            assert out._parents[3 * h:] == (p.wq, p.wk, p.wv)


def _op_and_chain_run(p, inputs, roles, lengths, weight, key_lengths=None):
    """Outputs and leaf gradients of the op and of the per-head chain, both
    weighted by `weight` and summed. The chain runs per segment pair when
    the op has several; the op's output is split the same way."""
    leaves = inputs + [p.wq, p.wk, p.wv]
    seqs = [inputs[r] for r in roles]

    def run(build):
        for t in leaves:
            t.grad = None
        outs = build()
        w = np.split(weight, np.cumsum([o.shape[0] for o in outs])[:-1])
        functools.reduce(T.add, [T.sum_all(T.mul(o, T.Tensor(wj))) for o, wj in zip(outs, w)]).backward()
        return [o.data for o in outs], [t.grad for t in leaves]

    if lengths is None or len(lengths) == 1:
        op = run(lambda: [T.attention(*seqs, p.wq, p.wk, p.wv, lengths, key_lengths)])
        return op, run(lambda: [helpers.chain_mha(p, *seqs)])
    edges = np.cumsum([0] + list(lengths))

    def op_segments():
        out = T.attention(*seqs, p.wq, p.wk, p.wv, lengths, key_lengths)
        return [T.take_rows(out, range(a, b)) for a, b in zip(edges, edges[1:])]

    return run(op_segments), run(lambda: helpers.chain_mha_segments(p, *seqs, lengths, key_lengths))


# Roles of the inputs: self-attention, keys and values shared, all distinct.
attention_roles = st.sampled_from([(0, 0, 0), (0, 1, 1), (0, 1, 2)])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(h=st.integers(1, 4), d_head=st.integers(1, 3), roles=attention_roles,
       segments=st.lists(st.integers(1, 4), min_size=1, max_size=3), keys=st.integers(1, 4),
       segmented=st.booleans(), seed=st.integers(0, 2**16))
def test_attention_equals_the_per_head_chain_in_both_dtypes(h, d_head, roles, segments, keys, segmented, seed):
    # The keys are never computed from the queries here: that one case may
    # differ in the last bits of the queries' gradient (tensor module docstring).
    lengths = segments if segmented or len(segments) > 1 else None
    m = sum(segments)
    shapes = [(m, h * d_head), (m if lengths else keys, h * d_head)]
    rng = np.random.default_rng(seed)
    data = [rng.standard_normal(shapes[min(r, 1)]) for r in range(max(roles) + 1)]
    p64 = MhaParams.init(h * d_head, h, np.random.default_rng(seed + 1))
    weight = rng.standard_normal((m, h * d_head))
    _both_dtypes_match_the_chain(p64, data, roles, lengths, weight)


def _both_dtypes_match_the_chain(p64, data, roles, lengths, weight, key_lengths=None):
    # Bit for bit in float64, within rtol 1e-5 in float32.
    (out, grads), (want_out, want_grads) = _op_and_chain_run(
        p64, [T.Tensor(x, requires_grad=True) for x in data], roles, lengths, weight, key_lengths)
    assert [o.tobytes() for o in out] == [o.tobytes() for o in want_out]
    assert [g.tobytes() for g in grads] == [g.tobytes() for g in want_grads]

    f32 = np.float32
    p32 = MhaParams(*(T.Tensor(w.data.astype(f32), requires_grad=True) for w in (p64.wq, p64.wk, p64.wv)))
    (out, grads), (want_out, want_grads) = _op_and_chain_run(
        p32, [T.Tensor(x.astype(f32), requires_grad=True) for x in data], roles, lengths, weight.astype(f32), key_lengths)
    for got, want in zip(out + grads, want_out + want_grads):
        assert got.dtype == f32
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-6)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(h=st.integers(1, 3), d_head=st.integers(1, 3), roles=st.sampled_from([(0, 1, 1), (0, 1, 2)]),
       pairs=st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)), min_size=1, max_size=3),
       seed=st.integers(0, 2**16))
def test_segment_pairs_equal_the_chain_per_pair_in_both_dtypes(h, d_head, roles, pairs, seed):
    # Query segment i over key segment i, with query and key lengths drawn
    # apart: the stacked cross-attentions of several answer options.
    lengths, key_lengths = (list(side) for side in zip(*pairs))
    rng = np.random.default_rng(seed)
    shapes = [(sum(lengths), h * d_head), (sum(key_lengths), h * d_head)]
    data = [rng.standard_normal(shapes[min(r, 1)]) for r in range(max(roles) + 1)]
    p64 = MhaParams.init(h * d_head, h, np.random.default_rng(seed + 1))
    weight = rng.standard_normal((sum(lengths), h * d_head))
    _both_dtypes_match_the_chain(p64, data, roles, lengths, weight, key_lengths)


def _interleaved_layouts():
    """Segment pairs drawn from one to three distinct (query, key) shapes,
    in an interleaved order, so that some shapes repeat and some do not."""
    shapes = st.lists(st.tuples(st.integers(1, 5), st.integers(1, 5)), min_size=1, max_size=3, unique=True)
    return shapes.flatmap(lambda s: st.lists(st.sampled_from(s), min_size=2, max_size=6))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(h=st.integers(1, 3), d_head=st.integers(1, 3), roles=attention_roles, pairs=_interleaved_layouts(),
       seed=st.integers(0, 2**16))
@example(h=2, d_head=2, roles=(0, 1, 2), pairs=[(3, 2), (5, 2), (3, 4), (5, 2), (3, 2)], seed=3)
def test_grouped_segment_pairs_equal_the_chain_per_pair_in_both_dtypes(h, d_head, roles, pairs, seed):
    # Pairs of one shape run as one batch, gathered and scattered back by
    # row when the shapes mix; each pair must still get the chain's values
    # and gradients. Self-attention pairs a segment with itself.
    lengths, key_lengths = (list(side) for side in zip(*pairs))
    if roles[1] == 0:
        key_lengths = None
    rng = np.random.default_rng(seed)
    shapes = [(sum(lengths), h * d_head), (sum(key_lengths or lengths), h * d_head)]
    data = [rng.standard_normal(shapes[min(r, 1)]) for r in range(max(roles) + 1)]
    p64 = MhaParams.init(h * d_head, h, np.random.default_rng(seed + 1))
    weight = rng.standard_normal((sum(lengths), h * d_head))
    _both_dtypes_match_the_chain(p64, data, roles, lengths, weight, key_lengths)


@pytest.mark.parametrize("segments", [2, 5])
def test_equal_shape_segments_make_no_product_per_segment(monkeypatch, segments):
    # g segment pairs of one shape run as many matrix products, and one
    # batched backward, as one pair: for self-attention and for stacked
    # cross-attentions alike.
    calls = []
    matmul_data, heads_backward = T._matmul_data, T._heads_backward

    def counted(a, b):
        calls.append("product")
        return matmul_data(a, b)

    def counted_backward(*args):
        calls.append("backward")
        return heads_backward(*args)

    monkeypatch.setattr(T, "_matmul_data", counted)
    monkeypatch.setattr(T, "_heads_backward", counted_backward)
    rng = np.random.default_rng(8)
    p = rand_params(4, 2, seed=2)
    counts = []
    for g in (1, segments):
        q = T.Tensor(rng.standard_normal((3 * g, 4)), requires_grad=True)
        kv = tens(rng.standard_normal((2 * g, 4)))
        calls.clear()
        T.sum_all(T.add(self_attention(p, q, [3] * g), mha(p, q, kv, kv, [3] * g, [2] * g))).backward()
        counts.append(sorted(calls))
    assert counts[0] == counts[1] == ["backward"] * 2 + ["product"] * 2 * (3 + 2)


@pytest.mark.parametrize("lengths", [None, [2, 3]])
def test_attention_makes_no_product_per_head(monkeypatch, lengths):
    # A forward call runs as many matrix products at h=4 as at h=1.
    calls = []
    matmul_data = T._matmul_data

    def counted(a, b):
        calls.append(a.shape)
        return matmul_data(a, b)

    monkeypatch.setattr(T, "_matmul_data", counted)
    rng = np.random.default_rng(7)
    x = tens(rng.standard_normal((5, 4)))
    counts = []
    for h in (1, 4):
        p = rand_params(4, h, seed=h)
        calls.clear()
        self_attention(p, x, lengths)
        counts.append(len(calls))
    assert counts[0] == counts[1] == 3 + 2 * (1 if lengths is None else len(lengths))


# ---------------------------------------------------------------------------
# self attention

def test_self_attention_single_token_value_projection():
    rng = np.random.default_rng(3)
    wv = rng.standard_normal((3, 3))
    p = MhaParams(wq=tens(np.eye(3)[None]), wk=tens(np.eye(3)[None]), wv=tens(wv[None]))
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
    hidden = encode(enc, [2, 4])  # [BOS, EOS]
    assert hidden.shape == (2, 8)


def test_encode_deterministic():
    enc = tiny_encoder()
    a = encode(enc, [2, 7, 9, 4])
    b = encode(enc, [2, 7, 9, 4])
    assert np.array_equal(a.data, b.data)


def test_encode_rejects_out_of_range_ids():
    # The embedding lookup bounds every id; no input file reaches it, so it is a defect.
    enc = tiny_encoder(vocab=10)
    with pytest.raises(IndexError):
        encode(enc, [0, 10])
    with pytest.raises(IndexError):
        encode(enc, [-1])


def test_encode_rejects_overlength_sequences():
    # A cut sequence would shift the rows of the ones stacked after it.
    enc = tiny_encoder(max_len=8)
    assert encode(enc, list(range(8))).shape == (8, 8)
    with pytest.raises(T.ShapeError, match="positions"):
        encode(enc, list(range(10)) + [2, 4])
    with pytest.raises(T.ShapeError, match="positions"):
        encode(enc, [2, 4], list(range(9)))


def test_encode_output_rows_match_input_length():
    rng = np.random.default_rng(7)
    enc = tiny_encoder()
    for n in (1, 3, 11):
        ids = rng.integers(0, 12, size=n).tolist()
        assert encode(enc, ids).shape == (n, 8)


def test_encoder_parameter_names():
    enc = tiny_encoder(d=8, h=2, layers=2)
    names = named_parameters(enc, "enc")
    assert "enc.tok_emb" in names and "enc.pos_emb" in names
    assert "enc.block0.attn.wq" in names and "enc.block1.attn.wv" in names
    assert names["enc.block0.attn.wk"].shape == (2, 8, 4)
    assert "enc.block1.ff_w2" in names and "enc.block0.ln2_gain" in names
    # 2 embeddings + 2 blocks x (3 projections + 4 ff + 4 ln); the pooler is the NLI head's
    assert not any("pooler" in name for name in names)
    assert len(names) == 2 + 2 * (3 + 4 + 4)


def test_encoder_init_deterministic_by_seed():
    a = tiny_encoder(seed=9)
    b = tiny_encoder(seed=9)
    for name, t in named_parameters(a, "enc").items():
        assert np.array_equal(t.data, named_parameters(b, "enc")[name].data), name


# ---------------------------------------------------------------------------
# stacked sequences: one encoder call for many

sequences = st.lists(st.lists(st.integers(min_value=0, max_value=11), min_size=1, max_size=9), min_size=1, max_size=5)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seqs=sequences, h=st.sampled_from([1, 2]), layers=st.sampled_from([1, 2]), max_len=st.sampled_from([6, 32]))
def test_stacked_encoding_equals_encoding_each_sequence_bit_for_bit(seqs, h, layers, max_len):
    enc = tiny_encoder(d=4, h=h, layers=layers, max_len=max_len, seed=len(seqs))
    sa = MhaParams.init(4, h, np.random.default_rng(h))
    if any(len(s) > max_len for s in seqs):
        with pytest.raises(T.ShapeError):
            encode(enc, *seqs)
        return
    stacked = encode(enc, *seqs)
    lengths = [len(s) for s in seqs]
    pooled = T.segment_mean(self_attention(sa, stacked, lengths), lengths).data
    rows = np.split(stacked.data, np.cumsum(lengths)[:-1])
    for j, ids in enumerate(seqs):
        alone = encode(enc, ids)
        assert rows[j].tobytes() == alone.data.tobytes()
        assert pooled[j].tobytes() == self_attention(sa, alone).data.mean(axis=0).tobytes()


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(ids=sequences.map(lambda s: s[0]), h=st.sampled_from([1, 2, 3]), seed=st.integers(0, 2**16))
def test_one_stacked_sequence_has_the_gradients_of_the_unsegmented_ops(ids, h, seed):
    # Every leaf gradient, through the encoder, a segmented self-attention
    # and a segment mean, is bit-identical to that through an unsegmented
    # self-attention.
    enc = tiny_encoder(d=6, h=h, layers=2, seed=seed)
    sa = MhaParams.init(6, h, np.random.default_rng(seed + 1))
    weight = np.random.default_rng(seed).standard_normal((1, 6))
    leaves = list(named_parameters(enc, "enc").values()) + [sa.wq, sa.wk, sa.wv]

    def grads(vector):
        for t in leaves:
            t.grad = None
        r = vector()
        r.backward(weight)
        return [r.data.tobytes()] + [None if t.grad is None else t.grad.tobytes() for t in leaves]

    lengths = [len(ids)]
    segmented = grads(lambda: T.segment_mean(self_attention(sa, encode(enc, ids), lengths), lengths))
    assert segmented == grads(lambda: T.segment_mean(self_attention(sa, encode(enc, ids)), lengths))


def test_encode_needs_a_sequence():
    with pytest.raises(T.ShapeError):
        encode(tiny_encoder())
    with pytest.raises(T.ShapeError):
        encode(tiny_encoder(), [2, 4], [])
