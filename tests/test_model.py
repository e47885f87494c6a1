"""End-to-end model: encoding split, refinement, co-attention fusion, prediction."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import helpers
from kkt import attention, knowledge, model
from kkt import tensor as T
from kkt.attention import ConfigurationError, MhaParams, encode
from kkt.checkpoint import named_parameters
from kkt.data import gen_synthetic
from kkt.keyturns import LeadingProvider, NliHead, NliProvider, OracleProvider
from kkt.knowledge import KnowledgeStore, KnowledgeTriple, rank_triples
from kkt.model import (
    ABLATIONS,
    PATHS,
    DialogueExample,
    EncodedPair,
    KktParams,
    KktPipeline,
    dual_coattention,
    encode_pair,
    forward,
    refine,
)
from kkt.tokenizer import Tokenizer


def make_example(turns, question="where is the bike ?", options=("street", "shed", "house"), gold=0):
    return DialogueExample(
        turns=list(turns), question=question, options=list(options), gold=gold,
        dialogue_id="d0", qa_index=0,
    )


def small_setup(seed=0, d=8, h=2, ablation="full", texts=()):
    base = [
        "m : the bike is on the street .",
        "w : we could walk to the shed .",
        "where is the bike ? street shed house",
    ]
    tk = Tokenizer.build(list(texts) + base)
    params = KktParams.init(len(tk), d, h, 1, 4 * d, 64, ablation, np.random.default_rng(seed))
    return tk, params


def fake_fact(vec):
    """A fact row, as `FactEncoder` returns it: a [1, d] Tensor."""
    return T.Tensor(np.asarray(vec, dtype=np.float64)[None])


# ---------------------------------------------------------------------------
# example validation

def test_example_needs_two_options():
    with pytest.raises(ValueError):
        make_example(["m : hi"], options=("only",))


def test_example_gold_in_range():
    with pytest.raises(ValueError):
        make_example(["m : hi"], gold=3)


def test_example_turns_non_empty():
    with pytest.raises(ValueError):
        make_example(["m : hi", "   "])
    with pytest.raises(ValueError):
        make_example([])


def test_example_id_and_qa_text():
    ex = make_example(["m : hi"])
    assert ex.example_id == "d0#0"
    assert ex.qa_text(1) == "where is the bike ? shed"


# ---------------------------------------------------------------------------
# encode_pair

def test_encode_pair_spans_round_trip():
    tk, params = small_setup()
    ex = make_example(["m : the bike is on the street .", "w : we could walk to the shed ."])
    enc = encode_pair(params.enc, tk, helpers.one_option(ex, 0), 64)
    spans, = enc.turn_spans
    c_ids = [i for t in ex.turns for i in tk.encode(t)]
    for turn, (s, e) in zip(ex.turns, spans):
        assert c_ids[s:e] == tk.encode(turn)
    assert spans[0][0] == 0
    assert spans[-1][1] == enc.h_c.shape[0]


def test_encode_pair_partition_counts():
    tk, params = small_setup()
    ex = make_example(["m : the bike is on the street ."])
    enc = encode_pair(params.enc, tk, helpers.one_option(ex, 0), 64)
    n_c = len(tk.encode(ex.turns[0]))
    n_qa = len(tk.encode(ex.question)) + len(tk.encode(ex.options[0]))
    total = n_c + n_qa + 4  # BOS, two SEPs, EOS
    assert enc.h_c.shape[0] == n_c
    assert enc.h_qa.shape[0] == n_qa
    assert enc.h_c.shape[0] + enc.h_qa.shape[0] + 4 == total
    assert not enc.truncated


def test_encode_pair_deterministic():
    tk, params = small_setup()
    ex = make_example(["m : the bike is on the street ."])
    a = encode_pair(params.enc, tk, ex, 64)
    b = encode_pair(params.enc, tk, ex, 64)
    assert np.array_equal(a.h_c.data, b.h_c.data)
    assert np.array_equal(a.h_qa.data, b.h_qa.data)


def test_encode_pair_truncates_context_from_front():
    long_turn = "m : " + "street " * 30
    tk, params = small_setup(texts=[long_turn])
    ex = make_example([long_turn, "w : we could walk to the shed ."])
    enc = encode_pair(params.enc, tk, helpers.one_option(ex, 0), 32)
    spans, = enc.turn_spans
    assert enc.truncated
    # QA side is untouched by truncation.
    n_qa = len(tk.encode(ex.question)) + len(tk.encode(ex.options[0]))
    assert enc.h_qa.shape[0] == n_qa
    # Front turns collapse to empty clipped spans, the tail span survives.
    assert spans[0] == (0, 0) or spans[0][1] < spans[1][1]
    assert spans[-1][1] == enc.h_c.shape[0]


def test_encode_pair_context_capped_at_three_quarters():
    long_turn = "m : " + "street " * 60
    tk, params = small_setup(texts=[long_turn])
    ex = make_example([long_turn])
    max_len = 40
    enc = encode_pair(params.enc, tk, helpers.one_option(ex, 0), max_len)
    assert enc.h_c.shape[0] == int((max_len - 4) * 0.75)


def test_encode_pair_oversize_qa_rejected():
    tk, params = small_setup(texts=["street " * 40])
    ex = make_example(["m : hi there"], question="street " * 40)
    with pytest.raises(ConfigurationError, match="QA pair of 41 tokens exceeds max_length 32"):
        encode_pair(params.enc, tk, helpers.one_option(ex, 0), 32)


def test_encode_pair_all_options_stack_each_options_rows():
    tk, params = small_setup()
    ex = make_example(["m : the bike is on the street .", "w : we could walk to the shed ."])
    stacked = encode_pair(params.enc, tk, ex, 64)
    alone = [encode_pair(params.enc, tk, helpers.one_option(ex, j), 64) for j in range(3)]
    assert stacked.c_lengths == tuple(a.h_c.shape[0] for a in alone)
    assert stacked.qa_lengths == tuple(a.h_qa.shape[0] for a in alone)
    assert stacked.turn_spans == [a.turn_spans[0] for a in alone]
    assert stacked.h_c.data.tobytes() == np.concatenate([a.h_c.data for a in alone]).tobytes()
    assert stacked.h_qa.data.tobytes() == np.concatenate([a.h_qa.data for a in alone]).tobytes()


def test_encode_pair_rejects_inputs_past_the_position_table():
    # Stacked rows would shift if the encoder cut a sequence, so it may not.
    # A max_len above the position table is a defect of the caller.
    tk, params = small_setup()
    ex = make_example(["m : " + "the bike is on the street . " * 12])
    with pytest.raises(T.ShapeError, match="positions"):
        encode_pair(params.enc, tk, ex, 128)


def test_refine_needs_one_entry_per_option():
    tk, params = small_setup()
    ex = make_example(["m : the bike is on the street ."])
    enc = encode_pair(params.enc, tk, ex, 64)
    with pytest.raises(T.ShapeError):
        refine(params, enc, [(0,), (0,)], [], [[], [], []])


# ---------------------------------------------------------------------------
# refine

def random_pair(rng, d=8, n_c=5, n_qa=3, spans=((0, 2), (2, 5))):
    return EncodedPair(
        h_c=T.Tensor(rng.standard_normal((n_c, d))),
        h_qa=T.Tensor(rng.standard_normal((n_qa, d))),
        turn_spans=[list(spans)],
        truncated=False,
        c_lengths=(n_c,),
        qa_lengths=(n_qa,),
    )


def test_refine_single_fact_identity_projections():
    rng = np.random.default_rng(0)
    tk, params = small_setup()
    eye = T.Tensor(np.eye(8)[None])
    params.refine_ck = MhaParams(wq=eye, wk=eye, wv=eye)
    enc = random_pair(rng)
    fact = fake_fact(rng.standard_normal(8))
    out = refine(params, enc, [()], [fact], [[]])
    # One key: attention weights are all 1, every row becomes the fact vector.
    assert np.allclose(out.h_c_k.data, np.tile(fact.data, (5, 1)), atol=1e-12)


def test_refine_full_selection_recovers_h_c():
    rng = np.random.default_rng(1)
    tk, params = small_setup()
    enc = random_pair(rng)
    out = refine(params, enc, [(0, 1)], [], [[]])
    assert np.array_equal(out.h_kt.data, enc.h_c.data)


def test_refine_empty_inputs_fall_back_to_identity():
    rng = np.random.default_rng(2)
    tk, params = small_setup()
    enc = random_pair(rng)
    out = refine(params, enc, [()], [], [[]])
    assert out.flags == [{"kt_identity": True, "ck_identity": True, "qak_identity": True}]
    assert out.h_kt is None
    assert out.h_c_kt is enc.h_c
    assert out.h_c_k is enc.h_c
    assert out.h_qa_k is enc.h_qa


def test_refine_bad_turn_index():
    rng = np.random.default_rng(3)
    tk, params = small_setup()
    with pytest.raises(IndexError):
        refine(params, random_pair(rng), [(7,)], [], [[]])


def test_refine_matches_naive_oracle():
    rng = np.random.default_rng(4)
    tk, params = small_setup(seed=5)
    for _ in range(20):
        enc = random_pair(rng)
        key_turns = tuple(i for i in range(2) if rng.random() < 0.7)
        ck = [fake_fact(rng.standard_normal(8)) for _ in range(int(rng.integers(0, 3)))]
        qak = [fake_fact(rng.standard_normal(8)) for _ in range(int(rng.integers(0, 3)))]
        got = refine(params, enc, [key_turns], ck, [qak])
        ck_rows = np.array([f.data for f in ck]).reshape(len(ck), 8)
        qak_rows = np.array([f.data for f in qak]).reshape(len(qak), 8)
        h_kt, h_c_kt, h_c_k, h_qa_k = helpers.naive_refine(
            params, enc.h_c.data, enc.h_qa.data, enc.turn_spans[0], key_turns, ck_rows, qak_rows
        )
        assert np.max(np.abs(got.h_c_kt.data - h_c_kt)) < 1e-10
        assert np.max(np.abs(got.h_c_k.data - h_c_k)) < 1e-10
        assert np.max(np.abs(got.h_qa_k.data - h_qa_k)) < 1e-10
        if h_kt is not None:
            assert np.array_equal(got.h_kt.data, h_kt)


# ---------------------------------------------------------------------------
# dual co-attention

def test_duma_single_token_swaps_sides():
    x = np.array([[0.3, -1.2]])
    y = np.array([[2.0, 0.5]])
    eye = T.Tensor(np.eye(2)[None])
    p = MhaParams(wq=eye, wk=eye, wv=eye)
    out = dual_coattention(p, p, T.Tensor(x), T.Tensor(y), (1,), (1,))
    assert np.allclose(out.data, np.concatenate([y, x], axis=1), atol=1e-12)


def test_duma_output_width_for_random_shapes():
    rng = np.random.default_rng(5)
    tk, params = small_setup(seed=6)
    for _ in range(100):
        n_c, n_qa = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        out = dual_coattention(
            params.duma1, params.duma2,
            T.Tensor(rng.standard_normal((n_c, 8))), T.Tensor(rng.standard_normal((n_qa, 8))), (n_c,), (n_qa,),
        )
        assert out.shape == (1, 16)


def test_duma_matches_naive_oracle():
    rng = np.random.default_rng(6)
    tk, params = small_setup(seed=7)
    for _ in range(20):
        h_c = rng.standard_normal((int(rng.integers(1, 8)), 8))
        h_qa = rng.standard_normal((int(rng.integers(1, 8)), 8))
        got = dual_coattention(params.duma1, params.duma2, T.Tensor(h_c), T.Tensor(h_qa), (len(h_c),), (len(h_qa),)).data
        want = helpers.naive_duma(params.duma1, params.duma2, h_c, h_qa)
        assert np.max(np.abs(got - want)) < 1e-10


def test_duma_rejects_empty_sequences():
    tk, params = small_setup()
    with pytest.raises(T.ShapeError):
        dual_coattention(params.duma1, params.duma2, T.Tensor(np.zeros((0, 8))), T.Tensor(np.zeros((1, 8))), (0,), (1,))


# ---------------------------------------------------------------------------
# forward

def test_forward_finite_scalar_all_ablations():
    rng = np.random.default_rng(7)
    ex = make_example(["m : the bike is on the street .", "w : we could walk to the shed ."])
    for ablation in ABLATIONS:
        tk, params = small_setup(seed=8, ablation=ablation)
        enc = encode_pair(params.enc, tk, helpers.one_option(ex, 0), 64)
        ck = [fake_fact(rng.standard_normal(8))]
        logit, _ = forward(params, enc, [(0,)], ck, [ck])
        assert logit.shape == (1,)
        assert np.isfinite(logit.data[0])


def test_forward_decoder_gradient_is_fused_output():
    # logit = W . O, so dlogit/dW must equal O; checked by differences.
    tk, params = small_setup(seed=9)
    ex = make_example(["m : the bike is on the street ."])

    def loss_fn():
        enc = encode_pair(params.enc, tk, helpers.one_option(ex, 0), 64)
        logit, _ = forward(params, enc, [(0,)], [], [[]])
        return T.reshape(logit, ())

    worst = helpers.gradcheck(loss_fn, [params.decoder_w])
    assert worst < 1e-8


def test_forward_empty_knowledge_equals_baseline_path():
    # With no facts and every turn selected, the knowledge branch collapses
    # onto the plain DUMA of (H_c, H_QA), bit for bit.
    tk, params = small_setup(seed=10)
    ex = make_example(["m : the bike is on the street .", "w : we could walk to the shed ."])
    enc = encode_pair(params.enc, tk, helpers.one_option(ex, 0), 64)
    refined = refine(params, enc, [(0, 1)], [], [[]])
    assert refined.flags[0]["ck_identity"] and refined.flags[0]["qak_identity"]
    lengths = (enc.c_lengths, enc.qa_lengths)
    o_k = dual_coattention(params.duma1, params.duma2, refined.h_c_k, refined.h_qa_k, *lengths)
    o_o = dual_coattention(params.duma1, params.duma2, enc.h_c, enc.h_qa, *lengths)
    assert np.array_equal(o_k.data, o_o.data)


def test_forward_fusion_dimensions_by_ablation():
    for ablation, fusion_in in [("full", 32), ("keyturns-only", 32), ("kt", 16), ("k", 16)]:
        tk, params = small_setup(ablation=ablation)
        assert params.fusion_w.shape == (fusion_in, 16)
        assert params.decoder_w.shape == (32,)
    tk, params = small_setup(ablation="base")
    assert params.fusion_w is None
    assert params.decoder_w.shape == (16,)


def test_kkt_params_named_parameters_complete():
    tk, params = small_setup()
    names = named_parameters(params)
    assert "decoder_w" in names and "fusion_w" in names
    assert "enc.tok_emb" in names and "fact_sa.wq" in names
    assert "refine_kt.wk" in names and "duma2.wv" in names
    # 1 block encoder: 2 emb + 11 block = 13; mha groups of 3 tensors (wq,
    # wk, wv): duma1 and duma2, plus fact_sa, refine_ck and refine_qak with
    # "k" and refine_kt with "kt"; the fusion pair when there is a path; the
    # decoder. full: 13 + 6 * 3 + 3, kt: 13 + 3 * 3 + 3, k: 13 + 5 * 3 + 3,
    # base: 13 + 2 * 3 + 1.
    counts = {"full": 34, "keyturns-only": 34, "kt": 25, "k": 31, "base": 20}
    for ablation in ABLATIONS:
        assert len(named_parameters(small_setup(ablation=ablation)[1])) == counts[ablation], ablation


@pytest.mark.parametrize("ablation", ABLATIONS)
def test_every_parameter_gets_a_gradient(ablation):
    # Facts and key turns are live for every path the ablation has, so a
    # parameter without a gradient is one its wiring never reads.
    ex = make_example(["m : the bike is on the street .", "w : we could walk to the shed ."])
    tk, params = small_setup(seed=13, ablation=ablation, texts=["bike atlocation street shed"])
    store = KnowledgeStore()
    store.add(KnowledgeTriple("atlocation", "bike", "street", 2.0, "bike atlocation street"))
    store.add(KnowledgeTriple("atlocation", "bike", "shed", 1.0, "bike atlocation shed"))
    pipe = KktPipeline(params, tk, store, LeadingProvider(), k=1, p=2, max_len=64)
    result = pipe.predict(ex)
    for flags in result.flags:
        assert flags["kt_identity"] == ("kt" not in PATHS[ablation])
        assert flags["ck_identity"] == flags["qak_identity"] == ("k" not in PATHS[ablation])
    result.loss.backward()
    inert = sorted(name for name, p in named_parameters(params).items() if p.grad is None)
    assert inert == []


@pytest.mark.parametrize("ablation", ABLATIONS)
def test_predict_gradients_match_the_op_chain(monkeypatch, ablation):
    # Float64 leaf gradients equal those of attention built from per-head
    # ops, bit for bit, except on path "kt": there the keys are rows of the
    # queries, and the row gather's gradient reaches the context just before
    # head 0's query term in the chain but after all query terms in the op.
    ex = make_example(["m : the bike is on the street .", "w : we could walk to the shed ."])
    tk, params = small_setup(seed=15, h=2, ablation=ablation, texts=["bike atlocation street shed house"])
    store = KnowledgeStore()
    for tail, weight in (("street", 2.0), ("shed", 1.0), ("house", 1.5)):
        store.add(KnowledgeTriple("atlocation", "bike", tail, weight, f"bike atlocation {tail}"))

    def leaf_grads():
        for t in named_parameters(params).values():
            t.grad = None
        KktPipeline(params, tk, store, LeadingProvider(), k=1, p=2, max_len=64).predict(ex).loss.backward()
        return {name: t.grad for name, t in named_parameters(params).items() if t.grad is not None}

    ops = []
    attention_op = T.attention
    monkeypatch.setattr(T, "attention", lambda *args: ops.append(args) or attention_op(*args))
    got = leaf_grads()
    op_calls = len(ops)
    monkeypatch.setattr(model, "mha", helpers.chain_mha)
    monkeypatch.setattr(attention, "mha", helpers.chain_mha)
    monkeypatch.setattr(helpers.chain_mha, "calls", 0)
    want = leaf_grads()
    # Every attention of the pass went through the chain instead of the op.
    assert len(ops) == op_calls > 0
    assert helpers.chain_mha.calls == op_calls
    assert got.keys() == want.keys()
    if "kt" in PATHS[ablation]:
        assert all(np.allclose(got[name], want[name], rtol=1e-9, atol=1e-12) for name in want)
    else:
        assert all(got[name].tobytes() == want[name].tobytes() for name in want)


def test_missing_path_ignores_its_inputs():
    rng = np.random.default_rng(14)
    enc = random_pair(rng)
    fact = fake_fact(rng.standard_normal(8))
    for ablation in ABLATIONS:
        paths = PATHS[ablation]
        out = refine(small_setup(ablation=ablation)[1], enc, [(0,)], [fact], [[fact]])
        assert out.flags == [{"kt_identity": "kt" not in paths, "ck_identity": "k" not in paths,
                              "qak_identity": "k" not in paths}]


# ---------------------------------------------------------------------------
# pipeline predict

def pipeline_for(example, ablation="full", seed=11, k=2, texts=()):
    tk, params = small_setup(seed=seed, ablation=ablation, texts=texts)
    return KktPipeline(params, tk, store=None, provider=LeadingProvider(), k=k, p=2, max_len=64)


def test_predict_identical_options_tie_to_lowest():
    ex = make_example(["m : the bike is on the street ."], options=("street", "street", "street"))
    pipe = pipeline_for(ex)
    result = pipe.predict(ex)
    assert result.logits[0] == result.logits[1] == result.logits[2]
    assert result.predicted == 0


def test_predict_result_shape_and_flags():
    ex = make_example(["m : the bike is on the street ."])
    pipe = pipeline_for(ex)
    result = pipe.predict(ex)
    assert result.logits.shape == (3,)
    assert len(result.flags) == 3
    # No store attached: knowledge is identity, key turns are live.
    assert result.flags[0]["ck_identity"] and result.flags[0]["qak_identity"]
    assert not result.flags[0]["kt_identity"]


def test_predict_untrained_loss_near_uniform():
    bundle = gen_synthetic(seed=19, n=100, mode="mixed")
    tk = Tokenizer.build(bundle.dataset.texts())
    params = KktParams.init(len(tk), 8, 2, 1, 32, 160, "full", np.random.default_rng(3))
    pipe = KktPipeline(params, tk, provider=LeadingProvider(), k=2, p=2, max_len=160)
    losses = [pipe.predict(ex).loss.item() for ex in bundle.dataset.examples]
    assert abs(np.mean(losses) - math.log(3.0)) < 0.5


def test_predict_option_permutation_equivariance():
    bundle = gen_synthetic(seed=20, n=6, mode="mixed")
    tk = Tokenizer.build(bundle.dataset.texts())
    params = KktParams.init(len(tk), 8, 2, 1, 32, 160, "full", np.random.default_rng(4))
    pipe = KktPipeline(params, tk, provider=LeadingProvider(), k=2, p=2, max_len=160)
    rng = np.random.default_rng(5)
    for ex in bundle.dataset.examples:
        base = pipe.predict(ex)
        perm = rng.permutation(len(ex.options)).tolist()
        permuted_ex = replace(
            ex,
            options=[ex.options[j] for j in perm],
            gold=perm.index(ex.gold),
        )
        permuted = pipe.predict(permuted_ex)
        assert np.array_equal(permuted.logits, base.logits[perm])
        assert permuted_ex.options[permuted.predicted] == ex.options[base.predicted]


_WORDS = ("bike", "street", "shed", "house", "garden", "book", "shelf", "walk", "ride", "the", "is", "on", "?")
_sentences = st.lists(st.sampled_from(_WORDS), min_size=1, max_size=6).map(" ".join)


@st.composite
def permuted_cases(draw):
    """A random example, a permutation of its options and a random untrained
    float64 pipeline of any ablation, with facts and key turns on hand."""
    options = draw(st.lists(_sentences, min_size=2, max_size=4))
    example = DialogueExample(
        turns=draw(st.lists(_sentences, min_size=1, max_size=5)), question=draw(_sentences),
        options=options, gold=draw(st.integers(0, len(options) - 1)),
    )
    identity = list(range(len(options)))
    perm = draw(st.permutations(identity).filter(lambda perm: perm != identity))
    nouns = st.sampled_from(_WORDS[:7])
    triples = draw(st.lists(st.tuples(nouns, nouns, st.sampled_from((0.5, 1.0, 2.0))), min_size=1, max_size=6))
    setup = dict(ablation=draw(st.sampled_from(ABLATIONS)), seed=draw(st.integers(0, 2**16)),
                 nli=draw(st.booleans()), triples=triples, k=draw(st.integers(0, len(example.turns))),
                 p=draw(st.integers(0, 3)), max_len=draw(st.integers(24, 64)))
    return example, perm, setup


def _random_pipeline(ablation, seed, nli, triples, k, p, max_len):
    tk = Tokenizer.build([" ".join(_WORDS), "atlocation"])
    rng = np.random.default_rng(seed)
    params = KktParams.init(len(tk), 8, 2, 1, 32, max_len, ablation, rng)
    provider = LeadingProvider()
    if nli:
        provider = NliProvider(NliHead.init(len(tk), 8, 2, 1, 32, 2 * max_len, rng), tk)
    store = KnowledgeStore()
    for head, tail, weight in triples:
        store.add(KnowledgeTriple("atlocation", head, tail, weight, f"{head} atlocation {tail}"))
    return KktPipeline(params, tk, store, provider, k=k, p=p, max_len=max_len)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(permuted_cases())
def test_option_permutation_permutes_logits_exactly(case):
    example, perm, setup = case
    permuted = replace(example, options=[example.options[j] for j in perm], gold=perm.index(example.gold))
    # Separate pipelines, so no cached ranking or selection is shared.
    base = _random_pipeline(**setup).predict(example)
    other = _random_pipeline(**setup).predict(permuted)
    assert np.array_equal(other.logits, base.logits[list(perm)])
    assert other.flags == [base.flags[j] for j in perm]


@pytest.mark.parametrize("ablation", [a for a in ABLATIONS if "k" not in PATHS[a]])
def test_knowledge_needs_the_knowledge_path(ablation):
    ex = make_example(["m : the bike is on the street ."])
    tk, params = small_setup(ablation=ablation, texts=["bike atlocation street"])
    store = KnowledgeStore()
    store.add(KnowledgeTriple("atlocation", "bike", "street", 2.0, "bike atlocation street"))
    pipe = KktPipeline(params, tk, store, LeadingProvider(), k=1, p=2, max_len=64)
    assert pipe.fact_encoder is None
    # The fact rows are empty lists, one per option, and predict reads no facts.
    assert pipe.prepare_knowledge([ex, ex]) == [([], [[], [], []])] * 2
    assert all(flags["ck_identity"] for flags in pipe.predict(ex).flags)


def test_keyturns_only_rebuilds_context_from_selection():
    ex = make_example(["m : the bike is on the street .", "w : we could walk to the shed ."])
    tk, params = small_setup(seed=12, ablation="keyturns-only")
    pipe = KktPipeline(params, tk, provider=LeadingProvider(), k=1, p=2, max_len=64)
    got = pipe.predict(ex).logits[0]
    # Manual replica: context is just the first turn, fully selected.
    enc = encode_pair(params.enc, tk, helpers.one_option(ex, 0), 64, turns=[[ex.turns[0]]])
    want, _ = forward(params, enc, [(0,)], [], [[]])
    assert got == want.data[0]


# ---------------------------------------------------------------------------
# all options in one pass

def assert_matches_per_option(pipe, example):
    """predict equals the option-by-option reference bit for bit (float64)."""
    got, want = pipe.predict(example), helpers.per_option_predict(pipe, example)
    assert got.logits.tobytes() == want.logits.tobytes()
    assert got.loss.data.tobytes() == want.loss.data.tobytes()
    assert (got.predicted, got.truncated, got.flags) == (want.predicted, want.truncated, want.flags)
    return got


_LONG_TURN = "m : the bike is on the street by the house and the shed in the garden"


@st.composite
def option_cases(draw):
    """A random example of 2-4 options over long turns, so that short inputs
    may cut one option's key turns and not another's, and a random untrained
    float64 pipeline of any ablation, with the leading or the oracle
    provider. Option words outside the graph give options without facts."""
    options = draw(st.lists(_sentences, min_size=2, max_size=4))
    turns = draw(st.lists(st.one_of(_sentences, st.just(_LONG_TURN)), min_size=1, max_size=4))
    example = DialogueExample(turns=turns, question=draw(_sentences), options=options,
                              gold=draw(st.integers(0, len(options) - 1)), dialogue_id="d", qa_index=0)
    nouns = st.sampled_from(("bike", "street", "shed", "house"))
    triples = draw(st.lists(st.tuples(nouns, nouns, st.sampled_from((0.5, 1.0, 2.0))), min_size=1, max_size=4))
    planted = draw(st.one_of(st.none(), st.integers(0, len(turns) - 1)))
    setup = dict(ablation=draw(st.sampled_from(ABLATIONS)), seed=draw(st.integers(0, 2**16)), triples=triples,
                 k=draw(st.integers(0, len(turns))), p=draw(st.integers(0, 3)), max_len=draw(st.integers(24, 48)))
    return example, planted, setup


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(option_cases())
def test_all_options_pass_equals_the_option_loop(case):
    example, planted, setup = case
    pipe = _random_pipeline(nli=False, **setup)
    if planted is not None:
        pipe.provider = OracleProvider({example.example_id: planted})
    assert_matches_per_option(pipe, example)


def test_options_that_lose_their_key_turns_keep_their_rows():
    # The long option pushes turn 0 (the only key turn) out of its context;
    # the short one keeps it. Only one option has facts.
    ex = make_example(["m : the bike is on the street .", "w : we could walk to the shed ."],
                      question="where ?", options=("street", "the bike is in the big shed by the house"), gold=1)
    pipe = _random_pipeline("full", 3, False, [("bike", "shed", 1.0)], k=1, p=2, max_len=24)
    result = assert_matches_per_option(pipe, ex)
    assert [f["kt_identity"] for f in result.flags] == [False, True]
    assert [f["qak_identity"] for f in result.flags] == [True, False]
    assert result.truncated


def _predict_through(fwd, example, planted, setup):
    """`predict` on a fresh pipeline with `fwd` as the model's forward: the
    logits, the refined rows and every parameter gradient of the loss."""
    pipe = _random_pipeline(nli=False, **setup)
    if planted is not None:
        pipe.provider = OracleProvider({example.example_id: planted})
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "forward", lambda *args: seen.append(fwd(*args)) or seen[-1])
        pipe.predict(example).loss.backward()
    (logits, refined), = seen
    return logits, refined, {name: t.grad for name, t in named_parameters(pipe.params).items()}


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(option_cases())
def test_stacked_coattention_equals_one_call_per_path(case):
    # O_o and every path's rows run through one `dual_coattention`; float64
    # forward values keep the bits of one call per path, with and without
    # facts (p 0, option words outside the graph) and key turns (k 0). The
    # weight gradients sum over the stacked rows at once, so they may move
    # in the last bits.
    got_logits, got, got_grads = _predict_through(forward, *case)
    want_logits, want, want_grads = _predict_through(helpers.per_path_forward, *case)
    assert got_logits.data.tobytes() == want_logits.data.tobytes()
    for name in ("h_kt", "h_c_kt", "h_c_k", "h_qa_k"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a is None and b is None) or a.data.tobytes() == b.data.tobytes()
    assert got.flags == want.flags
    assert [name for name, g in got_grads.items() if g is None] == [name for name, g in want_grads.items() if g is None]
    for name, g in want_grads.items():
        assert g is None or np.allclose(got_grads[name], g, rtol=1e-9, atol=1e-12), name


def test_one_encoder_call_and_option_independent_attention_calls(monkeypatch):
    # One predict encodes all of its options' sequences in one call, and
    # makes as many attention calls for 2 options as for 4.
    encodes, ops = [], []
    encode, attention_op = model.encode, T.attention
    monkeypatch.setattr(model, "encode", lambda params, *seqs: encodes.append(len(seqs)) or encode(params, *seqs))
    monkeypatch.setattr(T, "attention", lambda *args: ops.append(args) or attention_op(*args))
    counts = []
    for options in (("street", "shed"), ("street", "shed", "house", "garden")):
        ex = make_example(["m : the bike is on the street .", "w : we could walk to the shed ."], options=options)
        pipe = _random_pipeline("full", 7, False, [("bike", "street", 1.0), ("bike", "shed", 2.0)], k=1, p=2, max_len=64)
        pipe.prepare_knowledge([ex])
        encodes.clear()
        ops.clear()
        assert not any(any(f.values()) for f in pipe.predict(ex).flags)
        assert encodes == [len(options)]
        counts.append(len(ops))
    # One encoder layer, three refinements and one co-attention pair: the
    # plain rows and both paths' rows run through each direction together.
    assert counts == [1 + 3 + 2] * 2


@st.composite
def knowledge_batches(draw):
    """A batch of 1-4 random examples over one random graph, whose words
    overlap so that examples and options share facts, and the setup of a
    random untrained float64 pipeline with the knowledge path."""
    examples = [
        DialogueExample(turns=draw(st.lists(_sentences, min_size=1, max_size=3)), question=draw(_sentences),
                        options=draw(st.lists(_sentences, min_size=2, max_size=3)), gold=0, dialogue_id=f"d{i}")
        for i in range(draw(st.integers(1, 4)))
    ]
    nouns = st.sampled_from(("bike", "street", "shed", "house", "garden"))
    triples = draw(st.lists(st.tuples(nouns, nouns, st.sampled_from((0.5, 1.0, 2.0))), min_size=1, max_size=6))
    setup = dict(ablation=draw(st.sampled_from([a for a in ABLATIONS if "k" in PATHS[a]])),
                 seed=draw(st.integers(0, 2**16)), nli=False, triples=triples, k=1, p=draw(st.integers(1, 3)),
                 max_len=32)
    return examples, setup


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(knowledge_batches())
def test_prepare_knowledge_of_a_batch_equals_each_example_alone(case):
    # One call for a batch gives each example the rows of a call for it
    # alone on a fresh pipeline, bit for bit, and those rows are the fact
    # encoder's rows of the ranked facts. The batch's facts take at most one
    # encoder call, and a repeated call takes none.
    examples, setup = case
    pipe = _random_pipeline(**setup)
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(knowledge, "encode", lambda params, *seqs: calls.append(len(seqs)) or encode(params, *seqs))
        batched = pipe.prepare_knowledge(examples)
        assert len(calls) <= 1
        calls.clear()
        pipe.prepare_knowledge(examples)
        assert calls == []
    for ex, (ck, qak) in zip(examples, batched):
        [(alone_ck, alone_qak)] = _random_pipeline(**setup).prepare_knowledge([ex])
        assert len(qak) == len(alone_qak) == len(ex.options)
        queries = [ex.turns] + [[ex.qa_text(j)] for j in range(len(ex.options))]
        for rows, alone, texts in zip([ck, *qak], [alone_ck, *alone_qak], queries):
            ranked = [pipe.fact_encoder.encode_fact(pipe.store.triples[tid].fact)
                      for tid in rank_triples(pipe.store, texts, pipe.p)]
            assert [r.data.tobytes() for r in rows] == [r.data.tobytes() for r in alone]
            assert [r.data.tobytes() for r in rows] == [r.data.tobytes() for r in ranked]


def test_a_turn_equal_to_a_qa_text_shares_one_ranking():
    ex = make_example(["where is the bike ? street"], options=("street", "shed"))
    pipe = _random_pipeline("full", 1, False, [("bike", "street", 1.0), ("bike", "shed", 2.0)], k=1, p=2, max_len=32)
    [(ck, qak)] = pipe.prepare_knowledge([ex])
    assert ex.turns == [ex.qa_text(0)]
    assert list(pipe._ranked) == [tuple(ex.turns), (ex.qa_text(1),)]
    assert len(ck) == 2 and all(a is b for a, b in zip(ck, qak[0]))
