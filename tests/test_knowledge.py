"""Knowledge graph loading, fact rewriting/encoding, POS tagging, retrieval."""

import numpy as np
import pytest

import helpers
from kkt import tensor as T
from kkt.attention import MhaParams, encode
from kkt.knowledge import (
    EmptyFactError,
    Fact,
    FactEncoder,
    KgFormatError,
    KnowledgeStore,
    KnowledgeTriple,
    PosTagger,
    content_words,
    load_kg,
    load_surfaces,
    rank_triples,
    rewrite_triple,
    serialize_kg,
    tag_content_words,
)
from kkt.keyturns import LeadingProvider
from kkt.model import DialogueExample, KktParams, KktPipeline
from kkt.tokenizer import Tokenizer
from test_attention import tiny_encoder


# ---------------------------------------------------------------------------
# POS tagging

def test_lexicon_lookup_content_words():
    tagger = PosTagger({"girl": "NOUN", "rides": "VERB", "red": "ADJ", "bike": "NOUN"})
    assert content_words("the girl rides a red bike", tagger) == ["girl", "rides", "red", "bike"]


def test_function_words_are_not_content():
    assert content_words("the of and") == []


def test_suffix_rule_cooking_is_noun():
    assert PosTagger().tag("cooking") == "NOUN"


def test_suffix_rule_table():
    tagger = PosTagger()
    for token, want in [
        ("station", "NOUN"), ("statement", "NOUN"), ("happiness", "NOUN"),
        ("activity", "NOUN"), ("famous", "ADJ"), ("helpful", "ADJ"),
        ("creative", "ADJ"), ("portable", "ADJ"), ("modernize", "VERB"),
        ("clarify", "VERB"), ("decorate", "VERB"), ("jumped", "VERB"),
        ("musical", "ADJ"), ("quickly", "OTHER"),
    ]:
        assert tagger.tag(token) == want, token


def test_aux_ing_forms_are_verbs_not_gerunds():
    tagger = PosTagger()
    assert tagger.tag("going") == "VERB"
    assert tagger.tag("getting") == "VERB"


def test_stoplist_beats_suffix_shape():
    tagger = PosTagger()
    assert tagger.tag("being") == "OTHER"   # stoplisted aux
    assert tagger.tag("those") == "OTHER"


def test_unknown_fallbacks():
    tagger = PosTagger()
    assert tagger.tag("zxqw") == "NOUN"     # long alphabetic, open class
    assert tagger.tag("zx") == "OTHER"      # too short to commit
    assert tagger.tag("42") == "OTHER"      # not alphabetic


def test_rule_needs_a_real_stem():
    # Suffix match requires at least two extra leading characters.
    assert PosTagger().tag("sing") == "NOUN"  # falls through to length default


def test_lexicon_overrides_rules():
    tagger = PosTagger({"cooking": "VERB"})
    assert tagger.tag("cooking") == "VERB"


def test_bad_lexicon_tag_rejected():
    with pytest.raises(ValueError):
        PosTagger({"word": "ADVERB"})


def test_tagger_load_tsv(tmp_path):
    path = tmp_path / "lexicon.tsv"
    path.write_text("# comment\nbike\tNOUN\nrides\tVERB\n", encoding="utf-8")
    tagger = PosTagger.load(path)
    assert tagger.tag("bike") == "NOUN"
    assert tagger.tag("rides") == "VERB"


def test_tag_content_words_pairs():
    pairs = tag_content_words("the red bike")
    assert ("the", "OTHER") in pairs
    assert ("bike", "NOUN") in pairs


# ---------------------------------------------------------------------------
# loading and rewriting

def vocab_over(*texts):
    return Tokenizer.build(texts)


def test_load_kg_threshold_boundary(tmp_path):
    path = tmp_path / "kg.tsv"
    path.write_text(
        "atlocation\tbike\tstreet\t0.5\n"
        "atlocation\tcat\thouse\t1.0\n"
        "atlocation\tdog\tyard\t2.0\n",
        encoding="utf-8",
    )
    store = load_kg(path, 1.0, vocab_over("bike street cat house dog yard"))
    assert len(store) == 2
    assert {t.head for t in store.triples} == {"cat", "dog"}


def test_load_kg_drops_out_of_vocabulary_words(tmp_path):
    path = tmp_path / "kg.tsv"
    path.write_text("atlocation\tbike\tstreet\t2\nisa\tunicorn\tanimal\t2\n", encoding="utf-8")
    store = load_kg(path, 1.0, vocab_over("bike street animal"))
    assert len(store) == 1
    assert store.triples[0].head == "bike"


def test_load_kg_empty_file(tmp_path):
    path = tmp_path / "kg.tsv"
    path.write_text("", encoding="utf-8")
    assert len(load_kg(path, 1.0, vocab_over("anything"))) == 0


def test_load_kg_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "kg.tsv"
    path.write_text("# header\n\natlocation\tbike\tstreet\t2\n", encoding="utf-8")
    assert len(load_kg(path, 1.0, vocab_over("bike street"))) == 1


def test_load_kg_malformed_line_reports_position(tmp_path):
    path = tmp_path / "kg.tsv"
    path.write_text("atlocation\tbike\tstreet\t2\njust three\tcolumns\there\n", encoding="utf-8")
    with pytest.raises(KgFormatError) as err:
        load_kg(path, 1.0, vocab_over("bike street"))
    assert ":2:" in str(err.value)


def test_load_kg_negative_weight_rejected(tmp_path):
    path = tmp_path / "kg.tsv"
    path.write_text("atlocation\tbike\tstreet\t-1\n", encoding="utf-8")
    with pytest.raises(KgFormatError):
        load_kg(path, 0.0, vocab_over("bike street"))


def test_load_kg_bad_weight_rejected(tmp_path):
    path = tmp_path / "kg.tsv"
    path.write_text("atlocation\tbike\tstreet\theavy\n", encoding="utf-8")
    with pytest.raises(KgFormatError):
        load_kg(path, 0.0, vocab_over("bike street"))


def test_rewrite_triple_raw_relation_fallback():
    fact = rewrite_triple(KnowledgeTriple("causes", "virus", "disease", 1.0))
    assert fact.text == "virus causes disease"


def test_rewrite_triple_with_surface():
    fact = rewrite_triple(
        KnowledgeTriple("atlocation", "bike", "street", 2.0),
        {"atlocation": "is found on"},
    )
    assert fact.text == "bike is found on street"


def test_rewrite_triple_isa():
    fact = rewrite_triple(KnowledgeTriple("IsA", "cat", "animal", 1.0), {"IsA": "is a"})
    assert fact.text == "cat is a animal"


def test_rewrite_keeps_head_and_tail_substrings():
    rng = np.random.default_rng(0)
    words = ["alpha", "beta", "gamma", "delta", "left right"]
    for _ in range(20):
        head, tail = rng.choice(words, size=2)
        fact = rewrite_triple(KnowledgeTriple("rel", head, tail, 1.0))
        assert head in fact.text and tail in fact.text


def test_load_surfaces(tmp_path):
    path = tmp_path / "surfaces.tsv"
    path.write_text("atlocation\tis found on\nisa\tis a\n", encoding="utf-8")
    table = load_surfaces(path)
    assert table == {"atlocation": "is found on", "isa": "is a"}


def test_serialize_round_trip(tmp_path):
    src = tmp_path / "kg.tsv"
    src.write_text(
        "atlocation\tbike\tstreet\t2\nisa\tcat\tanimal\t1.5\nrel\tdog\tyard\t0.25\n",
        encoding="utf-8",
    )
    vocab = vocab_over("bike street cat animal dog yard")
    store = load_kg(src, 0.0, vocab)
    out = tmp_path / "round.tsv"
    serialize_kg(store, out)
    back = load_kg(out, 0.0, vocab)
    assert [(t.relation, t.head, t.tail, t.weight) for t in back.triples] == [
        (t.relation, t.head, t.tail, t.weight) for t in store.triples
    ]


# ---------------------------------------------------------------------------
# fact encoding

def fact_encoder_fixture(seed=0, cache=True):
    texts = ["bike is found on street", "cat is a animal", "virus causes disease"]
    tk = Tokenizer.build(texts)
    enc = tiny_encoder(vocab=len(tk), seed=seed)
    sa = MhaParams.init(8, 2, np.random.default_rng(seed + 1))
    return tk, enc, sa, FactEncoder(tk, enc, sa, cache=cache)


def test_encode_fact_single_token_identity_sa():
    tk = Tokenizer.build(["bike"])
    enc = tiny_encoder(vocab=len(tk))
    eye = T.Tensor(np.eye(8))
    sa = MhaParams(wq=[eye], wk=[eye], wv=[eye])
    fe = FactEncoder(tk, enc, sa)
    r = fe.encode_fact(Fact(text="bike", source=None))
    hidden = encode(enc, tk.encode("bike")).hidden.data
    assert np.allclose(r.data, hidden[0], atol=1e-12)


def test_encode_fact_deterministic():
    _, _, _, fe = fact_encoder_fixture()
    a = fe.encode_fact(Fact(text="cat is a animal", source=None))
    b = fe.encode_fact(Fact(text="cat is a animal", source=None))
    assert np.array_equal(a.data, b.data)


def test_encode_fact_matches_step_by_step_oracle():
    tk, enc, sa, fe = fact_encoder_fixture(seed=3)
    fact = Fact(text="virus causes disease", source=None)
    got = fe.encode_fact(fact).data
    hidden = encode(enc, tk.encode(fact.text)).hidden.data
    attended, _ = helpers.naive_mha(*helpers.mha_arrays(sa), hidden, hidden, hidden)
    assert np.max(np.abs(got - attended.mean(axis=0))) < 1e-10


def test_encode_fact_empty_rejected():
    _, _, _, fe = fact_encoder_fixture()
    with pytest.raises(EmptyFactError):
        fe.encode_fact(Fact(text="", source=None))


def test_fact_cache_serves_until_version_bump():
    tk, enc, sa, fe = fact_encoder_fixture()
    fact = Fact(text="bike is found on street", source=None)
    before = fe.encode_fact(fact)
    # Mutate weights; a cached encoder must still serve the stale vector.
    enc.tok_emb.data += 0.1
    assert fe.encode_fact(fact) is before
    fe.invalidate()
    after = fe.encode_fact(fact)
    assert not np.array_equal(after.data, before.data)


def test_fact_encoder_uncached_recomputes():
    tk, enc, sa, fe = fact_encoder_fixture(cache=False)
    fact = Fact(text="bike is found on street", source=None)
    before = fe.encode_fact(fact).data.copy()
    enc.tok_emb.data += 0.1
    assert not np.array_equal(fe.encode_fact(fact).data, before)


# ---------------------------------------------------------------------------
# retrieval

def build_store(rows, vocab_text, surfaces=None, tagger=None):
    store = KnowledgeStore(tagger=tagger or PosTagger())
    vocab = vocab_over(vocab_text)
    for rel, head, tail, w in rows:
        assert all(vocab.has(t) for t in (head + " " + tail).split())
        store.add(KnowledgeTriple(rel, head, tail, w), surfaces)
    return store


def test_retrieve_bike_street_fixture():
    store = build_store(
        [("atlocation", "bike", "street", 2.0), ("isa", "cat", "animal", 2.0)],
        "bike street cat animal girl rides red",
        surfaces={"atlocation": "is found on"},
    )
    ids = rank_triples(store, ["the girl rides a red bike"], 5)
    assert ids == [0]
    assert store.facts[0].text == "bike is found on street"


def test_retrieve_ranks_by_weight():
    store = build_store(
        [("r", "bike", "street", 2.0), ("r", "bike", "shed", 1.0), ("r", "bike", "rack", 3.0)],
        "bike street shed rack",
    )
    assert rank_triples(store, ["a bike"], 2) == [2, 0]


def test_retrieve_tie_breaks_on_match_count_then_text_then_id():
    store = build_store(
        [
            ("r", "bike", "street", 2.0),   # one matched word
            ("r", "bike", "helmet", 2.0),   # two matched words
            ("r", "bike", "bell", 2.0),     # one matched word, text sorts before street row
        ],
        "bike street helmet bell",
    )
    ids = rank_triples(store, ["bike helmet"], 3)
    assert ids == [1, 2, 0]  # match count first, then fact text ascending
    dup = build_store([("r", "bike", "bell", 2.0), ("r", "bike", "bell", 2.0)], "bike bell")
    assert rank_triples(dup, ["bike"], 2) == [0, 1]  # identical rows: id order


def test_retrieve_p_must_be_positive():
    store = build_store([("r", "bike", "street", 1.0)], "bike street")
    with pytest.raises(ValueError):
        rank_triples(store, ["bike"], 0)


def test_retrieve_respects_p_bound_and_allows_empty():
    store = build_store([("r", "bike", "street", 1.0)], "bike street")
    assert rank_triples(store, ["nothing relevant here"], 3) == []
    many = build_store(
        [("r", "bike", w, 1.0) for w in ("street", "shed", "rack", "bell")],
        "bike street shed rack bell",
    )
    assert len(rank_triples(many, ["bike"], 2)) == 2


def test_retrieve_matches_brute_force_oracle():
    rng = np.random.default_rng(7)
    words = [
        "bike", "street", "cat", "animal", "virus", "disease", "garden", "music",
        "river", "stone", "cloud", "engine", "basket", "robot", "jacket", "tunnel",
    ]
    rows = []
    for _ in range(40):
        head, tail = (str(w) for w in rng.choice(words, size=2, replace=False))
        weight = float(rng.choice([0.5, 1.0, 1.0, 2.0, 2.0, 3.0]))  # force weight ties
        rows.append(("rel", head, tail, weight))
    store = build_store(rows, " ".join(words))
    for _ in range(30):
        n_words = int(rng.integers(1, 4))
        query = " ".join(str(w) for w in rng.choice(words, size=n_words, replace=False))
        p = int(rng.integers(1, 6))
        assert rank_triples(store, [query], p) == helpers.brute_retrieve_ids(store, [query], p)


def test_retrieve_returns_embeddings_with_ids():
    texts = ["bike is found on street", "cat is a animal"]
    tk = Tokenizer.build(texts + ["a red bike", "which ? yes no"])
    params = KktParams.init(len(tk), 8, 2, 1, 32, 32, "full", np.random.default_rng(1))
    store = build_store(
        [("atlocation", "bike", "street", 2.0)],
        "bike street cat animal red",
        surfaces={"atlocation": "is found on"},
    )
    pipeline = KktPipeline(params, tk, store, LeadingProvider(), k=1, p=3, max_len=32)
    ex = DialogueExample(turns=["a red bike"], question="which ?", options=["yes", "no"], gold=0)
    out = pipeline.context_knowledge(ex)
    assert len(out) == 1
    assert out[0].triple_id == 0
    assert out[0].r_k.shape == (8,)
    assert np.array_equal(out[0].r_k.data, pipeline.fact_encoder.encode_fact(store.facts[0]).data)


def test_store_invariants_after_load(tmp_path):
    path = tmp_path / "kg.tsv"
    path.write_text(
        "r\tbike\tstreet\t2\nr\tcat\tanimal\t0.2\nr\tbike\tmystery\t5\n",
        encoding="utf-8",
    )
    store = load_kg(path, 1.0, vocab_over("bike street cat animal"))
    assert all(t.weight >= 1.0 for t in store.triples)
    assert [t.tail for t in store.triples] == ["street"]
