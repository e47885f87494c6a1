"""Knowledge graph parsing and loading, fact encoding, POS tagging, retrieval."""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import helpers
from kkt import tensor as T
from kkt.attention import ConfigurationError, MhaParams, encode
from kkt.checkpoint import named_parameters
from kkt.data import Dataset
from kkt.knowledge import (
    FactEncoder,
    KgFormatError,
    KnowledgeStore,
    KnowledgeTriple,
    PosTagger,
    content_words,
    iter_kg_triples,
    load_kg,
    rank_triples,
    read_graph,
    tag_content_words,
)
from kkt.keyturns import LeadingProvider
from kkt.model import DialogueExample, KktParams, KktPipeline
from kkt.tokenizer import Tokenizer
from kkt.training import build_vocab
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
    tagger = read_graph(lexicon_path=path).tagger
    assert tagger.tag("bike") == "NOUN"
    assert tagger.tag("rides") == "VERB"


def test_tagger_load_malformed_line_reports_position(tmp_path):
    path = tmp_path / "lexicon.tsv"
    path.write_text("# comment\nbike\tNOUN\nrides VERB\n", encoding="utf-8")
    with pytest.raises(KgFormatError, match=r"lexicon\.tsv:3: expected `word<TAB>tag`"):
        read_graph(lexicon_path=path)


def test_tag_content_words_pairs():
    pairs = tag_content_words("the red bike")
    assert ("the", "OTHER") in pairs
    assert ("bike", "NOUN") in pairs


# ---------------------------------------------------------------------------
# parsing, rewriting each triple to its fact, and loading

def vocab_over(*texts):
    return Tokenizer.build(texts)


def parse_row(relation, head, tail, weight, surfaces=None):
    """The parsed triple of one KG line."""
    [triple] = iter_kg_triples(f"{relation}\t{head}\t{tail}\t{weight}\n", "kg", surfaces)
    return triple


def test_load_kg_threshold_boundary(tmp_path):
    path = tmp_path / "kg.tsv"
    path.write_text(
        "atlocation\tbike\tstreet\t0.5\n"
        "atlocation\tcat\thouse\t1.0\n"
        "atlocation\tdog\tyard\t2.0\n",
        encoding="utf-8",
    )
    store = load_kg(read_graph(path), 1.0, vocab_over("bike street cat house dog yard"))
    assert len(store) == 2
    assert {t.head for t in store.triples} == {"cat", "dog"}


def test_load_kg_drops_out_of_vocabulary_words(tmp_path):
    path = tmp_path / "kg.tsv"
    path.write_text("atlocation\tbike\tstreet\t2\nisa\tunicorn\tanimal\t2\n", encoding="utf-8")
    store = load_kg(read_graph(path), 1.0, vocab_over("bike street animal"))
    assert len(store) == 1
    assert store.triples[0].head == "bike"


def test_load_kg_empty_file(tmp_path):
    path = tmp_path / "kg.tsv"
    path.write_text("", encoding="utf-8")
    assert len(load_kg(read_graph(path), 1.0, vocab_over("anything"))) == 0


def test_load_kg_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "kg.tsv"
    path.write_text("# header\n\natlocation\tbike\tstreet\t2\n", encoding="utf-8")
    assert len(load_kg(read_graph(path), 1.0, vocab_over("bike street"))) == 1


def test_load_kg_malformed_line_reports_position(tmp_path):
    path = tmp_path / "kg.tsv"
    path.write_text("atlocation\tbike\tstreet\t2\njust three\tcolumns\there\n", encoding="utf-8")
    with pytest.raises(KgFormatError) as err:
        read_graph(path)
    assert str(err.value).startswith(f"{path}:2: expected 4 tab-separated columns")
    with pytest.raises(KgFormatError, match=r"^inline:2: "):
        list(iter_kg_triples(path.read_text(encoding="utf-8"), "inline"))


@pytest.mark.parametrize("line", ["atlocation\t \tstreet\t2", "atlocation\tbike\t\t2"])
def test_kg_line_with_a_blank_head_or_tail_names_its_line(tmp_path, line):
    path = tmp_path / "kg.tsv"
    path.write_text(f"atlocation\tbike\tstreet\t2\n{line}\n", encoding="utf-8")
    with pytest.raises(KgFormatError) as err:
        read_graph(path)
    assert str(err.value) == f"{path}:2: empty head or tail"


def test_read_graph_keeps_the_bytes_it_parsed(tmp_path):
    kg, lexicon = tmp_path / "kg.tsv", tmp_path / "lexicon.tsv"
    kg.write_bytes(b"# header\r\natlocation\tbike\tstreet\t2\r\n")
    lexicon.write_bytes("bike\tNOUN\n".encode("utf-8"))
    graph = read_graph(kg, lexicon_path=lexicon)
    assert graph.raw == {"kg": kg.read_bytes(), "lexicon": lexicon.read_bytes()}
    assert graph.triples == [KnowledgeTriple("atlocation", "bike", "street", 2.0, "bike atlocation street")]
    assert graph.tagger.tag("bike") == "NOUN"
    assert read_graph().triples is None and read_graph().raw == {}


@pytest.mark.parametrize("arg", [0, 1, 2])
def test_graph_file_that_is_not_utf8_is_a_kg_format_error(tmp_path, arg):
    bad = tmp_path / "bad.tsv"
    bad.write_bytes(b"bike\tNOUN\n\x80")
    paths = [None, None, None]
    paths[arg] = bad
    with pytest.raises(KgFormatError, match=r"bad.tsv: not UTF-8 text: byte 0x80 at offset 10 "):
        read_graph(*paths)


def test_load_kg_negative_weight_rejected(tmp_path):
    path = tmp_path / "kg.tsv"
    path.write_text("atlocation\tbike\tstreet\t-1\n", encoding="utf-8")
    with pytest.raises(KgFormatError):
        load_kg(read_graph(path), 0.0, vocab_over("bike street"))


@pytest.mark.parametrize("weight", ["nan", "1e999", "inf"])
def test_load_kg_weight_that_is_not_finite_rejected(tmp_path, weight):
    # NaN compares false both ways, so its triples would rank by file order;
    # an infinite weight would print as `Infinity`, which is not JSON.
    path = tmp_path / "kg.tsv"
    path.write_text(f"atlocation\tbike\tshed\t2\natlocation\tbike\tstreet\t{weight}\n", encoding="utf-8")
    with pytest.raises(KgFormatError, match=rf"kg.tsv:2: weight '{weight}' must be a finite number >= 0"):
        read_graph(path)


def test_load_kg_bad_weight_rejected(tmp_path):
    path = tmp_path / "kg.tsv"
    path.write_text("atlocation\tbike\tstreet\theavy\n", encoding="utf-8")
    with pytest.raises(KgFormatError):
        load_kg(read_graph(path), 0.0, vocab_over("bike street"))


def test_rewrite_triple_raw_relation_fallback():
    assert parse_row("causes", "virus", "disease", 1.0).fact == "virus causes disease"
    assert parse_row("causes", "virus", "disease", 1.0, {"isa": "is a"}).fact == "virus causes disease"


def test_rewrite_triple_with_surface():
    fact = parse_row("atlocation", "bike", "street", 2.0, {"atlocation": "is found on"}).fact
    assert fact == "bike is found on street"


def test_rewrite_triple_isa():
    assert parse_row("IsA", "cat", "animal", 1.0, {"IsA": "is a"}).fact == "cat is a animal"


def test_rewrite_keeps_head_and_tail_substrings():
    rng = np.random.default_rng(0)
    words = ["alpha", "beta", "gamma", "delta", "left right"]
    for _ in range(20):
        head, tail = rng.choice(words, size=2)
        fact = parse_row("rel", head, tail, 1.0).fact
        assert head in fact and tail in fact


def test_load_surfaces(tmp_path):
    kg, path = tmp_path / "kg.tsv", tmp_path / "surfaces.tsv"
    kg.write_text("atlocation\tbike\tstreet\t2\nisa\tcat\tanimal\t1\ncauses\tvirus\tdisease\t1\n", encoding="utf-8")
    path.write_text("atlocation\tis found on\nisa\tis a\n", encoding="utf-8")
    facts = [t.fact for t in read_graph(kg, path).triples]
    assert facts == ["bike is found on street", "cat is a animal", "virus causes disease"]


@pytest.mark.parametrize("kind", ["surfaces", "lexicon"])
def test_a_repeated_key_names_both_lines(tmp_path, kind):
    # The lexicon compares words lowercased, as the tagger stores them.
    rows = {"surfaces": "atlocation\tis found on\n# note\natlocation\tlives in\n",
            "lexicon": "bike\tNOUN\n# note\nBike\tVERB\n"}[kind]
    path = tmp_path / f"{kind}.tsv"
    path.write_text(rows, encoding="utf-8")
    paths = {"surfaces_path": path} if kind == "surfaces" else {"lexicon_path": path}
    repeated = {"surfaces": "atlocation", "lexicon": "Bike"}[kind]
    with pytest.raises(KgFormatError) as err:
        read_graph(**paths)
    assert str(err.value) == f"{path}:3: {repeated!r} repeats line 1"


def test_load_surfaces_malformed_line_reports_position(tmp_path):
    path = tmp_path / "surfaces.tsv"
    path.write_text("atlocation\tis found on\n\nisa\tis\ta\n", encoding="utf-8")
    with pytest.raises(KgFormatError, match=r"surfaces\.tsv:3: expected `relation<TAB>surface`"):
        read_graph(surfaces_path=path)


def test_whitespace_around_a_surfaces_or_lexicon_column_is_dropped(tmp_path):
    kg, surfaces, lexicon = tmp_path / "kg.tsv", tmp_path / "surfaces.tsv", tmp_path / "lexicon.tsv"
    kg.write_text("atlocation\tbike\tstreet\t2\n", encoding="utf-8")
    surfaces.write_text("atlocation \t is found on\n", encoding="utf-8")
    lexicon.write_text(" bike \t VERB \n", encoding="utf-8")
    graph = read_graph(kg, surfaces, lexicon)
    assert [t.fact for t in graph.triples] == ["bike is found on street"]
    assert graph.tagger.lexicon == {"bike": "VERB"}


@pytest.mark.parametrize("line", ["\tbike\tstreet\t2", " \tbike\tstreet\t2", "atlocation\tbike\tstreet\t"],
                         ids=["blank-relation", "space-relation", "blank-weight"])
def test_a_kg_line_with_a_blank_outer_column_is_refused_by_its_column_count(tmp_path, line):
    path = tmp_path / "kg.tsv"
    path.write_text(f"atlocation\tbike\tshed\t1\n{line}\n", encoding="utf-8")
    with pytest.raises(KgFormatError) as err:
        read_graph(path)
    assert str(err.value) == f"{path}:2: expected 4 tab-separated columns, got {line!r}"


def test_a_kg_line_that_ends_in_a_tab_parses():
    [triple] = iter_kg_triples("atlocation\tbike\tstreet\t2\t\n", "kg")
    assert triple == KnowledgeTriple("atlocation", "bike", "street", 2.0, "bike atlocation street")


# ---------------------------------------------------------------------------
# fact encoding

def fact_encoder_fixture(seed=0):
    texts = ["bike is found on street", "cat is a animal", "virus causes disease"]
    tk = Tokenizer.build(texts)
    enc = tiny_encoder(vocab=len(tk), seed=seed)
    sa = MhaParams.init(8, 2, np.random.default_rng(seed + 1))
    return tk, enc, sa, FactEncoder(tk, enc, sa)


def test_encode_fact_single_token_identity_sa():
    tk = Tokenizer.build(["bike"])
    enc = tiny_encoder(vocab=len(tk))
    eye = T.Tensor(np.eye(8)[None])
    sa = MhaParams(wq=eye, wk=eye, wv=eye)
    fe = FactEncoder(tk, enc, sa)
    r = fe.encode_fact("bike")
    hidden = encode(enc, tk.encode("bike")).data
    assert np.allclose(r.data, hidden[0], atol=1e-12)


def test_encode_fact_deterministic():
    _, _, _, fe = fact_encoder_fixture()
    a = fe.encode_fact("cat is a animal")
    b = fe.encode_fact("cat is a animal")
    assert np.array_equal(a.data, b.data)


def test_encode_fact_matches_step_by_step_oracle():
    tk, enc, sa, fe = fact_encoder_fixture(seed=3)
    fact = "virus causes disease"
    got = fe.encode_fact(fact).data
    hidden = encode(enc, tk.encode(fact)).data
    attended, _ = helpers.naive_mha(*helpers.mha_arrays(sa), hidden, hidden, hidden)
    assert np.max(np.abs(got - attended.mean(axis=0))) < 1e-10


def test_encode_fact_empty_rejected():
    _, _, _, fe = fact_encoder_fixture()
    with pytest.raises(T.ShapeError):
        fe.encode_fact("")


def test_encode_fact_longer_than_the_position_table_rejected():
    tk = Tokenizer.build(["a b c d e f g"])
    enc = tiny_encoder(vocab=len(tk), max_len=4)
    fe = FactEncoder(tk, enc, MhaParams.init(8, 2, np.random.default_rng(1)))
    assert fe.encode_fact("a b c d").shape == (1, 8)
    with pytest.raises(ConfigurationError, match=r"'a b c d e f g' has 7 tokens, more than the encoder's 4 positions"):
        fe.encode_facts(["a b", "a b c d e f g"])


def test_fact_cache_serves_until_version_bump():
    tk, enc, sa, fe = fact_encoder_fixture()
    fact = "bike is found on street"
    before = fe.encode_fact(fact)
    # Mutate weights; a cached encoder must still serve the stale vector.
    enc.tok_emb.data += 0.1
    assert fe.encode_fact(fact) is before
    fe.invalidate()
    after = fe.encode_fact(fact)
    assert not np.array_equal(after.data, before.data)


FACTS = ["bike is found on street", "cat is a animal", "virus causes disease"]


def test_encode_facts_equals_encoding_each_fact_alone_bit_for_bit():
    _, _, _, fe = fact_encoder_fixture(seed=4)
    together = fe.encode_facts(FACTS + FACTS[:1])
    assert together[0] is together[3]
    for fact, r in zip(FACTS, together):
        fe.invalidate()
        assert fe.encode_fact(fact).data.tobytes() == r.data.tobytes()


def test_step_scope_serves_leaves_and_sends_their_gradient_back_once():
    _, enc, sa, fe = fact_encoder_fixture(seed=5)
    leaves = list(named_parameters(enc, "enc").values()) + [sa.wq, sa.wk, sa.wv]
    weights = [T.Tensor(np.random.default_rng(i).standard_normal((1, 8))) for i in range(3)]

    def grads(scoped):
        for t in leaves:
            t.grad = None
        fe.invalidate()
        with fe.step() if scoped else contextlib.nullcontext():
            fe.encode_facts(FACTS)
            # Two "examples", each reading two facts and back-propagating alone.
            for picks in ((0, 1), (1, 2)):
                rs = [fe.encode_fact(FACTS[i]) for i in picks]
                if scoped:
                    assert all(not r._parents and r.requires_grad for r in rs)
                T.add(*(T.sum_all(T.mul(r, weights[i])) for r, i in zip(rs, picks))).backward()
            if scoped:
                assert all(t.grad is None for t in leaves)
        return [t.grad for t in leaves]

    want, got = grads(False), grads(True)
    # Every leaf is on the path.
    assert all(g is not None for g in got) and all(g is not None for g in want)
    assert all(np.allclose(a, b, rtol=1e-10, atol=1e-14) for a, b in zip(got, want))
    assert fe._cache == {}


def test_step_scope_drops_the_cache_without_a_backward_on_error():
    _, enc, _, fe = fact_encoder_fixture()
    with pytest.raises(RuntimeError, match="boom"):
        with fe.step():
            T.sum_all(fe.encode_fact(FACTS[0])).backward()
            raise RuntimeError("boom")
    assert fe._cache == {} and enc.tok_emb.grad is None
    with fe.step():
        with pytest.raises(RuntimeError, match="nest"):
            with fe.step():
                pass


# ---------------------------------------------------------------------------
# retrieval

def build_store(rows, vocab_text, surfaces=None, tagger=None):
    store = KnowledgeStore(tagger=tagger or PosTagger())
    vocab = vocab_over(vocab_text)
    for rel, head, tail, w in rows:
        assert all(vocab.has(t) for t in (head + " " + tail).split())
        store.add(parse_row(rel, head, tail, w, surfaces))
    return store


def test_retrieve_bike_street_fixture():
    store = build_store(
        [("atlocation", "bike", "street", 2.0), ("isa", "cat", "animal", 2.0)],
        "bike street cat animal girl rides red",
        surfaces={"atlocation": "is found on"},
    )
    ids = rank_triples(store, ["the girl rides a red bike"], 5)
    assert ids == [0]
    assert store.triples[0].fact == "bike is found on street"


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


KG_WORDS = [
    "bike", "street", "cat", "animal", "virus", "disease", "garden", "music",
    "river", "stone", "cloud", "engine", "basket", "robot", "jacket", "tunnel",
]


def test_retrieve_matches_brute_force_oracle():
    rng = np.random.default_rng(7)
    words = KG_WORDS
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


def _fact_text(row):
    return parse_row(*row).fact


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    rows=st.lists(
        st.tuples(st.sampled_from(("atlocation", "isa", "partof")), st.sampled_from(KG_WORDS),
                  st.sampled_from(KG_WORDS), st.sampled_from((0.5, 1.0, 2.0, 3.0))),
        min_size=1, max_size=30, unique_by=_fact_text,
    ),
    data=st.data(),
)
def test_rank_triples_ignores_kg_line_order(rows, data):
    # Fact texts are distinct, so the triple id never breaks a tie and the
    # ranked triples cannot depend on the order the KG lists them in.
    order = data.draw(st.permutations(range(len(rows))))
    stores = [build_store(r, " ".join(KG_WORDS)) for r in (rows, [rows[i] for i in order])]
    for _ in range(5):
        query = " ".join(data.draw(st.lists(st.sampled_from(KG_WORDS), min_size=1, max_size=3)))
        p = data.draw(st.integers(min_value=1, max_value=6))
        # KnowledgeTriple compares by (relation, head, tail, weight, fact).
        ranked = [[store.triples[i] for i in rank_triples(store, [query], p)] for store in stores]
        assert ranked[0] == ranked[1]


_PHRASE = st.text(alphabet="abcdAB'-.,é ", min_size=1, max_size=12).map(str.strip).filter(bool)
_RELATIONS = ("atlocation", "isa", "partof", "causes")


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    rows=st.lists(st.tuples(st.sampled_from(_RELATIONS), _PHRASE, _PHRASE,
                            st.floats(min_value=0, max_value=4, allow_nan=False)), max_size=12),
    surfaces=st.dictionaries(st.sampled_from(_RELATIONS), _PHRASE),
    data=st.data(),
)
def test_graph_vocabulary_and_store_agree(tmp_path_factory, rows, surfaces, data):
    # The one parse gives every fact; the vocabulary built over the graph
    # admits every triple at or above the threshold, and no kept fact has an
    # unknown word.
    threshold = data.draw(st.one_of(st.sampled_from([w for *_, w in rows] or [1.0]),
                                    st.floats(min_value=0, max_value=4, allow_nan=False)))
    root = tmp_path_factory.mktemp("graph")
    kg, relations = root / "kg.tsv", root / "relations.tsv"
    kg.write_text("".join(f"{r}\t{h}\t{t}\t{w!r}\n" for r, h, t, w in rows), encoding="utf-8")
    relations.write_text("".join(f"{r}\t{phrase}\n" for r, phrase in surfaces.items()), encoding="utf-8")
    graph = read_graph(kg, relations)
    assert [(t.relation, t.head, t.tail, t.weight) for t in graph.triples] == rows
    assert [t.fact for t in graph.triples] == [f"{h} {surfaces.get(r, r)} {t}" for r, h, t, _ in rows]
    vocab = build_vocab(Dataset(dialogues=[]), graph.triples, threshold)
    store = load_kg(graph, threshold, vocab)
    assert store.triples == [t for t in graph.triples if t.weight >= threshold]
    assert all(vocab.unk_id not in vocab.encode(t.fact) for t in store.triples)


def _padded(rows, data):
    """TSV text of the rows with random spaces around every column, and spaces or
    tabs around every line."""
    pad, edge = st.text(alphabet=" ", max_size=2), st.text(alphabet=" \t", max_size=2)
    return "".join(data.draw(edge) + "\t".join(data.draw(pad) + c + data.draw(pad) for c in row)
                   + data.draw(edge) + "\n" for row in rows)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    rows=st.lists(st.tuples(st.sampled_from(_RELATIONS), _PHRASE, _PHRASE,
                            st.floats(min_value=0, max_value=4, allow_nan=False).map(repr)), max_size=8),
    surfaces=st.dictionaries(st.sampled_from(_RELATIONS), _PHRASE),
    lexicon=st.dictionaries(st.text(alphabet="abcdAB", min_size=1, max_size=5), st.sampled_from(("NOUN", "VERB", "ADJ")),
                            max_size=6).filter(lambda lex: len({w.lower() for w in lex}) == len(lex)),
    data=st.data(),
)
def test_spaces_around_columns_and_lines_change_no_parse(tmp_path_factory, rows, surfaces, lexicon, data):
    # Every graph TSV is read by one rule, so a padded copy of each file gives
    # the same triples, facts included, and the same tagger lexicon.
    tables = {"kg": rows, "surfaces": list(surfaces.items()), "lexicon": list(lexicon.items())}
    graphs = []
    for pad in (False, True):
        root = tmp_path_factory.mktemp("padded" if pad else "plain")
        for name, table in tables.items():
            text = _padded(table, data) if pad else "".join("\t".join(row) + "\n" for row in table)
            (root / f"{name}.tsv").write_text(text, encoding="utf-8")
        graphs.append(read_graph(root / "kg.tsv", root / "surfaces.tsv", root / "lexicon.tsv"))
    plain, padded = graphs
    assert [t.fact for t in plain.triples] == [f"{h} {surfaces.get(r, r)} {t}" for r, h, t, _ in rows]
    assert padded.triples == plain.triples
    assert padded.tagger.lexicon == plain.tagger.lexicon == {w.lower(): tag for w, tag in lexicon.items()}


def test_prepare_knowledge_returns_the_fact_rows():
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
    [(ck, qak)] = pipeline.prepare_knowledge([ex])
    assert len(ck) == 1 and qak == [[], []]
    assert ck[0].shape == (1, 8)
    assert np.array_equal(ck[0].data, pipeline.fact_encoder.encode_fact(store.triples[0].fact).data)


def test_store_invariants_after_load(tmp_path):
    path = tmp_path / "kg.tsv"
    path.write_text(
        "r\tbike\tstreet\t2\nr\tcat\tanimal\t0.2\nr\tbike\tmystery\t5\n",
        encoding="utf-8",
    )
    store = load_kg(read_graph(path), 1.0, vocab_over("bike street cat animal"))
    assert all(t.weight >= 1.0 for t in store.triples)
    assert [t.tail for t in store.triples] == ["street"]
