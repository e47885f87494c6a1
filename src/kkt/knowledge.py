"""Weighted knowledge-graph ingestion, fact encoding and retrieval.

A knowledge item is a {relation, head, tail} triple with a non-negative
weight, parsed with its fact, the sentence `head <surface> tail` ("virus
causes disease"). The KG, its relation surfaces and the tagger lexicon are
TSV files, every line of which is read by one rule, `_tsv_rows`. Loading
filters by weight threshold (boundary kept) and drops any triple whose head
or tail contains a word outside the encoder vocabulary. Retained facts are
encoded by self-attending their hidden states and mean-pooling, and served
through a deterministic top-p ranking:

    weight (desc), then number of distinct query content words matched
    (desc), then fact text (asc), then original file order (asc).

Content words are found by a small part-of-speech tagger: lexicon lookup
first, then a closed-class stoplist, then suffix rules, then an open-class
default for longer alphabetic tokens. Tokens tagged NOUN/VERB/ADJ count;
everything else is ignored for matching.
"""

from __future__ import annotations

import contextlib
import functools
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .attention import ConfigurationError, EncoderParams, MhaParams, encode, self_attention
from .tokenizer import InputError, Tokenizer, read_text, tokenize

NOUN, VERB, ADJ, OTHER = "NOUN", "VERB", "ADJ", "OTHER"
_POS_TAGS = (NOUN, VERB, ADJ)


class KgFormatError(InputError):
    """Raised for malformed or invalid knowledge-graph files."""


# Closed-class words never counted as content, regardless of suffix shape.
_STOPLIST = frozenset(
    """
    a an the this that these those there here some any no every each
    i you he she it we they me him her us them my your his its our their
    mine yours hers ours theirs myself yourself himself herself itself
    is are was were am be been being do does did done have has had having
    will would shall should can could may might must wo n't 's 'll 're 've 'd 'm
    and or but if then else when while because so although though nor yet
    to of in on at by for with from as into onto over under about after
    before between during through up down out off above below near
    not very too also just only quite rather really still even again
    what who whom whose which where why how whether
    yes no okay oh well hmm please thanks
    """.split()
)

# Auxiliary-ish -ing forms stay verbs instead of gerund nouns.
_ING_AUX = frozenset({"being", "having", "doing", "going", "getting"})

_SUFFIX_RULES = (
    ("tion", NOUN),
    ("ment", NOUN),
    ("ness", NOUN),
    ("ity", NOUN),
    ("ing", NOUN),
    ("ous", ADJ),
    ("ful", ADJ),
    ("ive", ADJ),
    ("able", ADJ),
    ("ize", VERB),
    ("ify", VERB),
    ("ate", VERB),
    ("ed", VERB),
    ("al", ADJ),
    ("ly", OTHER),
)


def _tsv_rows(text: str, label, width: int, expected: str):
    """`(lineno, columns)` of every line of TSV text that is not blank or a `#` comment: the
    line is stripped, split on tabs and each column stripped. A line of any other column
    count raises `KgFormatError` as `label:lineno: expected <expected>, got <line>`."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        columns = [column.strip() for column in line.split("\t")]
        if len(columns) != width:
            raise KgFormatError(f"{label}:{lineno}: expected {expected}, got {raw!r}")
        yield lineno, columns


def _read_pairs(text: str, label, layout: str, values=None) -> dict:
    """Two-column TSV text as a dict, read by `_tsv_rows`; a repeated key is refused. With
    `values` (a lexicon's tags) the second column must be one of them, and keys compare
    lowercased, as `PosTagger` stores them."""
    pairs, first = {}, {}
    for lineno, (key, value) in _tsv_rows(text, label, 2, f"`{layout}`"):
        if values is not None and value not in values:
            raise KgFormatError(f"{label}:{lineno}: tag for {key!r} must be one of {values}, got {value!r}")
        folded = key if values is None else key.lower()
        if first.setdefault(folded, lineno) != lineno:
            raise KgFormatError(f"{label}:{lineno}: {key!r} repeats line {first[folded]}")
        pairs[key] = value
    return pairs


class PosTagger:
    """Lexicon-first tagger with suffix fallback; see the rule table in the README."""

    def __init__(self, lexicon=None):
        self.lexicon = {}
        for word, tag in (lexicon or {}).items():
            if tag not in _POS_TAGS:
                raise ValueError(f"POS lexicon tag for {word!r} must be one of {_POS_TAGS}, got {tag!r}")
            self.lexicon[word.lower()] = tag

    def tag(self, token: str) -> str:
        # The lexicon first, so a changed lexicon is never answered from the rule cache.
        tag = self.lexicon.get(token)
        return _rule_tag(token) if tag is None else tag


@functools.lru_cache(maxsize=1 << 16)
def _rule_tag(token: str) -> str:
    """The tag of a token outside the lexicon: stoplist, suffix rules, then
    length. It depends on the token alone, so it is computed once per token."""
    if token in _STOPLIST or not token.isalpha():
        return OTHER
    for suffix, tag in _SUFFIX_RULES:
        if token.endswith(suffix) and len(token) > len(suffix) + 1:
            if suffix == "ing" and token in _ING_AUX:
                return VERB
            return tag
    # Longer unseen alphabetic tokens default to the open class.
    return NOUN if len(token) >= 4 else OTHER


def tag_content_words(text: str, tagger: PosTagger | None = None) -> list[tuple[str, str]]:
    """Tag every token of the text; content words are those not tagged OTHER."""
    tagger = tagger or PosTagger()
    return [(tok, tagger.tag(tok)) for tok in tokenize(text)]


def content_words(text: str, tagger: PosTagger | None = None) -> list[str]:
    """Distinct content words of the text, in first-appearance order."""
    seen = {}
    for tok, tag in tag_content_words(text, tagger):
        if tag != OTHER and tok not in seen:
            seen[tok] = None
    return list(seen)


@dataclass(frozen=True)
class KnowledgeTriple:
    """A parsed KG line; `fact` is its sentence, `head <surface or relation> tail`."""

    relation: str
    head: str
    tail: str
    weight: float
    fact: str


@dataclass
class KnowledgeStore:
    """Filtered triples plus an inverted index from surface word to triple ids.

    Triple ids are positions in the retained `triples` list (load order).
    """

    triples: list = field(default_factory=list)
    index: dict = field(default_factory=dict)
    tagger: PosTagger = field(default_factory=PosTagger)

    def __len__(self):
        return len(self.triples)

    def add(self, triple: KnowledgeTriple):
        tid = len(self.triples)
        self.triples.append(triple)
        for word in set(tokenize(triple.head) + tokenize(triple.tail)):
            self.index.setdefault(word, []).append(tid)
        return tid


def iter_kg_triples(text: str, label="kg", surfaces=None):
    """Parse every triple of KG text, read by `_tsv_rows`, with its fact, before any
    filtering; a relation in `surfaces` reads as its phrase there. Errors name `label:lineno`."""
    for lineno, (relation, head, tail, weight_s) in _tsv_rows(text, label, 4, "4 tab-separated columns"):
        if not head or not tail:
            raise KgFormatError(f"{label}:{lineno}: empty head or tail")
        try:
            weight = float(weight_s)
        except ValueError as exc:
            raise KgFormatError(f"{label}:{lineno}: weight {weight_s!r} is not a number") from exc
        if not 0 <= weight < np.inf:  # NaN would rank by file order, and JSON has no infinity
            raise KgFormatError(f"{label}:{lineno}: weight {weight_s!r} must be a finite number >= 0")
        fact = f"{head} {(surfaces or {}).get(relation, relation)} {tail}"
        yield KnowledgeTriple(relation=relation, head=head, tail=tail, weight=weight, fact=fact)


@dataclass
class GraphInputs:
    """A run's graph files, each read once: `triples` is the one parse of the KG,
    facts included (None without a graph), `raw` the bytes of each given file by name."""

    triples: list | None
    tagger: PosTagger
    raw: dict


def read_graph(kg_path=None, surfaces_path=None, lexicon_path=None) -> GraphInputs:
    """Read and parse the surface TSV `relation<TAB>surface phrase`, then the KG TSV
    `relation<TAB>head<TAB>tail<TAB>weight` with them, and the lexicon TSV `word<TAB>tag`,
    each by `_tsv_rows`, so whitespace around any column is dropped."""
    raw = {}

    def text(name, path):
        raw[name], decoded = read_text(path, KgFormatError)
        return decoded

    surfaces = {} if surfaces_path is None else _read_pairs(text("surfaces", surfaces_path), surfaces_path, "relation<TAB>surface")
    triples = None if kg_path is None else list(iter_kg_triples(text("kg", kg_path), kg_path, surfaces))
    lexicon = {} if lexicon_path is None else _read_pairs(text("lexicon", lexicon_path), lexicon_path, "word<TAB>tag", _POS_TAGS)
    return GraphInputs(triples, PosTagger(lexicon), raw)


def load_kg(graph: GraphInputs, threshold: float, vocab: Tokenizer) -> KnowledgeStore | None:
    """The store over the graph's parsed triples, or None without a KG.

    Triples below the weight threshold are dropped (the boundary is kept),
    as is any triple whose head or tail contains a word the vocabulary does
    not know.
    """
    if graph.triples is None:
        return None
    store = KnowledgeStore(tagger=graph.tagger)
    for triple in graph.triples:
        if triple.weight < threshold:
            continue
        words = tokenize(triple.head) + tokenize(triple.tail)
        if not all(vocab.has(w) for w in words):
            continue
        store.add(triple)
    return store


class FactEncoder:
    """Encodes fact sentences to vectors, caching by sentence and grad mode.

    A fact is its sentence, a `str`. Its vector is the mean over its tokens
    of its last hidden states, self-attended by `sa`, as one [1, d] row
    Tensor, so that refinement joins fact rows into keys with `T.concat_rows`.
    `encode_facts` puts every uncached fact of a call through the encoder at
    once: one `encode` over the stacked sequences, one segmented
    self-attention and one `T.segment_mean`. In float64 each vector equals
    that of encoding its fact alone, bit for bit. A fact longer than the
    encoder's positions raises `ConfigurationError` rather than being cut;
    no KG fact is empty, and `encode` refuses an empty one with `ShapeError`.

    A row built inside `T.no_grad()` carries no graph, so it is
    served only inside `no_grad` again; graph-building callers get one with
    a graph, and gradients keep reaching the encoder and self-attention
    weights after an evaluation. Call `invalidate` whenever those weights
    change; it drops every entry.

    Training runs each optimizer step inside `with encoder.step():`. There a
    graph-building caller is served a leaf holding the row's value, whose
    `.grad` collects across the step's per-example `backward()` calls. On
    leaving the scope the leaves' summed gradients, concatenated, go back
    through the facts' encoder graph, one `backward` per encoder call (one
    per step when the step's facts are encoded together), and the cache is
    dropped. So the encoder graph of a fact is walked once per step, not
    once per example that reads the fact, and each example's graph stops at
    the leaves.
    Outside a scope, `backward()` from any output reaches the encoder
    weights directly.
    """

    def __init__(self, tokenizer: Tokenizer, enc: EncoderParams, sa: MhaParams):
        self.tokenizer = tokenizer
        self.enc = enc
        self.sa = sa
        self._cache = {}
        # (pooled vectors, their leaves) per encoder call while a step is open.
        self._step = None

    def invalidate(self):
        self._cache.clear()

    @contextlib.contextmanager
    def step(self):
        """Scope of one optimizer step; see the class docstring. Leaving it
        by an exception drops the cache without the fact backward."""
        if self._step is not None:
            raise RuntimeError("FactEncoder.step scopes do not nest")
        self.invalidate()
        self._step = []
        try:
            yield
            for pooled, leaves in self._step:
                if any(leaf.grad is not None for leaf in leaves):
                    pooled.backward(np.concatenate([leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)
                                                    for leaf in leaves]))
        finally:
            self._step = None
            self.invalidate()

    def encode_fact(self, fact: str) -> T.Tensor:
        """r = mean over tokens of self-attended last hidden states of the
        fact sentence, a [1, d] row."""
        hit = self._cache.get((fact, T.is_grad_enabled()))
        return hit if hit is not None else self.encode_facts([fact])[0]

    def encode_facts(self, facts) -> list:
        """The row of every fact sentence, in order; the uncached ones go
        through the encoder in one call."""
        grad = T.is_grad_enabled()
        texts = list(dict.fromkeys(f for f in facts if (f, grad) not in self._cache))
        if texts:
            ids = [self.tokenizer.encode(text) for text in texts]
            for text, seq in zip(texts, ids):
                if len(seq) > self.enc.max_len:
                    raise ConfigurationError(f"fact {text!r} has {len(seq)} tokens, more than the "
                                             f"encoder's {self.enc.max_len} positions (max_length)")
            lengths = [len(seq) for seq in ids]
            pooled = T.segment_mean(self_attention(self.sa, encode(self.enc, *ids), lengths), lengths)
            if grad and self._step is not None:
                vectors = [T.Tensor(pooled.data[j : j + 1], requires_grad=True) for j in range(len(texts))]
                self._step.append((pooled, vectors))
            else:
                vectors = [T.take_rows(pooled, [j]) for j in range(len(texts))]
            self._cache.update(((text, grad), r) for text, r in zip(texts, vectors))
        return [self._cache[f, grad] for f in facts]


def rank_triples(store: KnowledgeStore, texts, p: int) -> list[int]:
    """Ids of the top-p triples matching any content word of the texts.

    Deterministic ranking: weight desc, distinct matched query words desc,
    fact text asc, triple id asc. Returns fewer than p ids when fewer match.
    """
    if p < 1:
        raise ConfigurationError(f"top-p bound must be >= 1, got {p}")
    query = set()
    for text in texts:
        query.update(content_words(text, store.tagger))
    matches = {}
    for word in query:
        for tid in store.index.get(word, ()):
            matches[tid] = matches.get(tid, 0) + 1
    order = sorted(
        matches,
        key=lambda tid: (-store.triples[tid].weight, -matches[tid], store.triples[tid].fact, tid),
    )
    return order[:p]
