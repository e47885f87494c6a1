"""Weighted knowledge-graph ingestion, fact rewriting, encoding and retrieval.

A knowledge item is a {relation, head, tail} triple with a non-negative
weight. Loading filters by weight threshold (boundary kept) and drops any
triple whose head or tail contains a word outside the encoder vocabulary.
Retained triples are rewritten to plain sentences ("virus causes disease"),
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

from dataclasses import dataclass, field
from pathlib import Path

from . import tensor as T
from .attention import EncoderParams, MhaParams, encode, self_attention
from .tokenizer import Tokenizer, tokenize

NOUN, VERB, ADJ, OTHER = "NOUN", "VERB", "ADJ", "OTHER"
_POS_TAGS = (NOUN, VERB, ADJ)


class KgFormatError(ValueError):
    """Raised for malformed or invalid knowledge-graph files."""


class EmptyFactError(ValueError):
    """Raised when a fact tokenizes to nothing."""


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


def _read_pairs(path, layout: str) -> dict:
    """Two-column TSV as a dict; blank and `#` lines are skipped."""
    pairs = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise KgFormatError(f"{path}:{lineno}: expected `{layout}`, got {raw!r}")
        pairs[parts[0]] = parts[1]
    return pairs


class PosTagger:
    """Lexicon-first tagger with suffix fallback; see the rule table in the README."""

    def __init__(self, lexicon=None):
        self.lexicon = {}
        for word, tag in (lexicon or {}).items():
            if tag not in _POS_TAGS:
                raise ValueError(f"POS lexicon tag for {word!r} must be one of {_POS_TAGS}, got {tag!r}")
            self.lexicon[word.lower()] = tag

    @classmethod
    def load(cls, path) -> "PosTagger":
        """Read a TSV lexicon `word<TAB>tag`, tag in {NOUN, VERB, ADJ}."""
        return cls(_read_pairs(path, "word<TAB>tag"))

    def tag(self, token: str) -> str:
        tag = self.lexicon.get(token)
        if tag is not None:
            return tag
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
    relation: str
    head: str
    tail: str
    weight: float


@dataclass(frozen=True)
class Fact:
    text: str
    source: KnowledgeTriple


def rewrite_triple(t: KnowledgeTriple, surface_table=None) -> Fact:
    """Render a triple as `head <surface(relation)> tail`.

    Unknown relations fall back to the raw relation id as the infix.
    """
    infix = (surface_table or {}).get(t.relation, t.relation)
    return Fact(text=f"{t.head} {infix} {t.tail}", source=t)


def load_surfaces(path) -> dict:
    """Read a relation surface TSV `relation<TAB>surface phrase`; no path gives an empty table."""
    return {} if path is None else _read_pairs(path, "relation<TAB>surface")


@dataclass
class KnowledgeStore:
    """Filtered triples plus an inverted index from surface word to triple ids.

    Triple ids are positions in the retained `triples` list (load order).
    """

    triples: list = field(default_factory=list)
    facts: list = field(default_factory=list)
    index: dict = field(default_factory=dict)
    tagger: PosTagger = field(default_factory=PosTagger)

    def __len__(self):
        return len(self.triples)

    def add(self, triple: KnowledgeTriple, surface_table=None):
        tid = len(self.triples)
        self.triples.append(triple)
        self.facts.append(rewrite_triple(triple, surface_table))
        for word in set(tokenize(triple.head) + tokenize(triple.tail)):
            self.index.setdefault(word, []).append(tid)
        return tid


def _parse_kg_line(path, lineno, raw) -> KnowledgeTriple | None:
    line = raw.rstrip("\n")
    if not line.strip() or line.lstrip().startswith("#"):
        return None
    parts = line.split("\t")
    if len(parts) != 4:
        raise KgFormatError(f"{path}:{lineno}: expected 4 tab-separated columns, got {len(parts)}: {raw!r}")
    relation, head, tail, weight_s = (p.strip() for p in parts)
    if not head or not tail:
        raise KgFormatError(f"{path}:{lineno}: empty head or tail")
    try:
        weight = float(weight_s)
    except ValueError as exc:
        raise KgFormatError(f"{path}:{lineno}: weight {weight_s!r} is not a number") from exc
    if weight < 0:
        raise KgFormatError(f"{path}:{lineno}: negative weight {weight}")
    return KnowledgeTriple(relation=relation, head=head, tail=tail, weight=weight)


def iter_kg_triples(path):
    """Parse every triple in a KG file, before any filtering."""
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        triple = _parse_kg_line(path, lineno, raw)
        if triple is not None:
            yield triple


def load_kg(path, threshold: float, vocab: Tokenizer, surfaces=None, tagger=None) -> KnowledgeStore:
    """Load a TSV knowledge graph `relation<TAB>head<TAB>tail<TAB>weight`.

    `#` comment lines and blank lines are ignored. Triples below the weight
    threshold are dropped (the boundary is kept), as is any triple whose
    head or tail contains a word the vocabulary does not know.
    """
    store = KnowledgeStore(tagger=tagger or PosTagger())
    for triple in iter_kg_triples(path):
        if triple.weight < threshold:
            continue
        words = tokenize(triple.head) + tokenize(triple.tail)
        if not all(vocab.has(w) for w in words):
            continue
        store.add(triple, surfaces)
    return store


def serialize_kg(store: KnowledgeStore, path):
    """Write the retained triples back out in loadable TSV form."""
    lines = [f"{t.relation}\t{t.head}\t{t.tail}\t{t.weight:g}" for t in store.triples]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


@dataclass
class FactEmbedding:
    r_k: T.Tensor
    fact: Fact
    triple_id: int


class FactEncoder:
    """Encodes fact sentences to vectors, caching by fact text and grad mode.

    An embedding built inside `T.no_grad()` carries no graph, so it is served
    only inside `no_grad` again; graph-building callers get one with a graph,
    and gradients keep reaching the encoder and self-attention weights after
    an evaluation. Call `invalidate` whenever those weights change (one
    optimizer step in practice); it drops every entry.
    """

    def __init__(self, tokenizer: Tokenizer, enc: EncoderParams, sa: MhaParams, cache=True):
        self.tokenizer = tokenizer
        self.enc = enc
        self.sa = sa
        self._cache = {} if cache else None

    def invalidate(self):
        if self._cache is not None:
            self._cache.clear()

    def encode_fact(self, fact: Fact) -> T.Tensor:
        """r = mean over tokens of self-attended last hidden states of the fact."""
        key = (fact.text, T.is_grad_enabled())
        if self._cache is not None:
            hit = self._cache.get(key)
            if hit is not None:
                return hit
        ids = self.tokenizer.encode(fact.text)
        if not ids:
            raise EmptyFactError(f"fact {fact.text!r} tokenizes to nothing")
        hidden = encode(self.enc, ids).hidden
        r = T.mean_rows(self_attention(self.sa, hidden))
        if self._cache is not None:
            self._cache[key] = r
        return r


def rank_triples(store: KnowledgeStore, texts, p: int) -> list[int]:
    """Ids of the top-p triples matching any content word of the texts.

    Deterministic ranking: weight desc, distinct matched query words desc,
    fact text asc, triple id asc. Returns fewer than p ids when fewer match.
    """
    if p < 1:
        raise ValueError(f"top-p bound must be >= 1, got {p}")
    query = set()
    for text in texts:
        query.update(content_words(text, store.tagger))
    matches = {}
    for word in query:
        for tid in store.index.get(word, ()):
            matches[tid] = matches.get(tid, 0) + 1
    order = sorted(
        matches,
        key=lambda tid: (-store.triples[tid].weight, -matches[tid], store.facts[tid].text, tid),
    )
    return order[:p]
