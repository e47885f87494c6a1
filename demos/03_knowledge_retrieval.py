#!/usr/bin/env python3
"""From weighted triple TSV text to ranked facts for a dialogue turn.

Walks the whole knowledge path: POS-based content words, parsing each
triple with its fact sentence (relation surfaces applied once, here),
loading with a weight threshold, and deterministic ranking.
"""

from kkt.knowledge import GraphInputs, PosTagger, content_words, iter_kg_triples, load_kg, rank_triples
from kkt.tokenizer import Tokenizer

KG = """\
# relation<TAB>head<TAB>tail<TAB>weight
atlocation\tbike\tstreet\t2.5
atlocation\tbook\tshelf\t3.0
relatedto\tbike\twheel\t1.0
atlocation\tbike\tgarage\t2.0
usedfor\tbike\texercise\t0.4
"""

SURFACES = {"atlocation": "is found on", "relatedto": "is related to", "usedfor": "is used for"}

tagger = PosTagger()
turn = "m : my bike is broken , can you help ?"
print("turn:", turn)
print("content words:", content_words(turn, tagger))
print()

vocab = Tokenizer.build(["bike street book shelf wheel garage exercise my is broken can you help"])
# `read_graph` builds the same from files; each triple carries its fact.
graph = GraphInputs(list(iter_kg_triples(KG, "kg.tsv", SURFACES)), tagger, raw={})
store = load_kg(graph, 1.0, vocab)
# usedfor/bike/exercise sits below the 1.0 weight threshold and is gone.
print(f"loaded {len(store)} of 5 triples (threshold 1.0)")
for tid, triple in enumerate(store.triples):
    print(f"  [{tid}] w={triple.weight:.1f}  {triple.fact!r}")
print()

# Ranking: weight first, then how many distinct query words matched,
# then fact text, then id. Same inputs, same order, every time.
for p in (1, 3):
    ids = rank_triples(store, [turn], p)
    print(f"top-{p} for the turn: {[(i, store.triples[i].fact) for i in ids]}")
