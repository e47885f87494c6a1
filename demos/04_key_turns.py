#!/usr/bin/env python3
"""Key-turn selection: score each turn against a question-answer pair.

The scorer is a small 3-way entailment head; the entailment log
probability of (turn, QA) is the relevance score. Selection keeps the
top-k scores but always reports turns in dialogue order.
"""

import numpy as np

from kkt.keyturns import NliHead, score_turn, select_key_turns, train_nli_head
from kkt.tokenizer import Tokenizer

# Selection is deterministic given scores. Higher is more relevant; ties
# go to the earlier turn.
scores = [-1.91, -1.49, -2.53, -1.66, -2.26, -1.87]
picked = select_key_turns(scores, k=2)
print("scores:", scores)
print("k=2 keeps turn indices", picked, "(0-based, dialogue order)")
print()

# An actual scorer. Train it on a tiny corpus where 'green' premises entail,
# 'red' ones contradict, and 'blue' ones are neutral.
rng = np.random.default_rng(0)
fillers = ["today", "maybe", "still", "often", "now"]
corpus = []
for i in range(45):
    color, label = [("red", 0), ("green", 1), ("blue", 2)][i % 3]
    premise = f"the {color} signal {fillers[i % 5]}"
    corpus.append({"premise": premise, "hypothesis": "the signal matters", "label": label})

vocab = Tokenizer.build([r["premise"] for r in corpus] + ["the signal matters"])
head = NliHead.init(len(vocab), 8, 2, 1, 32, 32, rng)
report = train_nli_head(head, vocab, corpus, epochs=30, seed=1)
print(f"NLI head trained: accuracy {report['train_accuracy']:.2f} after {report['epochs']} epochs")

dialogue = [
    "w : the red signal now",
    "m : the green signal today",
    "w : the blue signal maybe",
]
qa = "the signal matters"
# One call scores every (turn, QA) pair, in one encoder pass over the stack.
turn_scores = score_turn(head, vocab, [(t, qa) for t in dialogue])
for t, s in zip(dialogue, turn_scores):
    print(f"  {s:8.4f}  {t}")
best = select_key_turns(turn_scores, k=1)
print("the entailing turn wins:", dialogue[best[0]])
