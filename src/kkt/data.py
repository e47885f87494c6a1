"""Dataset loading and synthetic dialogue generation with planted signals.

The on-disk dataset layout is a JSON list of dialogues, each dialogue being
`[[turn strings], [{"question", "choice", "answer"}...], id]`, so public
dialogue MRC data in that shape drops in unmodified.

The generator builds desk-scale corpora where the answer is recoverable
only through a specific mechanism, so ablations have something to measure:

* keyturn-signal: exactly one turn names the gold option's topic; every
  other turn is chatter about excluded topics. A reader shown only the
  planted turn answers perfectly; shown only leading turns it is at chance.
* knowledge-signal: the dialogue mentions an entity, the question asks
  where that entity is found, and the entity-to-place mapping lives only in
  the companion knowledge graph (planted facts, weight 2.0, over a noise
  floor of filler facts at weight 1.2). Train and dev draw their asked
  entities from disjoint pools, so memorizing the training mapping does not
  transfer; reading the graph does.
* mixed: alternates the two kinds.

Everything derives from integer seed streams, so identical arguments give
byte-identical bundles.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .attention import ConfigurationError
from .model import DialogueExample
from .tokenizer import InputError, read_text, write_output

MODES = ("keyturn-signal", "knowledge-signal", "mixed")
_MODE_IDS = {m: i + 1 for i, m in enumerate(MODES)}
_SPLIT_IDS = {"train": 0, "dev": 1, "test": 2}

TOPICS = (
    "tennis golf chess poetry jazz sailing photography astronomy gardening skiing painting cycling "
    "archery pottery surfing baking drumming juggling origami fishing hiking knitting dancing swimming"
).split()

TRAIN_ENTITIES = (
    "falcon kettle banjo ladder compass lantern marble saddle shovel trumpet walnut anchor barrel candle "
    "dagger engine feather goblet hammer needle spoon tripod bugle caliper drill easel flask gourd "
    "harp ingot javelin kite loom mallet oboe plough quiver rudder sickle tuba"
).split()

DEV_ENTITIES = (
    "violin magnet pebble ribbon sponge statue teapot turtle wagon whistle basket bottle cactus donkey "
    "fiddle helmet jacket mirror pillow rocket goggles hamper ledger mitten"
).split()

FILLER_ENTITIES = "bucket carpet curtain folder funnel garlic kayak mango napkin onion pencil quilt".split()

ASKABLE_LOCATIONS = "kitchen garage museum harbor bakery library cellar attic".split()
NOISE_LOCATIONS = "swamp quarry tundra dune reef crater geyser lagoon".split()

_CHATTER = (
    "the weather was lovely this morning .",
    "we should leave before noon .",
    "the bus was late again yesterday .",
    "my cousin called me last night .",
    "dinner smelled wonderful downstairs .",
    "the meeting ran long past lunch .",
    "those shoes look brand new .",
    "the train station was crowded .",
    "it rained hard over the weekend .",
    "my neighbor hums while sweeping .",
)

_FILLER_TEMPLATES = (
    "that {e} looks rather old .",
    "someone left a {e} outside .",
)

_TOPIC_CHATTER = "my cousin enjoys {t} a lot ."
_PLANTED_KEYTURN = "i really like {t} these days ."
_PLANTED_KNOWLEDGE = "i saw a {x} near the door today ."
_KNOWLEDGE_QUESTION = "where can the {x} usually be found ?"
_KEYTURN_QUESTION = "what does {s} like best ?"

RELATION_SURFACES = {"atlocation": "is usually found at the"}

PLANTED_WEIGHT = 2.0
FILLER_WEIGHT = 1.2


class SchemaError(InputError):
    """Raised when a dataset file violates the expected layout."""


def parse_json(text: str, label: str):
    """`json.loads` for input files; text that is not JSON is a `SchemaError`
    reading `<label>: not valid JSON: ...`, where the label is the path, or
    `path:lineno` for one line of a JSONL file."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{label}: not valid JSON: {exc}") from None


def read_json(path):
    """Parse a JSON file (see `parse_json`)."""
    return parse_json(read_text(path, SchemaError)[1], str(path))


@dataclass
class Dataset:
    dialogues: list
    examples: list = field(default_factory=list)

    def __len__(self):
        return len(self.examples)

    def texts(self) -> list:
        """Every turn, question and option string, for vocabulary building."""
        out = []
        for turns, qas, _ in self.dialogues:
            out.extend(turns)
            for qa in qas:
                out.append(qa["question"])
                out.extend(qa["choice"])
        return out


def _check_strings(items, where, what):
    if not isinstance(items, list) or not all(isinstance(x, str) for x in items):
        raise SchemaError(f"{where}: {what} must be a list of strings, got {items!r:.60}")


def dataset_from_obj(obj, label="dataset") -> Dataset:
    """Examples of a parsed dataset file; another layout, no question, a
    question and option of no token, or a dialogue id (as a string) that
    repeats an earlier one is a `SchemaError` naming `label`."""
    if not isinstance(obj, list):
        raise SchemaError(f"{label}: a dataset must be a JSON list of dialogues, got {type(obj).__name__}")
    examples, first = [], {}
    for position, entry in enumerate(obj):
        if not (isinstance(entry, list) and len(entry) == 3):
            raise SchemaError(f"{label}: dialogue entry must be [turns, qas, id], got {type(entry)}")
        turns, qas, did = entry
        if first.setdefault(str(did), position) != position:
            raise SchemaError(f"{label}: dialogue {position}: id {did!r} repeats dialogue {first[str(did)]}")
        _check_strings(turns, f"{label}: {did}", "turns")
        if not turns or not all(t.strip() for t in turns):
            raise SchemaError(f"{label}: {did}: turns must be a non-empty list of non-blank strings, got {turns!r:.60}")
        if not isinstance(qas, list):
            raise SchemaError(f"{label}: {did}: qas must be a list of question objects, got {type(qas).__name__}")
        for qi, qa in enumerate(qas):
            if not isinstance(qa, dict):
                raise SchemaError(f"{label}: {did} question {qi} must be an object, got {type(qa).__name__}")
            missing = {"question", "choice", "answer"} - set(qa)
            if missing:
                raise SchemaError(f"{label}: {did} question {qi} missing fields {sorted(missing)}")
            if not isinstance(qa["question"], str):
                raise SchemaError(f"{label}: {did} question {qi}: question must be a string, got {qa['question']!r:.60}")
            _check_strings(qa["choice"], f"{label}: {did} question {qi}", "choice")
            if len(qa["choice"]) < 2:
                raise SchemaError(f"{label}: {did} question {qi}: choice must be a list of at least 2 strings, "
                                  f"got {qa['choice']!r:.60}")
            if qa["answer"] not in qa["choice"]:
                raise SchemaError(f"{label}: {did} question {qi}: answer {qa['answer']!r} not among choices")
            # Every non-space character is a token, so only blank text tokenizes to nothing.
            blank = [] if qa["question"].strip() else [j for j, option in enumerate(qa["choice"]) if not option.strip()]
            if blank:
                raise SchemaError(f"{label}: {did} question {qi}: question and choice {blank[0]} tokenize to nothing")
            examples.append(
                DialogueExample(
                    turns=list(turns),
                    question=qa["question"],
                    options=list(qa["choice"]),
                    gold=qa["choice"].index(qa["answer"]),
                    dialogue_id=str(did),
                    qa_index=qi,
                )
            )
    if not examples:
        raise SchemaError(f"{label}: the dataset holds no questions")
    return Dataset(dialogues=obj, examples=examples)


def load_dataset(path) -> Dataset:
    return dataset_from_obj(read_json(path), label=str(path))


@dataclass
class SyntheticBundle:
    dataset: Dataset
    kg_text: str
    surfaces_text: str
    lexicon_text: str
    nli_records: list
    meta: dict


def planted_turns_from_meta(meta, label="meta") -> dict:
    """example id -> planted turn index from generator metadata, whose
    `examples` must map ids to objects; entries without a `planted_turn` are
    skipped, and one that is not a JSON integer >= 0 raises `SchemaError`."""
    examples = meta.get("examples", {}) if isinstance(meta, dict) else None
    if not isinstance(examples, dict) or not all(isinstance(info, dict) for info in examples.values()):
        raise SchemaError(f"{label}: expected an object whose `examples` maps ids to objects")
    planted = {eid: info["planted_turn"] for eid, info in examples.items() if "planted_turn" in info}
    for eid, turn in planted.items():
        if isinstance(turn, bool) or not isinstance(turn, int) or turn < 0:
            raise SchemaError(f"{label}: {eid}: planted_turn must be an integer >= 0, got {turn!r}")
    return planted


def _world(seed: int):
    """Entity-to-location assignment shared by every split and mode of a seed.

    Locations are dealt round-robin over a shuffled entity order, so each
    location is home to the same number of entities per pool. Without that
    balance a model can lift dev accuracy above chance by learning which
    locations are popular homes, with no knowledge involved.
    """
    rng = np.random.default_rng([int(seed), 99])
    homes = {}
    for pool, locations in (
        (TRAIN_ENTITIES, ASKABLE_LOCATIONS),
        (DEV_ENTITIES, ASKABLE_LOCATIONS),
        (FILLER_ENTITIES, NOISE_LOCATIONS),
    ):
        order = rng.permutation(len(pool))
        for slot, idx in enumerate(order):
            homes[pool[int(idx)]] = locations[slot % len(locations)]
    return homes


def _kg_text(homes) -> str:
    lines = ["# relation\thead\ttail\tweight"]
    for e in TRAIN_ENTITIES + DEV_ENTITIES:
        lines.append(f"atlocation\t{e}\t{homes[e]}\t{PLANTED_WEIGHT:g}")
    for e in FILLER_ENTITIES:
        lines.append(f"atlocation\t{e}\t{homes[e]}\t{FILLER_WEIGHT:g}")
    return "\n".join(lines) + "\n"


_LEXICON = {
    "like": "VERB", "enjoys": "VERB", "saw": "VERB", "found": "VERB", "leave": "VERB",
    "called": "VERB", "rained": "VERB", "smelled": "VERB", "look": "VERB", "looks": "VERB",
    "hums": "VERB", "ran": "VERB", "left": "VERB",
    "lovely": "ADJ", "wonderful": "ADJ", "crowded": "ADJ", "old": "ADJ", "new": "ADJ",
    "late": "ADJ", "long": "ADJ", "hard": "ADJ",
}


def _lexicon_text() -> str:
    lines = [f"{w}\t{t}" for w, t in sorted(_LEXICON.items())]
    lines += [f"{w}\tNOUN" for w in sorted(TOPICS + TRAIN_ENTITIES + DEV_ENTITIES + FILLER_ENTITIES
                                           + ASKABLE_LOCATIONS + NOISE_LOCATIONS)]
    return "\n".join(lines) + "\n"


def _surfaces_text() -> str:
    return "\n".join(f"{r}\t{s}" for r, s in sorted(RELATION_SURFACES.items())) + "\n"


def _pick(rng, pool, exclude=()):
    options = [x for x in pool if x not in exclude]
    return options[int(rng.integers(len(options)))]


def _speakers(rng, n_turns):
    first = "m" if rng.integers(2) == 0 else "w"
    other = "w" if first == "m" else "m"
    return [first if i % 2 == 0 else other for i in range(n_turns)]


def _distractor(rng, kind, banned_topics):
    roll = rng.random()
    if kind == "keyturn" and roll < 0.3:
        return _TOPIC_CHATTER.format(t=_pick(rng, TOPICS, exclude=banned_topics))
    if kind == "knowledge" and roll < 0.2:
        template = _FILLER_TEMPLATES[int(rng.integers(len(_FILLER_TEMPLATES)))]
        return template.format(e=_pick(rng, FILLER_ENTITIES))
    return _CHATTER[int(rng.integers(len(_CHATTER)))]


def _gen_example(seed, split, mode, i, kind, homes):
    rng = np.random.default_rng([int(seed), 7, _SPLIT_IDS[split], _MODE_IDS[mode], int(i)])
    gold_pos = i % 3
    n_turns = int(rng.integers(4, 11))
    planted_pos = int(rng.integers(1, n_turns))
    speakers = _speakers(rng, n_turns)
    if kind == "keyturn":
        topic = _pick(rng, TOPICS)
        wrong1 = _pick(rng, TOPICS, exclude=(topic,))
        wrong2 = _pick(rng, TOPICS, exclude=(topic, wrong1))
        contents = [topic, wrong1, wrong2]
        question = _KEYTURN_QUESTION.format(s=speakers[planted_pos])
        planted = _PLANTED_KEYTURN.format(t=topic)
        options = _place_gold(rng, contents, gold_pos)
        banned = tuple(contents)
        info = {"kind": kind, "planted_turn": planted_pos, "topic": topic}
    else:
        pool = TRAIN_ENTITIES if split == "train" else DEV_ENTITIES
        entity = _pick(rng, pool)
        home = homes[entity]
        wrong1 = _pick(rng, ASKABLE_LOCATIONS, exclude=(home,))
        wrong2 = _pick(rng, ASKABLE_LOCATIONS, exclude=(home, wrong1))
        contents = [f"in the {loc}" for loc in (home, wrong1, wrong2)]
        question = _KNOWLEDGE_QUESTION.format(x=entity)
        planted = _PLANTED_KNOWLEDGE.format(x=entity)
        options = _place_gold(rng, contents, gold_pos)
        banned = ()
        info = {"kind": kind, "planted_turn": planted_pos, "entity": entity, "home": home}
    turns = []
    for pos in range(n_turns):
        body = planted if pos == planted_pos else _distractor(rng, kind, banned)
        turns.append(f"{speakers[pos]} : {body}")
    qa = {"question": question, "choice": options, "answer": options[gold_pos]}
    return turns, qa, info


def _place_gold(rng, contents, gold_pos):
    """contents[0] is the gold string; place it at gold_pos, shuffle the rest."""
    rest = contents[1:]
    if len(rest) > 1 and rng.integers(2) == 1:
        rest = rest[::-1]
    out = []
    ri = iter(rest)
    for pos in range(len(contents)):
        out.append(contents[0] if pos == gold_pos else next(ri))
    return out


def gen_synthetic(seed: int, n: int, mode: str, split: str = "train") -> SyntheticBundle:
    """Generate n single-question dialogues plus companion files.

    Deterministic per (seed, n, mode, split); the entity world is shared
    across splits of a seed while asked entities stay disjoint.
    """
    if n <= 0:
        raise ConfigurationError(f"need n >= 1 examples, got {n}")
    if seed < 0:
        raise ConfigurationError(f"seed must be an integer >= 0, got {seed}")
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if split not in _SPLIT_IDS:
        raise ValueError(f"split must be one of {sorted(_SPLIT_IDS)}, got {split!r}")
    homes = _world(seed)
    dialogues = []
    meta_examples = {}
    nli_records = []
    nli_rng = np.random.default_rng([int(seed), 13, _SPLIT_IDS[split], _MODE_IDS[mode]])
    for i in range(n):
        if mode == "mixed":
            kind = "keyturn" if i % 2 == 0 else "knowledge"
        else:
            kind = mode.split("-")[0]
        turns, qa, info = _gen_example(seed, split, mode, i, kind, homes)
        did = f"{mode}-{split}-{i:05d}"
        dialogues.append([turns, [qa], did])
        meta_examples[f"{did}#0"] = info
        if len(nli_records) < 600:
            planted = turns[info["planted_turn"]]
            gold_text = qa["answer"]
            wrong = next(c for c in qa["choice"] if c != gold_text)
            distractor_pool = [t for j, t in enumerate(turns) if j != info["planted_turn"]]
            distractor = distractor_pool[int(nli_rng.integers(len(distractor_pool)))]
            q = qa["question"]
            nli_records.append({"premise": planted, "hypothesis": f"{q} {gold_text}", "label": 1})
            nli_records.append({"premise": planted, "hypothesis": f"{q} {wrong}", "label": 0})
            nli_records.append({"premise": distractor, "hypothesis": f"{q} {gold_text}", "label": 2})
    meta = {"seed": int(seed), "n": int(n), "mode": mode, "split": split, "examples": meta_examples}
    return SyntheticBundle(
        dataset=dataset_from_obj(dialogues, label=f"synthetic:{mode}:{split}"),
        kg_text=_kg_text(homes),
        surfaces_text=_surfaces_text(),
        lexicon_text=_lexicon_text(),
        nli_records=nli_records,
        meta=meta,
    )


BUNDLE_FILES = {
    "data": "data.json",
    "kg": "kg.tsv",
    "surfaces": "relations.tsv",
    "lexicon": "lexicon.tsv",
    "nli": "nli.jsonl",
    "meta": "meta.json",
}


def write_bundle(bundle: SyntheticBundle, out_dir) -> dict:
    """Write all bundle files into a directory; returns name -> path."""
    paths = {k: Path(out_dir) / v for k, v in BUNDLE_FILES.items()}
    texts = {
        "data": json.dumps(bundle.dataset.dialogues, indent=1, sort_keys=True) + "\n",
        "kg": bundle.kg_text,
        "surfaces": bundle.surfaces_text,
        "lexicon": bundle.lexicon_text,
        "nli": "".join(json.dumps(r, sort_keys=True) + "\n" for r in bundle.nli_records),
        "meta": json.dumps(bundle.meta, indent=1, sort_keys=True) + "\n",
    }
    for name, text in texts.items():
        write_output(paths[name], text.encode("utf-8"))
    return paths


def load_nli_corpus(path) -> list:
    records = []
    for lineno, line in enumerate(read_text(path, SchemaError)[1].splitlines(), start=1):
        if not line.strip():
            continue
        rec = parse_json(line, f"{path}:{lineno}")
        if not isinstance(rec, dict):
            raise SchemaError(f"{path}:{lineno}: NLI record must be a JSON object")
        missing = {"premise", "hypothesis", "label"} - set(rec)
        if missing:
            raise SchemaError(f"{path}:{lineno}: NLI record missing {sorted(missing)}")
        if not (isinstance(rec["premise"], str) and isinstance(rec["hypothesis"], str)):
            raise SchemaError(f"{path}:{lineno}: NLI premise and hypothesis must be strings, got {rec!r:.80}")
        if type(rec["label"]) is not int or rec["label"] not in (0, 1, 2):
            raise SchemaError(f"{path}:{lineno}: NLI label must be the integer 0, 1 or 2, got {rec['label']!r}")
        records.append(rec)
    return records
