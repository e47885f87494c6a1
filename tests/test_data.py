"""Synthetic generator and dataset ingestion."""

import json

import numpy as np
import pytest

import helpers
from kkt.data import (
    BUNDLE_FILES,
    ASKABLE_LOCATIONS,
    DEV_ENTITIES,
    TRAIN_ENTITIES,
    SchemaError,
    dataset_from_obj,
    gen_synthetic,
    planted_turns_from_meta,
    load_dataset,
    load_nli_corpus,
    write_bundle,
)
from kkt.training import _digest


def bundle_fingerprint(bundle):
    return _digest(
        {
            "dialogues": bundle.dataset.dialogues,
            "kg": bundle.kg_text,
            "nli": bundle.nli_records,
            "meta": bundle.meta,
        }
    )


# ---------------------------------------------------------------------------
# generation

def test_gen_deterministic_per_seed():
    a = gen_synthetic(seed=7, n=10, mode="mixed")
    b = gen_synthetic(seed=7, n=10, mode="mixed")
    assert bundle_fingerprint(a) == bundle_fingerprint(b)


def test_gen_differs_across_seeds():
    a = gen_synthetic(seed=7, n=10, mode="mixed")
    b = gen_synthetic(seed=8, n=10, mode="mixed")
    assert bundle_fingerprint(a) != bundle_fingerprint(b)


def test_gen_validates_arguments():
    with pytest.raises(ValueError):
        gen_synthetic(seed=0, n=0, mode="mixed")
    with pytest.raises(ValueError):
        gen_synthetic(seed=0, n=4, mode="surprise-signal")
    with pytest.raises(ValueError):
        gen_synthetic(seed=0, n=4, mode="mixed", split="holdout")


def test_gen_turn_count_bounds_and_planted_position():
    bundle = gen_synthetic(seed=3, n=60, mode="mixed")
    for ex in bundle.dataset.examples:
        assert 4 <= len(ex.turns) <= 10
        planted = bundle.meta["examples"][ex.example_id]["planted_turn"]
        # The signal never sits on the opening turn, so leading-k=1 misses it.
        assert 1 <= planted < len(ex.turns)


def test_gen_gold_position_balance():
    bundle = gen_synthetic(seed=5, n=3000, mode="mixed")
    counts = np.zeros(3, dtype=int)
    for ex in bundle.dataset.examples:
        counts[ex.gold] += 1
    assert counts.tolist() == [1000, 1000, 1000]


def test_keyturn_rule_reader_scores_100_percent():
    bundle = gen_synthetic(seed=11, n=50, mode="keyturn-signal")
    hits = 0
    for ex in bundle.dataset.examples:
        planted = bundle.meta["examples"][ex.example_id]["planted_turn"]
        hits += helpers.rule_reader(ex, planted_turn=planted) == ex.gold
    assert hits == 50


def test_knowledge_examples_unanswerable_without_kg():
    # The same rule reader, still shown the planted turn but no fact table,
    # can only guess; it must stay near 3-option chance.
    bundle = gen_synthetic(seed=11, n=120, mode="knowledge-signal")
    hits = 0
    for ex in bundle.dataset.examples:
        planted = bundle.meta["examples"][ex.example_id]["planted_turn"]
        hits += helpers.rule_reader(ex, planted_turn=planted) == ex.gold
    assert hits / 120 <= 0.40


def test_knowledge_examples_answerable_with_kg():
    bundle = gen_synthetic(seed=11, n=50, mode="knowledge-signal")
    facts = {
        info["entity"]: info["home"]
        for info in bundle.meta["examples"].values()
        if info["kind"] == "knowledge"
    }
    hits = 0
    for ex in bundle.dataset.examples:
        hits += helpers.rule_reader(ex, kg_facts=facts) == ex.gold
    assert hits == 50


def test_splits_share_world_but_not_entities():
    train = gen_synthetic(seed=9, n=40, mode="knowledge-signal", split="train")
    dev = gen_synthetic(seed=9, n=40, mode="knowledge-signal", split="dev")
    assert train.kg_text == dev.kg_text
    train_entities = {info["entity"] for info in train.meta["examples"].values()}
    dev_entities = {info["entity"] for info in dev.meta["examples"].values()}
    assert train_entities <= set(TRAIN_ENTITIES)
    assert dev_entities <= set(DEV_ENTITIES)
    assert not train_entities & dev_entities


def test_world_assignment_is_location_balanced():
    # Every askable location hosts the same number of entities per pool,
    # so a location-frequency prior carries no information.
    bundle = gen_synthetic(seed=21, n=4, mode="knowledge-signal")
    homes = {}
    for line in bundle.kg_text.splitlines():
        if line.startswith("#") or not line.strip():
            continue
        _, head, tail, _ = line.split("\t")
        homes[head] = tail
    for pool in (TRAIN_ENTITIES, DEV_ENTITIES):
        per_loc = {loc: 0 for loc in ASKABLE_LOCATIONS}
        for e in pool:
            per_loc[homes[e]] += 1
        assert len(set(per_loc.values())) == 1, per_loc


def test_planted_turns_mapping():
    bundle = gen_synthetic(seed=2, n=8, mode="keyturn-signal")
    planted = planted_turns_from_meta(bundle.meta)
    assert set(planted) == {ex.example_id for ex in bundle.dataset.examples}
    for eid, turn in planted.items():
        assert bundle.meta["examples"][eid]["planted_turn"] == turn


def test_planted_turns_skip_entries_without_one():
    meta = {"examples": {"a#0": {"planted_turn": 0}, "b#0": {"kind": "keyturn"}}}
    assert planted_turns_from_meta(meta) == {"a#0": 0}
    assert planted_turns_from_meta({}) == {}


@pytest.mark.parametrize("meta", [
    [],
    {"examples": [1, 2]},
    {"examples": {"a#0": [3]}},
    {"examples": {"a#0": {"planted_turn": "2"}}},
    {"examples": {"a#0": {"planted_turn": True}}},
    {"examples": {"a#0": {"planted_turn": -1}}},
    {"examples": {"a#0": {"planted_turn": 2.0}}},
    {"examples": {"a#0": {"planted_turn": None}}},
])
def test_planted_turns_reject_a_malformed_meta(meta):
    with pytest.raises(SchemaError, match="^meta.json: "):
        planted_turns_from_meta(meta, "meta.json")


def test_nli_records_structure_and_cap():
    bundle = gen_synthetic(seed=2, n=300, mode="mixed")
    assert len(bundle.nli_records) == 600
    labels = {r["label"] for r in bundle.nli_records}
    assert labels == {0, 1, 2}
    for rec in bundle.nli_records[:9]:
        assert rec["premise"].strip() and rec["hypothesis"].strip()


# ---------------------------------------------------------------------------
# bundle files

def test_write_bundle_round_trips(tmp_path):
    bundle = gen_synthetic(seed=4, n=6, mode="mixed")
    paths = write_bundle(bundle, tmp_path)
    assert set(paths) == set(BUNDLE_FILES)
    for path in paths.values():
        assert path.exists()
    data = load_dataset(paths["data"])
    assert len(data) == len(bundle.dataset)
    assert _digest(data) == _digest(bundle.dataset)
    corpus = load_nli_corpus(paths["nli"])
    assert corpus == bundle.nli_records
    meta = json.loads(paths["meta"].read_text(encoding="utf-8"))
    assert meta["seed"] == 4


def test_nli_corpus_skips_blank_lines_and_names_the_line_of_a_record_without_label(tmp_path):
    path = tmp_path / "nli.jsonl"
    record = {"premise": "the bike is here", "hypothesis": "a bike", "label": 1}
    path.write_text(f"{json.dumps(record)}\n\n  \n{json.dumps(record)}\n", encoding="utf-8")
    assert load_nli_corpus(path) == [record, record]
    del record["label"]
    with path.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    with pytest.raises(SchemaError) as err:
        load_nli_corpus(path)
    assert str(err.value) == f"{path}:5: NLI record missing ['label']"


# ---------------------------------------------------------------------------
# dataset schema

def dialogue_json_fixture():
    return [
        [
            ["m : i lost my umbrella .", "w : take mine ."],
            [
                {"question": "what was lost ?", "choice": ["umbrella", "keys", "phone"], "answer": "umbrella"},
                {"question": "who offers help ?", "choice": ["m", "w", "nobody"], "answer": "w"},
            ],
            "fixture-0",
        ]
    ]


def test_one_dialogue_two_questions_two_instances():
    data = dataset_from_obj(dialogue_json_fixture())
    assert len(data) == 2
    assert data.examples[0].dialogue_id == "fixture-0"
    assert data.examples[1].qa_index == 1


def test_gold_string_must_be_among_options():
    bad = dialogue_json_fixture()
    bad[0][1][0]["answer"] = "sunglasses"
    with pytest.raises(SchemaError) as err:
        dataset_from_obj(bad)
    assert "fixture-0" in str(err.value)


def test_missing_fields_rejected():
    bad = dialogue_json_fixture()
    del bad[0][1][0]["choice"]
    with pytest.raises(SchemaError):
        dataset_from_obj(bad)


@pytest.mark.parametrize("second_id", ["fixture-0", "7"])
def test_a_repeated_dialogue_id_names_both_dialogues(second_id):
    # Example ids are `<dialogue id>#<question>`, so a repeated dialogue id
    # would give two examples one id; ids compare as strings (7 and "7").
    first = dialogue_json_fixture()[0]
    obj = [[first[0], first[1], "fixture-0" if second_id == "fixture-0" else 7],
           [["w : hello ."], [{"question": "who ?", "choice": ["m", "w"], "answer": "w"}], "other"],
           [["m : bye ."], [{"question": "who ?", "choice": ["m", "w"], "answer": "m"}], second_id]]
    with pytest.raises(SchemaError) as err:
        dataset_from_obj(obj, "data.json")
    assert str(err.value) == f"data.json: dialogue 2: id {second_id!r} repeats dialogue 0"


def test_load_dataset_file(tmp_path):
    path = tmp_path / "data.json"
    path.write_text(json.dumps(dialogue_json_fixture()), encoding="utf-8")
    data = load_dataset(path)
    assert len(data) == 2
    assert data.texts().count("umbrella") == 1


def test_dataset_hash_tracks_content():
    a = dataset_from_obj(dialogue_json_fixture())
    changed = dialogue_json_fixture()
    changed[0][0][0] = "m : i lost my hat ."
    b = dataset_from_obj(changed)
    assert _digest(a) != _digest(b)
    assert _digest(a) == _digest(dataset_from_obj(dialogue_json_fixture())) == _digest(a.dialogues)


@pytest.mark.parametrize("obj", [3, {}, "text", [[["m : hi"], {"question": "q"}, "d0"]], [[["m : hi"], ["qa"], "d0"]],
                                 [[["m : hi"], [{"question": "q", "choice": "ab", "answer": "a"}], "d0"]]])
def test_dataset_of_the_wrong_shape_is_a_schema_error(obj):
    with pytest.raises(SchemaError, match="^data.json: "):
        dataset_from_obj(obj, "data.json")
