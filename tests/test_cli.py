"""End-to-end command-line workflow: gen-data, train, eval, retrieve, score-turns, sweep."""

import io
import json
import re
import struct
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import helpers
from kkt.checkpoint import FORMAT_VERSION, CheckpointError, checkpoint_bytes, parse_checkpoint
from kkt import cli, training
from kkt.cli import main
from kkt.tokenizer import Tokenizer


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def run_json(argv):
    rc, out, err = run_cli(argv)
    assert rc == 0, f"command failed: {err}"
    return json.loads(out)


SMALL_CONFIG = {
    "d_model": 8, "h": 2, "layers": 1, "k": 2, "p": 2,
    "epochs": 1, "batch_size": 4, "max_length": 96, "warmup_steps": 4,
    "learning_rate": 1e-3, "key_turn_provider": "auto", "nli_epochs": 3, "seed": 0,
}


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """One generated bundle plus one trained run, shared by the read-only tests."""
    root = tmp_path_factory.mktemp("cli")
    bundle = root / "bundle"
    run_dir = root / "run"
    gen = run_json(["gen-data", "--seed", "9", "--n", "10", "--mode", "mixed", "--out", str(bundle)])
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(SMALL_CONFIG), encoding="utf-8")
    trained = run_json(["train", "--data", str(bundle), "--config", str(cfg_path), "--out", str(run_dir)])
    return {"root": root, "bundle": bundle, "run": run_dir, "gen": gen, "trained": trained, "config": cfg_path}


# ----------------------------------------------------------------- gen-data


def test_gen_data_reports_bundle(ws):
    gen = ws["gen"]
    assert gen["n_examples"] == 10
    assert gen["mode"] == "mixed" and gen["split"] == "train"
    for path in gen["files"].values():
        assert (ws["bundle"] / path.split("/")[-1]).exists()


def test_gen_data_rejects_unknown_mode(tmp_path):
    out = tmp_path / "bundle"
    rc, stdout, err = run_cli(["gen-data", "--seed", "1", "--n", "4", "--mode", "telepathy", "--out", str(out)])
    assert (rc, stdout) == (2, "")
    assert err.startswith("error: kkt gen-data: argument --mode: invalid choice: 'telepathy'")
    assert not out.exists()


def test_help_exits_0_past_the_error_contract(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen-data", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: kkt gen-data")


def test_gen_data_of_no_examples_exits_2(tmp_path):
    rc, _, err = run_cli(["gen-data", "--seed", "1", "--n", "0", "--mode", "mixed", "--out", str(tmp_path)])
    assert rc == 2
    assert err.startswith("error: need n >= 1 examples, got 0")


# -------------------------------------------------------------------- train


def test_gen_data_rejects_a_negative_seed(tmp_path):
    rc, out, err = run_cli(["gen-data", "--seed", "-1", "--n", "2", "--mode", "mixed", "--out", str(tmp_path / "b")])
    assert rc == 2 and out == ""
    assert err == "error: seed must be an integer >= 0, got -1\n"
    assert not (tmp_path / "b").exists()


def test_train_emits_run_summary(ws):
    trained = ws["trained"]
    assert re.fullmatch(r"[0-9a-f]{64}", trained["fingerprint"])
    assert trained["epochs_run"] == 1
    assert trained["best_dev_accuracy"] is None
    assert (ws["run"] / "model.kkt").exists()
    assert (ws["run"] / "vocab.txt").exists()
    assert (ws["run"] / "config.json").exists()


def test_train_rejects_malformed_dataset(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"not": "a dataset"}', encoding="utf-8")
    rc, _, err = run_cli(["train", "--data", str(bad), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("field, value", [("d_model", "8"), ("batch_size", 0)])
def test_train_rejects_a_bad_config_field(ws, tmp_path, field, value):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({**SMALL_CONFIG, field: value}), encoding="utf-8")
    rc, _, err = run_cli(["train", "--data", str(ws["bundle"]), "--config", str(cfg),
                          "--out", str(tmp_path / "out")])
    assert rc == 2
    assert err.startswith(f"error: {field} must be")


def test_train_with_facts_longer_than_max_length_exits_2(ws, tmp_path):
    # Facts are encoded whole; a position table shorter than a retrieved fact
    # is a named input error, not a silently cut fact. The leading provider
    # keeps the bundle's NLI corpus out, whose pairs would overrun first.
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({**SMALL_CONFIG, "max_length": 2, "key_turn_provider": "leading"}), encoding="utf-8")
    rc, _, err = run_cli(["train", "--data", str(ws["bundle"]), "--config", str(cfg),
                          "--out", str(tmp_path / "out")])
    assert rc == 2
    assert re.match(r"error: fact '.+' has \d+ tokens, more than the encoder's 2 positions", err)


def test_train_with_an_nli_record_longer_than_max_length_exits_2(ws, tmp_path):
    # The scorer sees [BOS] premise [SEP] hypothesis [EOS] whole or not at
    # all: a record over the 96 positions is a named input error.
    nli = tmp_path / "nli.jsonl"
    nli.write_text(json.dumps({"premise": " ".join(["hi"] * 90), "hypothesis": "a b c d e", "label": 1}) + "\n",
                   encoding="utf-8")
    rc, _, err = run_cli(["train", "--data", str(ws["bundle"]), "--config", str(ws["config"]),
                          "--nli", str(nli), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert re.match(r"error: NLI pair \('hi hi .+', 'a b c d e'\) has 98 tokens, more than the scorer encoder's "
                    r"96 positions \(max_length\)", err)


@pytest.mark.parametrize("question, message", [
    (" ".join(["why"] * 20), "QA pair of 21 tokens exceeds max_length 12"),
    (" ".join(["why"] * 7), "no room for context at max_length 12"),
], ids=["qa-too-long", "no-room-for-context"])
def test_train_with_a_qa_pair_too_long_for_max_length_exits_2(tmp_path, question, message):
    # The QA side is never cut, so a question that leaves no context row is a named input error.
    data = tmp_path / "data.json"
    data.write_text(json.dumps([[["m : hi there"], [{"question": question, "choice": ["a", "b"], "answer": "a"}],
                                 "d1"]]), encoding="utf-8")
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({**SMALL_CONFIG, "max_length": 12, "key_turn_provider": "leading"}), encoding="utf-8")
    rc, _, err = run_cli(["train", "--data", str(data), "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert err.startswith(f"error: example d1#0: {message}")


def test_train_nli_provider_without_corpus_exits_2(ws, tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({**SMALL_CONFIG, "key_turn_provider": "nli"}), encoding="utf-8")
    rc, _, err = run_cli(["train", "--data", str(ws["bundle"] / "data.json"), "--config", str(cfg),
                          "--out", str(tmp_path / "out")])
    assert rc == 2
    assert err.startswith("error:") and "NLI" in err


@pytest.mark.parametrize("seed", ["abc", "-3"])
def test_train_rejects_a_bad_kkt_seed(ws, tmp_path, monkeypatch, seed):
    monkeypatch.setenv("KKT_SEED", seed)
    rc, _, err = run_cli(["train", "--data", str(ws["bundle"]), "--config", str(ws["config"]),
                          "--out", str(tmp_path / "out")])
    assert rc == 2
    assert err.startswith("error: ") and "KKT_SEED" in err


@pytest.mark.parametrize("meta", [
    {"examples": []},
    {"examples": {"mixed-train-00000#0": 2}},
    {"examples": {"mixed-train-00000#0": {"planted_turn": "2"}}},
    {"examples": {"mixed-train-00000#0": {"planted_turn": True}}},
    {"examples": {"mixed-train-00000#0": {"planted_turn": -1}}},
    {"examples": {"mixed-train-00000#0": {"planted_turn": 1.0}}},
], ids=["list", "not-an-object", "string", "bool", "negative", "float"])
def test_train_rejects_a_malformed_meta(ws, tmp_path, meta):
    path = tmp_path / "meta.json"
    path.write_text(json.dumps(meta), encoding="utf-8")
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({**SMALL_CONFIG, "key_turn_provider": "oracle"}), encoding="utf-8")
    rc, _, err = run_cli(["train", "--data", str(ws["bundle"]), "--config", str(cfg), "--meta", str(path),
                          "--out", str(tmp_path / "out")])
    assert rc == 2
    assert err.startswith(f"error: {path}:")


# --------------------------------------------------------------------- eval


def test_eval_round_trip(ws, tmp_path):
    report_path = tmp_path / "report.json"
    rep = run_json([
        "eval", "--ckpt", str(ws["run"] / "model.kkt"), "--data", str(ws["bundle"]),
        "--out", str(report_path),
    ])
    assert rep["n"] == 10
    assert rep["n_plus"] == sum(p["correct"] for p in rep["predictions"])
    assert 0.0 <= rep["accuracy"] <= 1.0
    assert json.loads(report_path.read_text()) == rep


def test_eval_requires_sidecars(ws, tmp_path):
    stray = tmp_path / "model.kkt"
    stray.write_bytes((ws["run"] / "model.kkt").read_bytes())
    rc, _, err = run_cli(["eval", "--ckpt", str(stray), "--data", str(ws["bundle"])])
    assert rc == 2
    assert "config.json" in err


def _eval_blob(ws, tmp_path, blob):
    patched = tmp_path / "model.kkt"
    patched.write_bytes(blob)
    for name in ("config.json", "vocab.txt"):
        (tmp_path / name).write_bytes((ws["run"] / name).read_bytes())
    return run_cli(["eval", "--ckpt", str(patched), "--data", str(ws["bundle"])])


def _eval_with_format_version(ws, tmp_path, version):
    blob = bytearray((ws["run"] / "model.kkt").read_bytes())
    blob[4:8] = struct.pack("<I", version)
    return _eval_blob(ws, tmp_path, bytes(blob))


def test_eval_rejects_other_format_version(ws, tmp_path):
    rc, _, err = _eval_with_format_version(ws, tmp_path, FORMAT_VERSION + 1)
    assert rc == 2
    assert "version" in err


def test_eval_rejects_a_format_1_checkpoint(ws, tmp_path):
    rc, _, err = _eval_with_format_version(ws, tmp_path, 1)
    assert rc == 2
    assert "format version 1, this reader supports only 4" in err


def test_eval_rejects_a_format_2_checkpoint(ws, tmp_path):
    # The run's weights with one matrix per attention head, as format 2 stored them.
    rc, _, err = _eval_blob(ws, tmp_path, helpers.format_2_blob((ws["run"] / "model.kkt").read_bytes()))
    assert rc == 2
    assert err.startswith("error:") and "format version 2, this reader supports only 4" in err


def test_eval_under_another_head_count_names_the_tensor_and_both_shapes(ws, tmp_path):
    cfg = tmp_path / "h4.json"
    cfg.write_text(json.dumps({**SMALL_CONFIG, "h": 4}), encoding="utf-8")
    rc, _, err = run_cli(["eval", "--ckpt", str(ws["run"] / "model.kkt"), "--data", str(ws["bundle"]),
                          "--config", str(cfg)])
    assert rc == 2
    assert err.startswith("error:")
    assert "tensor enc.block0.attn.wq: checkpoint shape (2, 8, 4) != model shape (4, 8, 2)" in err


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_eval_on_a_corrupt_checkpoint_exits_2(ws, data):
    blob = data.draw(helpers.corrupted((ws["run"] / "model.kkt").read_bytes()))
    try:
        parse_checkpoint(blob)
    except CheckpointError:
        pass
    else:
        assume(False)  # intact enough to parse; not this test's subject
    bad = ws["root"] / "corrupt"
    bad.mkdir(exist_ok=True)
    for name in ("config.json", "vocab.txt"):
        (bad / name).write_bytes((ws["run"] / name).read_bytes())
    (bad / "model.kkt").write_bytes(blob)
    rc, out, err = run_cli(["eval", "--ckpt", str(bad / "model.kkt"), "--data", str(ws["bundle"])])
    assert rc == 2 and out == ""
    assert re.match(r"error: \S+model\.kkt, offset \d+: ", err)


# ----------------------------------------------------------------- retrieve


def test_retrieve_ranks_matching_facts(tmp_path):
    kg = tmp_path / "kg.tsv"
    kg.write_text(
        "atlocation\tbike\tstreet\t2.0\n"
        "atlocation\tbook\tshelf\t3.0\n"
        "relatedto\tbike\twheel\t1.0\n",
        encoding="utf-8",
    )
    out = run_json(["retrieve", "--kg", str(kg), "--text", "where can you find a bike", "--top-p", "2"])
    assert out["store_size"] == 3
    assert len(out["results"]) == 2
    assert out["results"][0]["head"] == "bike"
    assert [r["rank"] for r in out["results"]] == [0, 1]
    assert {"relation", "head", "tail", "weight", "fact", "triple_id"} <= set(out["results"][0])


def test_retrieve_rejects_bad_top_p(tmp_path):
    kg = tmp_path / "kg.tsv"
    kg.write_text("atlocation\tbike\tstreet\t2.0\n", encoding="utf-8")
    rc, _, err = run_cli(["retrieve", "--kg", str(kg), "--text", "bike", "--top-p", "0"])
    assert rc == 2
    assert err.startswith("error: top-p bound must be >= 1, got 0")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_retrieve_rejects_a_threshold_that_is_not_finite(tmp_path, value):
    # NaN compares false with every weight, so it would keep every triple.
    kg = tmp_path / "kg.tsv"
    kg.write_text("atlocation\tbike\tstreet\t2.0\n", encoding="utf-8")
    rc, out, err = run_cli(["retrieve", "--kg", str(kg), "--text", "bike", f"--threshold={value}"])
    assert rc == 2 and out == ""
    assert err == f"error: --threshold must be a finite number, got {value}\n"


def test_retrieve_with_a_vocab_drops_triples_of_words_outside_it(tmp_path):
    kg = tmp_path / "kg.tsv"
    kg.write_text("atlocation\tbike\tstreet\t2.0\natlocation\tbook\tshelf\t3.0\n", encoding="utf-8")
    vocab = tmp_path / "vocab.txt"
    Tokenizer.build(["the bike is on the street", "a book"]).save(vocab)
    argv = ["retrieve", "--kg", str(kg), "--text", "where is the book or the bike"]
    assert run_json(argv)["store_size"] == 2
    out = run_json(argv + ["--vocab", str(vocab)])
    assert out["store_size"] == 1
    assert [(r["head"], r["tail"]) for r in out["results"]] == [("bike", "street")]


def test_retrieve_rejects_malformed_lexicon(tmp_path):
    kg = tmp_path / "kg.tsv"
    kg.write_text("atlocation\tbike\tstreet\t2.0\n", encoding="utf-8")
    lexicon = tmp_path / "lexicon.tsv"
    lexicon.write_text("bike\tNOUN\nstreet NOUN\n", encoding="utf-8")
    rc, _, err = run_cli(["retrieve", "--kg", str(kg), "--text", "bike", "--lexicon", str(lexicon)])
    assert rc == 2
    assert err.startswith("error:") and "lexicon.tsv:2:" in err


def test_retrieve_names_the_line_of_a_bad_lexicon_tag(tmp_path):
    kg = tmp_path / "kg.tsv"
    kg.write_text("atlocation\tbike\tstreet\t2.0\n", encoding="utf-8")
    lexicon = tmp_path / "lexicon.tsv"
    lexicon.write_text("street\tNOUN\nbike\tADVERB\n", encoding="utf-8")
    rc, _, err = run_cli(["retrieve", "--kg", str(kg), "--text", "bike", "--lexicon", str(lexicon)])
    assert rc == 2
    assert err.startswith(f"error: {lexicon}:2: ") and "ADVERB" in err


# -------------------------------------------------------------- score-turns


def test_score_turns_reports_selection(ws):
    out = run_json([
        "score-turns", "--ckpt", str(ws["run"] / "model.kkt"), "--data", str(ws["bundle"]),
        "--example-id", "mixed-train-00000",
    ])
    assert out["example_id"] == "mixed-train-00000#0"
    assert out["k"] == 2
    n_turns = len(out["turns"])
    assert len(out["options"]) == 3
    for option in out["options"]:
        assert len(option["scores"]) == n_turns
        assert all(s <= 0.0 for s in option["scores"])
        selected = option["selected_turns"]
        assert len(selected) == min(2, n_turns)
        assert selected == sorted(selected)
        assert all(0 <= i < n_turns for i in selected)


def test_checkpoint_commands_draw_no_random_number(ws, monkeypatch):
    # `eval` and `score-turns` print the same JSON with every generator refused.
    ckpt = str(ws["run"] / "model.kkt")
    argvs = [["eval", "--ckpt", ckpt, "--data", str(ws["bundle"])],
             ["score-turns", "--ckpt", ckpt, "--data", str(ws["bundle"]), "--example-id", "mixed-train-00000"]]
    expected = [run_cli(argv) for argv in argvs]

    def refuse(*args, **kwargs):
        raise AssertionError("a checkpoint reader drew")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    assert [run_cli(argv) for argv in argvs] == expected
    assert all(rc == 0 for rc, _, _ in expected)


def test_score_turns_unknown_example(ws):
    rc, _, err = run_cli([
        "score-turns", "--ckpt", str(ws["run"] / "model.kkt"), "--data", str(ws["bundle"]),
        "--example-id", "nosuch-99999",
    ])
    assert rc == 2
    assert "nosuch-99999#0" in err


@pytest.mark.parametrize("flag, config_k", [("0", 2), ("-1", 2), (None, 0)], ids=["zero", "negative", "config-zero"])
def test_score_turns_rejects_a_k_below_1(ws, tmp_path, flag, config_k):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({**SMALL_CONFIG, "k": config_k}), encoding="utf-8")
    argv = ["score-turns", "--ckpt", str(ws["run"] / "model.kkt"), "--data", str(ws["bundle"]),
            "--example-id", "mixed-train-00000", "--config", str(cfg)]
    rc, out, err = run_cli(argv + (["--k", flag] if flag else []))
    assert (rc, out) == (2, "")
    assert err.startswith("error: --k must be >= 1")


def test_score_turns_needs_nli_tensors(ws, tmp_path):
    # A model checkpoint without the scorer names the missing NLI tensors.
    trained = parse_checkpoint((ws["run"] / "model.kkt").read_bytes())
    main = {k: v for k, v in trained.tensors.items() if not k.startswith("nli.")}
    assert len(main) < len(trained.tensors)
    bare = tmp_path / "model.kkt"
    bare.write_bytes(checkpoint_bytes(main, trained.ablation))
    for name in ("config.json", "vocab.txt"):
        (tmp_path / name).write_bytes((ws["run"] / name).read_bytes())
    argv = ["score-turns", "--ckpt", str(bare), "--data", str(ws["bundle"]), "--example-id", "mixed-train-00000"]
    rc, _, err = run_cli(argv)
    assert rc == 2
    assert "NLI" in err
    # A blob that is not a model checkpoint at all also exits 2.
    bare.write_bytes(checkpoint_bytes({"enc.tok_emb": np.zeros((4, 2), dtype=np.float32)}, "full"))
    rc, _, err = run_cli(argv)
    assert rc == 2
    assert err.startswith("error:")


# -------------------------------------------------------------------- sweep


def test_sweep_grid_from_file(ws, tmp_path):
    grid_path = tmp_path / "grid.json"
    grid_path.write_text('{"k": [1, 2], "p": [2]}', encoding="utf-8")
    table_path = tmp_path / "table.json"
    out = run_json([
        "sweep", "--grid", f"@{grid_path}", "--data", str(ws["bundle"]),
        "--config", str(ws["config"]), "--out", str(table_path),
    ])
    assert out["grid"] == {"k": [1, 2], "p": [2]}
    assert [(r["k"], r["p"]) for r in out["rows"]] == [(1, 2), (2, 2)]
    for row in out["rows"]:
        assert row["n"] == 10
    assert json.loads(table_path.read_text()) == out


def test_sweep_rejects_bad_grid_json(ws):
    rc, _, err = run_cli(["sweep", "--grid", "{k:", "--data", str(ws["bundle"])])
    assert rc == 2
    assert err.startswith("error:")


# ------------------------------------------------------------ invalid JSON


@pytest.mark.parametrize("kind", ["dataset", "config", "meta", "grid-file", "grid", "nli"])
def test_input_that_is_not_json_names_its_file(ws, tmp_path, kind):
    bad = tmp_path / "bad.json"
    # For the NLI corpus: one good record, then a line that is not JSON.
    bad.write_text(('{"premise": "a", "hypothesis": "b", "label": 0}\n' if kind == "nli" else "") + "[1\n",
                   encoding="utf-8")
    bundle, out = str(ws["bundle"]), str(tmp_path / "out")
    argv = {
        "dataset": ["train", "--data", str(bad), "--out", out],
        "config": ["train", "--data", bundle, "--config", str(bad), "--out", out],
        "meta": ["train", "--data", bundle, "--config", str(ws["config"]), "--meta", str(bad), "--out", out],
        "grid-file": ["sweep", "--grid", f"@{bad}", "--data", bundle],
        "grid": ["sweep", "--grid", "[1", "--data", bundle],
        "nli": ["train", "--data", bundle, "--config", str(ws["config"]), "--nli", str(bad), "--out", out],
    }[kind]
    label = {"grid": "--grid", "nli": f"{bad}:2"}.get(kind, str(bad))
    rc, _, err = run_cli(argv)
    assert rc == 2
    assert err.startswith(f"error: {label}: not valid JSON: ")


def test_nli_record_that_is_not_an_object_names_its_line(ws, tmp_path):
    bad = tmp_path / "nli.jsonl"
    bad.write_text('{"premise": "a", "hypothesis": "b", "label": 0}\n3\n', encoding="utf-8")
    rc, _, err = run_cli(["train", "--data", str(ws["bundle"]), "--config", str(ws["config"]),
                          "--nli", str(bad), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert err.startswith(f"error: {bad}:2: NLI record must be a JSON object")


# ------------------------------------------------- malformed inputs, exit 2

GOOD_QA = {"question": "what ?", "choice": ["a", "b"], "answer": "a"}


@pytest.mark.parametrize("obj", [
    3,
    {},
    [[["m : hi"], {"question": "q"}, "d0"]],
    [[["m : hi"], [3], "d0"]],
    [[["m : hi"], [{**GOOD_QA, "choice": "a b"}], "d0"]],
], ids=["number", "object", "qas-not-a-list", "qa-not-an-object", "choice-not-a-list"])
def test_dataset_of_the_wrong_shape_names_its_file(tmp_path, obj):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj), encoding="utf-8")
    rc, _, err = run_cli(["train", "--data", str(bad), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert err.startswith(f"error: {bad}: ")


@pytest.mark.parametrize("obj", [[], [[["m : hi"], [], "d0"]]], ids=["no-dialogues", "no-questions"])
def test_dataset_without_questions_names_its_file(tmp_path, obj):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj), encoding="utf-8")
    rc, _, err = run_cli(["train", "--data", str(bad), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert err == f"error: {bad}: the dataset holds no questions\n"


def test_question_and_option_of_no_tokens_name_file_dialogue_and_question(tmp_path):
    # Empty question and option text would leave the option no QA rows.
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([[["m : hi there", "w : hello"],
                                [GOOD_QA, {"question": "", "choice": ["", "hello"], "answer": "hello"}], "d1"]]),
                   encoding="utf-8")
    rc, _, err = run_cli(["train", "--data", str(bad), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert err.startswith(f"error: {bad}: d1 question 1: question and choice 0 tokenize to nothing")


def test_dataset_field_of_the_wrong_type_names_file_dialogue_and_question(tmp_path):
    # A number among the turns, as the question or among the choices, turns
    # given as one string, a blank turn, no turns and a single choice each
    # fail as a named input error.
    cases = {
        "turn": ([[["m : hi", 3], [GOOD_QA], "d1"]], "d1: turns"),
        "question": ([[["m : hi"], [{**GOOD_QA, "question": 7}], "d1"]], "d1 question 0: question"),
        "choice": ([[["m : hi"], [{**GOOD_QA, "choice": ["a", 2, "c"]}], "d1"]], "d1 question 0: choice"),
        "turns-string": ([["m : hi", [GOOD_QA], "d1"]], "d1: turns"),
        "blank-turn": ([[["m : hi", "   "], [GOOD_QA], "d1"]], "d1: turns"),
        "no-turns": ([[[], [GOOD_QA], "d1"]], "d1: turns"),
        "one-choice": ([[["m : hi"], [{**GOOD_QA, "choice": ["a"]}], "d1"]], "d1 question 0: choice"),
    }
    for name, (obj, where) in cases.items():
        bad = tmp_path / f"{name}.json"
        bad.write_text(json.dumps(obj), encoding="utf-8")
        rc, _, err = run_cli(["train", "--data", str(bad), "--out", str(tmp_path / "out")])
        assert rc == 2 and err.startswith(f"error: {bad}: {where} must be"), (name, err)


@pytest.mark.parametrize("grid", ['[1]', '{"k": 3}', '{"k": [1], "q": [2]}', '{"p": [1.5]}', '{"k": [true]}', '"k"'])
def test_sweep_grid_that_is_not_integer_lists_names_the_flag(ws, grid):
    rc, _, err = run_cli(["sweep", "--grid", grid, "--data", str(ws["bundle"])])
    assert rc == 2
    assert err.startswith("error: --grid ")


NOT_UTF8 = {
    # input kind -> (file bytes, offset of the first bad byte)
    "json": (b'[1, "\xff"]', 5),
    "nli": (b'{"premise": "a", "hypothesis": "b", "label": 0}\n\xfe', 48),
    "tsv": (b"r\tbike\tstreet\t2\n\xc3(", 16),
    "vocab": (b"[PAD]\n\xff", 6),
}


@pytest.mark.parametrize("kind, content", [
    ("dataset", "json"), ("config", "json"), ("meta", "json"), ("grid-file", "json"), ("nli", "nli"),
    ("kg", "tsv"), ("surfaces", "tsv"), ("lexicon", "tsv"), ("vocab", "vocab"),
])
def test_input_that_is_not_utf8_names_its_file_and_offset(ws, tmp_path, kind, content):
    blob, offset = NOT_UTF8[content]
    bad = tmp_path / "bad.bin"
    bad.write_bytes(blob)
    bundle, cfg, out = str(ws["bundle"]), str(ws["config"]), str(tmp_path / "out")
    train_with = ["train", "--data", bundle, "--config", cfg, "--out", out]
    argv = {
        "dataset": ["train", "--data", str(bad), "--out", out],
        "config": ["train", "--data", bundle, "--config", str(bad), "--out", out],
        "meta": train_with + ["--meta", str(bad)],
        "grid-file": ["sweep", "--grid", f"@{bad}", "--data", bundle],
        "nli": train_with + ["--nli", str(bad)],
        "kg": train_with + ["--kg", str(bad)],
        "surfaces": train_with + ["--relations", str(bad)],
        "lexicon": train_with + ["--lexicon", str(bad)],
        "vocab": ["eval", "--ckpt", str(ws["run"] / "model.kkt"), "--data", bundle, "--vocab", str(bad)],
    }[kind]
    rc, _, err = run_cli(argv)
    assert rc == 2
    assert err.startswith(f"error: {bad}: not UTF-8 text: byte 0x{blob[offset]:02x} at offset {offset} ")


@pytest.mark.parametrize("kind", ["data", "kg", "ckpt"])
def test_missing_input_file_names_its_path(ws, tmp_path, kind):
    missing = tmp_path / "nope"
    run = ws["run"]
    argv = {
        "data": ["train", "--data", str(missing), "--out", str(tmp_path / "out")],
        "kg": ["retrieve", "--kg", str(missing), "--text", "bike"],
        "ckpt": ["eval", "--ckpt", str(missing), "--data", str(ws["bundle"]),
                 "--config", str(run / "config.json"), "--vocab", str(run / "vocab.txt")],
    }[kind]
    rc, _, err = run_cli(argv)
    assert rc == 2
    assert err.startswith(f"error: {missing}: cannot read: ")


@pytest.mark.parametrize("command", ["train", "train-under-it", "gen-data"])
def test_out_that_is_a_file_names_its_path(ws, tmp_path, monkeypatch, command):
    taken = tmp_path / "taken"
    taken.write_text("keep\n", encoding="utf-8")
    # train refuses a path it cannot make a directory at before any work:
    # the bundle's graph is never read and its NLI head never fitted.
    monkeypatch.setattr(training, "read_graph", lambda *args, **kwargs: pytest.fail("graph read"))
    monkeypatch.setattr(training, "train_nli_head", lambda *args, **kwargs: pytest.fail("NLI head fitted"))
    train = ["train", "--data", str(ws["bundle"]), "--config", str(ws["config"]), "--out"]
    under = taken / "run" / "sub"
    argv, pattern = {
        "train": (train + [str(taken)], rf"error: {re.escape(str(taken))}: cannot write: {re.escape(str(taken))} is not a directory$"),
        "train-under-it": (train + [str(under)], rf"error: {re.escape(str(under))}: cannot write: {re.escape(str(taken))} is not a directory$"),
        "gen-data": (["gen-data", "--seed", "1", "--n", "2", "--mode", "mixed", "--out", str(taken)],
                     rf"error: {re.escape(str(taken))}/[\w.]+: cannot write: .*File exists: '{re.escape(str(taken))}'"),
    }[command]
    rc, _, err = run_cli(argv)
    assert rc == 2
    assert re.match(pattern, err.strip())
    assert taken.read_text(encoding="utf-8") == "keep\n"
    assert sorted(tmp_path.iterdir()) == [taken]


def test_train_out_with_a_name_too_long_is_an_input_error(ws, tmp_path, monkeypatch):
    # A lookup that fails for a reason other than a missing path (here
    # ENAMETOOLONG) is refused as an output path error too, before any work.
    monkeypatch.setattr(training, "read_graph", lambda *args, **kwargs: pytest.fail("graph read"))
    out = tmp_path / ("x" * 300) / "run"
    rc, _, err = run_cli(["train", "--data", str(ws["bundle"]), "--config", str(ws["config"]), "--out", str(out)])
    assert rc == 2
    assert err.startswith(f"error: {out}: cannot write: ")
    assert "File name too long" in err
    assert list(tmp_path.iterdir()) == []


def test_eval_out_that_is_a_directory_fails_before_any_example(ws, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "evaluate", lambda *args, **kwargs: pytest.fail("evaluation ran"))
    rc, _, err = run_cli(["eval", "--ckpt", str(ws["run"] / "model.kkt"), "--data", str(ws["bundle"]),
                          "--out", str(tmp_path)])
    assert rc == 2
    assert err.startswith(f"error: {tmp_path}: cannot write: ")
    assert "Is a directory" in err


@pytest.mark.parametrize("out", ["absent", "kept", "nested"])
def test_eval_out_is_left_as_found_when_the_checkpoint_is_refused(ws, tmp_path, out):
    bad = tmp_path / "bad.kkt"
    bad.write_bytes(b"not a checkpoint")
    report = tmp_path / ("sub/rep.json" if out == "nested" else "rep.json")
    if out == "kept":
        report.write_text("keep\n", encoding="utf-8")
    before = sorted(tmp_path.rglob("*"))
    rc, stdout, err = run_cli(["eval", "--ckpt", str(bad), "--data", str(ws["bundle"]), "--out", str(report),
                               "--config", str(ws["run"] / "config.json"), "--vocab", str(ws["run"] / "vocab.txt")])
    assert rc == 2 and stdout == "" and err.startswith(f"error: {bad}")
    assert sorted(tmp_path.rglob("*")) == before
    assert out != "kept" or report.read_text(encoding="utf-8") == "keep\n"


def test_sweep_out_under_a_file_fails_before_any_cell_trains(ws, tmp_path, monkeypatch):
    monkeypatch.setattr(training, "train", lambda *args, **kwargs: pytest.fail("a cell trained"))
    taken = tmp_path / "afile"
    taken.write_text("keep\n", encoding="utf-8")
    out = taken / "table.json"
    rc, stdout, err = run_cli(["sweep", "--grid", '{"k": [1, 2]}', "--data", str(ws["bundle"]),
                               "--config", str(ws["config"]), "--out", str(out)])
    assert rc == 2 and stdout == ""
    assert err.strip() == f"error: {out}: cannot write: {taken} is not a directory"
    assert taken.read_text(encoding="utf-8") == "keep\n"
    assert list(tmp_path.iterdir()) == [taken]


@pytest.mark.parametrize("record, key", [
    ({"premise": 7, "hypothesis": "b", "label": 0}, "premise and hypothesis"),
    ({"premise": "a", "hypothesis": ["b"], "label": 0}, "premise and hypothesis"),
    ({"premise": "a", "hypothesis": "b", "label": True}, "label"),
    ({"premise": "a", "hypothesis": "b", "label": 1.0}, "label"),
    ({"premise": "a", "hypothesis": "b", "label": 3}, "label"),
    ({"premise": "a", "hypothesis": "b", "label": "1"}, "label"),
], ids=["numeric-premise", "list-hypothesis", "bool-label", "float-label", "label-3", "string-label"])
def test_nli_record_field_of_the_wrong_type_names_its_line(ws, tmp_path, record, key):
    bad = tmp_path / "nli.jsonl"
    bad.write_text('{"premise": "a", "hypothesis": "b", "label": 0}\n' + json.dumps(record) + "\n", encoding="utf-8")
    rc, _, err = run_cli(["train", "--data", str(ws["bundle"]), "--config", str(ws["config"]),
                          "--nli", str(bad), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert err.startswith(f"error: {bad}:2: NLI {key} must be ")


def test_eval_on_a_vocabulary_with_a_repeated_token_names_file_and_token(ws, tmp_path):
    vocab = tmp_path / "vocab.txt"
    lines = (ws["run"] / "vocab.txt").read_text(encoding="utf-8").splitlines()
    vocab.write_text("\n".join(lines + [lines[6]]) + "\n", encoding="utf-8")
    rc, _, err = run_cli(["eval", "--ckpt", str(ws["run"] / "model.kkt"), "--data", str(ws["bundle"]),
                          "--vocab", str(vocab)])
    assert rc == 2
    assert err.startswith(f"error: {vocab}:{len(lines) + 1}: token {lines[6]!r} repeats line 7")
