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
from kkt.cli import main


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
    with pytest.raises(SystemExit):
        run_cli(["gen-data", "--seed", "1", "--n", "4", "--mode", "telepathy", "--out", str(tmp_path)])


# -------------------------------------------------------------------- train


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


def test_train_nli_provider_without_corpus_exits_2(ws, tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({**SMALL_CONFIG, "key_turn_provider": "nli"}), encoding="utf-8")
    rc, _, err = run_cli(["train", "--data", str(ws["bundle"] / "data.json"), "--config", str(cfg),
                          "--out", str(tmp_path / "out")])
    assert rc == 2
    assert err.startswith("error:") and "NLI" in err


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


def test_eval_rejects_other_format_version(ws, tmp_path):
    blob = bytearray((ws["run"] / "model.kkt").read_bytes())
    blob[4:8] = struct.pack("<I", FORMAT_VERSION + 1)
    patched = tmp_path / "model.kkt"
    patched.write_bytes(bytes(blob))
    for name in ("config.json", "vocab.txt"):
        (tmp_path / name).write_bytes((ws["run"] / name).read_bytes())
    rc, _, err = run_cli(["eval", "--ckpt", str(patched), "--data", str(ws["bundle"])])
    assert rc == 2
    assert "version" in err


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


def test_eval_ablation_mismatch(ws):
    rc, _, err = run_cli([
        "eval", "--ckpt", str(ws["run"] / "model.kkt"), "--data", str(ws["bundle"]),
        "--ablation", "base",
    ])
    assert rc == 2
    assert "ablation" in err


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
    assert err.startswith("error:")


def test_retrieve_rejects_malformed_lexicon(tmp_path):
    kg = tmp_path / "kg.tsv"
    kg.write_text("atlocation\tbike\tstreet\t2.0\n", encoding="utf-8")
    lexicon = tmp_path / "lexicon.tsv"
    lexicon.write_text("bike\tNOUN\nstreet NOUN\n", encoding="utf-8")
    rc, _, err = run_cli(["retrieve", "--kg", str(kg), "--text", "bike", "--lexicon", str(lexicon)])
    assert rc == 2
    assert err.startswith("error:") and "lexicon.tsv:2:" in err


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


def test_score_turns_unknown_example(ws):
    rc, _, err = run_cli([
        "score-turns", "--ckpt", str(ws["run"] / "model.kkt"), "--data", str(ws["bundle"]),
        "--example-id", "nosuch-99999",
    ])
    assert rc == 2
    assert "nosuch-99999#0" in err


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
