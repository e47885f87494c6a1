"""Every run input file is read once per run: train, evaluate and the CLI.

Reads are counted per file at `Path.read_bytes`, `Path.read_text` and the
builtin `open` (read modes only). `Path.read_*` go through `io.open`, not the
builtin, so no read is counted twice.
"""

import builtins
import collections
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from kkt.cli import main
from kkt.data import gen_synthetic, write_bundle
from kkt.training import RunConfig, evaluate, pipeline_from_checkpoint, train

CONFIG = dict(d_model=8, h=2, layers=1, k=2, p=2, epochs=1, batch_size=4, max_length=96,
              warmup_steps=4, key_turn_provider="leading", seed=0)


def count_reads(monkeypatch) -> collections.Counter:
    """Counter of reads by resolved path, live until the test ends."""
    counts = collections.Counter()

    def counted(read, positional_mode=False):
        def wrapper(path, *args, **kwargs):
            mode = args[0] if args and positional_mode else kwargs.get("mode", "r")
            if not isinstance(path, int) and not set(mode) & set("wax+"):
                counts[Path(path).resolve()] += 1
            return read(path, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(Path, "read_bytes", counted(Path.read_bytes))
    monkeypatch.setattr(Path, "read_text", counted(Path.read_text))
    monkeypatch.setattr(builtins, "open", counted(builtins.open, positional_mode=True))
    return counts


def reads_of(counts, paths) -> dict:
    return {name: counts[Path(path).resolve()] for name, path in paths.items()}


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    root = tmp_path_factory.mktemp("read_once")
    generated = gen_synthetic(seed=4, n=8, mode="mixed")
    paths = write_bundle(generated, root / "bundle")
    cfg = RunConfig(**CONFIG)
    result = train(cfg, generated.dataset, kg_path=paths["kg"], surfaces_path=paths["surfaces"],
                   lexicon_path=paths["lexicon"], out_dir=root / "run")
    return {"dataset": generated.dataset, "paths": paths, "cfg": cfg, "result": result,
            "root": root.resolve(), "run": root / "run"}


def _graph(bundle):
    paths = bundle["paths"]
    return {"kg": paths["kg"], "surfaces": paths["surfaces"], "lexicon": paths["lexicon"]}


def test_train_reads_each_graph_file_once(bundle, monkeypatch):
    counts = count_reads(monkeypatch)
    paths = bundle["paths"]
    train(bundle["cfg"], bundle["dataset"], kg_path=paths["kg"], surfaces_path=paths["surfaces"],
          lexicon_path=paths["lexicon"])
    assert reads_of(counts, _graph(bundle)) == {"kg": 1, "surfaces": 1, "lexicon": 1}


def test_evaluate_reads_each_input_once(bundle, monkeypatch):
    counts = count_reads(monkeypatch)
    paths, ckpt = bundle["paths"], bundle["run"] / "model.kkt"
    evaluate(ckpt, bundle["cfg"], bundle["result"].vocab, bundle["dataset"], kg_path=paths["kg"],
             surfaces_path=paths["surfaces"], lexicon_path=paths["lexicon"])
    inputs = {**_graph(bundle), "checkpoint": ckpt}
    assert reads_of(counts, inputs) == dict.fromkeys(inputs, 1)
    counts.clear()
    pipeline_from_checkpoint(ckpt, bundle["cfg"], bundle["result"].vocab, paths["kg"], paths["surfaces"],
                             paths["lexicon"])
    assert reads_of(counts, inputs) == dict.fromkeys(inputs, 1)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(argv)
    assert rc == 0, err.getvalue()
    return json.loads(out.getvalue())


def test_cli_eval_reads_each_input_once(bundle, monkeypatch):
    counts = count_reads(monkeypatch)
    ckpt = bundle["run"] / "model.kkt"
    run_cli(["eval", "--ckpt", str(ckpt), "--data", str(bundle["paths"]["data"].parent)])
    inputs = {**_graph(bundle), "checkpoint": ckpt}
    assert reads_of(counts, inputs) == dict.fromkeys(inputs, 1)
    # The sidecars and the dataset are read once as well.
    touched = [path for path in counts if bundle["root"] in path.parents]
    assert touched and all(counts[path] == 1 for path in touched)


def test_cli_retrieve_reads_the_graph_once(bundle, monkeypatch):
    counts = count_reads(monkeypatch)
    paths = bundle["paths"]
    out = run_cli(["retrieve", "--kg", str(paths["kg"]), "--relations", str(paths["surfaces"]),
                   "--lexicon", str(paths["lexicon"]), "--text", "where is the bike ?"])
    assert out["store_size"] > 0
    assert reads_of(counts, _graph(bundle)) == {"kg": 1, "surfaces": 1, "lexicon": 1}
