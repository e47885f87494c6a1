"""Command-line interface.

Subcommands: train, eval, retrieve, score-turns, gen-data, sweep. Every
command prints a JSON document on stdout so runs are scriptable; file
outputs land under the given --out. Bad input, any `InputError` or a
command line that argparse refuses, prints `error: ...` on stderr and
exits 2. The KKT_SEED environment variable overrides the config seed for
train/eval/sweep.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

from .data import (BUNDLE_FILES, MODES, SchemaError, gen_synthetic, load_dataset, load_nli_corpus, parse_json,
                   planted_turns_from_meta, read_json, write_bundle)
from .keyturns import NliProvider
from .knowledge import load_kg, rank_triples, read_graph
from .tokenizer import InputError, Tokenizer, check_output_path, write_output
from .training import (
    ConfigurationError,
    RunConfig,
    ablation_sweep,
    evaluate,
    read_checkpoint,
    restore_checkpoint,
    train,
)


def _emit(obj):
    print(json.dumps(obj, indent=2, sort_keys=True))


def _load_config(path) -> RunConfig:
    if path is None:
        return RunConfig()
    return RunConfig.from_dict(read_json(path))


# Bundle entry -> the flag that overrides it, on the subcommands that have one.
_OVERRIDE_FLAGS = {"kg": "kg", "surfaces": "relations", "lexicon": "lexicon", "nli": "nli", "meta": "meta"}


def _bundle_paths(args) -> dict:
    """Resolve --data, a dataset file or a generated bundle dir, into input paths.

    Bundle files that are missing resolve to None; an override flag, where
    the subcommand has it, replaces the bundle's file.
    """
    data = args.data
    if data.is_dir():
        paths = {k: data / v for k, v in BUNDLE_FILES.items()}
        paths = {k: (p if p.exists() else None) for k, p in paths.items()}
    else:
        paths = {**dict.fromkeys(BUNDLE_FILES), "data": data}
    for key, flag in _OVERRIDE_FLAGS.items():
        paths[key] = getattr(args, flag, None) or paths[key]
    return paths


def _run_inputs(paths) -> dict:
    """The graph files and the oracle key turns of resolved bundle paths, as the
    keyword arguments of `train`, `evaluate` and `ablation_sweep`."""
    meta = paths["meta"]
    return {"kg_path": paths["kg"], "surfaces_path": paths["surfaces"], "lexicon_path": paths["lexicon"],
            "planted": None if meta is None else planted_turns_from_meta(read_json(meta), meta)}


def _cmd_train(args):
    paths = _bundle_paths(args)
    config = _load_config(args.config)
    dataset = load_dataset(paths["data"])
    dev = load_dataset(args.dev) if args.dev else None
    nli = load_nli_corpus(paths["nli"]) if paths["nli"] else None
    result = train(config, dataset, dev_dataset=dev, out_dir=args.out, nli_corpus=nli, **_run_inputs(paths))
    _emit(
        {
            "out": str(args.out),
            "checkpoint": str(Path(args.out) / "model.kkt"),
            "fingerprint": result.fingerprint,
            "epochs_run": len(result.history),
            "final_train_accuracy": result.history[-1]["train_accuracy"] if result.history else None,
            "best_epoch": result.best["epoch"],
            "best_dev_accuracy": result.best["dev_accuracy"],
        }
    )


def _sidecar(ckpt: Path, name: str, override):
    if override:
        return Path(override)
    candidate = ckpt.parent / name
    if not candidate.exists():
        raise ConfigurationError(f"cannot find {name} next to {ckpt}; pass it explicitly")
    return candidate


def _cmd_eval(args):
    if args.out:
        check_output_path(args.out, is_file=True)
    ckpt = args.ckpt
    config = _load_config(_sidecar(ckpt, "config.json", args.config))
    vocab = Tokenizer.load(_sidecar(ckpt, "vocab.txt", args.vocab))
    paths = _bundle_paths(args)
    report = evaluate(ckpt, config, vocab, load_dataset(paths["data"]), **_run_inputs(paths))
    if args.out:
        write_output(args.out, report.to_json().encode("utf-8"))
    _emit(report.to_dict())


def _cmd_retrieve(args):
    if not math.isfinite(args.threshold):
        raise ConfigurationError(f"--threshold must be a finite number, got {args.threshold}")
    texts = list(args.text)
    graph = read_graph(args.kg, args.relations, args.lexicon)
    if args.vocab:
        vocab = Tokenizer.load(args.vocab)
    else:
        # Without a model vocabulary, admit every graph word so nothing is dropped.
        vocab = Tokenizer.build([t.fact for t in graph.triples] + texts)
    store = load_kg(graph, args.threshold, vocab)
    ids = rank_triples(store, texts, args.top_p)
    _emit(
        {
            "query": texts,
            "store_size": len(store),
            "results": [
                {**asdict(store.triples[tid]), "rank": rank, "triple_id": tid}
                for rank, tid in enumerate(ids)
            ],
        }
    )


def _cmd_score_turns(args):
    ckpt = args.ckpt
    config = _load_config(_sidecar(ckpt, "config.json", args.config))
    vocab = Tokenizer.load(_sidecar(ckpt, "vocab.txt", args.vocab))
    _, head = restore_checkpoint(read_checkpoint(ckpt)[1], config, vocab)
    if head is None:
        raise ConfigurationError(f"{ckpt} holds no NLI scorer tensors; train with an NLI corpus first")
    paths = _bundle_paths(args)
    dataset = load_dataset(paths["data"])
    wanted = args.example_id if "#" in args.example_id else f"{args.example_id}#0"
    matches = [ex for ex in dataset.examples if ex.example_id == wanted]
    if not matches:
        raise SchemaError(f"no example with id {wanted!r} in {paths['data']}")
    ex = matches[0]
    k = args.k if args.k is not None else config.k
    if k < 1:
        raise ConfigurationError(f"--k must be >= 1 to select key turns, got {k}")
    provider = NliProvider(head, vocab)
    options_out = []
    for j, option in enumerate(ex.options):
        scores = provider.scores(ex, ex.qa_text(j))
        selected = provider.select(ex, ex.qa_text(j), k)
        options_out.append({"option": option, "scores": [round(s, 6) for s in scores], "selected_turns": list(selected)})
    _emit({"example_id": ex.example_id, "turns": ex.turns, "question": ex.question, "k": k, "options": options_out})


def _cmd_gen_data(args):
    bundle = gen_synthetic(args.seed, args.n, args.mode, split=args.split)
    paths = write_bundle(bundle, args.out)
    _emit(
        {
            "out": str(args.out),
            "files": {k: str(v) for k, v in paths.items()},
            "n_dialogues": len(bundle.dataset.dialogues),
            "n_examples": len(bundle.dataset.examples),
            "n_nli_records": len(bundle.nli_records),
            "mode": args.mode,
            "split": args.split,
        }
    )


def _cmd_sweep(args):
    if args.out:
        check_output_path(args.out, is_file=True)
    grid = read_json(args.grid[1:]) if args.grid.startswith("@") else parse_json(args.grid, "--grid")
    config = _load_config(args.config)
    paths = _bundle_paths(args)
    dataset = load_dataset(paths["data"])
    eval_dataset = load_dataset(args.dev) if args.dev else dataset
    nli = load_nli_corpus(paths["nli"]) if paths["nli"] else None
    rows = ablation_sweep(config, dataset, eval_dataset, grid=grid, train_per_cell=args.train_per_cell,
                          nli_corpus=nli, **_run_inputs(paths))
    table = {"grid": grid, "ablation": config.ablation, "rows": rows}
    if args.out:
        write_output(args.out, (json.dumps(table, indent=1, sort_keys=True) + "\n").encode("utf-8"))
    _emit(table)


class _Parser(argparse.ArgumentParser):
    """Raises `ConfigurationError` for argparse's own refusals, so they exit 2 with `error: ...`."""

    def error(self, message):
        raise ConfigurationError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="kkt", description="Dialogue multi-choice MRC with knowledge and key turns")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model and write checkpoints")
    p.add_argument("--data", type=Path, required=True, help="dataset JSON or generated bundle directory")
    p.add_argument("--dev", type=Path, help="dev dataset JSON for best-checkpoint selection")
    p.add_argument("--kg", type=Path, help="knowledge graph TSV")
    p.add_argument("--config", type=Path, help="RunConfig JSON")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--nli", type=Path, help="NLI corpus JSONL for the turn scorer")
    p.add_argument("--lexicon", type=Path, help="POS lexicon TSV")
    p.add_argument("--relations", type=Path, help="relation surface TSV")
    p.add_argument("--meta", type=Path, help="generator metadata JSON (oracle key turns)")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--ckpt", type=Path, required=True)
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--kg", type=Path)
    p.add_argument("--config", type=Path, help="override the config.json next to the checkpoint")
    p.add_argument("--vocab", type=Path, help="override the vocab.txt next to the checkpoint")
    p.add_argument("--meta", type=Path)
    p.add_argument("--out", type=Path, help="write the full report JSON here")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("retrieve", help="rank knowledge items for a query text")
    p.add_argument("--kg", type=Path, required=True)
    p.add_argument("--text", action="append", required=True, help="query text; repeatable")
    p.add_argument("--top-p", type=int, default=RunConfig.p)
    p.add_argument("--threshold", type=float, default=RunConfig.weight_threshold, help="weight threshold")
    p.add_argument("--lexicon", type=Path)
    p.add_argument("--relations", type=Path)
    p.add_argument("--vocab", type=Path)
    p.set_defaults(func=_cmd_retrieve)

    p = sub.add_parser("score-turns", help="entailment scores of every turn for one example")
    p.add_argument("--ckpt", type=Path, required=True)
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--example-id", required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--config", type=Path)
    p.add_argument("--vocab", type=Path)
    p.set_defaults(func=_cmd_score_turns)

    p = sub.add_parser("gen-data", help="generate a synthetic bundle with planted signals")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", choices=MODES, required=True)
    p.add_argument("--split", choices=("train", "dev", "test"), default="train")
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("sweep", help="accuracy table over a k/p grid")
    p.add_argument("--grid", required=True, help='JSON like {"k":[2,6],"p":[3]} or @file')
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--dev", type=Path, help="evaluate cells on this set instead of --data")
    p.add_argument("--kg", type=Path)
    p.add_argument("--config", type=Path)
    p.add_argument("--out", type=Path)
    p.add_argument("--train-per-cell", action="store_true")
    p.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        args.func(args)
    except InputError as exc:  # bad input; any other exception is a kkt defect and keeps its traceback
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
