"""Command-line interface.

Subcommands: train, eval, retrieve, score-turns, gen-data, sweep. Every
command prints a JSON document on stdout so runs are scriptable; file
outputs land under the given --out. The KKT_SEED environment variable
overrides the config seed for train/eval/sweep.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .checkpoint import CheckpointError
from .data import BUNDLE_FILES, MODES, SchemaError, gen_synthetic, load_dataset, load_nli_corpus, write_bundle
from .keyturns import RelevanceScore, score_turn, select_key_turns
from .knowledge import KgFormatError, iter_kg_triples, load_surfaces, rank_triples, rewrite_triple
from .model import ABLATIONS
from .tokenizer import Tokenizer
from .training import (
    ConfigurationError,
    RunConfig,
    ablation_sweep,
    evaluate,
    load_store,
    restore_checkpoint,
    train,
)


def _emit(obj):
    print(json.dumps(obj, indent=2, sort_keys=True))


def _load_config(path) -> RunConfig:
    if path is None:
        return RunConfig()
    with open(path, encoding="utf-8") as fh:
        return RunConfig.from_dict(json.load(fh))


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


def _planted_from_meta(meta_path):
    if meta_path is None:
        return None
    with open(meta_path, encoding="utf-8") as fh:
        meta = json.load(fh)
    return {eid: info["planted_turn"] for eid, info in meta.get("examples", {}).items() if "planted_turn" in info}


def _cmd_train(args):
    paths = _bundle_paths(args)
    config = _load_config(args.config)
    dataset = load_dataset(paths["data"])
    dev = load_dataset(args.dev) if args.dev else None
    result = train(
        config,
        dataset,
        kg_path=paths["kg"],
        dev_dataset=dev,
        out_dir=args.out,
        nli_corpus=load_nli_corpus(paths["nli"]) if paths["nli"] else None,
        surfaces_path=paths["surfaces"],
        lexicon_path=paths["lexicon"],
        planted=_planted_from_meta(paths["meta"]),
    )
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
    ckpt = args.ckpt
    config = _load_config(_sidecar(ckpt, "config.json", args.config))
    vocab = Tokenizer.load(_sidecar(ckpt, "vocab.txt", args.vocab))
    paths = _bundle_paths(args)
    dataset = load_dataset(paths["data"])
    report = evaluate(
        ckpt,
        config,
        vocab,
        dataset,
        kg_path=paths["kg"],
        ablation=args.ablation,
        surfaces_path=paths["surfaces"],
        lexicon_path=paths["lexicon"],
        planted=_planted_from_meta(paths["meta"]),
    )
    if args.out:
        Path(args.out).write_text(report.to_json(), encoding="utf-8")
    _emit(report.to_dict())


def _cmd_retrieve(args):
    texts = list(args.text)
    surfaces = load_surfaces(args.relations)
    if args.vocab:
        vocab = Tokenizer.load(args.vocab)
    else:
        # Without a model vocabulary, admit every graph word so nothing is dropped.
        vocab = Tokenizer.build(
            [rewrite_triple(t, surfaces).text for t in iter_kg_triples(args.kg)] + texts
        )
    store = load_store(args.kg, args.threshold, vocab, surfaces, args.lexicon)
    ids = rank_triples(store, texts, args.top_p)
    _emit(
        {
            "query": texts,
            "store_size": len(store),
            "results": [
                {
                    "rank": rank,
                    "triple_id": tid,
                    "relation": store.triples[tid].relation,
                    "head": store.triples[tid].head,
                    "tail": store.triples[tid].tail,
                    "weight": store.triples[tid].weight,
                    "fact": store.facts[tid].text,
                }
                for rank, tid in enumerate(ids)
            ],
        }
    )


def _cmd_score_turns(args):
    ckpt = args.ckpt
    config = _load_config(_sidecar(ckpt, "config.json", args.config))
    vocab = Tokenizer.load(_sidecar(ckpt, "vocab.txt", args.vocab))
    _, head = restore_checkpoint(ckpt, config, vocab)
    if head is None:
        raise ConfigurationError(f"{ckpt} holds no NLI scorer tensors; train with an NLI corpus first")
    paths = _bundle_paths(args)
    dataset = load_dataset(paths["data"])
    wanted = args.example_id if "#" in args.example_id else f"{args.example_id}#0"
    matches = [ex for ex in dataset.examples if ex.example_id == wanted]
    if not matches:
        raise SchemaError(f"no example with id {wanted!r} in {paths['data']}")
    ex = matches[0]
    k = args.k or config.k
    options_out = []
    for j, option in enumerate(ex.options):
        qa = ex.qa_text(j)
        scores = [
            RelevanceScore(i, ex.qa_index, score_turn(head, vocab, turn, qa))
            for i, turn in enumerate(ex.turns)
        ]
        selected = select_key_turns(scores, k).turn_indices
        options_out.append(
            {
                "option": option,
                "scores": [round(s.score, 6) for s in scores],
                "selected_turns": list(selected),
            }
        )
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
    grid_text = args.grid
    if grid_text.startswith("@"):
        grid_text = Path(grid_text[1:]).read_text(encoding="utf-8")
    grid = json.loads(grid_text)
    config = _load_config(args.config)
    paths = _bundle_paths(args)
    dataset = load_dataset(paths["data"])
    eval_dataset = load_dataset(args.dev) if args.dev else dataset
    rows = ablation_sweep(
        config,
        dataset,
        eval_dataset,
        kg_path=paths["kg"],
        grid=grid,
        train_per_cell=args.train_per_cell,
        nli_corpus=load_nli_corpus(paths["nli"]) if paths["nli"] else None,
        surfaces_path=paths["surfaces"],
        lexicon_path=paths["lexicon"],
        planted=_planted_from_meta(paths["meta"]),
    )
    table = {"grid": grid, "ablation": config.ablation, "rows": rows}
    if args.out:
        Path(args.out).write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    _emit(table)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kkt", description="Dialogue multi-choice MRC with knowledge and key turns")
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
    p.add_argument("--ablation", choices=ABLATIONS)
    p.add_argument("--config", type=Path, help="override the config.json next to the checkpoint")
    p.add_argument("--vocab", type=Path, help="override the vocab.txt next to the checkpoint")
    p.add_argument("--meta", type=Path)
    p.add_argument("--out", type=Path, help="write the full report JSON here")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("retrieve", help="rank knowledge items for a query text")
    p.add_argument("--kg", type=Path, required=True)
    p.add_argument("--text", action="append", required=True, help="query text; repeatable")
    p.add_argument("--top-p", type=int, default=5)
    p.add_argument("--threshold", type=float, default=1.0, help="weight threshold")
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
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except (ConfigurationError, SchemaError, KgFormatError, CheckpointError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
