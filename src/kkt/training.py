"""Training loop, evaluation and ablation sweeps.

Accuracy is always the exact ratio of two integer counters, never an
average of per-batch floats. Every run resolves its seed (the KKT_SEED
environment variable overrides the config), and reports carry a fingerprint
hashing the resolved config together with every input that changes the
result (datasets, graph, relation surfaces, lexicon, NLI corpus, planted
turns and, for evaluations, the checkpoint bytes), so identical
fingerprints imply byte-identical reports.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import tensor as T
from .checkpoint import assign_named, checkpoint_bytes, parse_checkpoint
from .data import Dataset, dataset_hash
from .keyturns import LeadingProvider, NliHead, NliProvider, OracleProvider, train_nli_head
from .knowledge import KnowledgeStore, PosTagger, iter_kg_triples, load_kg, load_surfaces, rewrite_triple
from .model import ABLATIONS, KktParams, KktPipeline
from .optim import Adam
from .tokenizer import Tokenizer

_DTYPES = {"float32": np.float32, "float64": np.float64}


class ConfigurationError(ValueError):
    """Raised when a run configuration or checkpoint pairing is invalid."""


@dataclass
class RunConfig:
    d_model: int = 64
    h: int = 4
    layers: int = 2
    k: int = 6
    p: int = 5
    weight_threshold: float = 1.0
    learning_rate: float = 1e-3
    batch_size: int = 8
    epochs: int = 20
    warmup_steps: int = 50
    seed: int = 0
    ablation: str = "full"
    max_length: int = 256
    dtype: str = "float32"
    key_turn_provider: str = "auto"
    nli_epochs: int = 30

    def __post_init__(self):
        if self.ablation not in ABLATIONS:
            raise ConfigurationError(f"ablation must be one of {ABLATIONS}, got {self.ablation!r}")
        if self.dtype not in _DTYPES:
            raise ConfigurationError(f"dtype must be one of {sorted(_DTYPES)}, got {self.dtype!r}")
        if self.key_turn_provider not in ("auto", "nli", "leading", "oracle"):
            raise ConfigurationError(f"unknown key-turn provider {self.key_turn_provider!r}")
        if self.k < 0 or self.p < 0:
            raise ConfigurationError("k and p must be non-negative")

    @property
    def d_ff(self) -> int:
        return 4 * self.d_model

    @property
    def np_dtype(self):
        return _DTYPES[self.dtype]

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, obj: dict) -> "RunConfig":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(obj) - known)
        if unknown:
            raise ConfigurationError(f"unknown config fields {unknown}")
        return cls(**obj)

    @classmethod
    def paper_defaults(cls, **overrides) -> "RunConfig":
        """The published fine-tuning hyperparameters, kept for documentation.

        They target a very large pre-trained encoder on a GPU cluster; on
        this desk-scale stand-in they train far too slowly to be useful.
        """
        base = {"learning_rate": 1e-5, "batch_size": 1, "epochs": 3, "warmup_steps": 50}
        base.update(overrides)
        return cls(**base)


def effective_seed(config: RunConfig) -> int:
    env = os.environ.get("KKT_SEED")
    return int(env) if env else int(config.seed)


def _digest(value) -> str:
    """SHA-256 of a run input: a dataset's dialogues, a file's bytes, a
    checkpoint blob, or the canonical JSON of NLI records or planted turns."""
    if isinstance(value, Dataset):
        return dataset_hash(value)
    if isinstance(value, (str, Path)):
        value = Path(value).read_bytes()
    elif not isinstance(value, (bytes, bytearray)):
        value = json.dumps(value, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(value).hexdigest()


def _input_hashes(**inputs) -> dict:
    return {name: _digest(value) for name, value in inputs.items() if value is not None}


def fingerprint(config: RunConfig, seed: int, data_hashes: dict) -> str:
    payload = {"config": config.to_dict(), "seed": seed, "data": data_hashes}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def build_vocab(dataset: Dataset, kg_path=None, weight_threshold: float = 0.0, surfaces=None) -> Tokenizer:
    """Vocabulary over the training texts plus the knowledge graph's facts.

    Graph words are included so retrieval-relevant tokens (including ones
    appearing only at evaluation time) have ids; their embeddings stay
    untrained unless the training text uses them.
    """
    texts = list(dataset.texts())
    if kg_path is not None:
        for triple in iter_kg_triples(kg_path):
            if triple.weight >= weight_threshold:
                texts.append(rewrite_triple(triple, surfaces).text)
    return Tokenizer.build(texts)


@dataclass
class EvalReport:
    n: int
    n_plus: int
    mean_loss: float
    predictions: list
    fingerprint: str
    ablation: str

    @property
    def accuracy(self) -> float:
        return self.n_plus / self.n

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "n_plus": self.n_plus,
            "accuracy": self.accuracy,
            "mean_loss": self.mean_loss,
            "ablation": self.ablation,
            "fingerprint": self.fingerprint,
            "predictions": self.predictions,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=1) + "\n"


def evaluate_pipeline(pipeline: KktPipeline, dataset: Dataset, fingerprint_str: str = "") -> EvalReport:
    """Exact N+/N accuracy of the pipeline over the dataset.

    Predictions run under `T.no_grad()`: they build no autodiff graph, so a
    `PredictResult.loss` from an evaluation cannot be back-propagated.
    """
    n = 0
    n_plus = 0
    loss_total = 0.0
    predictions = []
    with T.no_grad():
        for ex in dataset.examples:
            res = pipeline.predict(ex)
            n += 1
            correct = res.predicted == ex.gold
            n_plus += int(correct)
            loss_total += res.loss.item()
            predictions.append(
                {"example_id": ex.example_id, "predicted": res.predicted, "gold": ex.gold, "correct": correct}
            )
    if n == 0:
        raise ValueError("evaluate: empty dataset")
    return EvalReport(
        n=n,
        n_plus=n_plus,
        mean_loss=loss_total / n,
        predictions=predictions,
        fingerprint=fingerprint_str,
        ablation=pipeline.ablation,
    )


def _dims(config: RunConfig, vocab: Tokenizer) -> tuple:
    """Encoder dimensions shared by the model and the NLI head."""
    return len(vocab), config.d_model, config.h, config.layers, config.d_ff, config.max_length


def load_store(kg_path, threshold: float, vocab: Tokenizer, surfaces: dict, lexicon_path=None) -> KnowledgeStore | None:
    """The run's knowledge store, or None without a graph.

    `surfaces` is the relation surface table (see `load_surfaces`); the POS
    tagger reads the lexicon when one is given.
    """
    if kg_path is None:
        return None
    tagger = PosTagger.load(lexicon_path) if lexicon_path else PosTagger()
    return load_kg(kg_path, threshold, vocab, surfaces, tagger)


def key_turn_provider(config: RunConfig, vocab: Tokenizer, nli_head: NliHead | None, planted=None):
    """`oracle` reads the planted turns, `leading` takes the first k turns,
    `nli` needs a trained NLI head; `auto` uses the head when there is one,
    else leading."""
    if config.key_turn_provider == "oracle":
        return OracleProvider(planted or {})
    if config.key_turn_provider == "nli" and nli_head is None:
        raise ConfigurationError("key-turn provider 'nli' needs a trained NLI scorer: train with an NLI corpus")
    if config.key_turn_provider == "leading" or nli_head is None:
        return LeadingProvider()
    return NliProvider(nli_head, vocab)


def restore_checkpoint(blob_or_path, config: RunConfig, vocab: Tokenizer,
                       ablation: str | None = None) -> tuple[KktParams, NliHead | None]:
    """Model parameters and, when the checkpoint holds `nli.` tensors, the NLI head.

    The requested ablation must match the checkpoint's tag; `None` adopts
    the tag.
    """
    if isinstance(blob_or_path, (bytes, bytearray)):
        ckpt = parse_checkpoint(bytes(blob_or_path))
    else:
        ckpt = parse_checkpoint(Path(blob_or_path).read_bytes(), label=str(blob_or_path))
    if ablation is not None and ablation != ckpt.ablation:
        raise ConfigurationError(
            f"checkpoint carries ablation {ckpt.ablation!r} but {ablation!r} was requested"
        )
    dtype = config.np_dtype
    rng = np.random.default_rng(0)
    params = KktParams.init(*_dims(config, vocab), ckpt.ablation, rng, dtype=dtype)
    nli_arrays = {k: v for k, v in ckpt.tensors.items() if k.startswith("nli.")}
    main_arrays = {k: v for k, v in ckpt.tensors.items() if k not in nli_arrays}
    assign_named(params.named_parameters(), main_arrays, dtype=dtype)
    nli_head = None
    if nli_arrays:
        nli_head = NliHead.init(*_dims(config, vocab), rng, dtype=dtype)
        assign_named(nli_head.named_parameters(), nli_arrays, dtype=dtype)
    return params, nli_head


@dataclass
class TrainResult:
    params: KktParams
    pipeline: KktPipeline
    vocab: Tokenizer
    store: KnowledgeStore | None
    history: list
    best: dict
    final_blob: bytes
    fingerprint: str
    nli_report: dict | None = None

    def best_blob(self) -> bytes:
        return self.best["blob"]

    def eval_pipeline(self, blob: bytes, config: RunConfig) -> KktPipeline:
        """Pipeline over the weights in `blob` that reuses this run's vocab,
        knowledge store and key-turn provider."""
        params, _ = restore_checkpoint(blob, config, self.vocab)
        return KktPipeline(params, self.vocab, self.store, self.pipeline.provider,
                           k=config.k, p=config.p, max_len=config.max_length)


def _all_named(params: KktParams, nli_head: NliHead | None) -> dict:
    named = params.named_parameters()
    if nli_head is not None:
        named.update(nli_head.named_parameters())
    return named


def train(config: RunConfig, train_dataset: Dataset, kg_path=None, dev_dataset: Dataset | None = None,
          out_dir=None, nli_corpus=None, surfaces_path=None, lexicon_path=None, planted=None,
          stop_at_train_accuracy: float | None = None, log=None) -> TrainResult:
    """Minimize per-example cross-entropy over the dataset.

    Emits a checkpoint per epoch when `out_dir` is given and tracks the best
    dev-accuracy epoch (earliest wins ties); without a dev set the final
    epoch is "best". Aborts with diagnostics on a non-finite loss.
    """
    if not train_dataset.examples:
        raise ValueError("train: empty dataset")
    seed = effective_seed(config)
    surfaces = load_surfaces(surfaces_path)
    vocab = build_vocab(train_dataset, kg_path, config.weight_threshold, surfaces)
    store = load_store(kg_path, config.weight_threshold, vocab, surfaces, lexicon_path)
    init_rng = np.random.default_rng([seed, 1])
    params = KktParams.init(*_dims(config, vocab), config.ablation, init_rng, dtype=config.np_dtype)
    nli_head = nli_report = None
    if nli_corpus and config.key_turn_provider in ("auto", "nli"):
        nli_head = NliHead.init(*_dims(config, vocab), init_rng, dtype=config.np_dtype)
        nli_report = train_nli_head(nli_head, vocab, nli_corpus, epochs=config.nli_epochs, seed=seed + 1)
    provider = key_turn_provider(config, vocab, nli_head, planted)
    pipeline = KktPipeline(params, vocab, store, provider, k=config.k, p=config.p, max_len=config.max_length)
    hashes = _input_hashes(train=train_dataset, dev=dev_dataset, kg=kg_path, surfaces=surfaces_path,
                           lexicon=lexicon_path, nli=nli_corpus, planted=planted)
    run_fp = fingerprint(config, seed, hashes)

    # The NLI head trains once up front (if at all) and stays frozen here.
    opt = Adam(params.named_parameters(), lr=config.learning_rate, warmup_steps=config.warmup_steps)
    order_rng = np.random.default_rng([seed, 2])
    out = Path(out_dir) if out_dir is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        vocab.save(out / "vocab.txt")
        (out / "config.json").write_text(json.dumps(config.to_dict(), sort_keys=True, indent=1) + "\n", encoding="utf-8")
    history = []
    blob = checkpoint_bytes(_all_named(params, nli_head), config.ablation)
    best = {"epoch": 0, "dev_accuracy": None, "blob": blob}
    examples = train_dataset.examples
    step = 0
    for epoch in range(1, config.epochs + 1):
        order = order_rng.permutation(len(examples))
        loss_sum = 0.0
        n_correct = 0
        for start in range(0, len(order), config.batch_size):
            batch = order[start : start + config.batch_size]
            opt.zero_grad()
            for idx in batch:
                ex = examples[int(idx)]
                res = pipeline.predict(ex)
                loss = res.loss
                if not math.isfinite(loss.item()):
                    raise RuntimeError(
                        f"non-finite loss at epoch {epoch} step {step} example {ex.example_id}: {loss.item()!r}"
                    )
                T.mul(loss, 1.0 / len(batch)).backward()
                loss_sum += loss.item()
                n_correct += int(res.predicted == ex.gold)
            opt.step()
            pipeline.fact_encoder.invalidate()
            step += 1
        train_acc = n_correct / len(examples)
        record = {"epoch": epoch, "train_loss": loss_sum / len(examples), "train_accuracy": train_acc}
        dev_acc = None
        if dev_dataset is not None:
            dev_report = evaluate_pipeline(pipeline, dev_dataset, run_fp)
            dev_acc = dev_report.accuracy
            record["dev_accuracy"] = dev_acc
        history.append(record)
        if log:
            log(record)
        blob = checkpoint_bytes(_all_named(params, nli_head), config.ablation)
        if out is not None:
            (out / f"epoch_{epoch:03d}.kkt").write_bytes(blob)
        if dev_dataset is None:
            best = {"epoch": epoch, "dev_accuracy": None, "blob": blob}
        elif best["dev_accuracy"] is None or dev_acc > best["dev_accuracy"]:
            best = {"epoch": epoch, "dev_accuracy": dev_acc, "blob": blob}
        if stop_at_train_accuracy is not None and train_acc >= stop_at_train_accuracy:
            break
    if out is not None:
        (out / "model.kkt").write_bytes(best["blob"])
        report = {
            "fingerprint": run_fp,
            "seed": seed,
            "history": history,
            "best_epoch": best["epoch"],
            "best_dev_accuracy": best["dev_accuracy"],
        }
        if nli_report:
            report["nli"] = {k: v for k, v in nli_report.items() if k != "loss_curve"}
        (out / "report.json").write_text(json.dumps(report, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    return TrainResult(
        params=params,
        pipeline=pipeline,
        vocab=vocab,
        store=store,
        history=history,
        best=best,
        final_blob=blob,
        fingerprint=run_fp,
        nli_report=nli_report,
    )


def pipeline_from_checkpoint(blob_or_path, config: RunConfig, vocab: Tokenizer, kg_path=None,
                             surfaces_path=None, lexicon_path=None, planted=None,
                             ablation: str | None = None) -> KktPipeline:
    """Rebuild an inference pipeline from a serialized checkpoint.

    See `restore_checkpoint` for the ablation rule; NLI scorer tensors, when
    present, restore the NLI provider.
    """
    params, nli_head = restore_checkpoint(blob_or_path, config, vocab, ablation)
    store = load_store(kg_path, config.weight_threshold, vocab, load_surfaces(surfaces_path), lexicon_path)
    provider = key_turn_provider(config, vocab, nli_head, planted)
    return KktPipeline(params, vocab, store, provider, k=config.k, p=config.p, max_len=config.max_length)


def evaluate(blob_or_path, config: RunConfig, vocab: Tokenizer, dataset: Dataset, kg_path=None,
             ablation: str | None = None, surfaces_path=None, lexicon_path=None, planted=None) -> EvalReport:
    """Evaluate a checkpoint; see evaluate_pipeline for the report contract."""
    pipeline = pipeline_from_checkpoint(
        blob_or_path, config, vocab, kg_path, surfaces_path, lexicon_path, planted, ablation
    )
    hashes = _input_hashes(eval=dataset, kg=kg_path, surfaces=surfaces_path, lexicon=lexicon_path,
                           planted=planted, checkpoint=blob_or_path)
    return evaluate_pipeline(pipeline, dataset, fingerprint(config, effective_seed(config), hashes))


def ablation_sweep(config: RunConfig, train_dataset: Dataset, eval_dataset: Dataset, kg_path=None,
                   grid: dict | None = None, train_per_cell: bool = False, **train_kwargs) -> list:
    """Accuracy table over a {k: [...], p: [...]} grid.

    Key-turn count and knowledge depth are inference-time knobs, so by
    default one model is trained per config and every cell re-evaluates it;
    `train_per_cell` opts into retraining per cell instead.
    """
    grid = grid or {}
    ks = list(grid.get("k", [config.k]))
    ps = list(grid.get("p", [config.p]))
    if not ks or not ps:
        raise ConfigurationError("sweep grid must leave at least one k and one p value")
    rows = []
    shared = None if train_per_cell else train(config, train_dataset, kg_path, dev_dataset=None, **train_kwargs)
    for k in ks:
        for p in ps:
            cell_cfg = RunConfig.from_dict({**config.to_dict(), "k": int(k), "p": int(p)})
            if train_per_cell:
                result = train(cell_cfg, train_dataset, kg_path, dev_dataset=None, **train_kwargs)
            else:
                result = shared
            blob = result.best_blob()
            hashes = {**_input_hashes(eval=eval_dataset, checkpoint=blob), "run": result.fingerprint}
            fp = fingerprint(cell_cfg, effective_seed(cell_cfg), hashes)
            report = evaluate_pipeline(result.eval_pipeline(blob, cell_cfg), eval_dataset, fp)
            rows.append({"k": int(k), "p": int(p), "n": report.n, "n_plus": report.n_plus,
                         "accuracy": report.accuracy, "fingerprint": fp})
    return rows
