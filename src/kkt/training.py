"""Training loop, evaluation and ablation sweeps.

Accuracy is always the exact ratio of two integer counters, never an
average of per-batch floats. Every run resolves its seed (the KKT_SEED
environment variable, a decimal integer >= 0, overrides the config), and
reports carry a fingerprint hashing the resolved config together with every
input that changes the result (datasets, graph, relation surfaces, lexicon,
NLI corpus, planted turns and, for evaluations, the checkpoint bytes and the
vocabulary), so identical fingerprints imply byte-identical reports. Each
file is read once and hashed from the bytes that were parsed.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import tensor as T
from .attention import ConfigurationError
from .checkpoint import Checkpoint, CheckpointError, assign_named, checkpoint_bytes, parse_checkpoint
from .data import Dataset, dataset_hash
from .keyturns import LeadingProvider, NliHead, NliProvider, OracleProvider, train_nli_head
from .knowledge import GraphInputs, KnowledgeStore, load_kg, read_graph, rewrite_triple
from .model import ABLATIONS, KktParams, KktPipeline
from .optim import Adam
from .tokenizer import Tokenizer, check_output_dir, read_input, write_output

_DTYPES = {"float32": np.float32, "float64": np.float64}
_CHOICES = {"ablation": ABLATIONS, "dtype": tuple(_DTYPES), "key_turn_provider": ("auto", "nli", "leading", "oracle")}
# Least value of every integer field.
_INT_MIN = {"d_model": 1, "h": 1, "layers": 1, "batch_size": 1, "max_length": 1,
            "k": 0, "p": 0, "epochs": 0, "warmup_steps": 0, "nli_epochs": 0, "seed": 0}


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
        """Reject every field of the wrong type or out of range, naming it."""
        for name, choices in _CHOICES.items():
            if getattr(self, name) not in choices:
                raise ConfigurationError(f"{name} must be one of {choices}, got {getattr(self, name)!r}")
        for name, least in _INT_MIN.items():
            value = getattr(self, name)
            # `type(...) is int` also turns bools away.
            if type(value) is not int or value < least:
                raise ConfigurationError(f"{name} must be an integer >= {least}, got {value!r}")
        if self.d_model % self.h:
            raise ConfigurationError(f"h {self.h} must divide d_model {self.d_model}")
        for name in ("learning_rate", "weight_threshold"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
                raise ConfigurationError(f"{name} must be a finite number, got {value!r}")
        if self.learning_rate <= 0:
            raise ConfigurationError(f"learning_rate must be above 0, got {self.learning_rate!r}")

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
        if not isinstance(obj, dict):
            raise ConfigurationError(f"a config must be a JSON object, got {type(obj).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(obj) - known)
        if unknown:
            raise ConfigurationError(f"unknown config fields {unknown}")
        return cls(**obj)


def effective_seed(config: RunConfig) -> int:
    env = os.environ.get("KKT_SEED")
    if env and not (env.isascii() and env.isdigit()):
        raise ConfigurationError(f"KKT_SEED must be a decimal integer >= 0, got {env!r}")
    return int(env) if env else int(config.seed)


def _digest(value) -> str:
    """SHA-256 of a run input: a dataset's dialogues, the bytes a file was parsed
    from, or the canonical JSON of NLI records, planted turns or tokens."""
    if isinstance(value, Dataset):
        return dataset_hash(value)
    if not isinstance(value, (bytes, bytearray)):
        value = json.dumps(value, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(value).hexdigest()


def _input_hashes(**inputs) -> dict:
    return {name: _digest(value) for name, value in inputs.items() if value is not None}


def fingerprint(config: RunConfig, seed: int, data_hashes: dict) -> str:
    payload = {"config": config.to_dict(), "seed": seed, "data": data_hashes}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def build_vocab(dataset: Dataset, triples=None, weight_threshold: float = 0.0, surfaces=None) -> Tokenizer:
    """Vocabulary over the training texts plus the facts of the parsed triples.

    Graph words are included so retrieval-relevant tokens (including ones
    appearing only at evaluation time) have ids; their embeddings stay
    untrained unless the training text uses them.
    """
    facts = [rewrite_triple(t, surfaces) for t in triples or () if t.weight >= weight_threshold]
    return Tokenizer.build(list(dataset.texts()) + facts)


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
    n = len(dataset.examples)
    if n == 0:
        raise ValueError("evaluate: empty dataset")
    n_plus = 0
    loss_total = 0.0
    predictions = []
    with T.no_grad():
        for ex in dataset.examples:
            res = pipeline.predict(ex)
            correct = res.predicted == ex.gold
            n_plus += int(correct)
            loss_total += res.loss.item()
            predictions.append(
                {"example_id": ex.example_id, "predicted": res.predicted, "gold": ex.gold, "correct": correct}
            )
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


def load_store(graph: GraphInputs, threshold: float, vocab: Tokenizer) -> KnowledgeStore | None:
    """The run's knowledge store, or None without a graph."""
    if graph.triples is None:
        return None
    return load_kg(graph.triples, threshold, vocab, graph.surfaces, graph.tagger)


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


def read_checkpoint(blob_or_path) -> tuple[bytes, Checkpoint]:
    """A checkpoint's bytes, read once, and their parse; errors name the file."""
    if isinstance(blob_or_path, (bytes, bytearray)):
        return bytes(blob_or_path), parse_checkpoint(bytes(blob_or_path))
    blob = read_input(blob_or_path, CheckpointError)
    return blob, parse_checkpoint(blob, label=str(blob_or_path))


def restore_checkpoint(ckpt: Checkpoint, config: RunConfig, vocab: Tokenizer,
                       ablation: str | None = None) -> tuple[KktParams, NliHead | None]:
    """Model parameters and, when the checkpoint holds `nli.` tensors, the NLI head.

    The requested ablation must match the checkpoint's tag; `None` adopts
    the tag.
    """
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
        params, _ = restore_checkpoint(parse_checkpoint(blob), config, self.vocab)
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
    out = Path(out_dir) if out_dir is not None else None
    if out is not None:
        check_output_dir(out)
    graph = read_graph(kg_path, surfaces_path, lexicon_path)
    vocab = build_vocab(train_dataset, graph.triples, config.weight_threshold, graph.surfaces)
    store = load_store(graph, config.weight_threshold, vocab)
    init_rng = np.random.default_rng([seed, 1])
    params = KktParams.init(*_dims(config, vocab), config.ablation, init_rng, dtype=config.np_dtype)
    nli_head = nli_report = None
    if nli_corpus and config.key_turn_provider in ("auto", "nli"):
        nli_head = NliHead.init(*_dims(config, vocab), init_rng, dtype=config.np_dtype)
        nli_report = train_nli_head(nli_head, vocab, nli_corpus, epochs=config.nli_epochs, seed=seed + 1)
    provider = key_turn_provider(config, vocab, nli_head, planted)
    pipeline = KktPipeline(params, vocab, store, provider, k=config.k, p=config.p, max_len=config.max_length)
    hashes = _input_hashes(train=train_dataset, dev=dev_dataset, nli=nli_corpus, planted=planted, **graph.raw)
    run_fp = fingerprint(config, seed, hashes)

    # The NLI head trains once up front (if at all) and stays frozen here.
    opt = Adam(params.named_parameters(), lr=config.learning_rate, warmup_steps=config.warmup_steps)
    order_rng = np.random.default_rng([seed, 2])
    if out is not None:
        vocab.save(out / "vocab.txt")
        write_output(out / "config.json", (json.dumps(config.to_dict(), sort_keys=True, indent=1) + "\n").encode("utf-8"))
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
            batch = [examples[int(idx)] for idx in order[start : start + config.batch_size]]
            opt.zero_grad()
            # The step's facts are encoded once, and their gradient goes back
            # once on leaving the scope, before the weights change.
            with pipeline.fact_encoder.step() if pipeline.fact_encoder is not None else contextlib.nullcontext():
                pipeline.prepare_knowledge(batch)
                for ex in batch:
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
            write_output(out / f"epoch_{epoch:03d}.kkt", blob)
        if dev_dataset is None:
            best = {"epoch": epoch, "dev_accuracy": None, "blob": blob}
        elif best["dev_accuracy"] is None or dev_acc > best["dev_accuracy"]:
            best = {"epoch": epoch, "dev_accuracy": dev_acc, "blob": blob}
        if stop_at_train_accuracy is not None and train_acc >= stop_at_train_accuracy:
            break
    if out is not None:
        write_output(out / "model.kkt", best["blob"])
        report = {
            "fingerprint": run_fp,
            "seed": seed,
            "history": history,
            "best_epoch": best["epoch"],
            "best_dev_accuracy": best["dev_accuracy"],
        }
        if nli_report:
            report["nli"] = {k: v for k, v in nli_report.items() if k != "loss_curve"}
        write_output(out / "report.json", (json.dumps(report, sort_keys=True, indent=1) + "\n").encode("utf-8"))
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
    _, ckpt = read_checkpoint(blob_or_path)
    return _restored_pipeline(ckpt, config, vocab, read_graph(kg_path, surfaces_path, lexicon_path), planted, ablation)


def _restored_pipeline(ckpt: Checkpoint, config: RunConfig, vocab: Tokenizer, graph: GraphInputs, planted, ablation):
    params, nli_head = restore_checkpoint(ckpt, config, vocab, ablation)
    provider = key_turn_provider(config, vocab, nli_head, planted)
    return KktPipeline(params, vocab, load_store(graph, config.weight_threshold, vocab), provider,
                       k=config.k, p=config.p, max_len=config.max_length)


def evaluate(blob_or_path, config: RunConfig, vocab: Tokenizer, dataset: Dataset, kg_path=None,
             ablation: str | None = None, surfaces_path=None, lexicon_path=None, planted=None) -> EvalReport:
    """Evaluate a checkpoint (see evaluate_pipeline); each input file is read
    once, and the fingerprint hashes those bytes plus the vocabulary."""
    blob, ckpt = read_checkpoint(blob_or_path)
    graph = read_graph(kg_path, surfaces_path, lexicon_path)
    pipeline = _restored_pipeline(ckpt, config, vocab, graph, planted, ablation)
    hashes = _input_hashes(eval=dataset, planted=planted, checkpoint=blob, vocab=vocab.tokens, **graph.raw)
    return evaluate_pipeline(pipeline, dataset, fingerprint(config, effective_seed(config), hashes))


def ablation_sweep(config: RunConfig, train_dataset: Dataset, eval_dataset: Dataset, kg_path=None,
                   grid: dict | None = None, train_per_cell: bool = False, **train_kwargs) -> list:
    """Accuracy table over a {k: [...], p: [...]} grid.

    Key-turn count and knowledge depth are inference-time knobs, so by
    default one model is trained per config and every cell re-evaluates it;
    `train_per_cell` opts into retraining per cell instead.
    """
    grid = {} if grid is None else grid
    if not isinstance(grid, dict) or set(grid) - {"k", "p"}:
        raise ConfigurationError(f'--grid must be a JSON object with only "k" and "p" keys, got {grid!r}')
    for name, values in grid.items():
        if not isinstance(values, list) or any(type(v) is not int for v in values):
            raise ConfigurationError(f"--grid {name!r} must be a list of integers, got {values!r}")
    ks = grid.get("k", [config.k])
    ps = grid.get("p", [config.p])
    if not ks or not ps:
        raise ConfigurationError("sweep grid must leave at least one k and one p value")
    # Every cell's config is checked before anything trains.
    cells = [RunConfig.from_dict({**config.to_dict(), "k": k, "p": p}) for k in ks for p in ps]
    rows = []
    shared = None if train_per_cell else train(config, train_dataset, kg_path, dev_dataset=None, **train_kwargs)
    for cell_cfg in cells:
        result = train(cell_cfg, train_dataset, kg_path, dev_dataset=None, **train_kwargs) if train_per_cell else shared
        blob = result.best_blob()
        hashes = {**_input_hashes(eval=eval_dataset, checkpoint=blob), "run": result.fingerprint}
        fp = fingerprint(cell_cfg, effective_seed(cell_cfg), hashes)
        report = evaluate_pipeline(result.eval_pipeline(blob, cell_cfg), eval_dataset, fp)
        rows.append({"k": cell_cfg.k, "p": cell_cfg.p, "n": report.n, "n_plus": report.n_plus,
                     "accuracy": report.accuracy, "fingerprint": fp})
    return rows
