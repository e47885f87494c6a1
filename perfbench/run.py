"""kkt benchmark: three named workloads driven through the public kkt API.

    python3 perfbench/run.py --workload train-knowledge --seed 1 --seconds 30 --trace 0

The seed makes the inputs (synthetic bundles and model initialisation);
the program receives only those inputs. With `--trace 0` the workload's
unit of work (one public `train` or `evaluate_pipeline` call) repeats for
`--seconds` and the end-to-end metrics are printed, scaled by a speed
probe (`probe.py`) to the reference machine's speed; with `--trace 1` one
unit runs with every layer traced, between two untraced units, and the
per-layer metrics are printed. Either way the outputs are checked: every
unit must agree with the first, and two fixed float64 evals (the knowledge
cell, and the default two-layer model with the NLI provider) and a float32
training run must reproduce `reference.json`.

The last stdout line is the result object; the line before it is the run
record (environment, workload properties, sample counts, checks). Exit code
1 means an output check failed, 2 that the run could not start.
"""

from __future__ import annotations

import os

# The machine's cores are shared; one BLAS thread per process avoids
# oversubscription. This must happen before numpy is imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import hashlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

sys.dont_write_bytecode = True

from spans import SpanStats, Tracer, example_times, hit_ratio, inside, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"

# Set-ups timed before each unit. The machine's speed drifts within a run,
# so set-ups spread over the run give a steadier median than a burst.
SETUPS_PER_UNIT = 3
# The speed probe's median time on the reference machine. Timings are
# scaled by PROBE_REF_S over the probe times around them (see probe.py).
PROBE_REF_S = 0.18
# p95 needs at least 10 samples beyond it.
MIN_SAMPLES = 200
# Stop starting units after this long even if MIN_SAMPLES is not reached.
MAX_MEASURE_S = 120.0

# The criterion-6 training cell of the acceptance suite.
KNOWLEDGE_ARCH = dict(
    d_model=24, h=2, layers=1, k=2, p=2, batch_size=8, max_length=80,
    key_turn_provider="leading", warmup_steps=20, learning_rate=2e-3, ablation="full",
)


class NotACheckout(RuntimeError):
    """The benchmark runs only from the root of a full kkt checkout."""


def import_kkt():
    """Import kkt from this checkout's src/, refusing any other copy."""
    src = ROOT / "src"
    if not (src / "kkt" / "__init__.py").is_file():
        raise NotACheckout(f"no kkt sources at {src}")
    sys.path.insert(0, str(src))
    import kkt

    if Path(kkt.__file__).resolve().parent != (src / "kkt").resolve():
        raise NotACheckout(f"imported kkt from {kkt.__file__}, not from {src}")
    return kkt


# ------------------------------------------------------------------ workloads


@dataclass
class UnitOutput:
    examples: int  # as the program reports them
    planned: int  # as the workload asked for
    check: dict


class Workload:
    name = ""

    def __init__(self, kkt):
        self.kkt = kkt

    def bundle(self, seed, n, mode, split, out_dir):
        b = self.kkt.data.gen_synthetic(seed=seed, n=n, mode=mode, split=split)
        return b, self.kkt.data.write_bundle(b, out_dir)

    def kg_args(self, paths):
        return dict(kg_path=paths["kg"], surfaces_path=paths["surfaces"], lexicon_path=paths["lexicon"])


class TrainKnowledge(Workload):
    """One unit is one whole epoch of `train` on the criterion-6 cell."""

    name = "train-knowledge"
    n_train = 240

    def setup(self, seed, work):
        tr, paths = self.bundle(seed, self.n_train, "knowledge-signal", "train", work)
        cfg = self.kkt.RunConfig(**KNOWLEDGE_ARCH, epochs=1, seed=seed)
        return {"cfg": cfg, "dataset": tr.dataset, "paths": paths}

    def unit(self, st):
        res = self.kkt.training.train(st["cfg"], st["dataset"], **self.kg_args(st["paths"]))
        curve = [h["train_loss"] for h in res.history]
        n = len(st["dataset"].examples)
        return UnitOutput(n * len(res.history), n * st["cfg"].epochs, {"train_loss": curve})


class EvalKnowledge(Workload):
    """One unit evaluates 510 dev examples on a fresh pipeline (cold caches)."""

    name = "eval-knowledge"
    n_train = 240
    n_dev = 510

    def setup(self, seed, work):
        tr, paths = self.bundle(seed, self.n_train, "knowledge-signal", "train", work)
        dev = self.kkt.data.gen_synthetic(seed=seed, n=self.n_dev, mode="knowledge-signal", split="dev")
        cfg = self.kkt.RunConfig(**KNOWLEDGE_ARCH, epochs=0, seed=seed)
        init = self.kkt.training.train(cfg, tr.dataset, **self.kg_args(paths))
        ckpt = Path(work) / "model.kkt"
        ckpt.write_bytes(init.final_blob)
        base = self.kkt.training.pipeline_from_checkpoint(
            ckpt, cfg, init.vocab, paths["kg"], paths["surfaces"], paths["lexicon"]
        )
        return {"base": base, "dataset": dev.dataset}

    def unit(self, st):
        b = st["base"]
        pipe = self.kkt.model.KktPipeline(b.params, b.tokenizer, b.store, b.provider, k=b.k, p=b.p, max_len=b.max_len)
        rep = self.kkt.training.evaluate_pipeline(pipe, st["dataset"])
        check = {"mean_loss": rep.mean_loss, "predictions": rep.predictions}
        return UnitOutput(rep.n, len(st["dataset"].examples), check)


class NliKeyturn(Workload):
    """One unit is `train` with the NLI provider: head fit, then two epochs.

    The first epoch NLI-scores every turn of every option; the second is
    served from the provider's selection cache.
    """

    name = "nli-keyturn"
    n_train = 48
    epochs = 2
    nli_epochs = 2

    def setup(self, seed, work):
        mx, paths = self.bundle(seed, self.n_train, "mixed", "train", work)
        corpus = self.kkt.data.load_nli_corpus(paths["nli"])
        cfg = self.kkt.RunConfig(key_turn_provider="nli", epochs=self.epochs, nli_epochs=self.nli_epochs, seed=seed)
        return {"cfg": cfg, "dataset": mx.dataset, "paths": paths, "corpus": corpus}

    def unit(self, st):
        res = self.kkt.training.train(st["cfg"], st["dataset"], nli_corpus=st["corpus"], **self.kg_args(st["paths"]))
        check = {
            "train_loss": [h["train_loss"] for h in res.history],
            "nli_loss": res.nli_report["loss_curve"],
            "nli_n_ok": res.nli_report["n"] == len(st["corpus"]),
        }
        n = len(st["dataset"].examples)
        return UnitOutput(n * len(res.history), n * st["cfg"].epochs, check)


WORKLOADS = {w.name: w for w in (TrainKnowledge, EvalKnowledge, NliKeyturn)}


# ------------------------------------------------------------------- tracing


class Observer:
    """What the run learns from each `predict` call, traced or not."""

    def __init__(self):
        self.examples = 0
        self.options = 0
        self.truncated = 0
        self.identity = {"kt_identity": 0, "ck_identity": 0, "qak_identity": 0}
        self.graph_nodes = 0
        self.checkpoint_bytes = 0

    def predicted(self, result):
        self.examples += 1
        self.options += len(result.flags)
        self.truncated += int(result.truncated)
        for flags in result.flags:
            for key in self.identity:
                self.identity[key] += int(flags[key])


def graph_size(root) -> int:
    """Nodes reachable from `root` through the autodiff graph."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def install(tracer: Tracer, obs: Observer, kkt, full: bool):
    """Wrap `predict` and `backward` always, and every layer when `full`."""

    def after_predict(args, result):
        obs.predicted(result)
        if full:
            index = tracer.open("bench.graph_walk")
            obs.graph_nodes += graph_size(result.loss)
            tracer.close(index)

    tracer.wrap(kkt.model.KktPipeline, "predict", "model.predict",
                example_of=lambda args: args[1].example_id, after=after_predict)
    tracer.wrap(kkt.tensor.Tensor, "backward", "tensor.backward")
    if not full:
        return

    def after_write(args, blob):
        obs.checkpoint_bytes += len(blob)

    for owner, attr, name in (
        (kkt.model, "encode_pair", "model.encode_pair"),
        (kkt.model, "refine", "model.refine"),
        (kkt.model, "dual_coattention", "model.dual_coattention"),
        (kkt.model, "encode", "attention.encode"),
        (kkt.knowledge, "encode", "attention.encode"),
        (kkt.keyturns, "encode", "attention.encode"),
        (kkt.model, "mha", "attention.mha"),
        (kkt.attention, "mha", "attention.mha"),
        (kkt.model, "rank_triples", "knowledge.rank_triples"),
        (kkt.knowledge.FactEncoder, "encode_fact", "knowledge.encode_fact"),
        (kkt.training, "load_kg", "knowledge.load_kg"),
        (kkt.keyturns, "score_turn", "keyturns.score_turn"),
        (kkt.keyturns.NliProvider, "select", "keyturns.select"),
        (kkt.training, "train_nli_head", "keyturns.train_nli_head"),
        (kkt.optim.Adam, "step", "optim.step"),
        (kkt.training, "parse_checkpoint", "checkpoint.parse"),
        (kkt.tokenizer.Tokenizer, "encode", "tokenizer.encode"),
        (kkt.data, "gen_synthetic", "data.gen_synthetic"),
    ):
        tracer.wrap(owner, attr, name)
    tracer.wrap(kkt.training, "checkpoint_bytes", "checkpoint.write", after=after_write)


def layer_metrics(tracer: Tracer, obs: Observer, nli_records: int, overhead_s: float, untraced_s: float) -> dict:
    """Per-layer figures from one traced set-up plus one traced unit.

    `_per_ex` figures leave out the NLI-head fit, which is reported whole
    by `keyturns.train_nli_head.s`; counts and totals cover everything.
    """
    spans = tracer.spans
    main = [not f for f in inside(spans, "keyturns.train_nli_head")]
    per = summarize(spans, keep=main)
    every = summarize(spans)
    n = max(obs.examples, 1)

    def stat(table, name):
        return table.get(name, SpanStats())

    def calls_per_ex(name):
        return stat(per, name).calls / n

    def self_ms_per_ex(name):
        return 1000.0 * stat(per, name).self_s / n

    def ms_per_call(name):
        s = stat(every, name)
        return 1000.0 * s.total_s / s.calls if s.calls else 0.0

    fit_s = stat(every, "keyturns.train_nli_head").total_s
    return {
        "tensor.backward.calls_per_ex": calls_per_ex("tensor.backward"),
        "tensor.backward.self_ms_per_ex": self_ms_per_ex("tensor.backward"),
        "tensor.graph_nodes_per_ex": obs.graph_nodes / n,
        "attention.encode.calls_per_ex": calls_per_ex("attention.encode"),
        "attention.encode.self_ms_per_ex": self_ms_per_ex("attention.encode"),
        "attention.mha.calls_per_ex": calls_per_ex("attention.mha"),
        "attention.mha.self_ms_per_ex": self_ms_per_ex("attention.mha"),
        "knowledge.rank_triples.self_ms_per_ex": self_ms_per_ex("knowledge.rank_triples"),
        "knowledge.encode_fact.calls_per_ex": calls_per_ex("knowledge.encode_fact"),
        "knowledge.encode_fact.self_ms_per_ex": self_ms_per_ex("knowledge.encode_fact"),
        "knowledge.encode_fact.hit_ratio": hit_ratio(spans, "knowledge.encode_fact", "attention.encode", keep=main),
        "keyturns.score_turn.calls_per_ex": calls_per_ex("keyturns.score_turn"),
        "keyturns.score_turn.self_ms_per_ex": self_ms_per_ex("keyturns.score_turn"),
        "keyturns.select.calls_per_ex": calls_per_ex("keyturns.select"),
        "keyturns.select.hit_ratio": hit_ratio(spans, "keyturns.select", "keyturns.score_turn", keep=main),
        "keyturns.train_nli_head.s": fit_s,
        "keyturns.nli_fit_records_per_s": nli_records / fit_s if fit_s else 0.0,
        "model.encode_pair.self_ms_per_ex": self_ms_per_ex("model.encode_pair"),
        "model.refine.self_ms_per_ex": self_ms_per_ex("model.refine"),
        "model.dual_coattention.self_ms_per_ex": self_ms_per_ex("model.dual_coattention"),
        "model.predict.self_ms_per_ex": self_ms_per_ex("model.predict"),
        "optim.step.calls": float(stat(every, "optim.step").calls),
        "optim.step.ms_per_call": ms_per_call("optim.step"),
        "checkpoint.write.calls": float(stat(every, "checkpoint.write").calls),
        "checkpoint.write.ms_per_call": ms_per_call("checkpoint.write"),
        "checkpoint.write.bytes": float(obs.checkpoint_bytes),
        "checkpoint.parse.ms": 1000.0 * stat(every, "checkpoint.parse").total_s,
        "tokenizer.encode.self_ms_per_ex": self_ms_per_ex("tokenizer.encode"),
        "data.gen_synthetic.s": stat(every, "data.gen_synthetic").total_s,
        "knowledge.load_kg.s": stat(every, "knowledge.load_kg").total_s,
        "trace.overhead_s": overhead_s,
        "trace.overhead_share": overhead_s / untraced_s,
    }


def property_metrics(obs: Observer) -> dict:
    """Shares of options whose refinement fell back to identity, and of truncated examples."""
    n = max(obs.examples, 1)
    options = max(obs.options, 1)
    return {
        "model.kt_identity_share": obs.identity["kt_identity"] / options,
        "model.ck_identity_share": obs.identity["ck_identity"] / options,
        "model.qak_identity_share": obs.identity["qak_identity"] / options,
        "model.truncated_share": obs.truncated / n,
    }


def dataset_properties(kkt, dataset) -> dict:
    """Mean turns and tokens per example, the input sizes work scales with."""
    tok = kkt.tokenizer.tokenize
    turns = tokens = 0
    for ex in dataset.examples:
        turns += len(ex.turns)
        tokens += sum(len(tok(t)) for t in ex.turns) + len(tok(ex.question)) + sum(len(tok(o)) for o in ex.options)
    n = len(dataset.examples)
    return {"data.turns_per_ex": turns / n, "data.tokens_per_ex": tokens / n}


# -------------------------------------------------------------------- checks


def same(a, b, rel=1e-6) -> bool:
    """Structural equality with a relative tolerance on floats."""
    if isinstance(a, float) and isinstance(b, float):
        return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= rel * max(abs(a), abs(b), 1e-12)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(same(x, y, rel) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k], rel) for k in a)
    return a == b


def finite_losses(check) -> bool:
    values = []
    for key in ("train_loss", "nli_loss"):
        values += check.get(key, [])
    if "mean_loss" in check:
        values.append(check["mean_loss"])
    return bool(values) and all(math.isfinite(v) for v in values)


def report_digest(report, **extra) -> str:
    """SHA-256 of an eval report's full-precision fields, plus `extra`."""
    body = {"n": report.n, "n_plus": report.n_plus, "mean_loss": report.mean_loss,
            "predictions": report.predictions, **extra}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode("utf-8")).hexdigest()


def reference_values(kkt, work) -> dict:
    """The seed-independent outputs that `reference.json` pins.

    Two float64 evals must reproduce their digests byte for byte: the
    knowledge cell with the leading provider, and the default two-layer
    architecture with a freshly fitted NLI key-turn provider (its digest
    also covers the NLI loss curve). A short float32 training must
    reproduce the per-epoch loss curve within the stated tolerance
    (float32 vs float64 differ by ~1e-8 here).
    """
    tr = kkt.data.gen_synthetic(seed=2004, n=24, mode="knowledge-signal", split="train")
    dev = kkt.data.gen_synthetic(seed=2004, n=16, mode="knowledge-signal", split="dev")
    paths = kkt.data.write_bundle(tr, Path(work) / "knowledge")
    kg = dict(kg_path=paths["kg"], surfaces_path=paths["surfaces"], lexicon_path=paths["lexicon"])
    cfg64 = kkt.RunConfig(**KNOWLEDGE_ARCH, dtype="float64", epochs=0, seed=2004)
    init = kkt.training.train(cfg64, tr.dataset, **kg)
    pipe = kkt.training.pipeline_from_checkpoint(
        init.final_blob, cfg64, init.vocab, paths["kg"], paths["surfaces"], paths["lexicon"]
    )
    digest = report_digest(kkt.training.evaluate_pipeline(pipe, dev.dataset))
    cfg32 = kkt.RunConfig(**KNOWLEDGE_ARCH, epochs=3, seed=2004)
    res = kkt.training.train(cfg32, tr.dataset, **kg)

    mx = kkt.data.gen_synthetic(seed=2004, n=8, mode="mixed", split="train")
    mx_dev = kkt.data.gen_synthetic(seed=2004, n=4, mode="mixed", split="dev")
    mx_paths = kkt.data.write_bundle(mx, Path(work) / "nli")
    nli_cfg = kkt.RunConfig(key_turn_provider="nli", dtype="float64", epochs=0, nli_epochs=2, seed=2004)
    nli = kkt.training.train(nli_cfg, mx.dataset, kg_path=mx_paths["kg"], surfaces_path=mx_paths["surfaces"],
                             lexicon_path=mx_paths["lexicon"], nli_corpus=kkt.data.load_nli_corpus(mx_paths["nli"]))
    nli_pipe = kkt.training.pipeline_from_checkpoint(
        nli.final_blob, nli_cfg, nli.vocab, mx_paths["kg"], mx_paths["surfaces"], mx_paths["lexicon"]
    )
    nli_digest = report_digest(kkt.training.evaluate_pipeline(nli_pipe, mx_dev.dataset),
                               nli_loss_curve=nli.nli_report["loss_curve"])
    return {
        "float64_eval_digest": digest,
        "float64_nli_eval_digest": nli_digest,
        "float32_train_loss": [h["train_loss"] for h in res.history],
    }


def reference_checks(kkt, work) -> list:
    want = json.loads(REFERENCE.read_text(encoding="utf-8"))
    got = reference_values(kkt, work)
    tol = want["float32_train_loss_tolerance"]
    curve_ok = len(got["float32_train_loss"]) == len(want["float32_train_loss"]) and all(
        abs(a - b) <= tol for a, b in zip(got["float32_train_loss"], want["float32_train_loss"])
    )
    return [
        *({"check": name, "ok": got[name] == want[name], "got": got[name]}
          for name in ("float64_eval_digest", "float64_nli_eval_digest")),
        {"check": "float32_train_loss", "ok": curve_ok, "got": got["float32_train_loss"], "tolerance": tol},
    ]


# ----------------------------------------------------------------------- run


def environment() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads_env": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "loadavg_start": list(os.getloadavg()),
    }


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class SpeedProbe:
    """A `probe.py` process, measuring the machine's speed on request."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "probe.py")], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        try:
            self.measure()  # the first loop also faults its pages in
        except Exception:
            self.close()
            raise

    def measure(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def run_setup(workload, seed, work, i):
    d = Path(work) / f"setup{i}"
    d.mkdir(parents=True)
    t0 = time.perf_counter()
    state = workload.setup(seed, d)
    return state, time.perf_counter() - t0


def run_unit(workload, state):
    t0 = time.perf_counter()
    out = workload.unit(state)
    return out, time.perf_counter() - t0


def timed(kkt, workload, seed, seconds, work, record) -> tuple[list, dict]:
    """Units with their set-ups, each round between two speed probes.

    Every time of a round is scaled by PROBE_REF_S over the mean of the
    round's two probes; the raw figures go into the run record.
    """
    obs = Observer()
    clock = Tracer()
    setups, outputs, walls, probes, samples = [], [], [], [], []
    speed = SpeedProbe()
    install(clock, obs, kkt, full=False)
    start = time.perf_counter()
    try:
        probes.append(speed.measure())
        while True:
            for _ in range(SETUPS_PER_UNIT):
                state, s = run_setup(workload, seed, work, len(setups))
                setups.append(s)
            first_span = len(clock.spans)
            out, wall = run_unit(workload, state)
            probes.append(speed.measure())
            outputs.append(out)
            walls.append(wall)
            samples.append(example_times(clock.spans[first_span:], "model.predict", "tensor.backward"))
            elapsed = time.perf_counter() - start
            if elapsed >= MAX_MEASURE_S or (elapsed >= seconds and obs.examples >= MIN_SAMPLES):
                break
    finally:
        clock.uninstall()
        speed.close()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    scale = [2 * PROBE_REF_S / (a + b) for a, b in zip(probes, probes[1:])]
    setup_scale = [f for f in scale for _ in range(SETUPS_PER_UNIT)]
    raw_ms = [1000.0 * s for unit in samples for s in unit]
    scaled_ms = [1000.0 * f * s for f, unit in zip(scale, samples) for s in unit]
    record["probe_s"] = probes
    record["setup_s_samples"] = setups
    record["unit_s"] = walls
    record["unit_examples"] = [o.examples for o in outputs]
    record["example_samples"] = len(raw_ms)
    record["samples_beyond_p95"] = len(raw_ms) - math.ceil(0.95 * len(raw_ms))
    # Reported, not gated: see "End-to-end metrics" in README.md.
    record["ex_ms_p95"] = percentile(scaled_ms, 95)
    record["unscaled"] = {
        "setup_s": statistics.median(setups),
        "ex_per_s": statistics.median(o.examples / w for o, w in zip(outputs, walls)),
        "ex_ms_p50": statistics.median(raw_ms),
        "ex_ms_p95": percentile(raw_ms, 95),
    }
    record["properties"] = {**dataset_properties(kkt, state["dataset"]), **property_metrics(obs)}
    return outputs, {
        "setup_s": statistics.median(f * s for f, s in zip(setup_scale, setups)),
        "ex_per_s": statistics.median(o.examples / (f * w) for f, o, w in zip(scale, outputs, walls)),
        "ex_ms_p50": statistics.median(scaled_ms),
        "peak_rss_mb": rss_mb,
    }


def traced(kkt, workload, seed, work, record, spans_path) -> tuple[list, dict]:
    tracer = Tracer()
    obs = Observer()
    install(tracer, obs, kkt, full=True)
    try:
        state, _ = run_setup(workload, seed, work, 0)
    finally:
        tracer.uninstall()
    first, u1 = run_unit(workload, state)
    install(tracer, obs, kkt, full=True)
    try:
        index = tracer.open("bench.unit")
        second, t = run_unit(workload, state)
        tracer.close(index)
    finally:
        tracer.uninstall()
    third, u2 = run_unit(workload, state)
    untraced_s = (u1 + u2) / 2
    record["unit_s"] = [u1, t, u2]
    record["unit_examples"] = [first.examples, second.examples, third.examples]
    record["spans"] = len(tracer.spans)
    record["spans_file"] = str(spans_path.relative_to(ROOT))
    tracer.write_jsonl(spans_path)
    nli_records = len(state["corpus"]) * workload.nli_epochs if "corpus" in state else 0
    metrics = layer_metrics(tracer, obs, nli_records, t - untraced_s, untraced_s)
    properties = {**dataset_properties(kkt, state["dataset"]), **property_metrics(obs)}
    record["properties"] = {
        **properties,
        **{k: metrics[k] for k in ("knowledge.encode_fact.hit_ratio", "keyturns.select.hit_ratio")},
    }
    return [first, second, third], {**metrics, **properties}


def check_outputs(outputs) -> list:
    checks = []
    first = outputs[0]
    for i, out in enumerate(outputs):
        ok = (
            out.examples == out.planned
            and out.check.get("nli_n_ok", True)
            and finite_losses(out.check)
            and same(out.check, first.check)
        )
        checks.append({"check": f"unit{i}", "ok": ok})
    return checks


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    t0 = time.perf_counter()
    try:
        kkt = import_kkt()
    except NotACheckout as exc:
        print(f"error: {exc}; perfbench/ must sit in a full checkout, next to src/kkt", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0
    os.environ.pop("KKT_SEED", None)  # the program must see only the config seed

    out_dir = ROOT / ".perfbench-out"
    work = out_dir / f"work-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](kkt)
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
                  "started_unix": time.time(), "import_s": import_s, "environment": environment()}
        checks = []
        try:
            if args.trace:
                spans_path = out_dir / f"spans-{args.workload}-{args.seed}-{os.getpid()}.jsonl"
                outputs, metrics = traced(kkt, workload, args.seed, work, record, spans_path)
                wanted = spec["per_layer"]
            else:
                outputs, metrics = timed(kkt, workload, args.seed, args.seconds, work, record)
                wanted = spec["end_to_end"]
            checks += check_outputs(outputs)
            checks += reference_checks(kkt, work / "reference")
        except Exception:
            traceback.print_exc()
            checks.append({"check": "run", "ok": False})
            metrics, wanted = {}, []
        record["environment"]["loadavg_end"] = list(os.getloadavg())
        record["checks"] = checks
        failed = sum(1 for c in checks if not c["ok"])
        record["error_rate"] = failed / len(checks)
        result = {
            "correct": failed == 0,
            "attempted": len(checks),
            "failed": failed,
            "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
        }
        print(json.dumps({"record": record}, default=repr))
        print(json.dumps(result))
        return 0 if failed == 0 else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            out_dir.rmdir()  # kept only when it holds a spans file
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
