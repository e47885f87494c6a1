"""The input contract of the command line: bad input is a named error and
exit 2, a kkt defect is a traceback.

Every exception class that `src/kkt` defines derives from `InputError`,
except `ShapeError`, which marks a defect. `cli.main` catches `InputError`
alone. Mutated input files end in exit 0, or in exit 2 with `error: ...`
on stderr, and in nothing else but `train`'s documented abort on a
non-finite loss. So do numeric flags at and around their bounds.
"""

import ast
import importlib
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from kkt import InputError
from kkt import model
from kkt.cli import main
from kkt.knowledge import read_graph
from kkt.tensor import ShapeError

ROOT = Path(__file__).resolve().parent.parent


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def test_every_exception_class_of_the_package_is_an_input_error_but_shape_error():
    found = []
    for path in sorted((ROOT / "src" / "kkt").glob("*.py")):
        if path.name == "__main__.py":  # importing it would run the CLI
            continue
        module = importlib.import_module(f"kkt.{path.stem}")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                cls = getattr(module, node.name, None)
                assert cls is not None, f"{path.name}:{node.lineno} {node.name} is not module-level; check it here"
                if issubclass(cls, BaseException):
                    found.append(cls)
    assert ShapeError in found and InputError in found
    assert not issubclass(ShapeError, InputError)
    strays = [f"{cls.__module__}.{cls.__name__}" for cls in found
              if cls is not ShapeError and not issubclass(cls, InputError)]
    assert not strays, f"exception classes outside the input contract: {strays}"


def test_a_defect_inside_a_command_escapes_main(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise ShapeError("encode: injected defect")

    monkeypatch.setattr(model, "encode", broken)
    run_cli(["gen-data", "--seed", "1", "--n", "2", "--mode", "mixed", "--out", str(tmp_path / "b")])
    with pytest.raises(ShapeError, match="injected defect"):
        run_cli(["train", "--data", str(tmp_path / "b" / "data.json"), "--out", str(tmp_path / "run")])


# ---------------------------------------------------------------- fuzzing

# d4 and one layer: an in-process `train` on two examples takes about 20 ms.
# One line without spaces, so a changed byte turns a value into at most
# another single digit, never a run many times longer.
FUZZ_CONFIG = {"d_model": 4, "h": 1, "layers": 1, "k": 1, "p": 2, "epochs": 1, "batch_size": 2,
               "max_length": 64, "warmup_steps": 1, "nli_epochs": 1, "seed": 0}
# Bundle file name of each input kind; the vocabulary is the trained run's.
FILES = {"data": "data.json", "kg": "kg.tsv", "surfaces": "relations.tsv", "lexicon": "lexicon.tsv",
         "nli": "nli.jsonl", "meta": "meta.json", "config": "config.json", "vocab": "vocab.txt"}
TRAIN_FLAGS = {"data": "--data", "kg": "--kg", "surfaces": "--relations", "lexicon": "--lexicon",
               "nli": "--nli", "meta": "--meta", "config": "--config"}
EVAL_FLAGS = {"data": "--data", "kg": "--kg", "meta": "--meta", "config": "--config", "vocab": "--vocab"}
JSON_SWAPS = [None, True, 0, -1, 3, 2.5, "", " ", "x", [], {}, ["x"], {"x": 1}]
TSV_SWAPS = ["", " ", "x", "0", "-1", "2.5", "1e999", "NOUN", "[PAD]", "a b"]


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    """Bytes of every input kind: a 2-example mixed bundle, the config, and the
    vocabulary of a run trained on them (whose checkpoint `eval` reads)."""
    root = tmp_path_factory.mktemp("contract")
    rc, _, err = run_cli(["gen-data", "--seed", "3", "--n", "2", "--mode", "mixed", "--out", str(root / "bundle")])
    assert rc == 0, err
    (root / "bundle" / "config.json").write_text(json.dumps(FUZZ_CONFIG, separators=(",", ":")), encoding="utf-8")
    rc, _, err = run_cli(["train", "--data", str(root / "bundle"), "--config", str(root / "bundle" / "config.json"),
                          "--out", str(root / "run")])
    assert rc == 0, err
    blobs = {kind: (root / "bundle" / name).read_bytes() for kind, name in FILES.items() if kind != "vocab"}
    blobs["vocab"] = (root / "run" / "vocab.txt").read_bytes()
    return root, blobs


def _slots(obj):
    """(container, key) of every value inside a parsed JSON document, in document order."""
    slots, stack = [], [obj]
    while stack:
        node = stack.pop(0)
        items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
        for key, value in items:
            slots.append((node, key))
            stack.append(value)
    return slots


def mutate(blob: bytes, kind: str, how: str, at: int, pick: int) -> bytes:
    """`blob` truncated, with one byte changed, with one field given a value
    of another type, or with one line deleted or repeated; `at` and `pick`
    choose where and what, modulo the number of choices."""
    if how == "truncate":
        return blob[: at % len(blob)]
    if how == "byte":
        at %= len(blob)
        return blob[:at] + bytes([pick % 256]) + blob[at + 1:]
    lines = blob.splitlines(keepends=True)
    line, at = at % len(lines), at // len(lines)
    if how == "delete-line":
        return b"".join(lines[:line] + lines[line + 1:])
    if how == "repeat-line":
        return b"".join(lines[: line + 1] + lines[line:])
    if kind in ("data", "config", "meta", "nli"):
        # A JSON document, or for the NLI corpus one line of it.
        obj = json.loads(lines[line] if kind == "nli" else blob)
        container, key = _slots(obj)[at % len(_slots(obj))]
        container[key] = JSON_SWAPS[pick % len(JSON_SWAPS)]
        swapped = (json.dumps(obj) + "\n").encode("utf-8")
        return b"".join(lines[:line] + [swapped] + lines[line + 1:]) if kind == "nli" else swapped
    fields = lines[line].rstrip(b"\n").split(b"\t")
    fields[at % len(fields)] = TSV_SWAPS[pick % len(TSV_SWAPS)].encode("utf-8")
    return b"".join(lines[:line] + [b"\t".join(fields) + b"\n"] + lines[line + 1:])


def _check_outcome(argv):
    """Exit 0, exit 2 with `error: ...`, or `train`'s abort on a non-finite loss."""
    try:
        rc, _, err = run_cli(argv)
    except RuntimeError as exc:
        if not str(exc).startswith("non-finite loss"):
            raise
        return
    assert rc == 0 or (rc == 2 and err.startswith("error:")), (rc, err)


@settings(max_examples=160, deadline=None, derandomize=True, database=None)
# A vocabulary one token short: only the checkpoint's embedding shape can
# refuse it, since `encode` leaves id bounds to the embedding lookup.
@example(kind="vocab", command="eval", how="delete-line", at=7, pick=0)
# `max_length` 3: the over-long NLI pair (train) and the position table's
# shape (eval) are named errors.
@example(kind="config", command="train", how="field", at=7, pick=4)
@example(kind="config", command="eval", how="field", at=7, pick=4)
# A KG weight of 1e999 reads as infinity, which JSON output cannot hold.
@example(kind="kg", command="train", how="field", at=232, pick=6)
@given(kind=st.sampled_from(sorted(FILES)), command=st.sampled_from(["train", "eval"]),
       how=st.sampled_from(["truncate", "byte", "field", "delete-line", "repeat-line"]),
       at=st.integers(0, 1 << 16), pick=st.integers(0, 255))
def test_a_mutated_input_exits_0_or_2_with_a_named_error(originals, kind, command, how, at, pick):
    root, blobs = originals
    if kind not in EVAL_FLAGS:
        command = "train"
    elif kind not in TRAIN_FLAGS:
        command = "eval"
    bad = root / f"mutated-{FILES[kind]}"
    bad.write_bytes(mutate(blobs[kind], kind, how, at, pick))
    paths = {k: root / "bundle" / name for k, name in FILES.items() if k != "vocab"}
    paths["vocab"] = root / "run" / "vocab.txt"
    paths[kind] = bad
    if command == "train":
        argv = ["train", "--out", str(root / "out")]
        flags = TRAIN_FLAGS
    else:
        argv = ["eval", "--ckpt", str(root / "run" / "model.kkt")]
        flags = EVAL_FLAGS
    for k, flag in flags.items():
        argv += [flag, str(paths[k])]
    _check_outcome(argv)


# Values at and around the bounds of the numeric flags, each passed as
# `--flag=value` or as a separate argument, where argparse reads `-inf` as
# an option. `--n` stays at most 4, which keeps a `gen-data` run short.
AROUND = ["-2", "-1", "0", "1", "2", "0.5", "1.5", "nan", "inf", "-inf"]
NUMERIC_FLAGS = {
    "gen-data": {"--seed": AROUND + ["12345678901234567890"], "--n": ["-1", "0", "1", "4", "nan", "1.5"]},
    "retrieve": {"--threshold": AROUND, "--top-p": AROUND + ["1000"]},
    "score-turns": {"--k": AROUND + ["1000"]},
}


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@example(command="gen-data", picks=(1, 3), separate=False)  # --seed -1
@example(command="gen-data", picks=(7, 3), separate=False)  # --seed nan
@example(command="retrieve", picks=(7, 3), separate=False)  # --threshold nan
@example(command="retrieve", picks=(9, 3), separate=True)  # --threshold -inf
@given(command=st.sampled_from(sorted(NUMERIC_FLAGS)), picks=st.tuples(st.integers(0, 99), st.integers(0, 99)),
       separate=st.booleans())
def test_a_numeric_flag_around_its_bounds_exits_0_or_2_with_a_named_error(originals, command, picks, separate):
    root, _ = originals
    values = {flag: choices[pick % len(choices)] for (flag, choices), pick in zip(NUMERIC_FLAGS[command].items(), picks)}
    out = Path(tempfile.mkdtemp(dir=root)) / "bundle"
    argv = [command] + {
        "gen-data": ["--mode", "mixed", "--out", str(out)],
        "retrieve": ["--kg", str(root / "bundle" / "kg.tsv"), "--text", "where is the bike"],
        "score-turns": ["--ckpt", str(root / "run" / "model.kkt"), "--data", str(root / "bundle"),
                        "--example-id", "mixed-train-00000"],
    }[command]
    for flag, value in values.items():
        argv += [flag, value] if separate else [f"{flag}={value}"]
    rc, stdout, err = run_cli(argv)
    assert rc == 0 or (rc == 2 and err.startswith("error:")), (argv, rc, err)
    if command == "gen-data":
        assert out.exists() == (rc == 0), argv
    if command == "retrieve" and rc == 0:
        # Without --vocab every triple's words are known, so the weight filter alone sets the store.
        threshold = float(values["--threshold"])
        kept = [t for t in read_graph(root / "bundle" / "kg.tsv").triples if t.weight >= threshold]
        assert json.loads(stdout)["store_size"] == len(kept), argv
