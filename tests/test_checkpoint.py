"""Checkpoint container: byte layout, round trips, assignment guards."""

import re
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import helpers
from kkt import tensor as T
from kkt.checkpoint import (
    ABLATION_TAGS,
    FORMAT_VERSION,
    MAX_RANK,
    CheckpointError,
    assign_named,
    checkpoint_bytes,
    named_parameters,
    parse_checkpoint,
)
from kkt.keyturns import NliHead
from kkt.model import KktParams
from kkt.tokenizer import InputError, Tokenizer
from kkt.training import RunConfig, read_checkpoint, restore_checkpoint


def sample_named(seed=0):
    rng = np.random.default_rng(seed)
    return {
        "enc.tok_emb": rng.standard_normal((6, 4)).astype(np.float32),
        "decoder_w": rng.standard_normal(8).astype(np.float32),
        "scalar": np.float32(2.5),
    }


def test_header_layout():
    blob = checkpoint_bytes({}, "full")
    assert blob[:4] == b"KKTC"
    assert struct.unpack("<I", blob[4:8])[0] == FORMAT_VERSION
    assert blob[8] == ABLATION_TAGS["full"]
    assert struct.unpack("<I", blob[9:13])[0] == 0


def test_ablation_tags_stable():
    # Tag bytes are part of the on-disk contract; never renumber them.
    assert ABLATION_TAGS == {"full": 0, "kt": 1, "k": 2, "base": 3, "keyturns-only": 4}


def test_round_trip_bit_exact():
    named = sample_named()
    blob = checkpoint_bytes(named, "kt")
    ck = parse_checkpoint(blob)
    assert ck.ablation == "kt"
    for name, arr in named.items():
        assert np.array_equal(ck.tensors[name], np.asarray(arr, dtype=np.float32))
    assert checkpoint_bytes(ck.tensors, "kt") == blob


def test_insertion_order_does_not_matter():
    named = sample_named()
    reordered = dict(reversed(list(named.items())))
    assert checkpoint_bytes(named, "base") == checkpoint_bytes(reordered, "base")


def test_accepts_tensors_and_arrays():
    as_tensor = {"w": T.Tensor(np.ones((2, 2)))}
    as_array = {"w": np.ones((2, 2), dtype=np.float32)}
    assert checkpoint_bytes(as_tensor, "full") == checkpoint_bytes(as_array, "full")


def test_fp64_payload_is_cast_to_fp32():
    ck = parse_checkpoint(checkpoint_bytes({"w": np.array([1.0, 2.0])}, "full"))
    assert ck.tensors["w"].dtype == np.float32


def test_rank_zero_tensor_round_trip():
    ck = parse_checkpoint(checkpoint_bytes({"s": np.float32(-3.0)}, "full"))
    assert ck.tensors["s"].shape == ()
    assert ck.tensors["s"] == np.float32(-3.0)


def test_unknown_ablation_rejected():
    # No input reaches the writer with an unknown ablation: a defect, not bad input.
    with pytest.raises(ValueError, match="unknown ablation 'mystery'") as err:
        checkpoint_bytes({}, "mystery")
    assert not isinstance(err.value, InputError)


def test_bad_magic_rejected():
    with pytest.raises(CheckpointError) as err:
        parse_checkpoint(b"NOPE" + b"\x00" * 16)
    assert "magic" in str(err.value)


def test_truncated_blob_rejected():
    blob = checkpoint_bytes(sample_named(), "full")
    with pytest.raises(CheckpointError) as err:
        parse_checkpoint(blob[:-3])
    assert "truncated" in str(err.value)


def test_trailing_bytes_rejected():
    blob = checkpoint_bytes(sample_named(), "full")
    with pytest.raises(CheckpointError) as err:
        parse_checkpoint(blob + b"\x00")
    assert "trailing" in str(err.value)


def test_other_format_version_rejected():
    blob = bytearray(checkpoint_bytes(sample_named(), "full"))
    blob[4:8] = struct.pack("<I", FORMAT_VERSION + 1)
    with pytest.raises(CheckpointError) as err:
        parse_checkpoint(bytes(blob))
    assert "version" in str(err.value)


def test_format_1_blob_rejected_by_version():
    # Format 1 stored every refinement group for every ablation; its blobs
    # must fail on the version field, not on a tensor-name mismatch.
    assert FORMAT_VERSION == 4
    blob = bytearray(checkpoint_bytes(sample_named(), "kt"))
    blob[4:8] = struct.pack("<I", 1)
    with pytest.raises(CheckpointError, match="offset 4: format version 1, this reader supports only 4"):
        parse_checkpoint(bytes(blob))


def test_format_2_blob_rejected_by_version():
    # Format 2 stored one matrix per attention head; its blobs must fail on
    # the version field, not on a tensor-name mismatch.
    blob = helpers.format_2_blob(MODEL_BLOB)
    current = bytearray(blob)
    current[4:8] = struct.pack("<I", FORMAT_VERSION)
    duma1 = {name: t.shape for name, t in parse_checkpoint(bytes(current)).tensors.items() if name.startswith("duma1.")}
    assert duma1 == {f"duma1.{role}{i}": (4, 2) for role in ("wq", "wk", "wv") for i in range(2)}
    with pytest.raises(CheckpointError, match="offset 4: format version 2, this reader supports only 4"):
        parse_checkpoint(blob)


def test_format_3_blob_rejected_by_version():
    # Format 3 stored a tanh pooler on every encoder, the main model's
    # `enc.pooler_*` and the NLI head's `nli.enc.pooler_*`; its blobs must
    # fail on the version field, not on a tensor-name mismatch.
    vocab = Tokenizer.build(["the bike is on the street"])
    config = RunConfig(d_model=8, h=2, layers=1, max_length=16)
    rng = np.random.default_rng(0)
    named = named_parameters(KktParams.init(len(vocab), 8, 2, 1, 32, 16, "full", rng))
    named.update(named_parameters(NliHead.init(len(vocab), 8, 2, 1, 32, 16, rng), "nli"))
    for prefix in ("enc", "nli.enc"):
        named[f"{prefix}.pooler_w"], named[f"{prefix}.pooler_b"] = np.ones((8, 8)), np.zeros(8)
    del named["nli.pooler_w"], named["nli.pooler_b"]
    blob = bytearray(checkpoint_bytes(named, "full"))
    with pytest.raises(CheckpointError, match=r"unexpected \['enc.pooler_b', 'enc.pooler_w'\]"):
        restore_checkpoint(parse_checkpoint(bytes(blob)), config, vocab)
    blob[4:8] = struct.pack("<I", 3)
    with pytest.raises(CheckpointError, match="offset 4: format version 3, this reader supports only 4"):
        parse_checkpoint(bytes(blob))


def test_named_parameters_walks_fields_in_declaration_order():
    # Two blocks, the `base` groups and the NLI head under a prefix: every
    # tensor is named by its dotted field path, None groups and the
    # `ablation` string are skipped.
    rng = np.random.default_rng(0)
    block = ["attn.wq", "attn.wk", "attn.wv", "ff_w1", "ff_b1", "ff_w2", "ff_b2",
             "ln1_gain", "ln1_bias", "ln2_gain", "ln2_bias"]
    enc = ["tok_emb", "pos_emb"] + [f"block{i}.{name}" for i in range(2) for name in block]
    params = KktParams.init(20, 8, 2, 2, 32, 16, "base", rng)
    assert list(named_parameters(params)) == (
        [f"enc.{name}" for name in enc] + [f"duma{i}.{role}" for i in (1, 2) for role in ("wq", "wk", "wv")]
        + ["decoder_w"]
    )
    head = NliHead.init(20, 8, 2, 2, 32, 16, rng)
    named = named_parameters(head, "nli")
    assert list(named) == [f"nli.enc.{name}" for name in enc] + [f"nli.{name}" for name in
                                                                  ("pooler_w", "pooler_b", "out_w", "out_b")]
    assert named["nli.enc.block1.attn.wk"] is head.enc.blocks[1].attn.wk
    assert list(named_parameters(head.enc.blocks[0])) == block


@pytest.mark.parametrize("tag", sorted(ABLATION_TAGS))
def test_the_tag_alone_sets_the_restored_ablation(tag):
    # A config that names another ablation cannot change what is restored.
    vocab = Tokenizer.build(["the bike is on the street"])
    other = "base" if tag != "base" else "full"
    config = RunConfig(d_model=8, h=2, layers=1, max_length=16, ablation=other)
    rng = np.random.default_rng(0)
    named = named_parameters(KktParams.init(len(vocab), 8, 2, 1, 32, 16, tag, rng))
    named.update(named_parameters(NliHead.init(len(vocab), 8, 2, 1, 32, 16, rng), "nli"))
    blob = checkpoint_bytes(named, tag)
    params, head = restore_checkpoint(parse_checkpoint(blob), config, vocab)
    assert params.ablation == tag and head is not None
    restored = {**named_parameters(params), **named_parameters(head, "nli")}
    assert checkpoint_bytes(restored, tag) == blob


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(h=st.integers(1, 3), d_head=st.integers(1, 4), layers=st.integers(1, 2), max_length=st.integers(1, 12),
       n_words=st.integers(0, 20), tag=st.sampled_from(sorted(ABLATION_TAGS)), with_head=st.booleans(),
       dtype=st.sampled_from(["float32", "float64"]))
def test_a_restore_draws_nothing_and_rewrites_its_blob(h, d_head, layers, max_length, n_words, tag, with_head, dtype):
    # A restore builds zero tensors of the config's shapes and fills them:
    # with every generator refused it still gives back the written bytes,
    # each tensor at the run's dtype.
    vocab = Tokenizer.build([" ".join(f"w{i}" for i in range(n_words))])
    config = RunConfig(d_model=h * d_head, h=h, layers=layers, max_length=max_length, dtype=dtype)
    dims = (len(vocab), config.d_model, h, layers, config.d_ff, max_length)
    rng = np.random.default_rng(n_words)
    named = named_parameters(KktParams.init(*dims, tag, rng))
    if with_head:
        named.update(named_parameters(NliHead.init(*dims, rng), "nli"))
    blob = checkpoint_bytes(named, tag)
    with mock.patch.object(np.random, "default_rng", side_effect=AssertionError("a restore drew")):
        params, head = restore_checkpoint(parse_checkpoint(blob), config, vocab)
    restored = named_parameters(params)
    assert (head is not None) == with_head
    if with_head:
        restored.update(named_parameters(head, "nli"))
    assert {t.dtype for t in restored.values()} == {np.dtype(config.np_dtype)}
    assert checkpoint_bytes(restored, tag) == blob


def test_head_count_mismatch_fails_on_the_projection_shape():
    # Written at h=2 and restored at h=4 with the same d_model: the names
    # agree, and the first rank-3 projection's shape does not.
    vocab = Tokenizer.build(["the bike is on the street"])
    params = KktParams.init(len(vocab), 8, 2, 1, 32, 16, "full", np.random.default_rng(0))
    ckpt = parse_checkpoint(checkpoint_bytes(named_parameters(params), "full"))
    with pytest.raises(CheckpointError, match=r"^tensor enc\.block0\.attn\.wq: checkpoint shape \(2, 8, 4\) "
                                              r"!= model shape \(4, 8, 2\)$"):
        restore_checkpoint(ckpt, RunConfig(d_model=8, h=4, layers=1, max_length=16), vocab)


def test_unknown_tag_byte_rejected():
    blob = bytearray(checkpoint_bytes({}, "full"))
    blob[8] = 250
    with pytest.raises(CheckpointError):
        parse_checkpoint(bytes(blob))


def test_save_load_file(tmp_path):
    named = sample_named(seed=1)
    path = tmp_path / "model.kkt"
    path.write_bytes(checkpoint_bytes(named, "keyturns-only"))
    blob, ck = read_checkpoint(path)
    assert blob == path.read_bytes()
    assert ck.ablation == "keyturns-only"
    assert set(ck.tensors) == set(named)


def test_assign_named_round_trip():
    live = {"a": T.Tensor(np.zeros((2, 3)), requires_grad=True), "b": T.Tensor(np.zeros(4), requires_grad=True)}
    arrays = {
        "a": np.arange(6, dtype=np.float32).reshape(2, 3),
        "b": np.ones(4, dtype=np.float32),
    }
    assign_named(live, arrays)
    assert live["a"].data.dtype == np.float64  # cast to the live dtype
    assert np.array_equal(live["a"].data, arrays["a"].astype(np.float64))


def test_assign_named_writes_into_each_tensors_own_array():
    # No new array per tensor: the values are copied into the one it holds, at its dtype.
    live = {"a": T.Tensor(np.zeros((2, 3))), "b": T.Tensor(np.zeros(4, dtype=np.float32))}
    held = {name: t.data for name, t in live.items()}
    arrays = {"a": np.linspace(-1, 1, 6, dtype=np.float32).reshape(2, 3), "b": np.arange(4, dtype=np.float32) / 3}
    assign_named(live, arrays)
    for name, t in live.items():
        assert t.data is held[name]
        assert t.dtype == (np.float64 if name == "a" else np.float32)
        assert t.data.tobytes() == arrays[name].astype(t.dtype).tobytes()


def test_assign_named_name_mismatch():
    live = {"a": T.Tensor(np.zeros(2))}
    with pytest.raises(CheckpointError) as err:
        assign_named(live, {"b": np.zeros(2, dtype=np.float32)})
    msg = str(err.value)
    assert "a" in msg and "b" in msg


def test_assign_named_shape_mismatch():
    live = {"a": T.Tensor(np.zeros((2, 2)))}
    with pytest.raises(CheckpointError):
        assign_named(live, {"a": np.zeros((2, 3), dtype=np.float32)})


def test_unicode_tensor_name_round_trip():
    named = {"κεφαλή.w": np.ones(2, dtype=np.float32)}
    ck = parse_checkpoint(checkpoint_bytes(named, "full"))
    assert "κεφαλή.w" in ck.tensors


# ------------------------------------------------------------ hostile input


def _tensor_record(name: bytes, dims, payload=b""):
    head = struct.pack("<H", len(name)) + name + struct.pack("<B", len(dims)) + struct.pack(f"<{len(dims)}I", *dims)
    return head + payload


def _blob(*records):
    return b"KKTC" + struct.pack("<IBI", FORMAT_VERSION, ABLATION_TAGS["full"], len(records)) + b"".join(records)


def test_undecodable_name_rejected_with_offset():
    with pytest.raises(CheckpointError, match=r"^m\.kkt, offset 13: tensor name b'\\xff\\xfe' is not UTF-8"):
        parse_checkpoint(_blob(_tensor_record(b"\xff\xfe", ())), label="m.kkt")


def test_duplicate_name_rejected_with_offset():
    one = _tensor_record(b"w", (1,), struct.pack("<f", 1.0))
    with pytest.raises(CheckpointError, match=rf"^m\.kkt, offset {13 + len(one)}: duplicate tensor name 'w'"):
        parse_checkpoint(_blob(one, one), label="m.kkt")


def test_rank_above_limit_rejected():
    # Rank 250 with every dimension 1 needs only four payload bytes.
    record = _tensor_record(b"w", (1,) * 250, struct.pack("<f", 1.0))
    with pytest.raises(CheckpointError, match=rf"offset 16: tensor 'w' has rank 250, above the limit of {MAX_RANK}"):
        parse_checkpoint(_blob(record))
    # Writing such a tensor is a defect: kkt's own tensors have rank <= 3.
    with pytest.raises(ValueError, match="rank") as err:
        checkpoint_bytes({"w": np.zeros((1,) * (MAX_RANK + 1), dtype=np.float32)}, "full")
    assert not isinstance(err.value, InputError)


def test_oversized_dimensions_are_truncation_not_overflow():
    # The product of these dims overflows int64; it must read as a size, not wrap.
    record = _tensor_record(b"w", (2**32 - 1,) * 3)
    with pytest.raises(CheckpointError, match="truncated"):
        parse_checkpoint(_blob(record))


MODEL_BLOB = checkpoint_bytes(
    named_parameters(KktParams.init(20, 4, 2, 1, 8, 16, "full", np.random.default_rng(0))), "full"
)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(blob=helpers.corrupted(MODEL_BLOB))
def test_corrupt_model_blob_parses_or_raises_checkpoint_error(blob):
    # Any other exception escapes and fails the test.
    try:
        parse_checkpoint(blob, label="fuzz.kkt")
    except CheckpointError as err:
        assert re.match(r"fuzz\.kkt, offset \d+: ", str(err))
