"""Checkpoint container: byte layout, round trips, assignment guards."""

import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings

import helpers
from kkt import tensor as T
from kkt.checkpoint import (
    ABLATION_TAGS,
    FORMAT_VERSION,
    MAX_RANK,
    CheckpointError,
    assign_named,
    checkpoint_bytes,
    load_checkpoint,
    parse_checkpoint,
    save_checkpoint,
)
from kkt.model import KktParams


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
    with pytest.raises(CheckpointError):
        checkpoint_bytes({}, "mystery")


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


def test_unknown_tag_byte_rejected():
    blob = bytearray(checkpoint_bytes({}, "full"))
    blob[8] = 250
    with pytest.raises(CheckpointError):
        parse_checkpoint(bytes(blob))


def test_save_load_file(tmp_path):
    named = sample_named(seed=1)
    path = tmp_path / "model.kkt"
    save_checkpoint(path, named, "keyturns-only")
    ck = load_checkpoint(path)
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
    with pytest.raises(CheckpointError, match="rank"):
        checkpoint_bytes({"w": np.zeros((1,) * (MAX_RANK + 1), dtype=np.float32)}, "full")


def test_oversized_dimensions_are_truncation_not_overflow():
    # The product of these dims overflows int64; it must read as a size, not wrap.
    record = _tensor_record(b"w", (2**32 - 1,) * 3)
    with pytest.raises(CheckpointError, match="truncated"):
        parse_checkpoint(_blob(record))


MODEL_BLOB = checkpoint_bytes(
    KktParams.init(20, 4, 2, 1, 8, 16, "full", np.random.default_rng(0)).named_parameters(), "full"
)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(blob=helpers.corrupted(MODEL_BLOB))
def test_corrupt_model_blob_parses_or_raises_checkpoint_error(blob):
    # Any other exception escapes and fails the test.
    try:
        parse_checkpoint(blob, label="fuzz.kkt")
    except CheckpointError as err:
        assert re.match(r"fuzz\.kkt, offset \d+: ", str(err))
