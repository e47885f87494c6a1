"""Binary checkpoint container for named tensors.

Layout (all integers little-endian):

    magic "KKTC" | format version u32 | ablation tag u8 | tensor count u32
    then per tensor, sorted by name:
    name length u16 | name UTF-8 | rank u8 | dims u32 each | fp32 payload

Tensor names are the dotted field paths that `named_parameters` walks
(`enc.block0.attn.wq`, `duma1.wk`, `nli.pooler_w`). Payloads are always
float32 row-major regardless of the in-memory training dtype; write ->
read -> write reproduces the file byte for byte. Readers accept only
FORMAT_VERSION. Any defect (another version, a truncated or undecodable
field, a duplicate name, trailing bytes) is a CheckpointError that names
the file and the byte offset.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from .tensor import Tensor
from .tokenizer import InputError

MAGIC = b"KKTC"
# Version 2: each ablation stores only the tensors its wiring reads.
# Version 3: each attention role is one [h, d_model, d_head] tensor
# (`duma1.wq`), where version 2 stored one d_model x d_head matrix per head,
# its name suffixed with the head's index.
# Version 4: the tanh pooler is the NLI head's (`nli.pooler_w`), where
# version 3 stored one on every encoder, the main model's unread.
FORMAT_VERSION = 4
# The dimension limit of NumPy 1.x; kkt's own tensors have rank <= 3.
MAX_RANK = 32

ABLATION_TAGS = {"full": 0, "kt": 1, "k": 2, "base": 3, "keyturns-only": 4}
TAG_ABLATIONS = {v: k for k, v in ABLATION_TAGS.items()}


class CheckpointError(InputError):
    """Raised for unreadable or inconsistent checkpoint files."""


@dataclass
class Checkpoint:
    ablation: str
    tensors: dict


def named_parameters(group, prefix: str = "") -> dict:
    """Every Tensor of a parameter dataclass by its dotted field path, in
    field order: a tensor is `prefix.field` (`field` without a prefix), a
    nested group recurses under that name and entry i of a block list is
    `prefix.block{i}`. None groups and fields that are not tensors, such as
    `KktParams.ablation`, are skipped."""
    out = {}
    dot = f"{prefix}." if prefix else ""
    for f in fields(group):
        value = getattr(group, f.name)
        if isinstance(value, Tensor):
            out[dot + f.name] = value
        elif is_dataclass(value):
            out.update(named_parameters(value, dot + f.name))
        elif isinstance(value, list):
            for i, block in enumerate(value):
                out.update(named_parameters(block, f"{dot}block{i}"))
    return out


def _tensor_data(value) -> np.ndarray:
    # Unwrap only real Tensors; numpy scalars also expose a `.data` buffer.
    # No ascontiguousarray here: it would silently promote rank 0 to rank 1.
    data = value.data if isinstance(value, Tensor) else value
    return np.asarray(data, dtype=np.float32)


def checkpoint_bytes(named: dict, ablation: str) -> bytes:
    """The checkpoint blob of named tensors. An unknown ablation or a rank
    above MAX_RANK is a plain `ValueError`: no input reaches either, so
    either is a kkt defect."""
    if ablation not in ABLATION_TAGS:
        raise ValueError(f"unknown ablation {ablation!r}")
    parts = [MAGIC, struct.pack("<I", FORMAT_VERSION), struct.pack("<B", ABLATION_TAGS[ablation]), struct.pack("<I", len(named))]
    for name in sorted(named):
        arr = _tensor_data(named[name])
        if arr.ndim > MAX_RANK:
            raise ValueError(f"tensor {name!r} has rank {arr.ndim}, above the limit of {MAX_RANK}")
        encoded = name.encode("utf-8")
        parts.append(struct.pack("<H", len(encoded)))
        parts.append(encoded)
        parts.append(struct.pack("<B", arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape) if arr.ndim else b"")
        parts.append(arr.astype("<f4").tobytes())
    return b"".join(parts)


class _Reader:
    def __init__(self, blob: bytes, label: str):
        self.blob = blob
        self.pos = 0
        self.label = label

    def error(self, what: str, at: int) -> CheckpointError:
        return CheckpointError(f"{self.label}, offset {at}: {what}")

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise self.error(f"truncated (wanted {n} bytes)", self.pos)
        out = self.blob[self.pos : self.pos + n]
        self.pos += n
        return out

    def u(self, fmt: str) -> int:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))[0]


def parse_checkpoint(blob: bytes, label: str = "checkpoint") -> Checkpoint:
    """Read a checkpoint blob; every defect is a CheckpointError naming
    `label` and the byte offset where it was found."""
    r = _Reader(blob, label)
    if r.take(4) != MAGIC:
        raise r.error("bad magic bytes, not a checkpoint", 0)
    version = r.u("<I")
    if version != FORMAT_VERSION:
        raise r.error(f"format version {version}, this reader supports only {FORMAT_VERSION}", 4)
    tag = r.u("<B")
    if tag not in TAG_ABLATIONS:
        raise r.error(f"unknown ablation tag {tag}", 8)
    count = r.u("<I")
    tensors = {}
    for _ in range(count):
        at = r.pos
        raw = r.take(r.u("<H"))
        try:
            name = raw.decode("utf-8")
        except UnicodeDecodeError:
            raise r.error(f"tensor name {raw!r} is not UTF-8", at) from None
        if name in tensors:
            raise r.error(f"duplicate tensor name {name!r}", at)
        rank = r.u("<B")
        if rank > MAX_RANK:
            raise r.error(f"tensor {name!r} has rank {rank}, above the limit of {MAX_RANK}", r.pos - 1)
        dims = tuple(r.u("<I") for _ in range(rank))
        payload = r.take(4 * math.prod(dims))
        tensors[name] = np.frombuffer(payload, dtype="<f4").reshape(dims).copy()
    if r.pos != len(blob):
        raise r.error(f"{len(blob) - r.pos} trailing bytes", r.pos)
    return Checkpoint(ablation=TAG_ABLATIONS[tag], tensors=tensors)


def assign_named(named: dict, arrays: dict):
    """Copy checkpoint arrays by name into the live tensors' own arrays, checking shapes,
    each cast to its tensor's dtype. It writes in place, so pass only tensors that no
    graph has read: a graph node holding one of those arrays would see the new values."""
    missing = sorted(set(named) - set(arrays))
    extra = sorted(set(arrays) - set(named))
    if missing or extra:
        raise CheckpointError(f"tensor name mismatch: missing {missing}, unexpected {extra}")
    for name, tensor in named.items():
        arr = arrays[name]
        if tuple(arr.shape) != tuple(tensor.shape):
            raise CheckpointError(f"tensor {name}: checkpoint shape {arr.shape} != model shape {tensor.shape}")
        np.copyto(tensor.data, arr)
