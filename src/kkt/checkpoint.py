"""Binary checkpoint container for named tensors.

Layout (all integers little-endian):

    magic "KKTC" | format version u32 | ablation tag u8 | tensor count u32
    then per tensor, sorted by name:
    name length u16 | name UTF-8 | rank u8 | dims u32 each | fp32 payload

Payloads are always float32 row-major regardless of the in-memory training
dtype; write -> read -> write reproduces the file byte for byte. Readers
accept only FORMAT_VERSION. Any defect (another version, a truncated or
undecodable field, a duplicate name, trailing bytes) is a CheckpointError
that names the file and the byte offset.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .tensor import Tensor

MAGIC = b"KKTC"
FORMAT_VERSION = 1
# The dimension limit of NumPy 1.x; kkt's own tensors have rank <= 2.
MAX_RANK = 32

ABLATION_TAGS = {"full": 0, "kt": 1, "k": 2, "base": 3, "keyturns-only": 4}
TAG_ABLATIONS = {v: k for k, v in ABLATION_TAGS.items()}


class CheckpointError(ValueError):
    """Raised for unreadable or inconsistent checkpoint files."""


@dataclass
class Checkpoint:
    ablation: str
    tensors: dict


def _tensor_data(value) -> np.ndarray:
    # Unwrap only real Tensors; numpy scalars also expose a `.data` buffer.
    # No ascontiguousarray here: it would silently promote rank 0 to rank 1.
    data = value.data if isinstance(value, Tensor) else value
    return np.asarray(data, dtype=np.float32)


def checkpoint_bytes(named: dict, ablation: str) -> bytes:
    if ablation not in ABLATION_TAGS:
        raise CheckpointError(f"unknown ablation {ablation!r}")
    parts = [MAGIC, struct.pack("<I", FORMAT_VERSION), struct.pack("<B", ABLATION_TAGS[ablation]), struct.pack("<I", len(named))]
    for name in sorted(named):
        arr = _tensor_data(named[name])
        if arr.ndim > MAX_RANK:
            raise CheckpointError(f"tensor {name!r} has rank {arr.ndim}, above the limit of {MAX_RANK}")
        encoded = name.encode("utf-8")
        parts.append(struct.pack("<H", len(encoded)))
        parts.append(encoded)
        parts.append(struct.pack("<B", arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape) if arr.ndim else b"")
        parts.append(arr.astype("<f4").tobytes())
    return b"".join(parts)


def save_checkpoint(path, named: dict, ablation: str):
    Path(path).write_bytes(checkpoint_bytes(named, ablation))


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


def load_checkpoint(path) -> Checkpoint:
    return parse_checkpoint(Path(path).read_bytes(), label=str(path))


def assign_named(named: dict, arrays: dict, dtype=None):
    """Copy checkpoint arrays into live tensors by name, checking shapes."""
    missing = sorted(set(named) - set(arrays))
    extra = sorted(set(arrays) - set(named))
    if missing or extra:
        raise CheckpointError(f"tensor name mismatch: missing {missing}, unexpected {extra}")
    for name, tensor in named.items():
        arr = arrays[name]
        if tuple(arr.shape) != tuple(tensor.shape):
            raise CheckpointError(f"tensor {name}: checkpoint shape {arr.shape} != model shape {tensor.shape}")
        tensor.data = arr.astype(dtype or tensor.data.dtype)
