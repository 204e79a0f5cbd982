"""Binary model container.

Layout (all integers little-endian):

    magic   4 bytes  b"TBOX"
    version uint32   currently 1
    meta    uint32 length + that many bytes of UTF-8 JSON
    count   uint32   number of tensors
    then per tensor:
        name  uint16 length + that many bytes of UTF-8
        rows  uint32
        cols  uint32
        data  rows*cols float64 values, row-major, little-endian

The meta JSON carries whatever the caller needs to rebuild the object
around the tensors (model config, vocabulary, class count).  Serialization
is exact: float64 payloads are written bit for bit, and the same tensors
and meta always produce the same bytes (JSON keys are sorted).
"""

from __future__ import annotations

import dataclasses
import json
import os
import struct

import numpy as np

from .cells import GATES
from .data import Vocab, atomic_write
from .model import DocModel, ModelConfig
from .schema import build_section, check_scalar

MAGIC = b"TBOX"
VERSION = 1


def save_container(path: str, tensors: dict, meta: dict | None = None) -> None:
    """Write named float64 matrices plus a JSON meta block, atomically."""
    blob = json.dumps(meta or {}, sort_keys=True, ensure_ascii=False).encode("utf-8")
    with atomic_write(path, binary=True) as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(struct.pack("<I", len(tensors)))
        for name, t in tensors.items():
            arr = np.ascontiguousarray(t, dtype="<f8")
            if arr.ndim != 2:
                raise ValueError(f"tensor {name!r} must be 2-D, got {arr.ndim}-D")
            encoded = name.encode("utf-8")
            if len(encoded) > 0xFFFF:
                raise ValueError(f"tensor name too long: {name[:40]!r}...")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<II", arr.shape[0], arr.shape[1]))
            fh.write(arr.tobytes())


def _read_exact(fh, n: int, what: str) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise ValueError(f"truncated container: expected {n} bytes of {what}")
    return data


def _read_tensor(fh, rows: int, cols: int, name: str, size: int) -> np.ndarray:
    """A rows x cols float64 tensor read straight into its own array.

    ``size`` is the file's length: a header that claims more data than is
    left is rejected before anything is allocated.
    """
    truncated = f"truncated container: expected {rows * cols * 8} bytes of data of {name!r}"
    if rows * cols * 8 > size - fh.tell():
        raise ValueError(truncated)
    out = np.empty((rows, cols), dtype="<f8")
    if fh.readinto(out) != out.nbytes:
        raise ValueError(truncated)
    return out


def load_container(path: str) -> tuple:
    """Read a container back as (tensors, meta); inverse of save_container."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        magic = _read_exact(fh, 4, "magic")
        if magic != MAGIC:
            raise ValueError(f"not a model container (bad magic {magic!r})")
        (version,) = struct.unpack("<I", _read_exact(fh, 4, "version"))
        if version != VERSION:
            raise ValueError(f"unsupported container version {version}")
        (meta_len,) = struct.unpack("<I", _read_exact(fh, 4, "meta length"))
        if meta_len > size - fh.tell():  # checked before the read allocates it
            raise ValueError(f"truncated container: expected {meta_len} bytes of meta")
        meta = json.loads(_read_exact(fh, meta_len, "meta").decode("utf-8"))
        (count,) = struct.unpack("<I", _read_exact(fh, 4, "tensor count"))
        tensors = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<H", _read_exact(fh, 2, "name length"))
            name = _read_exact(fh, name_len, "name").decode("utf-8")
            rows, cols = struct.unpack("<II", _read_exact(fh, 8, "shape"))
            tensors[name] = _read_tensor(fh, rows, cols, name, size)
        trailing = fh.read(1)
        if trailing:
            raise ValueError("trailing bytes after last tensor")
    return tensors, meta


def save_model(path: str, model) -> None:
    """Serialize a DocModel: config, vocabulary, and every tensor."""
    meta = {
        "format": "doc-classifier",
        "config": dataclasses.asdict(model.config),
        "vocab_tokens": model.vocab.tokens,
        "embedding_trainable": model.embedding.trainable,
    }
    save_container(path, model.named_tensors(), meta)


def _stack_legacy_gates(tensors: dict, prefix: str, kind: str) -> None:
    """Stack per-gate tensors of older files (``fwd.w_i``, ...) into ``fwd.w`` etc."""
    for part in "wub":
        names = [f"{prefix}{part}_{g}" for g in GATES[kind]]
        if prefix + part not in tensors and all(n in tensors for n in names):
            tensors[prefix + part] = np.vstack([tensors.pop(n) for n in names])


def load_model(path: str):
    """Rebuild a DocModel from a container written by save_model.

    Files that store each gate's tensors under its own name load as well.
    A malformed container raises ValueError starting with its path.
    """
    try:
        tensors, meta = load_container(path)
    except ValueError as exc:  # also bad JSON or UTF-8 in the meta or a name
        raise ValueError(f"{path}: {exc}") from None
    if not isinstance(meta, dict):
        raise ValueError("container meta must be a JSON object")
    if meta.get("format") != "doc-classifier":
        raise ValueError(f"container is not a saved model: format={meta.get('format')!r}")
    config = build_section(ModelConfig, meta.get("config"), "config")
    tokens = meta.get("vocab_tokens")
    if not isinstance(tokens, list):
        raise ValueError(f"container meta vocab_tokens must be a list, "
                         f"got {type(tokens).__name__}")
    try:
        "".join(tokens)  # one C-level pass that raises TypeError on a non-string
    except TypeError:
        raise ValueError("container meta vocab_tokens must hold strings") from None
    vocab = Vocab(tokens)
    trainable = meta.get("embedding_trainable", True)
    check_scalar("meta", "embedding_trainable", trainable, bool)
    for prefix in config.directions:
        _stack_legacy_gates(tensors, prefix, config.kind)
    return DocModel(config, vocab, tensors, trainable)
