"""Model checkpoints: a JSON config header plus a flat named-array archive.

Layout (all integers unsigned 64-bit little-endian):

    magic "GEOCKPT1"
    header_len, header bytes     UTF-8 JSON: model kind, wiring meta, and the
                                 context needed to rebuild inputs (vocabulary,
                                 region tree, graph knobs)
    n_arrays
    per array: name_len, name bytes (UTF-8),
               ndim, dims...,
               row-major float64 little-endian values

Arrays are written in sorted name order, so identical models produce
identical files. Optimizer moments are not stored; a loaded model predicts
but does not resume training.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .errors import DataFormatError
from .models import KINDS, TrainedModel, meta_errors
from .optim import ParamSet

MAGIC = b"GEOCKPT1"
STATE_PREFIX = "state/"


def _write_u64(fh, value: int) -> None:
    fh.write(struct.pack("<Q", value))


def _read_u64(fh) -> int:
    raw = fh.read(8)
    if len(raw) != 8:
        raise DataFormatError("truncated checkpoint")
    return struct.unpack("<Q", raw)[0]


def _write_array(fh, name: str, arr: np.ndarray) -> None:
    encoded = name.encode("utf-8")
    _write_u64(fh, len(encoded))
    fh.write(encoded)
    _write_u64(fh, arr.ndim)
    for dim in arr.shape:
        _write_u64(fh, dim)
    fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _read_array(fh) -> tuple[str, np.ndarray]:
    name_len = _read_u64(fh)
    name = fh.read(name_len).decode("utf-8")
    ndim = _read_u64(fh)
    shape = tuple(_read_u64(fh) for _ in range(ndim))
    count = int(np.prod(shape)) if shape else 1
    raw = fh.read(count * 8)
    if len(raw) != count * 8:
        raise DataFormatError(f"truncated checkpoint while reading {name!r}")
    return name, np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)


def save_checkpoint(path, model: TrainedModel, context: dict) -> Path:
    """``context`` is extra JSON-able state (vocabulary, region tree, graph
    knobs) that lets a later process rebuild the model's inputs."""
    path = Path(path)
    header = {"kind": model.kind, "meta": model.meta, "context": context}
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    arrays = {name: tensor.data for name, tensor in model.params.items()}
    for name, arr in model.state.items():
        arrays[STATE_PREFIX + name] = np.asarray(arr, dtype=np.float64)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        _write_u64(fh, len(header_bytes))
        fh.write(header_bytes)
        _write_u64(fh, len(arrays))
        for name in sorted(arrays):
            _write_array(fh, name, arrays[name])
    return path


def load_checkpoint(path) -> tuple[TrainedModel, dict]:
    path = Path(path)
    with open(path, "rb") as fh:
        if fh.read(len(MAGIC)) != MAGIC:
            raise DataFormatError(f"{path} is not a model checkpoint")
        header_len = _read_u64(fh)
        raw_header = fh.read(header_len)
        if len(raw_header) != header_len:
            raise DataFormatError("truncated checkpoint header")
        try:
            header = json.loads(raw_header.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise DataFormatError(f"bad checkpoint header: {exc}") from exc
        if not isinstance(header, dict) or not isinstance(header.get("meta"), dict):
            raise DataFormatError(f"{path}: checkpoint header needs a 'kind' and a 'meta' object")
        if not isinstance(header.get("context", {}), dict):
            raise DataFormatError(f"{path}: checkpoint 'context' must be an object")
        if not isinstance(header.get("kind"), str) or header["kind"] not in KINDS:
            raise DataFormatError(
                f"{path}: unknown model kind {header.get('kind')!r}; valid: {sorted(KINDS)}"
            )
        errors = meta_errors(header["kind"], header["meta"])
        if errors:
            raise DataFormatError(f"{path}: {header['kind']} checkpoint meta {'; '.join(errors)}")
        params = ParamSet()
        state: dict[str, np.ndarray] = {}
        for _ in range(_read_u64(fh)):
            name, arr = _read_array(fh)
            if name.startswith(STATE_PREFIX):
                state[name[len(STATE_PREFIX):]] = arr
            else:
                params.add(name, arr)
        if fh.read(1):
            raise DataFormatError("trailing bytes after checkpoint arrays")
    model = TrainedModel(kind=header["kind"], params=params, meta=header["meta"], state=state)
    return model, header.get("context", {})
