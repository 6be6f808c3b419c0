"""Model checkpoints: a JSON header with a table of contents, then one array block.

Layout:

    magic "GEOCKPT3"
    header_len                   unsigned 64-bit little-endian
    header                       UTF-8 JSON: model kind, wiring meta, the
                                 context needed to rebuild inputs (vocabulary,
                                 region tree leaves, graph knobs) and the table
                                 of contents "arrays": [[name, shape, dtype],
                                 ...] in name order, dtype "<f4" or "<f8"
    array block                  every array's row-major little-endian values
                                 in its dtype, in table order, back to back

Each array keeps the dtype the model holds it in: float32 weights for the
kinds that train in float32, float64 for ``dcca`` and gcn-lp's label block.
Identical models produce identical files. Optimizer moments are not stored;
a loaded model predicts but does not resume training. Loading checks the
table against the kind's meta and the file size before it reads an array;
each array it returns is a read-only view of the file's bytes, not a copy.
"""

from __future__ import annotations

import json
import math
from itertools import accumulate
from pathlib import Path

import numpy as np

from .autodiff import constant
from .errors import ArgumentError, DataFormatError
from .models import KINDS, STATE_PREFIX, TrainedModel, array_layout, meta_errors

MAGIC = b"GEOCKPT3"
_FIXED = len(MAGIC) + 8  # magic and header_len
_DTYPES = ("<f4", "<f8")  # a table entry's dtype


def save_checkpoint(path, model: TrainedModel, context: dict) -> Path:
    """``context`` is extra JSON-able state (vocabulary, region tree, graph
    knobs) that lets a later process rebuild the model's inputs."""
    path = Path(path)
    arrays = {name: tensor.data for name, tensor in model.params.items()}
    arrays.update((STATE_PREFIX + name, arr) for name, arr in model.state.items())
    arrays = {name: np.ascontiguousarray(arrays[name], dtype=_file_dtype(arrays[name]))
              for name in sorted(arrays)}
    header = {"kind": model.kind, "meta": model.meta, "context": context,
              "arrays": [[name, list(arr.shape), arr.dtype.str] for name, arr in arrays.items()]}
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC + len(header_bytes).to_bytes(8, "little") + header_bytes)
        for arr in arrays.values():
            fh.write(arr)  # its contiguous buffer, not a copy
    return path


def _file_dtype(arr: np.ndarray) -> str:
    return "<f4" if arr.dtype == np.float32 else "<f8"


def load_checkpoint(path) -> tuple[TrainedModel, dict]:
    """The model and context in ``path``; a malformed file raises ``DataFormatError``."""
    path = Path(path)
    try:
        return _decode(path.read_bytes())
    except DataFormatError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc


def _decode(blob: bytes) -> tuple[TrainedModel, dict]:
    if blob[:len(MAGIC)] != MAGIC:
        raise DataFormatError(f"not a {MAGIC!r} model checkpoint: it starts {blob[:len(MAGIC)]!r}")
    header_len = int.from_bytes(blob[len(MAGIC):_FIXED], "little")
    if _FIXED + header_len > len(blob):
        raise DataFormatError(f"truncated checkpoint: a header of {header_len} bytes does not "
                              f"fit in {len(blob)} bytes")
    try:
        header = json.loads(blob[_FIXED:_FIXED + header_len].decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8, bad or too deep JSON
        raise DataFormatError(f"bad checkpoint header: {exc}") from exc
    if not (isinstance(header, dict) and isinstance(header.get("meta"), dict)
            and isinstance(header.get("context", {}), dict)):
        raise DataFormatError("checkpoint header needs a 'kind', a 'meta' and a 'context' object")
    kind, meta, toc = header.get("kind"), header["meta"], header.get("arrays")
    if not isinstance(kind, str) or kind not in KINDS:
        raise DataFormatError(f"unknown model kind {kind!r}; valid: {sorted(KINDS)}")
    errors = meta_errors(kind, meta)
    if errors:
        raise DataFormatError(f"{kind} checkpoint meta {'; '.join(errors)}")
    if not isinstance(toc, list) or not all(
        isinstance(entry, list) and len(entry) == 3 and isinstance(entry[0], str)
        and isinstance(entry[1], list) and all(type(d) is int and d >= 0 for d in entry[1])
        and entry[2] in _DTYPES
        for entry in toc
    ):
        raise DataFormatError("checkpoint header needs 'arrays', a list of [name, shape, dtype] "
                              f"entries with a dtype of {' or '.join(_DTYPES)}")
    # Each layer lists two arrays, over 16 header bytes: that bounds the layout's loop.
    if type(meta.get("layers")) is int and 16 * meta["layers"] > header_len:
        raise DataFormatError(f"{kind} checkpoint has {meta['layers']} layers, more than its "
                              f"{header_len}-byte header can list")
    dtypes = [np.dtype(dtype) for _, _, dtype in toc]
    toc = [(name, tuple(shape)) for name, shape, _ in toc]
    model = TrainedModel(kind, {}, meta)
    try:
        error = _layout_error(toc, array_layout(model))
    except ArgumentError as exc:
        error = f"meta {exc}"
    if error:
        raise DataFormatError(f"{kind} checkpoint {error}")
    sizes = [math.prod(shape) for _, shape in toc]
    starts = list(accumulate((size * dtype.itemsize for size, dtype in zip(sizes, dtypes)),
                             initial=_FIXED + header_len))
    if starts[-1] != len(blob):
        raise DataFormatError(f"{'truncated' if starts[-1] > len(blob) else 'trailing bytes in'} "
                              f"checkpoint: its arrays end at byte {starts[-1]} of {len(blob)}")
    for (name, shape), size, dtype, start in zip(toc, sizes, dtypes, starts):
        # a read-only view, as bytes are
        arr = np.frombuffer(blob, dtype=dtype, count=size, offset=start).reshape(shape)
        if name.startswith(STATE_PREFIX):
            model.state[name[len(STATE_PREFIX):]] = arr
        else:
            model.params[name] = constant(arr, name)
    return model, header.get("context", {})


def _layout_error(toc: list[tuple[str, tuple]], expected: dict[str, tuple]) -> str | None:
    """The first way ``toc`` differs from the ``expected`` arrays, in name order."""
    got = dict(toc)
    for name in sorted(got.keys() | expected.keys()):
        if name not in got:
            return f"lacks array {name!r}"
        if name not in expected:
            return f"has an extra array {name!r}"
        if got[name] != expected[name]:
            return f"array {name!r} has shape {list(got[name])}, not {list(expected[name])}"
    if [name for name, _ in toc] != sorted(got):
        return "lists its arrays out of name order or more than once"
    return None
