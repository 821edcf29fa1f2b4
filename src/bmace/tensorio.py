"""Manifest-plus-blob container for named float32 tensors.

Two files: ``<base>.json`` holds a UTF-8 JSON manifest (the format tag
"bmace-ckpt-1", free-form metadata, and per-tensor name/shape/dtype/byte-offset
records) and ``<base>.bin`` holds the raw little-endian float32 values back
to back in manifest order. The manifest records the blob's length and
SHA-256, and loading checks the tag and both. Each file is written beside
its target and renamed over it, blob first and manifest last, so a reader
never sees a half-written file. Every JSON file the package writes takes
one form, ``json_text``, written as UTF-8 by ``write_json`` that same way.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from pathlib import Path

import numpy as np

CHECKPOINT_FORMAT = "bmace-ckpt-1"

_DTYPE_TAG = "f32le"
_F32 = np.dtype("<f4")


class BlobFormatError(ValueError):
    """Raised when a manifest or blob does not match the container contract."""


def sibling(path, suffix: str) -> Path:
    """``path`` less a trailing .json or .bin, with ``suffix`` appended.

    Other dots stay part of the name, so ``run/model.v2`` and
    ``run/model.v3`` name different files.
    """
    p = Path(path)
    if p.suffix in (".json", ".bin"):
        p = p.with_suffix("")
    return p.with_name(p.name + suffix)


def manifest_path(path) -> Path:
    return sibling(path, ".json")


def blob_path(path) -> Path:
    return sibling(path, ".bin")


def write_atomically(path: Path, data: bytes) -> None:
    """Write ``data`` to a temporary file beside ``path``, then rename it over ``path``."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(data)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def json_text(obj) -> str:
    """``obj`` in the package's JSON form: indent 1, keys in insertion order, a final newline."""
    return json.dumps(obj, indent=1) + "\n"


def write_json(path, obj) -> None:
    """Write ``obj`` to ``path`` in the JSON form, as UTF-8, atomically."""
    write_atomically(Path(path), json_text(obj).encode("utf-8"))


def write_tensors(path, meta: dict, named_arrays) -> tuple[Path, Path]:
    """Write (name, array) pairs; arrays are stored as little-endian float32."""
    records = []
    chunks = []
    offset = 0
    seen = set()
    for name, arr in named_arrays:
        if name in seen:
            raise BlobFormatError(f"duplicate tensor name {name!r}")
        seen.add(name)
        data = np.ascontiguousarray(np.asarray(arr), dtype=_F32)
        raw = data.tobytes()
        records.append({
            "name": name,
            "shape": list(data.shape),
            "dtype": _DTYPE_TAG,
            "offset": offset,
        })
        chunks.append(raw)
        offset += len(raw)
    blob = b"".join(chunks)
    manifest = {
        "format": CHECKPOINT_FORMAT,
        "meta": meta,
        "tensors": records,
        "blob_bytes": offset,
        "blob_sha256": hashlib.sha256(blob).hexdigest(),
    }
    mpath, bpath = manifest_path(path), blob_path(path)
    write_atomically(bpath, blob)
    write_json(mpath, manifest)
    return mpath, bpath


def _is_count(value) -> bool:
    """A JSON integer >= 0: not a float, and not a bool, which is an int subclass."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def read_tensors(path) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a container back; returns (meta, name -> float32 array)."""
    mpath, bpath = manifest_path(path), blob_path(path)
    try:
        manifest = json.loads(mpath.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise BlobFormatError(f"{mpath}: manifest is not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise BlobFormatError(f"{mpath}: manifest is a JSON {type(manifest).__name__}, not an object")
    fmt = manifest.get("format")
    if fmt != CHECKPOINT_FORMAT:
        raise BlobFormatError(f"{mpath}: format {fmt!r}, expected {CHECKPOINT_FORMAT!r}")
    meta, records = manifest.get("meta", {}), manifest.get("tensors")
    if not isinstance(meta, dict) or not isinstance(records, list):
        raise BlobFormatError(f"{mpath}: manifest needs a 'meta' object and a 'tensors' list")
    blob = bpath.read_bytes()
    declared = manifest.get("blob_bytes")
    if declared != len(blob):
        raise BlobFormatError(
            f"{bpath}: blob holds {len(blob)} bytes but manifest declares {declared}")
    if hashlib.sha256(blob).hexdigest() != manifest.get("blob_sha256"):
        raise BlobFormatError(f"{bpath}: blob does not match the manifest's SHA-256")
    tensors: dict[str, np.ndarray] = {}
    spans = []
    for rec in records:
        try:
            name, dtype, start, shape = rec["name"], rec["dtype"], rec["offset"], rec["shape"]
        except (KeyError, TypeError) as exc:
            raise BlobFormatError(f"{mpath}: malformed tensor record {rec!r}") from exc
        if not (isinstance(name, str) and _is_count(start) and isinstance(shape, list)
                and all(_is_count(s) for s in shape)):
            raise BlobFormatError(f"{mpath}: malformed tensor record {rec!r}")
        if name in tensors:
            raise BlobFormatError(f"{mpath}: duplicate tensor name in record {rec!r}")
        if dtype != _DTYPE_TAG:
            raise BlobFormatError(f"{mpath}: unsupported tensor dtype {dtype!r}")
        count = math.prod(shape)
        end = start + count * 4
        if end > len(blob):
            raise BlobFormatError(f"{bpath}: tensor {name!r} overruns the blob")
        if count:
            spans.append((start, end, name))
        tensors[name] = np.frombuffer(blob, dtype=_F32, count=count,
                                      offset=start).reshape(shape).copy()
    # Sorted by start, any overlap shows between neighbours.
    spans.sort()
    for (_, end, name), (start, _, other) in zip(spans, spans[1:]):
        if start < end:
            raise BlobFormatError(f"{mpath}: tensors {name!r} and {other!r} overlap in the blob")
    return meta, tensors
