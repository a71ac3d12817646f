"""Self-describing parameter container, sealed by its own sha256.

Layout: 8-byte magic, little-endian uint32 header length, a UTF-8 JSON
header, then every parameter's float64 values row-major little-endian in
header order, then any named text sections (UTF-8), then the 32-byte
sha256 digest of every byte before it. The header carries the format
version, parameter names/shapes/dtypes (always "float64"), text-section
names and byte lengths, and free-form metadata.

Every parameter value is finite: a NaN or an infinity is refused at save
and at load, so a diverged model is never written or served.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math
import os
import struct
from pathlib import Path
from typing import Dict, Optional, Tuple

import numpy as np

from .tensor import Tensor, parameter

MAGIC = b"SPKERN01"
FORMAT_VERSION = 2

DTYPE = "float64"  # the one dtype a container holds
_STORED = np.dtype("<f8")  # how its values are laid out
_HEADER_KEYS = ("format_version", "params", "sections", "meta")


def save_checkpoint(
    path,
    params: Dict[str, Tensor],
    meta: Optional[dict] = None,
    sections: Optional[Dict[str, str]] = None,
) -> None:
    """Writes the container, hashing it as it goes, and appends the digest.

    The bytes go to a temporary name (".tmp" appended) in the same
    directory, which os.replace then moves into place. A failure before
    the move leaves any previous checkpoint as it was and removes the
    temporary file. A parameter holding a NaN or an infinity is refused
    with a ValueError before anything is written.
    """
    path = Path(path)
    _require_finite(path, params)
    names = sorted(params)
    sections = sections or {}
    section_bytes = {name: text.encode("utf-8") for name, text in sections.items()}
    header = {
        "format_version": FORMAT_VERSION,
        "params": [
            {
                "name": name,
                "shape": list(params[name].shape),
                "dtype": DTYPE,
            }
            for name in names
        ],
        "sections": [
            {"name": name, "bytes": len(blob)} for name, blob in sorted(section_bytes.items())
        ],
        "meta": meta or {},
    }
    header_blob = json.dumps(header, sort_keys=True).encode("utf-8")
    blobs = itertools.chain(
        (MAGIC, struct.pack("<I", len(header_blob)), header_blob),
        (np.ascontiguousarray(params[name].data, dtype=_STORED).tobytes() for name in names),
        (blob for _, blob in sorted(section_bytes.items())),
    )
    temp = path.with_name(path.name + ".tmp")
    digest = hashlib.sha256()
    try:
        with open(temp, "wb") as fh:
            for blob in blobs:
                fh.write(blob)
                digest.update(blob)
            fh.write(digest.digest())
        os.replace(temp, path)
    finally:
        temp.unlink(missing_ok=True)


def load_checkpoint(path) -> Tuple[Dict[str, Tensor], dict, Dict[str, str]]:
    """Returns (trainable params, meta, text sections).

    A container that is cut short, has bytes after its digest, has a
    header that does not describe the layout above, or whose digest
    does not match the bytes before it is refused with a ValueError
    naming the path. Structural errors are reported before the digest
    is compared, and a sealed parameter holding a NaN or an infinity
    after it.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        try:
            params, meta, sections = _read_container(fh, os.fstat(fh.fileno()).st_size)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        except (KeyError, TypeError) as exc:  # a header entry of the wrong shape
            raise ValueError(f"{path}: malformed header entry ({exc!r})") from None
    _require_finite(path, params)
    return params, meta, sections


def _require_finite(path: Path, params: Dict[str, Tensor]) -> None:
    """Raises ValueError naming `path` and the first parameter, by name,
    that holds a NaN or an infinity."""
    for name in sorted(params):
        if not np.isfinite(params[name].data).all():
            raise ValueError(f"{path}: parameter {name!r} holds a non-finite value")


def _read_container(fh, size: int) -> Tuple[Dict[str, Tensor], dict, Dict[str, str]]:
    """Parses the container in `fh`, hashing every byte before the digest."""
    digest = hashlib.sha256()

    def read(count: int, what: str) -> bytes:
        # checked before reading, so a corrupt length never allocates
        remaining = size - fh.tell()
        if not 0 <= count <= remaining:
            raise ValueError(f"cut short or corrupt: {what} needs {count} bytes, {remaining} remain")
        blob = fh.read(count)
        digest.update(blob)
        return blob

    magic = fh.read(len(MAGIC))
    if magic != MAGIC:
        raise ValueError(f"not a parameter container (bad magic {magic!r})")
    digest.update(magic)
    (header_len,) = struct.unpack("<I", read(4, "header length"))
    header = json.loads(read(header_len, "header").decode("utf-8"))
    if not (isinstance(header, dict) and all(k in header for k in _HEADER_KEYS)
            and isinstance(header["meta"], dict)):
        raise ValueError(f"the header needs the keys {_HEADER_KEYS}, with an object as meta")
    if header["format_version"] != FORMAT_VERSION:
        raise ValueError(f"unsupported container version {header['format_version']!r}")
    params: Dict[str, Tensor] = {}
    for entry in header["params"]:
        if entry["dtype"] != DTYPE:
            raise ValueError(f"unsupported dtype {entry['dtype']!r} for {entry['name']!r}")
        raw = read(math.prod(entry["shape"]) * _STORED.itemsize, f"parameter {entry['name']!r}")
        params[entry["name"]] = parameter(np.frombuffer(raw, dtype=_STORED).reshape(entry["shape"]))
    sections = {
        entry["name"]: read(entry["bytes"], f"section {entry['name']!r}").decode("utf-8")
        for entry in header["sections"]
    }
    computed = digest.digest()
    recorded = read(digest.digest_size, "sha256 digest")
    if fh.read(1):
        raise ValueError("trailing bytes after the sha256 digest")
    if recorded != computed:
        raise ValueError(f"sha256 {computed.hex()} does not match the recorded {recorded.hex()}")
    return params, header["meta"], sections


def require_kind(meta: dict, kind: str) -> None:
    """Raises ValueError unless a checkpoint's meta says it holds `kind`."""
    if meta.get("kind") != kind:
        raise ValueError(f"checkpoint holds {meta.get('kind')!r}, expected {kind!r}")


def require_params(params: Dict[str, Tensor], shapes: Dict[str, Tuple[int, ...]],
                   model: str) -> None:
    """Raises ValueError unless `params` has exactly the names in `shapes`,
    each with its shape; `model` names the model in the message."""
    missing, unknown = sorted(set(shapes) - set(params)), sorted(set(params) - set(shapes))
    if missing or unknown:
        raise ValueError(f"parameters do not match the configured {model}: "
                         f"missing {missing}, unknown {unknown}")
    for name, shape in shapes.items():
        if params[name].shape != shape:
            raise ValueError(f"parameter {name} has shape {params[name].shape}, "
                             f"the configured {model} needs {shape}")


def config_from_meta(cls, data):
    """The config dataclass `cls` rebuilt from a checkpoint's meta.

    Raises ValueError unless `data` is an object naming exactly the
    fields of `cls`, each holding a value of the type of the field's
    default. An int stands for a float, and a list of the elements'
    type for a tuple.
    """
    if not isinstance(data, dict):
        raise ValueError(f"checkpoint meta needs a {cls.__name__} object under 'config'")
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    missing, unknown = sorted(set(defaults) - set(data)), sorted(set(data) - set(defaults))
    if missing or unknown:
        raise ValueError(f"{cls.__name__} in checkpoint meta: missing keys {missing}, "
                         f"unknown keys {unknown}")
    values = {}
    for name, default in defaults.items():
        value = data[name]
        if isinstance(default, tuple) and isinstance(value, list):
            value = tuple(value)
        if not _same_type(value, default):
            raise ValueError(f"{cls.__name__}.{name} in checkpoint meta is {data[name]!r}, "
                             f"expected a value like {default!r}")
        values[name] = value
    return cls(**values)


def _same_type(value, default) -> bool:
    if isinstance(default, tuple):
        return (isinstance(value, tuple) and len(value) == len(default)
                and all(map(_same_type, value, default)))
    if isinstance(default, float) and type(value) is int:
        return True
    return type(value) is type(default)
