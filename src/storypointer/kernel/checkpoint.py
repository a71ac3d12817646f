"""Self-describing parameter container with a sidecar manifest.

Layout: 8-byte magic, little-endian uint32 header length, a UTF-8 JSON
header, then every parameter's values row-major little-endian in header
order, then any named text sections (UTF-8). The header carries the
format version, parameter names/shapes/dtypes, text-section names and
byte lengths, and free-form metadata. The sidecar manifest (same path
plus ".manifest.txt") lists the parameters and a sha256 of the
container so a reader can verify integrity without parsing it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from pathlib import Path
from typing import Dict, Optional, Tuple

import numpy as np

from .tensor import Tensor, parameter

MAGIC = b"SPKERN01"
FORMAT_VERSION = 1

_DTYPES = {"float64": "<f8", "float32": "<f4"}
_HEADER_KEYS = ("format_version", "params", "sections", "meta")


def save_checkpoint(
    path,
    params: Dict[str, Tensor],
    meta: Optional[dict] = None,
    sections: Optional[Dict[str, str]] = None,
) -> None:
    path = Path(path)
    names = sorted(params)
    sections = sections or {}
    section_bytes = {name: text.encode("utf-8") for name, text in sections.items()}
    header = {
        "format_version": FORMAT_VERSION,
        "params": [
            {
                "name": name,
                "shape": list(params[name].shape),
                "dtype": str(params[name].dtype),
            }
            for name in names
        ],
        "sections": [
            {"name": name, "bytes": len(blob)} for name, blob in sorted(section_bytes.items())
        ],
        "meta": meta or {},
    }
    for entry in header["params"]:
        if entry["dtype"] not in _DTYPES:
            raise ValueError(f"unsupported dtype {entry['dtype']} for {entry['name']}")
    header_blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(header_blob)))
        fh.write(header_blob)
        for name in names:
            arr = np.ascontiguousarray(params[name].data, dtype=_DTYPES[str(params[name].dtype)])
            fh.write(arr.tobytes())
        for name, blob in sorted(section_bytes.items()):
            fh.write(blob)
    _write_manifest(path, header)


def load_checkpoint(path) -> Tuple[Dict[str, Tensor], dict, Dict[str, str]]:
    """Returns (trainable params, meta, text sections).

    A container that is cut short, has bytes after its last section, or
    has a header that does not describe the layout above is refused
    with a ValueError naming the path.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        try:
            return _read_container(fh, os.fstat(fh.fileno()).st_size)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        except (KeyError, TypeError) as exc:  # a header entry of the wrong shape
            raise ValueError(f"{path}: malformed header entry ({exc!r})") from None


def _read_container(fh, size: int) -> Tuple[Dict[str, Tensor], dict, Dict[str, str]]:
    def read(count: int, what: str) -> bytes:
        # checked before reading, so a corrupt length never allocates
        remaining = size - fh.tell()
        if not 0 <= count <= remaining:
            raise ValueError(f"cut short or corrupt: {what} needs {count} bytes, {remaining} remain")
        return fh.read(count)

    magic = fh.read(len(MAGIC))
    if magic != MAGIC:
        raise ValueError(f"not a parameter container (bad magic {magic!r})")
    (header_len,) = struct.unpack("<I", read(4, "header length"))
    header = json.loads(read(header_len, "header").decode("utf-8"))
    if not (isinstance(header, dict) and all(k in header for k in _HEADER_KEYS)
            and isinstance(header["meta"], dict)):
        raise ValueError(f"the header needs the keys {_HEADER_KEYS}, with an object as meta")
    if header["format_version"] != FORMAT_VERSION:
        raise ValueError(f"unsupported container version {header['format_version']!r}")
    params: Dict[str, Tensor] = {}
    for entry in header["params"]:
        if entry["dtype"] not in _DTYPES:
            raise ValueError(f"unsupported dtype {entry['dtype']!r} for {entry['name']!r}")
        dtype = np.dtype(_DTYPES[entry["dtype"]])
        raw = read(math.prod(entry["shape"]) * dtype.itemsize, f"parameter {entry['name']!r}")
        arr = np.frombuffer(raw, dtype=dtype).reshape(entry["shape"]).astype(entry["dtype"])
        params[entry["name"]] = parameter(arr)
    sections = {
        entry["name"]: read(entry["bytes"], f"section {entry['name']!r}").decode("utf-8")
        for entry in header["sections"]
    }
    if fh.read(1):
        raise ValueError("trailing bytes after the last section")
    return params, header["meta"], sections


def require_kind(meta: dict, kind: str) -> None:
    """Raises ValueError unless a checkpoint's meta says it holds `kind`."""
    if meta.get("kind") != kind:
        raise ValueError(f"checkpoint holds {meta.get('kind')!r}, expected {kind!r}")


def checkpoint_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(path: Path, header: dict) -> None:
    lines = [f"container: {path.name}", f"format_version: {header['format_version']}"]
    for entry in header["params"]:
        shape = "x".join(str(s) for s in entry["shape"]) or "scalar"
        lines.append(f"param: {entry['name']} shape={shape} dtype={entry['dtype']}")
    for entry in header.get("sections", []):
        lines.append(f"section: {entry['name']} bytes={entry['bytes']}")
    lines.append(f"sha256: {checkpoint_sha256(path)}")
    manifest_path = path.with_name(path.name + ".manifest.txt")
    manifest_path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def verify_manifest(path) -> bool:
    """True if the sidecar manifest's checksum matches the container."""
    path = Path(path)
    manifest_path = path.with_name(path.name + ".manifest.txt")
    recorded = None
    for line in manifest_path.read_text(encoding="utf-8").splitlines():
        if line.startswith("sha256: "):
            recorded = line.split(": ", 1)[1].strip()
    return recorded == checkpoint_sha256(path)
