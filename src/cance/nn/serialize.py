"""Checksummed binary container for model parameters.

Layout:
    4 bytes   magic b"CNCM"
    4 bytes   format version, uint32 little-endian
    8 bytes   header length, uint64 little-endian
    header    UTF-8 JSON: {"kind": ..., "meta": {...},
                           "arrays": [{"name": ..., "shape": [...]}, ...]}
    payload   the arrays' float64 data, little-endian, C order, in header order
    32 bytes  SHA-256 over everything above

Loads are bit-exact: the payload is the raw float64 memory of the arrays.
"""

import hashlib
import json

import numpy as np

from cance.errors import ModelFormatError, ShapeError

MAGIC = b"CNCM"
VERSION = 1


def save_container(path, kind: str, meta: dict, arrays: dict) -> None:
    """Write named float64 arrays plus a metadata dict to `path`."""
    entries = []
    blobs = []
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(arr, dtype=np.float64)
        entries.append({"name": name, "shape": list(arr.shape)})
        blobs.append(arr.astype("<f8", copy=False).tobytes())
    header = json.dumps(
        {"kind": kind, "meta": meta, "arrays": entries}, sort_keys=True
    ).encode("utf-8")
    body = (
        MAGIC
        + VERSION.to_bytes(4, "little")
        + len(header).to_bytes(8, "little")
        + header
        + b"".join(blobs)
    )
    with open(path, "wb") as fh:
        fh.write(body)
        fh.write(hashlib.sha256(body).digest())


def load_container(path):
    """Read back (kind, meta, arrays) written by save_container."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 48:
        raise ModelFormatError(f"{path}: truncated file")
    body, checksum = raw[:-32], raw[-32:]
    if hashlib.sha256(body).digest() != checksum:
        raise ModelFormatError(f"{path}: checksum mismatch")
    if body[:4] != MAGIC:
        raise ModelFormatError(f"{path}: bad magic bytes, not a model file")
    version = int.from_bytes(body[4:8], "little")
    if version != VERSION:
        raise ModelFormatError(f"{path}: format version {version}, expected {VERSION}")
    header_len = int.from_bytes(body[8:16], "little")
    if 16 + header_len > len(body):
        raise ModelFormatError(f"{path}: truncated header")
    try:
        header = json.loads(body[16 : 16 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ModelFormatError(f"{path}: unreadable header: {exc}") from exc
    _check_header(path, header)
    payload = body[16 + header_len :]
    declared = sum(int(np.prod(e["shape"])) for e in header["arrays"])
    if declared * 8 != len(payload):
        raise ShapeError(
            f"{path}: header declares {declared} float64 values, "
            f"payload holds {len(payload) // 8}"
        )
    arrays = {}
    offset = 0
    for entry in header["arrays"]:
        count = int(np.prod(entry["shape"]))
        arr = np.frombuffer(
            payload, dtype="<f8", count=count, offset=offset
        ).reshape(entry["shape"])
        arrays[entry["name"]] = arr.astype(np.float64)
        offset += count * 8
    return header["kind"], header["meta"], arrays


def _check_header(path, header) -> None:
    """Raise ModelFormatError unless the header has the layout above."""
    if not (isinstance(header, dict) and {"kind", "meta", "arrays"} <= header.keys()
            and isinstance(header["meta"], dict)
            and isinstance(header["arrays"], list)):
        raise ModelFormatError(f"{path}: header needs kind, meta and arrays")
    for entry in header["arrays"]:
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)
                and isinstance(entry.get("shape"), list)
                and all(type(d) is int and d >= 0 for d in entry["shape"])):
            raise ModelFormatError(
                f"{path}: array entry {entry!r} needs a name and a shape of "
                "non-negative integers"
            )

