"""Canonical serialization for chain payloads and model weights.

Transactions, blocks, and contract call arguments must hash identically on
every node, so all wire encoding goes through ``canonical_dumps``: JSON with
sorted keys and explicit tagging for bytes and numpy arrays.  This plays the
role RLP plays in Ethereum.
"""

from __future__ import annotations

import base64
import json
from typing import Any

import numpy as np

from repro.errors import SerializationError

_BYTES_TAG = "__bytes_b64__"
_NDARRAY_TAG = "__ndarray_b64__"

#: The one encoder ``canonical_dumps`` uses: the same settings as
#: ``json.dumps(sort_keys=True, separators=(",", ":"))`` without
#: building a fresh encoder on every call (about a third of the cost of
#: encoding a small payload, such as a read's arguments).
_CANONICAL_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def encode_bytes(data: bytes) -> str:
    """Base64-encode bytes into a JSON-safe string."""
    return base64.b64encode(data).decode("ascii")


def decode_bytes(text: str) -> bytes:
    """Inverse of :func:`encode_bytes`."""
    try:
        return base64.b64decode(text.encode("ascii"), validate=True)
    except Exception as exc:  # binascii.Error and friends
        raise SerializationError(f"invalid base64 payload: {exc}") from exc


def _encode(obj: Any) -> Any:
    if isinstance(obj, dict):
        return {str(key): _encode(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_encode(item) for item in obj]
    if isinstance(obj, bytes):
        return {_BYTES_TAG: encode_bytes(obj)}
    if isinstance(obj, np.ndarray):
        contiguous = np.ascontiguousarray(obj)
        return {
            _NDARRAY_TAG: encode_bytes(contiguous.tobytes()),
            "dtype": str(contiguous.dtype),
            "shape": list(contiguous.shape),
        }
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if obj is None or isinstance(obj, (str, int, float, bool)):
        return obj
    raise SerializationError(f"cannot canonically serialize {type(obj).__name__}")


def _decode(obj: Any) -> Any:
    if isinstance(obj, dict):
        if set(obj) == {_BYTES_TAG}:
            return decode_bytes(obj[_BYTES_TAG])
        if _NDARRAY_TAG in obj and set(obj) == {_NDARRAY_TAG, "dtype", "shape"}:
            raw = decode_bytes(obj[_NDARRAY_TAG])
            array = np.frombuffer(raw, dtype=np.dtype(obj["dtype"]))
            return array.reshape(obj["shape"]).copy()
        return {key: _decode(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [_decode(item) for item in obj]
    return obj


def canonical_dumps(obj: Any) -> bytes:
    """Serialize ``obj`` to canonical (sorted-key) JSON bytes."""
    try:
        return _CANONICAL_ENCODER.encode(_encode(obj)).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise SerializationError(str(exc)) from exc


def canonical_loads(data: bytes) -> Any:
    """Inverse of :func:`canonical_dumps`."""
    try:
        return _decode(json.loads(data.decode("utf-8")))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SerializationError(f"invalid canonical payload: {exc}") from exc
