"""Canonical value serialization: JSON text form and 64-bit state hashing.

The JSON form is a variant tag plus payload:

    {"d": 3}                                  discrete index
    {"v": [0.5, 1.0]}                         vector
    {"g": {"shape": [h, w, c], "data": [...]}} grid, row-major
    {"m": {"key": <value>, ...}}              mapping
    {"s": [<value>, ...]}                     sequence

Floats are emitted with Python's shortest round-trip repr, so equal doubles
always produce identical text and parsing recovers the exact bits. Hashes are
blake2b-64 over the canonical little-endian byte form (see Value.canonical_bytes),
so they are endianness- and platform-independent.
"""

from __future__ import annotations

import hashlib
from typing import Any

from .errors import FormatError
from .values import SMALL_DISCRETE, DiscreteV, GridV, MappingV, SeqV, Value, VectorV


def value_to_jsonable(v: Value) -> dict[str, Any]:
    if isinstance(v, DiscreteV):
        return {"d": v.index}
    if isinstance(v, VectorV):
        return {"v": list(v.entries)}
    if isinstance(v, GridV):
        return {"g": {"shape": list(v.shape), "data": list(v.entries)}}
    if isinstance(v, MappingV):
        return {"m": {k: value_to_jsonable(sub) for k, sub in zip(v.keys(), v.values)}}
    if isinstance(v, SeqV):
        return {"s": [value_to_jsonable(sub) for sub in v.items]}
    raise TypeError(f"not a Value: {v!r}")


_NUMBERS = {int, float}  # what json.loads gives for a JSON number; bool is neither
_INTS = {int}


def _json_list(payload: Any, types: set[type], what: str) -> list:
    """payload if it is a JSON array whose items' exact types are in types; else FormatError."""
    if type(payload) is not list or not set(map(type, payload)) <= types:
        raise FormatError(f"{what} must be a JSON array of "
                          f"{' or '.join(sorted(t.__name__ for t in types))}, got {payload!r}")
    return payload


def value_from_jsonable(obj: Any) -> Value:
    """Decode the JSON form strictly: a payload of any other JSON type is a FormatError.

    A discrete index is a JSON int (not a bool, float or string), vector
    entries and grid data are JSON numbers, a grid shape is JSON ints, and
    sequences and grid fields are JSON arrays.
    """
    if not isinstance(obj, dict) or len(obj) != 1:
        raise FormatError(f"malformed value payload: {obj!r}")
    tag, payload = next(iter(obj.items()))
    try:
        if tag == "d":
            if type(payload) is not int:
                raise FormatError(f"discrete index must be a JSON int, got {payload!r}")
            if 0 <= payload < len(SMALL_DISCRETE):
                return SMALL_DISCRETE[payload]
            return DiscreteV(payload)
        if tag == "v":
            return VectorV(tuple(_json_list(payload, _NUMBERS, "vector entries")))
        if tag == "g":
            if type(payload) is not dict or payload.keys() != {"shape", "data"}:
                raise FormatError(f"grid payload must hold exactly shape and data, "
                                  f"got {payload!r}")
            return GridV(tuple(_json_list(payload["shape"], _INTS, "grid shape")),
                         tuple(_json_list(payload["data"], _NUMBERS, "grid data")))
        if tag == "m":
            return MappingV(tuple((k, value_from_jsonable(sub)) for k, sub in payload.items()))
        if tag == "s":
            if type(payload) is not list:
                raise FormatError(f"sequence items must be a JSON array, got {payload!r}")
            return SeqV(tuple(value_from_jsonable(sub) for sub in payload))
    except FormatError:
        raise
    except Exception as exc:
        raise FormatError(f"malformed {tag!r} payload: {payload!r}") from exc
    raise FormatError(f"unknown value tag {tag!r}")


def bytes_hash_hex(data: bytes) -> str:
    """The 64-bit hash of canonical bytes as 16 lowercase hex chars, as stored in replays.

    The digest is read as a little-endian int, so its hex is the reversed digest's.
    """
    return hashlib.blake2b(data, digest_size=8).digest()[::-1].hex()


def value_hash(v: Value) -> int:
    """64-bit hash of the canonical byte form."""
    return int(value_hash_hex(v), 16)


def value_hash_hex(v: Value) -> str:
    """value_hash as 16 lowercase hex chars."""
    return bytes_hash_hex(v.canonical_bytes())
