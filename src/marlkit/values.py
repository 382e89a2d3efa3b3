"""Observation/action payloads and their space descriptors.

Values are immutable recursive payloads: a discrete index, a flat vector, a
(height, width, channels) grid in row-major order, a string-keyed mapping, or
an ordered sequence. Spaces describe sets of values and support membership
tests, sampling and canonical flattening.

Equality of values is structural and exact: two values are equal iff their
canonical little-endian serializations are byte-identical, which makes real
entries compare bitwise (0.0 != -0.0, and equal-bit NaNs compare equal).
Mappings iterate in ascending lexicographic key order everywhere.
"""

from __future__ import annotations

import math
import struct
from collections import abc
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import repeat
from operator import itemgetter
from typing import Iterator, Sequence

from .rng import RngStream

_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")


class Value:
    """Base class for observation/action payloads."""

    __slots__ = ()

    def canonical_bytes(self) -> bytes:
        """Canonical little-endian serialization; the basis of equality and hashing."""
        cb = self._cb
        if cb is None:
            parts: list[bytes] = []
            self._encode(parts)
            cb = b"".join(parts)
            object.__setattr__(self, "_cb", cb)
        return cb

    def _encode(self, out: list[bytes]) -> None:
        raise NotImplementedError

    def __eq__(self, other) -> bool:
        if not isinstance(other, Value):
            return NotImplemented
        return self.canonical_bytes() == other.canonical_bytes()

    def __ne__(self, other) -> bool:
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __hash__(self) -> int:
        return hash(self.canonical_bytes())


@lru_cache(maxsize=256)
def _floats_struct(count: int) -> struct.Struct:
    return struct.Struct(f"<{count}d")


def _pack_floats(values: Sequence[float]) -> bytes:
    return _floats_struct(len(values)).pack(*values)


@dataclass(frozen=True, slots=True, eq=False)
class DiscreteV(Value):
    """A single non-negative index below 2**64 (its canonical bytes hold a u64)."""

    index: int
    _cb: bytes | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        index = self.index
        if not isinstance(index, int) or isinstance(index, bool) or not 0 <= index < 2**64:
            raise ValueError(f"discrete index must be an int in [0, 2**64), got {index!r}")

    def _encode(self, out: list[bytes]) -> None:
        out.append(b"\x01" + _U64.pack(self.index))


def _float_tuple(entries) -> tuple[float, ...]:
    # set(map(type, ...)) runs the exact-float test in C. Any other entry
    # type (int, bool, a float subclass) takes the converting path.
    if type(entries) is tuple and set(map(type, entries)) <= {float}:
        return entries
    return tuple(map(float, entries))


@dataclass(frozen=True, slots=True, eq=False)
class VectorV(Value):
    """An ordered tuple of reals."""

    entries: tuple[float, ...]
    _cb: bytes | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "entries", _float_tuple(self.entries))

    def _encode(self, out: list[bytes]) -> None:
        out.append(b"\x02" + _U32.pack(len(self.entries)) + _pack_floats(self.entries))

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True, slots=True, eq=False)
class GridV(Value):
    """Reals on a (height, width, channels) grid, stored row-major."""

    shape: tuple[int, int, int]
    entries: tuple[float, ...]
    _cb: bytes | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        shape = tuple(map(int, self.shape))
        if len(shape) != 3 or min(shape) <= 0:
            raise ValueError(f"grid shape must be 3 positive ints, got {self.shape!r}")
        entries = _float_tuple(self.entries)
        h, w, c = shape
        if len(entries) != h * w * c:
            raise ValueError(f"grid of shape {shape} needs {h * w * c} entries, got {len(entries)}")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "entries", entries)

    def at(self, row: int, col: int, channel: int = 0) -> float:
        h, w, c = self.shape
        return self.entries[(row * w + col) * c + channel]

    def _encode(self, out: list[bytes]) -> None:
        h, w, c = self.shape
        out.append(b"\x03" + _U32.pack(h) + _U32.pack(w) + _U32.pack(c) + _pack_floats(self.entries))


_KEY = itemgetter(0)
_STR = {str}


@lru_cache(maxsize=1024)
def _key_prefix(key: str) -> bytes:
    """A mapping key's canonical bytes: u32 length + UTF-8."""
    raw = key.encode("utf-8")
    return _U32.pack(len(raw)) + raw


def _sorted_index(raw, what: str) -> tuple[tuple, dict]:
    """(entries sorted by key, key -> value dict) from a mapping or (key, value) pairs.

    Raises ValueError on a duplicate key.
    """
    if type(raw) is tuple:
        if not raw:
            return (), {}
    elif isinstance(raw, dict) or isinstance(raw, abc.Mapping):
        raw = raw.items()
    items = sorted(raw, key=_KEY)
    try:
        index = dict(items)
    except (TypeError, ValueError):
        # A pair that does not unpack, or an unhashable key: raise what
        # unpacking every pair and then hashing every key raises.
        set([k for k, _ in items])
        raise
    if len(index) != len(items):
        raise ValueError(f"{what} keys must be unique")
    return tuple(items), index


@dataclass(frozen=True, slots=True, eq=False)
class MappingV(Value):
    """String-keyed mapping of values; iterates in ascending key order.

    Lookup (get, [], in) is a dict lookup. Construction checks that keys are
    unique str and values are Value.
    """

    entries: tuple[tuple[str, Value], ...]
    _cb: bytes | None = field(default=None, init=False, repr=False)
    _index: dict[str, Value] = field(init=False, repr=False)

    def __post_init__(self):
        entries, index = _sorted_index(self.entries, "mapping")
        # Exact str keys take the set test; str subclasses fall through to isinstance.
        if not ((set(map(type, index)) <= _STR or all(map(isinstance, index, repeat(str))))
                and all(map(isinstance, index.values(), repeat(Value)))):
            for k, v in entries:
                if not isinstance(k, str):
                    raise ValueError(f"mapping keys must be str, got {k!r}")
                if not isinstance(v, Value):
                    raise ValueError(f"mapping values must be Value, got {v!r}")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "_index", index)

    def keys(self) -> tuple[str, ...]:
        return tuple(self._index)

    def items(self) -> tuple[tuple[str, Value], ...]:
        return self.entries

    def get(self, key: str, default: Value | None = None) -> Value | None:
        try:
            return self._index.get(key, default)
        except TypeError:  # an unhashable key is in no mapping
            return default

    def __getitem__(self, key: str) -> Value:
        try:
            return self._index[key]
        except TypeError:
            raise KeyError(key) from None

    def __contains__(self, key: str) -> bool:
        try:
            return key in self._index
        except TypeError:
            return False

    def _encode(self, out: list[bytes]) -> None:
        out.append(b"\x04" + _U32.pack(len(self.entries)))
        for k, v in self.entries:
            out.append(_key_prefix(k))
            v._encode(out)


def vector_mapping_struct(layout: Sequence[tuple[str, int]]
                          ) -> tuple[struct.Struct, tuple[bytes, ...]]:
    """A struct for the canonical bytes of a mapping of vectors with fixed keys and lengths.

    layout is one or more (key, entry count) pairs in ascending key order. Per key, the
    struct holds an "s" field for the constant bytes before that vector's
    doubles (the mapping's tag and count before the first key, the key, the
    vector's tag and count), then the doubles; the second result holds those
    constant fields. pack(prefix_0, *entries_0, prefix_1, *entries_1, ...)
    equals MappingV({key_i: VectorV(entries_i)}).canonical_bytes().
    """
    keys = [key for key, _ in layout]
    if not keys or keys != sorted(set(keys)):
        raise ValueError(f"layout keys must be unique, ascending and at least one, got {keys}")
    fmt, prefixes = "<", []
    head = b"\x04" + _U32.pack(len(layout))
    for key, count in layout:
        prefix = head + _key_prefix(key) + b"\x02" + _U32.pack(count)
        fmt += f"{len(prefix)}s{count}d"
        prefixes.append(prefix)
        head = b""
    return struct.Struct(fmt), tuple(prefixes)


@dataclass(frozen=True, slots=True, eq=False)
class SeqV(Value):
    """An ordered sequence of values."""

    items: tuple[Value, ...]
    _cb: bytes | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        items = tuple(self.items)
        for v in items:
            if not isinstance(v, Value):
                raise ValueError(f"sequence items must be Value, got {v!r}")
        object.__setattr__(self, "items", items)

    def __len__(self) -> int:
        return len(self.items)

    def __getitem__(self, i: int) -> Value:
        return self.items[i]

    def __iter__(self) -> Iterator[Value]:
        return iter(self.items)

    def _encode(self, out: list[bytes]) -> None:
        out.append(b"\x05" + _U32.pack(len(self.items)))
        for v in self.items:
            v._encode(out)


# ---------------------------------------------------------------------------
# Space descriptors


class SpaceSpec:
    """Base class for space descriptors."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class DiscreteSpec(SpaceSpec):
    """Indices 0..n-1."""

    n: int

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"discrete space size must be >= 1, got {self.n!r}")


@dataclass(frozen=True, slots=True)
class BoxSpec(SpaceSpec):
    """Bounded reals, shaped [length] for vectors or [h, w, c] for grids."""

    shape: tuple[int, ...]
    low: float
    high: float

    def __post_init__(self):
        shape = tuple(int(s) for s in self.shape)
        if len(shape) not in (1, 3) or any(s < 0 for s in shape):
            raise ValueError(f"box shape must be [len] or [h, w, c], got {self.shape!r}")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "low", float(self.low))
        object.__setattr__(self, "high", float(self.high))
        if not self.low <= self.high:
            raise ValueError(f"box bounds must satisfy low <= high, got [{self.low}, {self.high}]")


@dataclass(frozen=True, slots=True)
class MappingSpec(SpaceSpec):
    """String-keyed mapping of sub-spaces, in ascending key order."""

    entries: tuple[tuple[str, SpaceSpec], ...]
    _index: dict[str, SpaceSpec] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        entries, index = _sorted_index(self.entries, "mapping spec")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "_index", index)

    def keys(self) -> tuple[str, ...]:
        return tuple(self._index)

    def items(self) -> tuple[tuple[str, SpaceSpec], ...]:
        return self.entries

    def __getitem__(self, key: str) -> SpaceSpec:
        try:
            return self._index[key]
        except TypeError:
            raise KeyError(key) from None


@dataclass(frozen=True, slots=True)
class SeqSpec(SpaceSpec):
    """An ordered tuple of sub-spaces."""

    items: tuple[SpaceSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(self.items))

    def __len__(self) -> int:
        return len(self.items)

    def __getitem__(self, i: int) -> SpaceSpec:
        return self.items[i]


# ---------------------------------------------------------------------------
# Operations


def space_contains(spec: SpaceSpec, v: Value) -> bool:
    """True iff v structurally matches spec with all entries within bounds.

    Total: never raises on mismatched variants.
    """
    if isinstance(spec, DiscreteSpec):
        return isinstance(v, DiscreteV) and v.index < spec.n
    if isinstance(spec, BoxSpec):
        if len(spec.shape) == 1:
            if not isinstance(v, VectorV) or len(v.entries) != spec.shape[0]:
                return False
            entries = v.entries
        else:
            if not isinstance(v, GridV) or v.shape != spec.shape:
                return False
            entries = v.entries
        lo, hi = spec.low, spec.high
        return all(lo <= e <= hi for e in entries)
    if isinstance(spec, MappingSpec):
        if not isinstance(v, MappingV) or v.keys() != spec.keys():
            return False
        return all(space_contains(s, val) for (_, s), (_, val) in zip(spec.entries, v.entries))
    if isinstance(spec, SeqSpec):
        if not isinstance(v, SeqV) or len(v) != len(spec):
            return False
        return all(space_contains(s, val) for s, val in zip(spec.items, v.items))
    return False


def space_sample(spec: SpaceSpec, rng: RngStream) -> Value:
    """Draw a uniform member of spec from rng; deterministic given the stream."""
    if isinstance(spec, DiscreteSpec):
        return DiscreteV(rng.randrange(spec.n))
    if isinstance(spec, BoxSpec):
        count = math.prod(spec.shape)
        entries = tuple(rng.uniform(spec.low, spec.high) for _ in range(count))
        if len(spec.shape) == 1:
            return VectorV(entries)
        return GridV(spec.shape, entries)
    if isinstance(spec, MappingSpec):
        return MappingV(tuple((k, space_sample(s, rng)) for k, s in spec.entries))
    if isinstance(spec, SeqSpec):
        return SeqV(tuple(space_sample(s, rng) for s in spec.items))
    raise TypeError(f"cannot sample from {spec!r}")


def _flatten_into(v: Value, spec: SpaceSpec | None, out: list[float]) -> None:
    if isinstance(v, DiscreteV):
        if isinstance(spec, DiscreteSpec):
            one_hot = [0.0] * spec.n
            one_hot[v.index] = 1.0
            out.extend(one_hot)
        else:
            out.append(float(v.index))
    elif isinstance(v, (VectorV, GridV)):
        out.extend(v.entries)
    elif isinstance(v, MappingV):
        for k, sub in v.entries:
            sub_spec = spec[k] if isinstance(spec, MappingSpec) else None
            _flatten_into(sub, sub_spec, out)
    elif isinstance(v, SeqV):
        for i, sub in enumerate(v.items):
            sub_spec = spec[i] if isinstance(spec, SeqSpec) else None
            _flatten_into(sub, sub_spec, out)
    else:
        raise TypeError(f"cannot flatten {v!r}")


def flatten(v: Value, spec: SpaceSpec | None = None) -> VectorV:
    """Canonical flattening to a vector.

    Mappings flatten by ascending key, sequences in order, grids row-major.
    A discrete index becomes a one-hot of length n when its spec is provided,
    else the single scalar index.
    """
    out: list[float] = []
    _flatten_into(v, spec, out)
    return VectorV(tuple(out))


def flat_length(spec: SpaceSpec) -> int:
    """Length of flatten(v, spec) for any v in spec."""
    if isinstance(spec, DiscreteSpec):
        return spec.n
    if isinstance(spec, BoxSpec):
        return math.prod(spec.shape)
    if isinstance(spec, MappingSpec):
        return sum(flat_length(s) for _, s in spec.entries)
    if isinstance(spec, SeqSpec):
        return sum(flat_length(s) for s in spec.items)
    raise TypeError(f"cannot measure {spec!r}")


def flat_bounds(spec: SpaceSpec) -> tuple[float, float]:
    """(low, high) covering every scalar of the flattened form of spec."""
    if isinstance(spec, DiscreteSpec):
        return 0.0, 1.0
    if isinstance(spec, BoxSpec):
        return spec.low, spec.high
    if isinstance(spec, MappingSpec):
        subs = [flat_bounds(s) for _, s in spec.entries]
    elif isinstance(spec, SeqSpec):
        subs = [flat_bounds(s) for s in spec.items]
    else:
        raise TypeError(f"cannot bound {spec!r}")
    if not subs:
        return 0.0, 0.0
    return min(lo for lo, _ in subs), max(hi for _, hi in subs)
