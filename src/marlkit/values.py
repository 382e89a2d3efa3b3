"""Observation/action payloads and their space descriptors.

Values are immutable recursive payloads: a discrete index, a flat vector, a
(height, width, channels) grid in row-major order, a string-keyed mapping, or
an ordered sequence. Spaces describe sets of values and support membership
tests, sampling and canonical flattening.

Equality of values is structural and exact: two values are equal iff their
canonical little-endian serializations are byte-identical, which makes real
entries compare bitwise (0.0 != -0.0, and equal-bit NaNs compare equal).
Mappings iterate in ascending lexicographic key order everywhere. Each is a
shared KeyLayout (its keys, checked once) and a tuple of values; envs and
nodes build every per-tick mapping as MappingV(values, layout), from a
layout read at setup, which checks only the values.

Each value class is a frozen slots dataclass whose constructor (made by
_slot_init) stores every field through its slot descriptor and then calls
__post_init__, which holds all of the class's checks and conversions.
Assigning or deleting a field afterwards raises FrozenInstanceError.
"""

from __future__ import annotations

import math
import struct
from collections import abc
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from functools import lru_cache
from operator import is_, itemgetter, lt
from typing import Iterator, Sequence

from .rng import RngStream

_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")


class Value:
    """Base class for observation/action payloads."""

    __slots__ = ()

    def canonical_bytes(self) -> bytes:
        """Canonical little-endian serialization, the basis of equality and hashing;
        encoded on every call, as a value keeps nothing beside its fields."""
        parts: list[bytes] = []
        self._encode(parts)
        return b"".join(parts)

    def _encode(self, out: list[bytes]) -> None:
        raise NotImplementedError

    def __eq__(self, other) -> bool:
        if not isinstance(other, Value):
            return NotImplemented
        return self.canonical_bytes() == other.canonical_bytes()

    def __hash__(self) -> int:
        return hash(self.canonical_bytes())


# The constructors' tests of canonical input. On CPython 3.11 a plain loop of
# type tests ran faster than the C-level forms (all(map(isinstance, ...)),
# set.issuperset(map(type, ...))) at every size measured, 1 to 968 entries.
def _exact(items, cls: type) -> bool:
    """Whether items is a tuple whose every entry's type is exactly cls."""
    if type(items) is not tuple:
        return False
    for x in items:
        if type(x) is not cls:
            return False
    return True


def _all_values(items) -> bool:
    """Whether every item is a Value."""
    for v in items:
        if not isinstance(v, Value):
            return False
    return True


@lru_cache(maxsize=256)
def _floats_struct(count: int) -> struct.Struct:
    return struct.Struct(f"<{count}d")


def _pack_floats(values: Sequence[float]) -> bytes:
    return _floats_struct(len(values)).pack(*values)


def _slot_init(cls: type) -> type:
    """Give a frozen slots dataclass an __init__ that stores each field through
    its slot descriptor's __set__ and then calls self.__post_init__().

    The dataclass-generated __init__ of a frozen class stores each field with
    object.__setattr__, which looks the name up on the type first. The
    parameters and defaults are read from dataclasses.fields: every field is
    a constructor parameter (a default_factory, kw_only or init=False field
    is refused with TypeError), and __post_init__ holds every check. The
    frozen __setattr__ and __delattr__ stay, so assigning or deleting a field
    still raises FrozenInstanceError.
    """
    params, body, names = [], [], {}
    for f in fields(cls):
        if f.default_factory is not MISSING or f.kw_only or not f.init:
            raise TypeError(f"{cls.__name__}.{f.name}: no default_factory, kw_only or init=False")
        setter, default = f"_set_{f.name}", f"_default_{f.name}"
        names[setter], names[default] = cls.__dict__[f.name].__set__, f.default
        params.append(f.name if f.default is MISSING else f"{f.name}={default}")
        body.append(f" {setter}(self, {f.name})\n")
    exec(f"def __init__(self, {', '.join(params)}):\n{''.join(body)} self.__post_init__()\n", names)
    init = cls.__init__ = names["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__annotations__ = {f.name: f.type for f in fields(cls)} | {"return": None}
    return cls


@_slot_init
@dataclass(frozen=True, slots=True, eq=False)
class DiscreteV(Value):
    """A single non-negative index below 2**64 (its canonical bytes hold a u64).

    Construction checks that the index is an int, not a bool, in [0, 2**64),
    and stores it as it is.
    """

    index: int

    def __post_init__(self):
        index = self.index
        if (type(index) is not int and (not isinstance(index, int) or isinstance(index, bool))
                or not 0 <= index < 2**64):
            raise ValueError(f"discrete index must be an int in [0, 2**64), got {index!r}")

    def _encode(self, out: list[bytes]) -> None:
        out.append(b"\x01" + _U64.pack(self.index))


#: DiscreteV(i) for i in 0..63, built once and shared (values are immutable):
#: small indices (actions, decoded replays, outcomes) are not built per use.
SMALL_DISCRETE = tuple(map(DiscreteV, range(64)))


@_slot_init
@dataclass(frozen=True, slots=True, eq=False)
class VectorV(Value):
    """An ordered tuple of reals.

    A tuple of exact floats is stored as it is; any other input (ints, bools,
    float subclasses, a list) is converted to a float tuple.
    """

    entries: tuple[float, ...]

    def __post_init__(self):
        if not _exact(self.entries, float):
            object.__setattr__(self, "entries", tuple(map(float, self.entries)))

    def _encode(self, out: list[bytes]) -> None:
        out.append(b"\x02" + _U32.pack(len(self.entries)) + _pack_floats(self.entries))

    def __len__(self) -> int:
        return len(self.entries)


@_slot_init
@dataclass(frozen=True, slots=True, eq=False)
class GridV(Value):
    """Reals on a (height, width, channels) grid, stored row-major.

    Construction checks that the shape is three positive ints and that there
    are h * w * c entries. A shape tuple of exact ints and an entries tuple
    of exact floats are stored as they are; any other input is converted as
    VectorV converts it.
    """

    shape: tuple[int, int, int]
    entries: tuple[float, ...]

    def __post_init__(self):
        shape, entries = self.shape, self.entries
        if not _exact(shape, int):
            shape = tuple(map(int, shape))
        if len(shape) != 3 or min(shape) <= 0:
            raise ValueError(f"grid shape must be 3 positive ints, got {self.shape!r}")
        if not _exact(entries, float):
            entries = tuple(map(float, entries))
        h, w, c = shape
        if len(entries) != h * w * c:
            raise ValueError(f"grid of shape {shape} needs {h * w * c} entries, got {len(entries)}")
        if shape is not self.shape:
            object.__setattr__(self, "shape", shape)
        if entries is not self.entries:
            object.__setattr__(self, "entries", entries)

    def at(self, row: int, col: int, channel: int = 0) -> float:
        h, w, c = self.shape
        return self.entries[(row * w + col) * c + channel]

    def _encode(self, out: list[bytes]) -> None:
        h, w, c = self.shape
        out.append(b"\x03" + _U32.pack(h) + _U32.pack(w) + _U32.pack(c) + _pack_floats(self.entries))


class KeyLayout:
    """A mapping's keys, checked once, with what MappingV and MappingSpec read of them.

    keys are str, strictly ascending by their own < (so unique); size is
    their count, index maps each key to its position, header is the
    canonical bytes before the first entry and prefixes holds each key's
    (u32 length + UTF-8). Get one from key_layout; never change one.
    """

    __slots__ = ("keys", "size", "index", "header", "prefixes")

    def __init__(self, keys: Sequence[str]):
        keys = tuple(keys)
        if not (all(isinstance(k, str) for k in keys) and all(map(lt, keys, keys[1:]))):
            raise ValueError(f"mapping keys must be str, unique and ascending, got {keys!r}")
        self.keys = keys
        self.size = len(keys)
        self.index = dict(zip(keys, range(len(keys))))
        self.header = b"\x04" + _U32.pack(len(keys))
        self.prefixes = tuple(_U32.pack(len(b)) + b for b in map(str.encode, keys))  # UTF-8

    def __repr__(self) -> str:
        return f"KeyLayout({self.keys!r})"


_shared_layout = lru_cache(maxsize=1024)(KeyLayout)


def key_layout(keys: Sequence[str]) -> KeyLayout:
    """The layout of keys, which must be str in strictly ascending order (the
    one check of a mapping's keys; a ValueError names them otherwise): one
    per distinct tuple of exact-str keys (the 1024 used last are kept). Keys
    of a str subclass keep their type and order, so each call builds one."""
    keys = tuple(keys)
    return _shared_layout(keys) if _exact(keys, str) else KeyLayout(keys)


_KEY = itemgetter(0)


def _sorted_pairs(raw) -> tuple[tuple, KeyLayout]:
    """The (key, value) pairs of a mapping or pair sequence sorted by key, and
    the key_layout of their keys, which refuses keys that are not unique str."""
    if isinstance(raw, abc.Mapping):
        raw = raw.items()
    pairs = tuple(sorted(raw, key=_KEY))
    return pairs, key_layout([k for k, _ in pairs])


@_slot_init
@dataclass(frozen=True, slots=True, eq=False, repr=False)
class MappingV(Value):
    """String-keyed mapping of values; iterates in ascending key order.

    It holds a shared KeyLayout and a tuple of values in its key order:
    lookup (get, [], in) finds a key's position in the layout, and keys(),
    items(), entries and the canonical bytes read the layout.
    MappingV(entries), from a dict or (key, value) pairs, sorts them, finds
    the layout of the keys (which checks them) and checks that values are
    Value. MappingV(values, layout) checks only that layout is a KeyLayout and
    values a tuple of one Value per key.
    """

    values: tuple[Value, ...]
    layout: KeyLayout | None = None

    def __post_init__(self):
        layout, values = self.layout, self.values
        if not (type(layout) is KeyLayout and type(values) is tuple and len(values) == layout.size):
            if layout is not None:
                raise ValueError(f"a mapping built from a layout needs a KeyLayout and a tuple of "
                                 f"one value per key, got {value_repr(values, 2)} and {layout!r}")
            pairs, layout = _sorted_pairs(values)
            values = tuple([v for _, v in pairs])
            object.__setattr__(self, "layout", layout)
            object.__setattr__(self, "values", values)
        for v in values:
            if not isinstance(v, Value):
                raise ValueError(f"mapping values must be Value, got {v!r}")

    @property
    def entries(self) -> tuple[tuple[str, Value], ...]:
        """The (key, value) pairs in key order."""
        return tuple(zip(self.layout.keys, self.values))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(entries={self.entries!r})"

    def keys(self) -> tuple[str, ...]:
        return self.layout.keys

    def items(self) -> tuple[tuple[str, Value], ...]:
        return self.entries

    def get(self, key: str, default: Value | None = None) -> Value | None:
        try:
            return self.values[self.layout.index[key]]
        except (KeyError, TypeError):  # a missing or unhashable key
            return default

    def __getitem__(self, key: str) -> Value:
        try:
            return self.values[self.layout.index[key]]
        except TypeError:
            raise KeyError(key) from None

    def __contains__(self, key: str) -> bool:
        try:
            return key in self.layout.index
        except TypeError:
            return False

    def _encode(self, out: list[bytes]) -> None:
        layout = self.layout
        out.append(layout.header)
        for prefix, v in zip(layout.prefixes, self.values):
            out.append(prefix)
            v._encode(out)


def vector_mapping_struct(counts: Sequence[tuple[str, int]]
                          ) -> tuple[struct.Struct, tuple[bytes, ...]]:
    """A struct for the canonical bytes of a mapping of vectors with fixed keys and lengths.

    counts is one or more (key, entry count) pairs in ascending key order. Per key, the
    struct holds an "s" field for the constant bytes before that vector's
    doubles (the mapping's tag and count before the first key, the key, the
    vector's tag and count), then the doubles; the second result holds those
    constant fields. pack(prefix_0, *entries_0, prefix_1, *entries_1, ...)
    equals MappingV({key_i: VectorV(entries_i)}).canonical_bytes().
    """
    layout = key_layout([key for key, _ in counts])  # keys unique and ascending
    if not layout.size:
        raise ValueError("a vector mapping struct needs at least one key")
    fmt, prefixes = "<", []
    head = layout.header
    for (_, count), key_bytes in zip(counts, layout.prefixes):
        prefix = head + key_bytes + b"\x02" + _U32.pack(count)
        fmt += f"{len(prefix)}s{count}d"
        prefixes.append(prefix)
        head = b""
    return struct.Struct(fmt), tuple(prefixes)


@_slot_init
@dataclass(frozen=True, slots=True, eq=False)
class SeqV(Value):
    """An ordered sequence of values.

    Construction checks that every item is a Value. A tuple is stored as it
    is; any other input is copied into a tuple first.
    """

    items: tuple[Value, ...]

    def __post_init__(self):
        items = self.items
        if type(items) is tuple and _all_values(items):
            return
        items = tuple(items)
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


def value_repr(v: object, depth: int = 20) -> str:
    """repr(v), with each value or tuple nested more than depth deep written
    "...": an error message naming a value stays short however deep it is."""
    if depth < 0 and (type(v) is tuple or is_dataclass(v)):
        return "..."
    if is_dataclass(v) and not isinstance(v, type):
        # A mapping shows its (key, value) pairs, as its repr does.
        names = ("entries",) if isinstance(v, MappingV) else [f.name for f in fields(v) if f.repr]
        shown = ", ".join(f"{name}={value_repr(getattr(v, name), depth - 1)}" for name in names)
        return f"{type(v).__qualname__}({shown})"
    if type(v) is tuple:
        items = [value_repr(x, depth - 1) for x in v]
        return f"({', '.join(items)}{',' if len(items) == 1 else ''})"
    return repr(v)


class Kept:
    """Results reused while their inputs are the very same objects.

    get(key, build, *inputs) returns a result kept under key whose inputs are
    these objects (an `is` test each), or else build(*inputs), which becomes
    key's newest entry; a key keeps its size newest entries. An entry holds
    its inputs, so their ids cannot be reused while it lives, and values are
    immutable, so a result stays true to them. No caller may mutate a result,
    nor an input that is not a value. Every get of one key passes as many
    inputs, one or more. clear() drops every entry.
    """

    __slots__ = ("_size", "_entries")

    def __init__(self, size: int = 1):
        self._size = size
        self._entries: dict = {}  # key -> [(inputs, result), ...], newest first

    def clear(self) -> None:
        self._entries.clear()

    def get(self, key, build, *inputs):
        entries = self._entries.get(key)
        if entries is None:
            entries = self._entries[key] = []
        first = inputs[0]
        for kept, result in entries:
            # The inline test of the first input turns most stale entries
            # away, and for one input it is the whole test: no map is built.
            if kept[0] is first and (len(kept) == 1 or all(map(is_, kept, inputs))):
                return result
        result = build(*inputs)
        entries.insert(0, (inputs, result))
        del entries[self._size:]
        return result


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
    """String-keyed mapping of sub-spaces, in ascending key order.

    Construction sorts the pairs as MappingV(entries) does and stores the
    key_layout of the keys, from which the values in the spec are built, as
    layout; keys() and [] read it, equality and hashing only entries."""

    entries: tuple[tuple[str, SpaceSpec], ...]
    layout: KeyLayout = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        entries, layout = _sorted_pairs(self.entries)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "layout", layout)

    def keys(self) -> tuple[str, ...]:
        return self.layout.keys

    def items(self) -> tuple[tuple[str, SpaceSpec], ...]:
        return self.entries

    def __getitem__(self, key: str) -> SpaceSpec:
        try:
            return self.entries[self.layout.index[key]][1]
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
        return all(space_contains(s, val) for (_, s), val in zip(spec.entries, v.values))
    if isinstance(spec, SeqSpec):
        if not isinstance(v, SeqV) or len(v) != len(spec):
            return False
        return all(space_contains(s, val) for s, val in zip(spec.items, v.items))
    return False


def space_sample(spec: SpaceSpec, rng: RngStream) -> Value:
    """Draw a uniform member of spec from rng; deterministic given the stream."""
    if isinstance(spec, DiscreteSpec):
        index = rng.randrange(spec.n)
        return SMALL_DISCRETE[index] if index < len(SMALL_DISCRETE) else DiscreteV(index)
    if isinstance(spec, BoxSpec):
        count = math.prod(spec.shape)
        entries = tuple(rng.uniform(spec.low, spec.high) for _ in range(count))
        if len(spec.shape) == 1:
            return VectorV(entries)
        return GridV(spec.shape, entries)
    if isinstance(spec, MappingSpec):
        return MappingV(tuple(space_sample(s, rng) for _, s in spec.entries), spec.layout)
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
        for k, sub in zip(v.layout.keys, v.values):
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
