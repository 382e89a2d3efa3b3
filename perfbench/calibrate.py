"""A fixed pure-Python kernel that measures the host's current speed.

The benchmark's host shares its cores: the same marlkit match runs up to 1.8x
slower for seconds at a time, and CPU time tracks wall time, so neither is a
steady measure. The measuring process therefore runs this kernel every
CALIBRATION_INTERVAL_S between ticks (its time is excluded from every timing)
and reports timings at a reference speed: a time t measured while the kernel
took k seconds is reported as t * REFERENCE_S / k. The kernel mixes the kinds
of work a marlkit tick does (small frozen dataclasses with __post_init__
checks, tuples of floats, a sort, struct packing, blake2b hashing and
canonical JSON), so it slows down with the host in about the same proportion.
It imports no marlkit code and must not change: every recorded number
depends on it.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass

# Seconds one kernel() call takes on the reference host (CPython 3.11,
# a shared 2-vCPU x86-64 VM when it runs at its faster speed).
REFERENCE_S = 0.0015
CALIBRATION_INTERVAL_S = 0.05


@dataclass(frozen=True, slots=True)
class _Vec:
    entries: tuple

    def __post_init__(self):
        e = self.entries
        if not (type(e) is tuple and all(type(x) is float for x in e)):
            object.__setattr__(self, "entries", tuple(float(x) for x in e))


@dataclass(frozen=True, slots=True)
class _Map:
    items: tuple

    def __post_init__(self):
        items = list(self.items)
        items.sort(key=lambda kv: kv[0])
        for _, v in items:
            if not isinstance(v, _Vec):
                raise ValueError(v)
        object.__setattr__(self, "items", tuple(items))


def kernel() -> int:
    acc = 0
    keep = []
    for i in range(36):
        vecs = [_Vec(tuple(float(j + i) for j in range(8))) for _ in range(6)]
        m = _Map(tuple((f"k{j}", v) for j, v in enumerate(vecs)))
        raw = b"".join(struct.pack(f"<{len(v.entries)}d", *v.entries) for _, v in m.items)
        acc ^= int.from_bytes(hashlib.blake2b(raw, digest_size=8).digest(), "little")
        text = json.dumps({k: list(v.entries) for k, v in m.items}, sort_keys=True,
                          separators=(",", ":"))
        acc += len(text)
        keep.append(m)
        if len(keep) > 16:
            keep.pop(0)
    return acc
