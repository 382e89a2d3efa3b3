"""Labeled deterministic random streams.

Every consumer of randomness (board generation, unit placement, each agent)
draws from its own stream, derived from a base seed plus a path of string
labels. Adding a new consumer therefore never perturbs the numbers an
existing one sees. The same (seed, label path) always yields the identical
sequence, on any platform: the child seed is a blake2b digest of a
length-prefixed encoding of the path, and the generator is Python's
Mersenne Twister, which is stable across versions and architectures. A seed
is a signed 64-bit integer, as the digest packs it; any other raises
ConfigError.
"""

from __future__ import annotations

import hashlib
import random
import struct
from typing import Sequence

from .errors import ConfigError


def check_seed(seed: int, what: str) -> None:
    """ConfigError naming what unless seed lies in the signed 64-bit range [-2**63, 2**63)."""
    if not -2**63 <= seed < 2**63:
        raise ConfigError(f"{what} {seed} lies outside the signed 64-bit range [-2**63, 2**63)")


class RngStream:
    """A deterministic random stream identified by (seed, label path)."""

    __slots__ = ("seed", "path", "_rng")

    def __init__(self, seed: int, path: Sequence[str] = ()):
        self.seed = int(seed)
        check_seed(self.seed, "seed")
        self.path = tuple(str(p) for p in path)
        self._rng = random.Random(self._derive())

    def _derive(self) -> int:
        h = hashlib.blake2b(digest_size=8)
        h.update(struct.pack("<q", self.seed))
        for label in self.path:
            raw = label.encode("utf-8")
            h.update(struct.pack("<I", len(raw)))
            h.update(raw)
        return int.from_bytes(h.digest(), "little")

    def child(self, *labels: str) -> "RngStream":
        """A new independent stream for a sub-consumer, e.g. child("units")."""
        return RngStream(self.seed, self.path + tuple(labels))

    # Draw helpers; all delegate to the underlying Mersenne Twister.

    def random(self) -> float:
        return self._rng.random()

    def uniform(self, low: float, high: float) -> float:
        return self._rng.uniform(low, high)

    def randrange(self, n: int) -> int:
        return self._rng.randrange(n)

    def randint(self, a: int, b: int) -> int:
        """Inclusive on both ends, like random.randint."""
        return self._rng.randint(a, b)

    def choice(self, seq):
        return self._rng.choice(seq)

    def sample(self, seq, k: int):
        return self._rng.sample(seq, k)

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, path={'/'.join(self.path)!r})"
