"""Per-agent-slot tuples: bundles of values and environment step results."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import InvalidPartition
from .values import DiscreteV, MappingV, Value

Partition = tuple[tuple[int, ...], ...]

#: The info of every tick that is not an episode's last (values are immutable).
NO_INFO = MappingV(())


@dataclass(frozen=True, slots=True)
class Bundle:
    """One value per agent slot; never empty."""

    slots: tuple[Value, ...]

    def __post_init__(self):
        slots = tuple(self.slots)
        if not slots:
            raise ValueError("a bundle must have at least one slot")
        for v in slots:
            if not isinstance(v, Value):
                raise ValueError(f"bundle slots must be Values, got {v!r}")
        object.__setattr__(self, "slots", slots)

    def __len__(self) -> int:
        return len(self.slots)

    def __getitem__(self, i: int) -> Value:
        return self.slots[i]

    def __iter__(self):
        return iter(self.slots)


@dataclass(frozen=True, slots=True)
class StepResult:
    """One environment tick: observations, rewards, global done, per-slot alive."""

    obs: Bundle
    rewards: tuple[float, ...]
    done: bool
    alive: tuple[bool, ...]
    info: MappingV = NO_INFO

    def __post_init__(self):
        object.__setattr__(self, "rewards", tuple(map(float, self.rewards)))
        object.__setattr__(self, "done", bool(self.done))
        object.__setattr__(self, "alive", tuple(map(bool, self.alive)))
        n = len(self.obs)
        if len(self.rewards) != n or len(self.alive) != n:
            raise ValueError(
                f"rewards ({len(self.rewards)}) and alive ({len(self.alive)}) "
                f"must match obs slot count ({n})"
            )


def outcome_info(winner: int | None) -> MappingV:
    """The info of an episode's last tick: the winning party, or a draw."""
    if winner is None:
        return MappingV((("draw", DiscreteV(1)),))
    return MappingV((("winner", DiscreteV(winner)),))


def check_partition(partition: Sequence[Sequence[int]], slot_count: int) -> Partition:
    """Validate a contiguous, disjoint, covering, order-preserving partition.

    Returns the normalized tuple-of-tuples form; raises InvalidPartition otherwise.
    """
    groups = tuple(tuple(int(i) for i in g) for g in partition)
    expect = 0
    for g in groups:
        if not g:
            raise InvalidPartition("empty group in partition")
        for i in g:
            if i != expect:
                raise InvalidPartition(
                    f"partition {list(map(list, groups))} is not a contiguous in-order "
                    f"cover of {slot_count} slots"
                )
            expect += 1
    if expect != slot_count:
        raise InvalidPartition(
            f"partition covers {expect} slots, environment stage has {slot_count}"
        )
    return groups


def bundle_split(b: Bundle, partition: Sequence[Sequence[int]]) -> list[Bundle]:
    """Split a bundle into one bundle per partition group."""
    groups = check_partition(partition, len(b))
    return [Bundle(tuple(b[i] for i in g)) for g in groups]


def bundle_merge(parts: Sequence[Bundle]) -> Bundle:
    """Concatenate bundles; the inverse of bundle_split."""
    slots: list[Value] = []
    for p in parts:
        slots.extend(p.slots)
    return Bundle(tuple(slots))


def split_rewards(rewards: Sequence[float], partition: Partition) -> list[tuple[float, ...]]:
    return [tuple(rewards[i] for i in g) for g in partition]
