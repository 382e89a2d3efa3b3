"""Per-agent-slot tuples: bundles of values, environment step results and outcomes."""

from __future__ import annotations

from dataclasses import dataclass
from operator import add
from typing import Sequence

from .errors import InvalidPartition
from .values import (SMALL_DISCRETE, DiscreteV, MappingV, Value, _all_values, _exact, _slot_init,
                     key_layout)

Partition = tuple[tuple[int, ...], ...]

#: The info of every tick that is not an episode's last (values are immutable).
NO_INFO = MappingV(())
_DRAW, _WINNER = key_layout(("draw",)), key_layout(("winner",))  # the outcome_info layouts


@_slot_init
@dataclass(frozen=True, slots=True)
class Bundle:
    """One value per agent slot; never empty.

    Construction checks that there is at least one slot and that each is a
    Value. A non-empty tuple of Values is stored as it is; any other input is
    copied into a tuple first.
    """

    slots: tuple[Value, ...]

    def __post_init__(self):
        slots = self.slots
        if type(slots) is tuple and slots and _all_values(slots):
            return
        slots = tuple(slots)
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


@_slot_init
@dataclass(frozen=True, slots=True)
class StepResult:
    """One environment tick's transition: rewards, global done, per-slot alive
    and info. It holds no observation: Env.observe() builds those on request.

    Construction converts rewards to a float tuple, done to a bool and alive
    to a bool tuple, and checks that both tuples have the same non-zero
    length (Env.step checks it against the env's slot count). A tuple of
    exact floats, an exact bool and a tuple of exact bools are stored as
    they are.
    """

    rewards: tuple[float, ...]
    done: bool
    alive: tuple[bool, ...]
    info: MappingV = NO_INFO

    def __post_init__(self):
        if not _exact(self.rewards, float):
            object.__setattr__(self, "rewards", tuple(map(float, self.rewards)))
        if type(self.done) is not bool:
            object.__setattr__(self, "done", bool(self.done))
        if not _exact(self.alive, bool):
            object.__setattr__(self, "alive", tuple(map(bool, self.alive)))
        if not len(self.rewards) == len(self.alive) > 0:
            raise ValueError(f"rewards ({len(self.rewards)}) and alive ({len(self.alive)}) "
                             "must have one entry per slot, and there is at least one")


def outcome_info(winner: int | None) -> MappingV:
    """The info of an episode's last tick: the winning party, or a draw."""
    if winner is None:
        return MappingV((SMALL_DISCRETE[1],), _DRAW)
    if 0 <= winner < len(SMALL_DISCRETE):
        return MappingV((SMALL_DISCRETE[winner],), _WINNER)
    return MappingV((DiscreteV(winner),), _WINNER)


@dataclass(frozen=True)
class EpisodeResult:
    winner_party: int | None
    draw: bool
    returns: tuple[float, ...]  # per raw env slot
    length: int


class EpisodeTally:
    """An episode's length and per-raw-slot returns, summed step by step.

    run_episode and replay_verify both compute outcomes here, so a replay's
    outcome record is checked with the arithmetic that wrote it.
    """

    def __init__(self, slots: int):
        self.returns = [0.0] * slots
        self.length = 0

    def add(self, raw_rewards: Sequence[float]) -> None:
        self.returns = list(map(add, self.returns, raw_rewards))
        self.length += 1

    def result(self, last_info: MappingV) -> EpisodeResult:
        """The outcome, read from the info of the episode's last raw step."""
        winner = last_info.get("winner")
        return EpisodeResult(
            winner_party=None if winner is None else winner.index,
            draw="draw" in last_info, returns=tuple(self.returns), length=self.length,
        )


def check_partition(partition: Sequence[Sequence[int]], slot_count: int) -> Partition:
    """Validate a contiguous, disjoint, covering, order-preserving partition.

    Returns the normalized tuple-of-tuples form; raises InvalidPartition otherwise.
    """
    groups = tuple(tuple(g) for g in partition)
    expect = 0
    for g in groups:
        if not g:
            raise InvalidPartition("empty group in partition")
        for i in g:
            if type(i) is not int:
                raise InvalidPartition(f"slot index {i!r} in partition {partition!r} "
                                       "is not an integer")
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

