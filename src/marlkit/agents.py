"""The agent contract and generic baseline agents.

An agent is driven as: setup(obs_spec, act_spec) once, then per episode
reset(first_obs) followed by step(obs, reward, done) -> action each tick
(the first step of an episode is called with the same observation that was
passed to reset, and reward 0). Agents may keep state between steps; reset
clears per-episode state.

A "team" is agent-shaped too: its obs/act specs are SeqSpecs and its
observations and actions are SeqV tuples, one item per controlled lane.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Sequence

from .errors import SetupError, SpaceMismatch
from .rng import RngStream
from .values import (
    BoxSpec,
    DiscreteSpec,
    MappingSpec,
    SeqSpec,
    SeqV,
    SpaceSpec,
    Value,
    space_sample,
    value_repr,
)


class Agent(ABC):
    """A policy for a single environment slot."""

    def setup(self, obs_spec: SpaceSpec, act_spec: SpaceSpec) -> None:
        self.obs_spec = obs_spec
        self.act_spec = act_spec

    def reset(self, first_obs: Value) -> None:
        """Clear per-episode state; first_obs is the episode's initial observation."""

    @abstractmethod
    def step(self, obs: Value, reward: float, done: bool) -> Value:
        """Return an action in act_spec for the current observation."""


def require_spec(spec: SpaceSpec, pattern: Any, what: str) -> None:
    """Raise SetupError unless spec has the structure an agent reads.

    A pattern is a spec (matched exactly), the DiscreteSpec class (any size),
    a shape tuple (a BoxSpec of that shape; None matches any extent), a dict
    of patterns (a MappingSpec holding at least those keys) or a one-item
    list (a SeqSpec whose every item matches that item).
    """
    if isinstance(pattern, dict):
        if not isinstance(spec, MappingSpec):
            raise SetupError(f"{what} must be a mapping with keys {sorted(pattern)}, got {spec!r}")
        missing = sorted(set(pattern) - set(spec.keys()))
        if missing:
            raise SetupError(f"{what} lacks keys {missing}; it has {list(spec.keys())}")
        for key, sub in pattern.items():
            require_spec(spec[key], sub, f"{what}[{key!r}]")
    elif isinstance(pattern, list):
        if not isinstance(spec, SeqSpec):
            raise SetupError(f"{what} must be a sequence, got {spec!r}")
        # Specs are immutable, so an item object repeated in the sequence is
        # checked at its first index only (spec.items holds them all alive).
        checked = set()
        for i, item in enumerate(spec.items):
            if id(item) not in checked:
                require_spec(item, pattern[0], f"{what}[{i}]")
                checked.add(id(item))
    elif isinstance(pattern, tuple):
        if (not isinstance(spec, BoxSpec) or len(spec.shape) != len(pattern)
                or any(p is not None and p != s for p, s in zip(pattern, spec.shape))):
            raise SetupError(f"{what} must be a box of shape {pattern}, got {spec!r}")
    elif pattern is DiscreteSpec:
        if not isinstance(spec, DiscreteSpec):
            raise SetupError(f"{what} must be discrete, got {spec!r}")
    elif spec != pattern:
        raise SetupError(f"{what} must be {pattern!r}, got {spec!r}")


class RandomAgent(Agent):
    """Samples the action space uniformly from a seeded stream."""

    def __init__(self, seed: int = 0, *, rng: RngStream | None = None):
        self._rng = rng if rng is not None else RngStream(seed, ("random-agent",))

    def step(self, obs: Value, reward: float, done: bool) -> Value:
        return space_sample(self.act_spec, self._rng)


class ConstantAgent(Agent):
    """Always returns the same action."""

    def __init__(self, action: Value):
        self._action = action

    def step(self, obs: Value, reward: float, done: bool) -> Value:
        return self._action


class TeamAgent(Agent):
    """Drives one member policy per lane of a SeqSpec-shaped slot.

    This is the consumer-side counterpart of a team-forming interface: wrapping
    an environment with make_team leaves slots whose observations are SeqV
    tuples, and a TeamAgent splits those lanes across its members. Each member
    sees the team's (already combined) scalar reward.
    """

    def __init__(self, members: Sequence[Agent]):
        self.members = list(members)
        if not self.members:
            raise SetupError("a team needs at least one member")

    def setup(self, obs_spec: SpaceSpec, act_spec: SpaceSpec) -> None:
        super().setup(obs_spec, act_spec)
        if not isinstance(obs_spec, SeqSpec) or not isinstance(act_spec, SeqSpec):
            raise SetupError("TeamAgent needs SeqSpec observation and action spaces")
        if len(obs_spec) != len(self.members) or len(act_spec) != len(self.members):
            raise SetupError(
                f"TeamAgent has {len(self.members)} members but the specs have "
                f"{len(obs_spec)}/{len(act_spec)} lanes"
            )
        for member, o, a in zip(self.members, obs_spec.items, act_spec.items):
            member.setup(o, a)

    def reset(self, first_obs: Value) -> None:
        for member, o in zip(self.members, self._lanes(first_obs)):
            member.reset(o)

    def step(self, obs: Value, reward: float, done: bool) -> Value:
        return SeqV(tuple(
            member.step(o, reward, done) for member, o in zip(self.members, self._lanes(obs))
        ))

    def _lanes(self, obs: Value) -> tuple[Value, ...]:
        if not isinstance(obs, SeqV) or len(obs.items) != len(self.members):
            raise SpaceMismatch(f"TeamAgent needs a SeqV observation of {len(self.members)} "
                                f"lanes, got {value_repr(obs)}")
        return obs.items
