"""The multi-agent environment contract.

An environment owns a tuple of agent slots. reset(seed) returns the initial
observation bundle; step(actions) takes one action per slot and advances one
tick. Identical (seed, action sequence) yields bitwise-identical results.

done is a single global flag plus per-slot alive flags: dead slots keep
receiving observations and must keep submitting actions, which the
environment ignores. After done, further steps raise EpisodeOver.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterable

from .bundles import Bundle, StepResult
from .errors import EpisodeOver, SetupError, SpaceMismatch
from .values import SpaceSpec, Value, space_contains, value_repr


class Env(ABC):
    """Base class enforcing the reset/step protocol and action validation.

    The constructor writes the slot layout once, as plain attributes:
      observation_specs, action_specs: the per-slot spaces, as tuples;
      parties: the competitive party id per slot (side or team), used for
        match scoring, as a tuple; slot i is party i unless given;
      num_slots: the slot count.
    """

    def __init__(self, observation_specs: Iterable[SpaceSpec],
                 action_specs: Iterable[SpaceSpec], parties: Iterable[int] | None = None):
        self.observation_specs = tuple(observation_specs)
        self.action_specs = tuple(action_specs)
        self.num_slots = len(self.action_specs)
        self.parties = tuple(range(self.num_slots) if parties is None else parties)
        if not len(self.observation_specs) == len(self.parties) == self.num_slots:
            raise SetupError(f"{type(self).__name__} needs one observation spec, action spec "
                             f"and party per slot: got {len(self.observation_specs)}, "
                             f"{self.num_slots} and {len(self.parties)}")
        self._started = False
        self._done = False
        self._last_actions: Bundle | None = None
        self._last_result: StepResult | None = None
        # The last value built per observation part, with its source; see _reuse.
        self._obs_memo: dict = {}

    # -- contract surface ---------------------------------------------------

    @property
    def unwrapped(self) -> "Env":
        return self

    def reset(self, seed: int) -> Bundle:
        obs = self._do_reset(int(seed))
        self._started = True
        self._done = False
        self._last_actions = None
        self._last_result = None
        return obs

    def step(self, actions: Bundle) -> StepResult:
        if not self._started:
            raise EpisodeOver("step() before reset()")
        if self._done:
            raise EpisodeOver("step() after the episode ended")
        specs = self.action_specs
        if len(actions) != len(specs):
            raise SpaceMismatch(f"expected {len(specs)} actions, got {len(actions)}")
        for slot, (spec, act) in enumerate(zip(specs, actions)):
            if not space_contains(spec, act):
                raise SpaceMismatch(f"slot {slot}: action {value_repr(act)} not in {spec!r}")
        result = self._do_step(actions)
        self._done = result.done
        self._last_actions = actions
        self._last_result = result
        return result

    def raw_record(self) -> tuple[Bundle, StepResult]:
        """The actions and result of the innermost env's last step (for replays)."""
        if self._last_actions is None or self._last_result is None:
            raise EpisodeOver("no step recorded yet")
        return self._last_actions, self._last_result

    def _reuse(self, name, source, build):
        """build(source), or the value built last for name if source is equal.

        Equal sources must build byte-identical values, as copies of an env's
        fields do. Comparing sources, not a dirty flag, keeps direct edits of
        the fields safe, and a memo keyed by content may outlive an episode
        without changing a byte.
        """
        hit = self._obs_memo.get(name)
        if hit is not None and hit[0] == source:
            return hit[1]
        value = build(source)
        self._obs_memo[name] = (source, value)
        return value

    # -- hooks ---------------------------------------------------------------

    @abstractmethod
    def _do_reset(self, seed: int) -> Bundle: ...

    @abstractmethod
    def _do_step(self, actions: Bundle) -> StepResult: ...

    def state_value(self) -> Value:
        """Canonical snapshot of the full simulator state, for hashing/replays."""
        raise NotImplementedError(f"{type(self).__name__} does not expose state snapshots")

    def state_bytes(self) -> bytes:
        """The canonical bytes of the state, which replays hash.

        An override (a direct packer that skips building the value) must
        return exactly state_value().canonical_bytes().
        """
        return self.state_value().canonical_bytes()

    def render_ascii(self) -> str:
        """One-frame ASCII rendering of the current state."""
        raise NotImplementedError(f"{type(self).__name__} has no ASCII renderer")
