"""Composable observation/action transform nodes.

An Interface sits between an environment and its agents. Observations and
rewards flow inner -> outer through obs_trans; actions flow outer -> inner
through act_trans. Interfaces can be stacked (one after another) and combined
(side by side over a slot partition), and may change the number of agent
slots: the tuple returned by setup() is the single source of truth for the
outer slot layout.

Lifecycle: setup(inner_obs_specs, inner_act_specs) exactly once, then
reset(first_obs) at each episode start (which clears transform-local state),
then obs_trans/act_trans per tick. Cross-episode state is forbidden.

Values are immutable, and an env or inner node may return the same value
object on a later tick while its source is unchanged. A node may therefore
keep an identity-keyed memo of the last tick's inputs (bomber's TickMemo):
each entry holds the input values whose ids key it, so the ids cannot be
reused while it lives, and the memo is cleared in _reset.

Stacking order follows the wrapper convention: in stack(outer, inner) the
observation is processed by inner first, then outer; the action is processed
by outer first, then inner.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .bundles import Bundle, Partition, bundle_merge, bundle_split, check_partition, split_rewards
from .errors import SetupError, SpaceMismatch
from .values import (
    BoxSpec,
    DiscreteSpec,
    DiscreteV,
    MappingSpec,
    MappingV,
    SeqSpec,
    SeqV,
    SpaceSpec,
    Value,
    VectorV,
    flat_bounds,
    flat_length,
    flatten,
    space_contains,
)

Rewards = tuple[float, ...]


class Interface:
    """A transform node with an optional inner node (the stack below it).

    Subclasses override the local hooks _setup, _obs, _act and optionally
    _reset and _local_groups; the public methods thread calls through the
    inner chain in the documented order.
    """

    def __init__(self, inner: "Interface | None" = None):
        self.inner = inner
        self._setup_done = False

    # -- chain-level API ------------------------------------------------------

    def setup(
        self, inner_obs_specs: Sequence[SpaceSpec], inner_act_specs: Sequence[SpaceSpec]
    ) -> tuple[list[SpaceSpec], list[SpaceSpec]]:
        """Declare outer specs given the specs of the stage below. Once only."""
        if self._setup_done:
            raise SetupError(f"{type(self).__name__}.setup() called twice")
        if len(inner_obs_specs) != len(inner_act_specs):
            raise SetupError("observation and action spec counts differ")
        self._raw_obs_specs = list(inner_obs_specs)
        self._raw_act_specs = list(inner_act_specs)
        obs_specs = self._raw_obs_specs
        act_specs = self._raw_act_specs
        inner_groups = [[i] for i in range(len(obs_specs))]
        if self.inner is not None:
            obs_specs, act_specs = self.inner.setup(obs_specs, act_specs)
            inner_groups = self.inner.slot_groups
        self._in_obs_specs = list(obs_specs)
        self._in_act_specs = list(act_specs)
        outer_obs, outer_act = self._setup(self._in_obs_specs, self._in_act_specs)
        self._outer_obs_specs = list(outer_obs)
        self._outer_act_specs = list(outer_act)
        self._slot_groups = [
            [raw for j in g for raw in inner_groups[j]] for g in self._local_groups()
        ]
        self._setup_done = True
        return list(self._outer_obs_specs), list(self._outer_act_specs)

    def reset(self, inner_first_obs: Bundle) -> Bundle:
        """Clear per-episode state and transform the episode's first observation."""
        self._require_setup()
        if self.inner is not None:
            inner_first_obs = self.inner.reset(inner_first_obs)
        return self._reset(inner_first_obs)

    def obs_trans(self, obs: Bundle, rewards: Sequence[float]) -> tuple[Bundle, Rewards]:
        """Transform observations and rewards inner -> outer."""
        self._require_setup()
        rewards = tuple(float(r) for r in rewards)
        if self.inner is not None:
            obs, rewards = self.inner.obs_trans(obs, rewards)
        return self._obs(obs, rewards)

    def act_trans(self, outer_actions: Bundle) -> Bundle:
        """Transform actions outer -> inner."""
        self._require_setup()
        actions = self._act(outer_actions)
        if self.inner is not None:
            actions = self.inner.act_trans(actions)
        return actions

    # -- post-setup metadata --------------------------------------------------

    @property
    def outer_obs_specs(self) -> list[SpaceSpec]:
        self._require_setup()
        return list(self._outer_obs_specs)

    @property
    def outer_act_specs(self) -> list[SpaceSpec]:
        self._require_setup()
        return list(self._outer_act_specs)

    @property
    def raw_obs_specs(self) -> list[SpaceSpec]:
        """The spec list this chain was set up on (the environment side)."""
        self._require_setup()
        return list(self._raw_obs_specs)

    @property
    def raw_act_specs(self) -> list[SpaceSpec]:
        self._require_setup()
        return list(self._raw_act_specs)

    @property
    def outer_slot_count(self) -> int:
        self._require_setup()
        return len(self._outer_obs_specs)

    @property
    def raw_slot_count(self) -> int:
        self._require_setup()
        return len(self._raw_obs_specs)

    @property
    def slot_groups(self) -> list[list[int]]:
        """For each outer slot, the raw slot indices it covers."""
        self._require_setup()
        return [list(g) for g in self._slot_groups]

    def _require_setup(self) -> None:
        if not self._setup_done:
            raise SetupError(f"{type(self).__name__} used before setup()")

    # -- local hooks ------------------------------------------------------------

    def _setup(
        self, obs_specs: list[SpaceSpec], act_specs: list[SpaceSpec]
    ) -> tuple[list[SpaceSpec], list[SpaceSpec]]:
        return obs_specs, act_specs

    def _reset(self, obs: Bundle) -> Bundle:
        out, _ = self._obs(obs, (0.0,) * len(obs))
        return out

    def _obs(self, obs: Bundle, rewards: Rewards) -> tuple[Bundle, Rewards]:
        return obs, rewards

    def _act(self, actions: Bundle) -> Bundle:
        return actions

    def _local_groups(self) -> list[list[int]]:
        """Outer slot -> local input slot indices; defaults to slot-local."""
        return [[i] for i in range(len(self._in_obs_specs))]


class Identity(Interface):
    """Passes specs, observations, rewards and actions through unchanged."""


def identity() -> Interface:
    """The unit of stacking."""
    return Identity()


def stack(outer: Interface, inner: Interface) -> Interface:
    """Attach inner below outer's chain: obs run inner first, actions outer first."""
    if inner._setup_done:
        raise SetupError("cannot stack an interface that is already set up")
    node = outer
    while node.inner is not None:
        node = node.inner
    if node._setup_done:
        raise SetupError("cannot stack below an interface that is already set up")
    node.inner = inner
    return outer


class Combine(Interface):
    """Side-by-side children over a partition of the base interface's outer slots.

    Observations pass through the base, are split by the partition, and each
    group runs through its child; actions run through the children first, are
    merged, and then pass through the base. Rewards split and merge alongside
    observations.
    """

    def __init__(self, base: Interface | None, children: Sequence[Interface],
                 partition: Sequence[Sequence[int]]):
        super().__init__(inner=base)
        self.children = list(children)
        self._partition_arg = [list(g) for g in partition]
        if len(self.children) != len(self._partition_arg):
            raise SetupError(
                f"combine got {len(self.children)} children for "
                f"{len(self._partition_arg)} partition groups"
            )

    def _setup(self, obs_specs, act_specs):
        self._partition: Partition = check_partition(self._partition_arg, len(obs_specs))
        outer_obs: list[SpaceSpec] = []
        outer_act: list[SpaceSpec] = []
        self._child_outer_counts: list[int] = []
        for child, group in zip(self.children, self._partition):
            o, a = child.setup([obs_specs[i] for i in group], [act_specs[i] for i in group])
            outer_obs.extend(o)
            outer_act.extend(a)
            self._child_outer_counts.append(len(o))
        return outer_obs, outer_act

    def _local_groups(self):
        groups: list[list[int]] = []
        for child, group in zip(self.children, self._partition):
            offset = group[0]
            for g in child.slot_groups:
                groups.append([offset + j for j in g])
        return groups

    def _reset(self, obs: Bundle) -> Bundle:
        parts = bundle_split(obs, self._partition)
        return bundle_merge([child.reset(p) for child, p in zip(self.children, parts)])

    def _obs(self, obs, rewards):
        parts = bundle_split(obs, self._partition)
        reward_parts = split_rewards(rewards, self._partition)
        out_obs: list[Bundle] = []
        out_rewards: list[float] = []
        for child, p, r in zip(self.children, parts, reward_parts):
            o, rr = child.obs_trans(p, r)
            out_obs.append(o)
            out_rewards.extend(rr)
        return bundle_merge(out_obs), tuple(out_rewards)

    def _act(self, actions: Bundle) -> Bundle:
        if len(actions) != sum(self._child_outer_counts):
            raise SpaceMismatch(
                f"combine expected {sum(self._child_outer_counts)} outer actions, "
                f"got {len(actions)}"
            )
        merged: list[Value] = []
        pos = 0
        for child, count in zip(self.children, self._child_outer_counts):
            part = Bundle(actions.slots[pos:pos + count])
            merged.extend(child.act_trans(part).slots)
            pos += count
        return Bundle(tuple(merged))


def combine(base: Interface | None, children: Sequence[Interface],
            partition: Sequence[Sequence[int]]) -> Interface:
    """Split base's outer slots by partition and run one child per group."""
    return Combine(base, children, partition)


class MapToVector(Interface):
    """Replaces each slot's observation with its canonical flattening."""

    def _setup(self, obs_specs, act_specs):
        outer_obs = [
            BoxSpec((flat_length(s),), *flat_bounds(s)) for s in obs_specs
        ]
        return outer_obs, act_specs

    def _obs(self, obs, rewards):
        flat = tuple(flatten(v, s) for v, s in zip(obs, self._in_obs_specs))
        return Bundle(flat), rewards


def map_to_vector() -> Interface:
    """Convert structured observations to flat vectors; actions pass through."""
    return MapToVector()


class MakeTeam(Interface):
    """Groups slots into teams: one outer slot per group.

    Each outer observation is a SeqV of the member observations, each outer
    action must be a SeqV of member actions (unpacked on act_trans), and each
    group's rewards are summed into the team slot.
    """

    def __init__(self, partition: Sequence[Sequence[int]], inner: Interface | None = None):
        super().__init__(inner)
        self._partition_arg = [list(g) for g in partition]

    def _setup(self, obs_specs, act_specs):
        self._partition = check_partition(self._partition_arg, len(obs_specs))
        outer_obs = [SeqSpec(tuple(obs_specs[i] for i in g)) for g in self._partition]
        outer_act = [SeqSpec(tuple(act_specs[i] for i in g)) for g in self._partition]
        return outer_obs, outer_act

    def _local_groups(self):
        return [list(g) for g in self._partition]

    def _obs(self, obs, rewards):
        grouped = tuple(
            SeqV(tuple(obs[i] for i in g)) for g in self._partition
        )
        team_rewards = tuple(sum(rewards[i] for i in g) for g in self._partition)
        return Bundle(grouped), team_rewards

    def _act(self, actions: Bundle) -> Bundle:
        if len(actions) != len(self._partition):
            raise SpaceMismatch(
                f"expected {len(self._partition)} team actions, got {len(actions)}"
            )
        flat: list[Value] = []
        for act, g in zip(actions, self._partition):
            if not isinstance(act, SeqV) or len(act) != len(g):
                raise SpaceMismatch(
                    f"team action for group {list(g)} must be a SeqV of {len(g)}, got {act!r}"
                )
            flat.extend(act.items)
        return Bundle(tuple(flat))


def make_team(partition: Sequence[Sequence[int]]) -> Interface:
    """Group agent slots into team slots over a contiguous partition."""
    return MakeTeam(partition)


class ConcatObsAct(Interface):
    """Concatenates member observations and actions into one vector per group.

    Inner observations must already be vectors (stack map_to_vector below
    otherwise); inner actions may be vectors or discrete (a discrete action
    occupies one scalar index in the concatenated vector). act_trans splits the
    outer vector back by the recorded member lengths and snaps each slice into
    its member's space (clamping to the member bounds, rounding a discrete
    lane to the nearest valid index), so any outer-space point maps to valid
    inner actions. Group rewards are summed, as for teams.
    """

    def __init__(self, partition: Sequence[Sequence[int]], inner: Interface | None = None):
        super().__init__(inner)
        self._partition_arg = [list(g) for g in partition]

    def _setup(self, obs_specs, act_specs):
        self._partition = check_partition(self._partition_arg, len(obs_specs))
        for i, s in enumerate(obs_specs):
            if not (isinstance(s, BoxSpec) and len(s.shape) == 1):
                raise SetupError(
                    f"slot {i}: concat_obs_act needs vector observations, got {s!r} "
                    "(stack map_to_vector below)"
                )
        self._act_lens: list[int] = []
        for i, s in enumerate(act_specs):
            if isinstance(s, BoxSpec) and len(s.shape) == 1:
                self._act_lens.append(s.shape[0])
            elif isinstance(s, DiscreteSpec):
                self._act_lens.append(1)
            else:
                raise SetupError(
                    f"slot {i}: concat_obs_act needs vector or discrete actions, got {s!r}"
                )
        outer_obs: list[SpaceSpec] = []
        outer_act: list[SpaceSpec] = []
        for g in self._partition:
            o_len = sum(obs_specs[i].shape[0] for i in g)
            o_lo = min(obs_specs[i].low for i in g)
            o_hi = max(obs_specs[i].high for i in g)
            outer_obs.append(BoxSpec((o_len,), o_lo, o_hi))
            bounds = [
                (s.low, s.high) if isinstance(s, BoxSpec) else (0.0, float(s.n - 1))
                for s in (act_specs[i] for i in g)
            ]
            outer_act.append(BoxSpec(
                (sum(self._act_lens[i] for i in g),),
                min(lo for lo, _ in bounds),
                max(hi for _, hi in bounds),
            ))
        return outer_obs, outer_act

    def _local_groups(self):
        return [list(g) for g in self._partition]

    def _obs(self, obs, rewards):
        grouped = []
        for g in self._partition:
            entries: list[float] = []
            for i in g:
                entries.extend(obs[i].entries)
            grouped.append(VectorV(tuple(entries)))
        team_rewards = tuple(sum(rewards[i] for i in g) for g in self._partition)
        return Bundle(tuple(grouped)), team_rewards

    def _act(self, actions: Bundle) -> Bundle:
        if len(actions) != len(self._partition):
            raise SpaceMismatch(
                f"expected {len(self._partition)} concatenated actions, got {len(actions)}"
            )
        flat: list[Value] = []
        for act, g in zip(actions, self._partition):
            total = sum(self._act_lens[i] for i in g)
            if not isinstance(act, VectorV) or len(act) != total:
                raise SpaceMismatch(
                    f"group {list(g)} action must be a vector of length {total}, got {act!r}"
                )
            pos = 0
            for i in g:
                chunk = act.entries[pos:pos + self._act_lens[i]]
                pos += self._act_lens[i]
                spec = self._in_act_specs[i]
                if isinstance(spec, DiscreteSpec):
                    idx = min(spec.n - 1, max(0, round(chunk[0])))
                    flat.append(DiscreteV(idx))
                else:
                    flat.append(VectorV(tuple(
                        min(spec.high, max(spec.low, e)) for e in chunk
                    )))
        return Bundle(tuple(flat))


def concat_obs_act(partition: Sequence[Sequence[int]]) -> Interface:
    """Concatenate member observations/actions into one vector slot per group."""
    return ConcatObsAct(partition)


class AppendFeature(Interface):
    """Adds one computed key to each slot's mapping observation."""

    def __init__(self, key: str, fn: Callable[[Value], Value], feature_spec: SpaceSpec,
                 inner: Interface | None = None):
        super().__init__(inner)
        self.key = key
        self.fn = fn
        self.feature_spec = feature_spec

    def _setup(self, obs_specs, act_specs):
        outer_obs: list[SpaceSpec] = []
        for i, s in enumerate(obs_specs):
            if not isinstance(s, MappingSpec):
                raise SetupError(f"slot {i}: append_feature needs mapping observations, got {s!r}")
            if self.key in s.keys():
                raise SetupError(f"slot {i}: key {self.key!r} already present")
            outer_obs.append(MappingSpec(s.entries + ((self.key, self.feature_spec),)))
        return outer_obs, act_specs

    def _obs(self, obs, rewards):
        out = []
        for v in obs:
            feature = self.fn(v)
            if not space_contains(self.feature_spec, feature):
                raise SpaceMismatch(
                    f"appended feature {feature!r} not in {self.feature_spec!r}"
                )
            out.append(MappingV(v.entries + ((self.key, feature),)))
        return Bundle(tuple(out)), rewards


def append_feature(key: str, fn: Callable[[Value], Value],
                   feature_spec: SpaceSpec) -> Interface:
    """Append fn(slot_obs) under a new mapping key; actions pass through."""
    return AppendFeature(key, fn, feature_spec)
