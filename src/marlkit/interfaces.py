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
keep what it built from its inputs in a values.Kept, which it clears in
_reset. The cheapest reuse is one level up: _setup makes a plan from each
slot's spec (where each entry the node reads sits in the view, and where its
output goes), and _view makes one Kept.get keyed by slot over exactly the
inputs that view reads, so a view whose inputs are all last tick's objects
gets last tick's result from one lookup.

Stacking order follows the wrapper convention: in stack(outer, inner) the
observation is processed by inner first, then outer; the action is processed
by outer first, then inner.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .bundles import Bundle, bundle_merge, check_partition
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
    value_repr,
)

Rewards = tuple[float, ...]


class Interface:
    """A transform node with an optional inner node (the stack below it).

    Subclasses override the local hooks _setup, _view(view, slot) (or _obs,
    when the output spans slots or maps rewards), _act and optionally _reset
    and _local_groups; the public methods thread calls through the inner
    chain in the documented order.
    """

    def __init__(self):
        self.inner: Interface | None = None
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

    def obs_trans(self, obs: Bundle, rewards: Rewards) -> tuple[Bundle, Rewards]:
        """Transform observations and rewards inner -> outer.

        rewards is a tuple of floats, one per input slot, as StepResult holds
        them; no node converts them again.
        """
        self._require_setup()
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
        return Bundle(tuple(map(self._view, obs.slots, range(len(obs.slots))))), rewards

    def _view(self, view: Value, slot: int) -> Value:
        return view

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
    below = inner
    while below is not None:  # inner's chain reaches node iff it holds any of outer's
        if below is node:
            raise SetupError(f"cannot stack {type(inner).__name__}: the chain would loop")
        below = below.inner
    node.inner = inner
    return outer


class _Partitioned(Interface):
    """A node over a contiguous partition of its input slots.

    _setup checks the partition once and keeps one slice per group; the
    per-tick hooks read groups through those slices and never check the
    partition again. Subclasses declare their outer specs in _setup_groups and
    map each group with _group_view(views) and _group_act(action, group); a
    group's rewards are summed in slot order.
    """

    def __init__(self, partition: Sequence[Sequence[int]]):
        super().__init__()
        self._partition_arg = [list(g) for g in partition]

    def _setup(self, obs_specs, act_specs):
        self._partition = check_partition(self._partition_arg, len(obs_specs))
        self._slices = [slice(g[0], g[-1] + 1) for g in self._partition]
        return self._setup_groups(obs_specs, act_specs)

    def _local_groups(self):
        return [list(g) for g in self._partition]

    def _obs(self, obs, rewards):
        return (Bundle(tuple(self._group_view(obs.slots[s]) for s in self._slices)),
                tuple(sum(rewards[s]) for s in self._slices))

    def _act(self, actions: Bundle) -> Bundle:
        self._check_action_count(actions)
        inner: list[Value] = []
        for act, group in zip(actions, self._partition):
            inner.extend(self._group_act(act, group))
        return Bundle(tuple(inner))

    def _check_action_count(self, actions: Bundle) -> None:
        expected = len(self._outer_act_specs)
        if len(actions) != expected:
            raise SpaceMismatch(
                f"{type(self).__name__} expected {expected} outer actions, got {len(actions)}"
            )


class Combine(_Partitioned):
    """Side-by-side children over a partition of the base interface's outer slots.

    Observations pass through the base, are split by the partition, and each
    group runs through its child; actions run through the children first, are
    merged, and then pass through the base. Rewards split and merge alongside
    observations.
    """

    def __init__(self, base: Interface | None, children: Sequence[Interface],
                 partition: Sequence[Sequence[int]]):
        super().__init__(partition)
        self.inner = base
        self.children = list(children)
        if len(self.children) != len(self._partition_arg):
            raise SetupError(
                f"combine got {len(self.children)} children for "
                f"{len(self._partition_arg)} partition groups"
            )

    def _setup_groups(self, obs_specs, act_specs):
        outer_obs: list[SpaceSpec] = []
        outer_act: list[SpaceSpec] = []
        self._child_slices: list[slice] = []
        for child, s in zip(self.children, self._slices):
            o, a = child.setup(obs_specs[s], act_specs[s])
            self._child_slices.append(slice(len(outer_obs), len(outer_obs) + len(o)))
            outer_obs.extend(o)
            outer_act.extend(a)
        return outer_obs, outer_act

    def _local_groups(self):
        groups: list[list[int]] = []
        for child, group in zip(self.children, self._partition):
            offset = group[0]
            for g in child.slot_groups:
                groups.append([offset + j for j in g])
        return groups

    def _reset(self, obs: Bundle) -> Bundle:
        return bundle_merge([
            child.reset(Bundle(obs.slots[s])) for child, s in zip(self.children, self._slices)
        ])

    def _obs(self, obs, rewards):
        out_obs: list[Bundle] = []
        out_rewards: list[float] = []
        for child, s in zip(self.children, self._slices):
            o, r = child.obs_trans(Bundle(obs.slots[s]), rewards[s])
            out_obs.append(o)
            out_rewards.extend(r)
        return bundle_merge(out_obs), tuple(out_rewards)

    def _act(self, actions: Bundle) -> Bundle:
        self._check_action_count(actions)
        merged: list[Value] = []
        for child, s in zip(self.children, self._child_slices):
            merged.extend(child.act_trans(Bundle(actions.slots[s])).slots)
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

    def _view(self, view, slot):
        return flatten(view, self._in_obs_specs[slot])


def map_to_vector() -> Interface:
    """Convert structured observations to flat vectors; actions pass through."""
    return MapToVector()


class MakeTeam(_Partitioned):
    """Groups slots into teams: one outer slot per group.

    Each outer observation is a SeqV of the member observations, each outer
    action must be a SeqV of member actions (unpacked on act_trans), and each
    group's rewards are summed into the team slot.
    """

    def _setup_groups(self, obs_specs, act_specs):
        outer_obs = [SeqSpec(tuple(obs_specs[s])) for s in self._slices]
        outer_act = [SeqSpec(tuple(act_specs[s])) for s in self._slices]
        return outer_obs, outer_act

    _group_view = SeqV

    def _group_act(self, act, group):
        if not isinstance(act, SeqV) or len(act) != len(group):
            raise SpaceMismatch(f"team action for group {list(group)} must be a SeqV of "
                                f"{len(group)}, got {value_repr(act)}")
        return act.items


def make_team(partition: Sequence[Sequence[int]]) -> Interface:
    """Group agent slots into team slots over a contiguous partition."""
    return MakeTeam(partition)


class ConcatObsAct(_Partitioned):
    """Concatenates member observations and actions into one vector per group.

    Inner observations must already be vectors (stack map_to_vector below
    otherwise); inner actions may be vectors or discrete (a discrete action
    occupies one scalar index in the concatenated vector). act_trans splits the
    outer vector back by the recorded member lengths and snaps each slice into
    its member's space (clamping to the member bounds, rounding a discrete
    lane to the nearest valid index), so any outer-space point maps to valid
    inner actions. Group rewards are summed, as for teams.
    """

    def _setup_groups(self, obs_specs, act_specs):
        for i, s in enumerate(obs_specs):
            if not (isinstance(s, BoxSpec) and len(s.shape) == 1):
                raise SetupError(
                    f"slot {i}: concat_obs_act needs vector observations, got {s!r} "
                    "(stack map_to_vector below)"
                )
        lanes: list[tuple[int, float, float]] = []  # each slot's action length and bounds
        for i, s in enumerate(act_specs):
            if isinstance(s, BoxSpec) and len(s.shape) == 1:
                lanes.append((s.shape[0], s.low, s.high))
            elif isinstance(s, DiscreteSpec):
                lanes.append((1, 0.0, float(s.n - 1)))
            else:
                raise SetupError(
                    f"slot {i}: concat_obs_act needs vector or discrete actions, got {s!r}"
                )
        self._act_lens = [length for length, _, _ in lanes]
        outer_obs: list[SpaceSpec] = []
        outer_act: list[SpaceSpec] = []
        for sl in self._slices:
            members = obs_specs[sl]
            outer_obs.append(BoxSpec((sum(o.shape[0] for o in members),),
                                     min(o.low for o in members), max(o.high for o in members)))
            outer_act.append(BoxSpec((sum(length for length, _, _ in lanes[sl]),),
                                     min(lo for _, lo, _ in lanes[sl]),
                                     max(hi for _, _, hi in lanes[sl])))
        return outer_obs, outer_act

    def _group_view(self, views):
        return VectorV(tuple(e for v in views for e in v.entries))

    def _group_act(self, act, group):
        total = sum(self._act_lens[i] for i in group)
        if not isinstance(act, VectorV) or len(act) != total:
            raise SpaceMismatch(f"group {list(group)} action must be a vector of length "
                                f"{total}, got {value_repr(act)}")
        inner: list[Value] = []
        pos = 0
        for i in group:
            chunk = act.entries[pos:pos + self._act_lens[i]]
            pos += self._act_lens[i]
            spec = self._in_act_specs[i]
            if isinstance(spec, DiscreteSpec):
                inner.append(DiscreteV(min(spec.n - 1, max(0, round(chunk[0])))))
            else:
                inner.append(VectorV(tuple(min(spec.high, max(spec.low, e)) for e in chunk)))
        return inner


def concat_obs_act(partition: Sequence[Sequence[int]]) -> Interface:
    """Concatenate member observations/actions into one vector slot per group."""
    return ConcatObsAct(partition)


def append_key(obs_specs: Sequence[SpaceSpec], key: str,
               feature_spec: SpaceSpec) -> list[SpaceSpec]:
    """Each slot's mapping spec with (key, feature_spec) appended.

    Raises SetupError if a slot's spec is not a mapping or already has key.
    """
    outer: list[SpaceSpec] = []
    for i, s in enumerate(obs_specs):
        if not isinstance(s, MappingSpec):
            raise SetupError(f"slot {i}: appending {key!r} needs mapping observations, got {s!r}")
        if key in s.keys():
            raise SetupError(f"slot {i}: key {key!r} already present")
        outer.append(MappingSpec(s.entries + ((key, feature_spec),)))
    return outer


class AppendFeature(Interface):
    """Adds one computed key to each slot's mapping observation."""

    def __init__(self, key: str, fn: Callable[[Value], Value], feature_spec: SpaceSpec):
        super().__init__()
        self.key = key
        self.fn = fn
        self.feature_spec = feature_spec

    def _setup(self, obs_specs, act_specs):
        return append_key(obs_specs, self.key, self.feature_spec), act_specs

    def _view(self, view, slot):
        feature = self.fn(view)
        if not space_contains(self.feature_spec, feature):
            raise SpaceMismatch(f"appended feature {value_repr(feature)} "
                                f"not in {self.feature_spec!r}")
        return MappingV(view.entries + ((self.key, feature),))


def append_feature(key: str, fn: Callable[[Value], Value],
                   feature_spec: SpaceSpec) -> Interface:
    """Append fn(slot_obs) under a new mapping key; actions pass through."""
    return AppendFeature(key, fn, feature_spec)
