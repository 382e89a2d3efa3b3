"""Attaching interfaces to either side of the RL loop.

wrap_env(env, itf) hides the transforms inside env.step(): the wrapped
environment exposes the interface's outer specs. wrap_agent(members, itf,
obs_specs, act_specs) hides them inside the agent instead: the wrapped agent
accepts raw observations for the slots whose specs it was set up on and emits
raw actions, so agents trained with different interfaces can play each other
in the original environment. Either way, itf.setup() on the raw specs alone
decides the slot layout.
lift_single_wrapper adapts a classic single-slot observation/reward/action
wrapper so it composes in interface stacks.
"""

from __future__ import annotations

from typing import Sequence

from .agents import Agent
from .bundles import Bundle, StepResult
from .env import Env
from .errors import SetupError, SpaceMismatch
from .interfaces import Combine, Interface
from .values import SpaceSpec, Value, space_contains, value_repr


class WrappedEnv(Env):
    """An environment with an interface folded into reset/step."""

    def __init__(self, base: Env, interface: Interface):
        interface.setup(base.observation_specs, base.action_specs)
        # An outer slot is its raw slots' party if they share one, else -1.
        members = ({base.parties[i] for i in group} for group in interface.slot_groups)
        super().__init__(interface.outer_obs_specs, interface.outer_act_specs,
                         (m.pop() if len(m) == 1 else -1 for m in members))
        self.base = base
        self.interface = interface
        # Where each outer slot is the raw slot of its index, raw.alive holds as it is.
        self._raw_alive = interface.slot_groups == tuple(
            (i,) for i in range(interface.raw_slot_count))

    @property
    def unwrapped(self) -> Env:
        return self.base.unwrapped

    def _do_reset(self, seed: int) -> Bundle:
        return self.interface.reset(self.base.reset(seed))

    def _do_step(self, actions: Bundle) -> StepResult:
        raw_actions = self.interface.act_trans(actions)
        raw = self.base.step(raw_actions)
        obs, rewards = self.interface.obs_trans(raw.obs, raw.rewards)
        alive = raw.alive if self._raw_alive else tuple(
            any(raw.alive[i] for i in g) for g in self.interface.slot_groups)
        return StepResult(obs=obs, rewards=rewards, done=raw.done, alive=alive, info=raw.info)

    def raw_record(self) -> tuple[Bundle, StepResult]:
        return self.base.raw_record()

    def state_value(self) -> Value:
        return self.base.state_value()

    def render_ascii(self) -> str:
        return self.base.render_ascii()


def wrap_env(env: Env, itf: Interface) -> WrappedEnv:
    """Wrap an interface on an environment."""
    return WrappedEnv(env, itf)


def wrap_env_per_agent(env: Env, itfs: Sequence[Interface]) -> WrappedEnv:
    """One single-slot interface per agent slot, applied independently."""
    if len(itfs) != env.num_slots:
        raise SetupError(
            f"need one interface per slot: got {len(itfs)} for {env.num_slots} slots"
        )
    partition = [[i] for i in range(env.num_slots)]
    wrapped = WrappedEnv(env, Combine(None, list(itfs), partition))
    for k, itf in enumerate(itfs):
        if itf.outer_slot_count != 1:
            raise SetupError(f"interface {k} changes its slot count; wrap it explicitly")
    return wrapped


class Actors:
    """Actors side by side, each driven on its block of consecutive slots.

    A WrappedAgent covers its interface's raw slots and takes per-slot
    sequences; any other agent covers one slot and takes that slot's value.
    """

    def __init__(self, actors: Sequence[Agent | WrappedAgent]):
        # Per actor: the slot index or block slice it reads, and whether its
        # step returns a block of actions.
        self._plan: list[tuple[Agent | WrappedAgent, int | slice, bool]] = []
        self.slots = 0
        for actor in actors:
            block = isinstance(actor, WrappedAgent)
            end = self.slots + (actor.slots if block else 1)
            self._plan.append((actor, slice(self.slots, end) if block else self.slots, block))
            self.slots = end

    def setup(self, obs_specs: Sequence[SpaceSpec], act_specs: Sequence[SpaceSpec]) -> None:
        for actor, key, _ in self._plan:
            actor.setup(obs_specs[key], act_specs[key])

    def reset(self, first_obs: Sequence[Value]) -> None:
        for actor, key, _ in self._plan:
            actor.reset(first_obs[key])

    def step(self, obs: Sequence[Value], rewards: Sequence[float], done: bool) -> list[Value]:
        actions: list[Value] = []
        for actor, key, block in self._plan:
            if block:
                actions += actor.step(obs[key], rewards[key], done)
            else:
                actions.append(actor.step(obs[key], rewards[key], done))
        return actions


class WrappedAgent:
    """A team: members behind an interface, covering raw env slots.

    The interface must already be set up on the raw specs of the covered
    slots (wrap_agent does that; else SetupError). The wrapped agent presents
    the interface's raw specs to the outside; its members, each an agent or a
    WrappedAgent, cover the interface's outer slots in order. Rewards reach
    each member after the interface's reward transform (teams see the group
    sum)."""

    def __init__(self, members: Sequence[Agent | WrappedAgent], interface: Interface):
        interface._require_setup()
        self._members = Actors(members)
        self.interface = interface
        if self._members.slots != interface.outer_slot_count:
            raise SetupError(f"interface exposes {interface.outer_slot_count} outer slots; "
                             f"members cover {self._members.slots}")
        self.slots = interface.raw_slot_count
        self._act_specs = interface.outer_act_specs
        self._members.setup(interface.outer_obs_specs, self._act_specs)
        self._pending_first: Bundle | None = None

    def setup(self, obs_specs: Sequence[SpaceSpec], act_specs: Sequence[SpaceSpec]) -> None:
        if (tuple(obs_specs) != self.interface.raw_obs_specs
                or tuple(act_specs) != self.interface.raw_act_specs):
            raise SetupError("wrapped agent's interface was set up on different specs")

    def reset(self, first_obs: Sequence[Value]) -> None:
        outer = self.interface.reset(Bundle(tuple(first_obs)))
        self._members.reset(outer.slots)
        self._pending_first = outer

    def step(self, obs: Sequence[Value], rewards: Sequence[float], done: bool) -> list[Value]:
        if self._pending_first is not None:
            # The episode's first observation was already transformed by reset.
            outer_obs = self._pending_first
            outer_rewards = (0.0,) * len(outer_obs)
            self._pending_first = None
        else:
            outer_obs, outer_rewards = self.interface.obs_trans(Bundle(tuple(obs)), tuple(rewards))
        actions = self._members.step(outer_obs.slots, outer_rewards, done)
        for k, (act, spec) in enumerate(zip(actions, self._act_specs)):
            if not space_contains(spec, act):
                raise SpaceMismatch(f"outer slot {k}: action {value_repr(act)} not in {spec!r}")
        raw = self.interface.act_trans(Bundle(tuple(actions)))
        return list(raw.slots)


def wrap_agent(members: Sequence[Agent], itf: Interface,
               obs_specs: Sequence[SpaceSpec], act_specs: Sequence[SpaceSpec]) -> WrappedAgent:
    """Set itf up on the covered raw slots' specs and wrap it on the members."""
    itf.setup(obs_specs, act_specs)
    return WrappedAgent(members, itf)


class SingleSlotWrapper:
    """A classic single-agent wrapper: per-slot transforms only.

    Subclasses override any of the hooks; the defaults are identities. Lift the
    wrapper into an interface with lift_single_wrapper to compose it in stacks.
    """

    def obs_spec(self, spec: SpaceSpec) -> SpaceSpec:
        return spec

    def act_spec(self, spec: SpaceSpec) -> SpaceSpec:
        return spec

    def obs(self, value: Value) -> Value:
        return value

    def reward(self, reward: float) -> float:
        return reward

    def act(self, action: Value) -> Value:
        return action


class LiftedWrapper(Interface):
    """Applies a SingleSlotWrapper independently to every slot."""

    def __init__(self, wrapper: SingleSlotWrapper):
        super().__init__()
        self.wrapper = wrapper

    def _setup(self, obs_specs, act_specs):
        return (
            [self.wrapper.obs_spec(s) for s in obs_specs],
            [self.wrapper.act_spec(s) for s in act_specs],
        )

    def _obs(self, obs, rewards):
        out = Bundle(tuple(self.wrapper.obs(v) for v in obs))
        return out, tuple(self.wrapper.reward(r) for r in rewards)

    def _act(self, actions):
        return Bundle(tuple(self.wrapper.act(a) for a in actions))


def lift_single_wrapper(w: SingleSlotWrapper) -> Interface:
    """Lift a per-slot wrapper into an interface usable in stacks."""
    return LiftedWrapper(w)
