"""A generated sweep of the registry: every registered pipeline of one or two
nodes (without make_team and concat_obs_act, whose groups fit one env each)
on every env config it sets up on.

setup() alone decides the slot layout, so an env-side wrap_env and an
agent-side wrap_agent over all raw slots expose the same layout. Over one
seed and at most 20 random ticks, every observation lies in its outer spec
and every action sampled from the outer action spec is accepted, on either
side; the same member draws leave both raw envs in the same state.
"""

from __future__ import annotations

from itertools import product

import pytest

from marlkit import (
    MarlkitError,
    RandomAgent,
    RngStream,
    build_pipeline,
    list_interfaces,
    make_env,
    run_episode,
    space_contains,
    state_hash,
    wrap_agent,
    wrap_env,
)

TICKS = 20  # each config's step_limit, so no episode runs longer
ENV_CONFIGS = {
    "pong": ("pong2p", {"step_limit": TICKS}),
    "battle-5I": ("gridbattle", {"step_limit": TICKS}),
    "battle-3I2Z": ("gridbattle", {"scenario": "3I2Z", "randomize_status": True,
                                   "step_limit": TICKS}),
    "bomber-ffa": ("bomber", {"step_limit": TICKS}),
    "bomber-2v2": ("bomber", {"mode": "2v2", "step_limit": TICKS}),
}
NODES = sorted(set(list_interfaces()) - {"make_team", "concat_obs_act"})
PIPELINES = [(name,) for name in NODES] + list(product(NODES, repeat=2))
# How many of PIPELINES set up on each config: 141 in all, as a probe of the
# same configs and pipelines found before this sweep was written.
SET_UP = {"pong": 17, "battle-5I": 17, "battle-3I2Z": 17, "bomber-ffa": 45, "bomber-2v2": 45}
LAYOUT = ("raw_obs_specs", "raw_act_specs", "outer_obs_specs", "outer_act_specs",
          "raw_slot_count", "outer_slot_count", "slot_groups")
SEED = 0


class CheckingAgent(RandomAgent):
    """A random agent that checks every observation against its spec."""

    def reset(self, first_obs):
        assert space_contains(self.obs_spec, first_obs)

    def step(self, obs, reward, done):
        assert space_contains(self.obs_spec, obs)
        return super().step(obs, reward, done)


def members(count: int) -> list[CheckingAgent]:
    return [CheckingAgent(rng=RngStream(SEED, ("sweep", str(k)))) for k in range(count)]


@pytest.mark.parametrize("config", sorted(ENV_CONFIGS))
def test_either_side_has_one_layout_and_plays_in_spec(config):
    env_name, params = ENV_CONFIGS[config]
    set_up = 0
    for pipeline in PIPELINES:
        entries = [{"name": name} for name in pipeline]
        raw = make_env(env_name, params)
        try:
            env = wrap_env(make_env(env_name, params), build_pipeline(entries))
        except MarlkitError:
            with pytest.raises(MarlkitError):  # nor does it set up agent-side
                build_pipeline(entries).setup(raw.observation_specs, raw.action_specs)
            continue
        set_up += 1
        agent = wrap_agent(members(env.interface.outer_slot_count), build_pipeline(entries),
                           raw.observation_specs, raw.action_specs)
        for name in LAYOUT:
            assert getattr(agent.interface, name) == getattr(env.interface, name), (pipeline, name)
        env_side = run_episode(env, members(env.num_slots), SEED)
        agent_side = run_episode(raw, [agent], SEED)
        assert env_side.length == agent_side.length <= TICKS, pipeline
        assert state_hash(env.unwrapped) == state_hash(raw), pipeline
    assert set_up == SET_UP[config]
