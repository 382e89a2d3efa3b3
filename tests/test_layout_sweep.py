"""A generated sweep of the registry: every registered pipeline of one or two
nodes (without make_team and concat_obs_act, whose groups fit one env each)
on every env config it sets up on.

setup() alone decides the slot layout, so an env-side wrap_env and an
agent-side wrap_agent over all raw slots expose the same layout. Over one
seed and at most 20 random ticks, every observation lies in its outer spec
and every action sampled from the outer action spec is accepted, on either
side; the same member draws leave both raw envs in the same state.

stack is associative: over a fixed sample of the three-node pipelines that
set up on each config, stack(c, stack(b, a)) and stack(stack(c, b), a) play
the same draws to the same observation and replay bytes. And under every
pipeline that holds bomber.rotate, each view-frame move lands where the raw
env puts the world move whose direction, turned as the view is, is the view
move's.
"""

from __future__ import annotations

import io
import random
from itertools import product

import pytest

from marlkit import (
    MarlkitError,
    RandomAgent,
    ReplayWriter,
    RngStream,
    build_pipeline,
    list_interfaces,
    make_env,
    run_episode,
    space_contains,
    stack,
    state_hash,
    wrap_agent,
    wrap_env,
)
from marlkit.bundles import Bundle
from marlkit.envs.bomber import MOVE_DELTAS
from marlkit.values import SMALL_DISCRETE

TICKS = 20  # each config's step_limit, so no episode runs longer
ENV_CONFIGS = {
    "pong": ("pong2p", {"step_limit": TICKS}),
    "battle-5I": ("gridbattle", {"step_limit": TICKS}),
    "battle-3I2Z": ("gridbattle", {"scenario": "3I2Z", "randomize_status": True,
                                   "step_limit": TICKS}),
    "bomber-ffa": ("bomber", {"step_limit": TICKS}),
    "bomber-2v2": ("bomber", {"mode": "2v2", "step_limit": TICKS}),
    # Initial stats past the default config's bound, which the specs must follow.
    "bomber-stats": ("bomber", {"initial_ammo": 200, "initial_blast": 300, "step_limit": TICKS}),
}
NODES = sorted(set(list_interfaces()) - {"make_team", "concat_obs_act"})
PIPELINES = [(name,) for name in NODES] + list(product(NODES, repeat=2))
# How many of PIPELINES set up on each config: 141 in all over the first five,
# as a probe of the same configs and pipelines found before this sweep was written.
SET_UP = {"pong": 17, "battle-5I": 17, "battle-3I2Z": 17, "bomber-ffa": 45, "bomber-2v2": 45,
          "bomber-stats": 45}
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


# ---------------------------------------------------------------------------
# stack is associative on three nodes


TRIPLES = list(product(NODES, repeat=3))
# How many of TRIPLES set up on each config, and how many of those each run
# plays both ways (a fixed sample, so the sweep stays within its budget).
SET_UP_3 = {"pong": 40, "battle-5I": 40, "battle-3I2Z": 40, "bomber-ffa": 178, "bomber-2v2": 178,
            "bomber-stats": 178}
SAMPLE_3 = 10


class RecordingAgent(RandomAgent):
    """A random agent that appends the canonical bytes of every observation it gets."""

    def __init__(self, seen: list[bytes], rng: RngStream):
        super().__init__(rng=rng)
        self._seen = seen

    def reset(self, first_obs):
        self._seen.append(first_obs.canonical_bytes())

    def step(self, obs, reward, done):
        self._seen.append(obs.canonical_bytes())
        return super().step(obs, reward, done)


def played(env) -> tuple[str, list[bytes]]:
    """The replay lines of one seeded episode of env and the observation bytes it showed."""
    seen: list[bytes] = []
    stream = io.StringIO()
    agents = [RecordingAgent(seen, RngStream(SEED, ("sweep", str(k))))
              for k in range(env.num_slots)]
    run_episode(env, agents, SEED, writer=ReplayWriter(stream))
    return stream.getvalue(), seen


def nodes(triple: tuple[str, str, str]) -> list:
    return [build_pipeline([{"name": name}]) for name in triple]


@pytest.mark.parametrize("config", sorted(ENV_CONFIGS))
def test_stack_is_associative_on_three_nodes(config):
    env_name, params = ENV_CONFIGS[config]
    set_up = []
    for triple in TRIPLES:
        try:
            wrap_env(make_env(env_name, params), build_pipeline([{"name": n} for n in triple]))
        except MarlkitError:
            continue
        set_up.append(triple)
    assert len(set_up) == SET_UP_3[config]
    for triple in random.Random(config).sample(set_up, SAMPLE_3):
        a, b, c = nodes(triple)  # listed inner to outer, as build_pipeline takes them
        left = wrap_env(make_env(env_name, params), stack(c, stack(b, a)))
        a, b, c = nodes(triple)
        right = wrap_env(make_env(env_name, params), stack(stack(c, b), a))
        for name in LAYOUT:
            assert getattr(left.interface, name) == getattr(right.interface, name), (triple, name)
        lines, seen = played(left)
        assert played(right) == (lines, seen), triple
        assert lines.count("\n") > 1 and seen, triple


# ---------------------------------------------------------------------------
# bomber.rotate: a view-frame move lands where the raw env puts it


ROTATE_PIPELINES = [p for p in PIPELINES if "bomber.rotate" in p]
BOMBER_CONFIGS = ("bomber-ffa", "bomber-2v2")


def quarter_turn(r: int, c: int, n: int) -> tuple[int, int]:
    """Cell (r, c) of an n x n board after one quarter turn of the view."""
    return c, n - 1 - r


def world_move(view_move: int, turns: int) -> int:
    """The world move whose direction, turned `turns` quarter turns, is view_move's."""
    def turned(delta):
        for _ in range(turns % 4):
            delta = quarter_turn(*delta, 1)  # n = 1 turns a direction about the origin
        return delta
    return next(w for w, delta in MOVE_DELTAS.items() if turned(delta) == MOVE_DELTAS[view_move])


def positions(raw_obs) -> list[tuple[float, float]]:
    agents = raw_obs[0]["agents"]
    return [(agent["row"].entries[0], agent["col"].entries[0]) for agent in agents]


def test_quarter_turns_bring_each_start_corner_to_the_top_left():
    # The view frame the rotate docstring promises: slot k's view is turned k
    # times, and every slot sees its own starting corner at the top-left.
    for _, params in (ENV_CONFIGS[c] for c in BOMBER_CONFIGS):
        raw = make_env("bomber", params)
        obs = raw.reset(SEED)
        n = obs[0]["rigid"].shape[0]
        for slot, (r, c) in enumerate(positions(obs)):
            cell = int(r), int(c)
            for _ in range(obs[slot]["self_id"].index % 4):
                cell = quarter_turn(*cell, n)
            assert cell == (0, 0), slot


@pytest.mark.parametrize("config", BOMBER_CONFIGS)
def test_rotate_view_moves_land_where_the_raw_env_puts_them(config):
    """Each tick every slot plays a random view-frame move through the
    pipeline, and a raw twin plays the world move this test derives for it.
    The two raw envs hold the same state after every tick."""
    env_name, params = ENV_CONFIGS[config]
    ran = moved = 0
    for pipeline in ROTATE_PIPELINES:
        try:
            env = wrap_env(make_env(env_name, params), build_pipeline([{"name": n} for n in pipeline]))
        except MarlkitError:
            continue
        ran += 1
        twin = make_env(env_name, params)
        env.reset(SEED)
        raw_obs = twin.reset(SEED)
        turns = [pipeline.count("bomber.rotate") * (view["self_id"].index % 4) for view in raw_obs]
        draws = random.Random(f"{config} {pipeline}")
        done, before = False, positions(raw_obs)
        while not done:
            view_moves = [draws.choice(list(MOVE_DELTAS)) for _ in turns]
            result = env.step(Bundle(tuple(SMALL_DISCRETE[m] for m in view_moves)))
            raw = twin.step(Bundle(tuple(SMALL_DISCRETE[world_move(m, k)]
                                         for m, k in zip(view_moves, turns))))
            assert state_hash(env.unwrapped) == state_hash(twin), (pipeline, view_moves)
            assert result.done == raw.done
            after = positions(twin.observe())
            moved += sum(a != b for a, b in zip(after, before))
            done, before = raw.done, after
    assert ran == 12
    # The agents really moved (about one tick in three), not only into walls.
    assert moved > 15 * ran
