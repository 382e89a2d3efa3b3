"""Golden pins: fixed (spec, seed) runs must keep every byte they produce.

The pins were computed once and must never be regenerated to make a change
pass: a fast path that alters an observation, a replay line or an outcome is
a behaviour change, not a speedup. The replay header's toolkit version is
fixed so the pins do not depend on whether marlkit is installed.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

import marlkit.harness
from marlkit import (
    AgentSpec,
    Bundle,
    MatchSpec,
    RngStream,
    build_pipeline,
    make_agent,
    make_env,
    run_match,
    wrap_env,
)

BOMBER_OBS_TICKS = 300
# agent name, episode seeds, sha256 over every outer view of every tick.
BOMBER_OBS_CASES = {
    # Four bomber.simple agents stay in their corner pockets: no cell changes.
    "simple": ("bomber.simple", (0,),
               "781be85d29d4c3af657615b429640185f49eab1f64c721107b73b199dfdeef8f"),
    # Seeded random agents move, bomb, burn wood, uncover items and die, over
    # eight short episodes of one env.
    "random": ("random", tuple(range(8)),
               "74407cb1dc149c2bcd1ce97064cd52932849491f931fbd53bd4cbd19bb0c25ad"),
}

PONG_OBS_SEED = 3
PONG_OBS_SHA256 = {
    False: "deaa3146472186e26922e52e0de9ffde0ac8a48713dd1ff6c8aad67b57a92ae1",
    True: "633136772acb5506b35c3602f88dee0a1540d2f1e5b975d82c4448a918feaf72",
}

MATCHES = {
    "pong": MatchSpec(
        env_name="pong2p",
        agents=(AgentSpec("pong.follow_ball"), AgentSpec("random")),
        episodes=2, base_seed=5,
    ),
    "gridbattle": MatchSpec(
        env_name="gridbattle", env_params={"scenario": "5I"},
        agents=(
            AgentSpec("random", interfaces=({"name": "battle.img5i"}, {"name": "battle.dead_pad"})),
            AgentSpec("battle.hit_and_run"),
        ),
        episodes=2, base_seed=7,
    ),
    "bomber": MatchSpec(
        env_name="bomber", env_params={"mode": "ffa"},
        env_interfaces=({"name": "bomber.board_map"}, {"name": "bomber.rotate"}),
        agents=(AgentSpec("bomber.simple"), AgentSpec("random")) * 2,
        episodes=2, base_seed=1,
    ),
}

REPLAY_SHA256 = {
    "pong": "8e48e1341ea015b89e8ff43bb1878139f50b1e1c004e6a75d9191d98dbb3a690",
    "gridbattle": "b513561fa1f0f4c7656cff615bd86968726b79be57e662269eeede69761234a0",
    "bomber": "1b3634ea7730a280836272a1609b56008ba87bd8060e2db828389e5118ce79c0",
}

# (winner_party, draw, length, returns) per episode.
OUTCOMES = {
    "pong": [(0, False, 786, (5.0, -5.0)), (1, False, 441, (-5.0, 5.0))],
    "gridbattle": [
        (1, False, 34, (-0.8, -1.0, -0.8, -0.8, -0.6, 2.9, 2.6, 2.3, 2.5, 2.2)),
        (0, False, 39, (2.5999999999999996, 2.5, 2.8, 2.1, 2.5,
                        -0.8, -0.8, -1.0, -0.6, -0.3999999999999999)),
    ],
    "bomber": [
        (2, False, 71, (-1.0, -1.0, 1.0, -1.0)),
        (None, True, 800, (-1.0, 0.0, -1.0, 0.0)),
    ],
}


@pytest.mark.parametrize("case", sorted(BOMBER_OBS_CASES))
def test_bomber_interface_observations_pinned(case):
    """Every outer observation of board_map+rotate FFA episodes, byte for byte."""
    name, seeds, pin = BOMBER_OBS_CASES[case]
    env = wrap_env(make_env("bomber", {"mode": "ffa"}),
                   build_pipeline([{"name": "bomber.board_map"}, {"name": "bomber.rotate"}]))
    digest = hashlib.sha256()
    for seed in seeds:
        agents = [make_agent(name, rng=RngStream(seed, ("agents", str(slot))))
                  for slot in range(4)]
        for slot, agent in enumerate(agents):
            agent.setup(env.observation_specs[slot], env.action_specs[slot])
        obs = env.reset(seed)
        for slot, agent in enumerate(agents):
            agent.reset(obs[slot])
        rewards = (0.0,) * 4
        for _ in range(BOMBER_OBS_TICKS):
            for view in obs:
                digest.update(view.canonical_bytes())
            actions = tuple(agent.step(obs[s], rewards[s], False)
                            for s, agent in enumerate(agents))
            result = env.step(Bundle(actions))
            obs, rewards = result.obs, result.rewards
            if result.done:
                break
        for view in obs:
            digest.update(view.canonical_bytes())
    assert digest.hexdigest() == pin


@pytest.mark.parametrize("mirror_serves", [False, True])
def test_pong_observations_pinned(mirror_serves):
    """Both egocentric views of every tick of a seeded 2-episode pong match."""
    digest = hashlib.sha256()
    for episode in range(2):
        seed = PONG_OBS_SEED + episode
        env = make_env("pong2p", {"mirror_serves": mirror_serves})
        agents = [make_agent("pong.follow_ball"),
                  make_agent("random", rng=RngStream(seed, ("agents",)))]
        for slot, agent in enumerate(agents):
            agent.setup(env.observation_specs[slot], env.action_specs[slot])
        obs = env.reset(seed)
        for slot, agent in enumerate(agents):
            agent.reset(obs[slot])
        rewards = (0.0, 0.0)
        while True:
            for view in obs:
                digest.update(view.canonical_bytes())
            actions = tuple(agent.step(obs[s], rewards[s], False) for s, agent in enumerate(agents))
            result = env.step(Bundle(actions))
            obs, rewards = result.obs, result.rewards
            if result.done:
                break
        for view in obs:
            digest.update(view.canonical_bytes())
    assert digest.hexdigest() == PONG_OBS_SHA256[mirror_serves]


@pytest.mark.parametrize("name", sorted(MATCHES))
def test_match_replay_and_outcomes_pinned(name, tmp_path, monkeypatch):
    monkeypatch.setattr(marlkit.harness, "toolkit_version", lambda: "golden")
    path = tmp_path / f"{name}.jsonl"
    result = run_match(dataclasses.replace(MATCHES[name], replay_path=str(path)))
    outcomes = [(o.winner_party, o.draw, o.length, o.returns) for o in result.outcomes]
    assert outcomes == OUTCOMES[name]
    assert hashlib.sha256(path.read_bytes()).hexdigest() == REPLAY_SHA256[name]
