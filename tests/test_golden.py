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

# scenario params, pipeline, agent name, episode seeds, sha256 over every raw
# view and every outer view of every tick. One env plays all of a case's
# episodes, so the pins also cover what an env keeps across reset.
_PIPE_5I = [{"name": "battle.img5i"}, {"name": "battle.dead_pad"}]
_PIPE_3I2Z = [{"name": "battle.img3i2z"}]
_5I = {"scenario": "5I"}
_3I2Z = {"scenario": "3I2Z", "randomize_status": True}
GRIDBATTLE_OBS_CASES = {
    "5I-hit_and_run": (_5I, _PIPE_5I, "battle.hit_and_run", tuple(range(6)),
                       "913536cc6146fd638e9df230777e39a1484da97f48ab779ee99846db665931e2"),
    "5I-random": (_5I, _PIPE_5I, "random", tuple(range(3)),
                  "e327e0e623d1a0265fa40f76cd2178d70fd98372a69778a0746016c519144588"),
    "3I2Z-hit_and_run": (_3I2Z, _PIPE_3I2Z, "battle.hit_and_run", tuple(range(6)),
                         "e2093f6546a79c96fbfa91fc2c8c66070c63469d14c02d4fe3b752fd310b3cef"),
    "3I2Z-random": (_3I2Z, _PIPE_3I2Z, "random", tuple(range(3)),
                    "c67d6325291d2c6b2c3c87b2c3713eeae91aaeaf1d022a50b1502a08c8579678"),
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
            obs, rewards = env.observe(), result.rewards
            if result.done:
                break
        for view in obs:
            digest.update(view.canonical_bytes())
    assert digest.hexdigest() == pin


@pytest.mark.parametrize("case", sorted(GRIDBATTLE_OBS_CASES))
def test_gridbattle_observations_pinned(case):
    """Every raw view and every encoder output of seeded gridbattle episodes.

    The agents read the raw views, so hit_and_run's actions follow them; the
    pipeline's outputs are hashed alongside, as an agent-side stack sees them.
    """
    params, itfs, name, seeds, pin = GRIDBATTLE_OBS_CASES[case]
    env = make_env("gridbattle", params)
    pipeline = build_pipeline(itfs)
    pipeline.setup(env.observation_specs, env.action_specs)
    n = env.num_slots
    digest = hashlib.sha256()

    def absorb(raw: Bundle, outer: Bundle) -> None:
        for view in raw:
            digest.update(view.canonical_bytes())
        for view in outer:
            digest.update(view.canonical_bytes())

    for seed in seeds:
        agents = [make_agent(name, rng=RngStream(seed, ("agents", str(slot))))
                  for slot in range(n)]
        for slot, agent in enumerate(agents):
            agent.setup(env.observation_specs[slot], env.action_specs[slot])
        obs = env.reset(seed)
        absorb(obs, pipeline.reset(obs))
        for slot, agent in enumerate(agents):
            agent.reset(obs[slot])
        rewards = (0.0,) * n
        while True:
            actions = tuple(agent.step(obs[s], rewards[s], False)
                            for s, agent in enumerate(agents))
            result = env.step(Bundle(actions))
            obs, rewards = env.observe(), result.rewards
            absorb(obs, pipeline.obs_trans(obs, rewards)[0])
            if result.done:
                break
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
            obs, rewards = env.observe(), result.rewards
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
