"""Observations are built on request: env.step returns the transition only.

Env.observe() is the one reader of the _observe hook; reset returns its
first call. So replay_verify and `marlkit render`, which never read an
observation, build one bundle per episode (at reset) and none per step; a
WrappedEnv runs its interface's obs_trans once per tick and hands the same
outer bundle to every observe() of that tick; and Env.step refuses a result
whose counts do not match the env's slots.
"""

from __future__ import annotations

import pytest

from marlkit import (
    AgentSpec,
    Bundle,
    DiscreteV,
    EpisodeOver,
    MatchSpec,
    SpaceMismatch,
    StepResult,
    build_pipeline,
    make_env,
    replay_verify,
    run_episode,
    run_match,
    stack,
    wrap_env,
)
from marlkit.agents import RandomAgent
from marlkit.cli import main as cli_main
from marlkit.env import Env
from marlkit.envs.bomber import BomberEnv
from marlkit.envs.gridbattle import BattleEnv
from marlkit.envs.pong import PongEnv
from marlkit.rng import RngStream

from conftest import AddToVectors, SpyItf, ToyVecEnv

ENVS = {
    "pong": lambda: make_env("pong2p"),
    "battle": lambda: make_env("gridbattle", {"scenario": "5I"}),
    "bomber": lambda: make_env("bomber", {"mode": "ffa"}),
    "toy": ToyVecEnv,
    "bomber-wrapped": lambda: wrap_env(make_env("bomber", {"mode": "ffa"}), build_pipeline(
        [{"name": "bomber.board_map"}, {"name": "bomber.rotate"}])),
}


@pytest.mark.parametrize("name", ENVS)
def test_observe_before_reset_is_episode_over(name):
    env = ENVS[name]()
    with pytest.raises(EpisodeOver, match=r"^observe\(\) before reset\(\)$"):
        env.observe()
    first = env.reset(3)
    assert env.observe() == first


@pytest.mark.parametrize("name", ["pong", "battle", "bomber", "toy"])
def test_step_builds_no_observation(name, monkeypatch):
    env = ENVS[name]()
    calls = []
    observe = type(env)._observe
    monkeypatch.setattr(type(env), "_observe", lambda self: calls.append(1) or observe(self))
    env.reset(4)
    rng = RngStream(4, ("no-observe",))
    for _ in range(10):
        actions = Bundle(tuple(DiscreteV(rng.randrange(spec.n)) for spec in env.action_specs))
        if env.step(actions).done:
            break
    assert calls == [1]  # the reset's


# ---------------------------------------------------------------------------
# replay_verify and render: one observation per episode, at reset

REPLAYS = {
    "pong": MatchSpec(env_name="pong2p", env_params={"step_limit": 120},
                      agents=(AgentSpec("pong.follow_ball"), AgentSpec("random")),
                      episodes=2, base_seed=3),
    "battle-5I": MatchSpec(env_name="gridbattle", env_params={"scenario": "5I"},
                           agents=(AgentSpec("battle.hit_and_run"), AgentSpec("random")),
                           episodes=2, base_seed=3),
    "bomber-board_map-rotate": MatchSpec(
        env_name="bomber", env_params={"mode": "ffa", "step_limit": 40},
        env_interfaces=({"name": "bomber.board_map"}, {"name": "bomber.rotate"}),
        agents=(AgentSpec("bomber.simple"),) * 4, episodes=2, base_seed=3),
}


@pytest.fixture(scope="module")
def replays(tmp_path_factory) -> dict[str, str]:
    out = tmp_path_factory.mktemp("observe")
    paths = {}
    for name, spec in REPLAYS.items():
        paths[name] = str(out / f"{name}.jsonl")
        run_match(MatchSpec(**{**spec.__dict__, "replay_path": paths[name]}))
    return paths


def count_observes(monkeypatch) -> list[str]:
    """The phase ("reset" or "step") of each raw env _observe call from now on."""
    phase, calls = ["step"], []
    reset = Env.reset

    def phased_reset(env, seed):
        phase[0] = "reset"
        try:
            return reset(env, seed)
        finally:
            phase[0] = "step"

    monkeypatch.setattr(Env, "reset", phased_reset)
    for cls in (PongEnv, BattleEnv, BomberEnv):
        monkeypatch.setattr(cls, "_observe", lambda self, observe=cls._observe:
                            calls.append(phase[0]) or observe(self))
    return calls


@pytest.mark.parametrize("name", REPLAYS)
def test_verify_observes_once_per_episode_at_reset(name, replays, monkeypatch):
    calls = count_observes(monkeypatch)
    assert replay_verify(replays[name]).ok
    assert calls == ["reset"] * REPLAYS[name].episodes


@pytest.mark.parametrize("name", REPLAYS)
def test_render_observes_once_per_episode_at_reset(name, replays, monkeypatch, capsys):
    calls = count_observes(monkeypatch)
    assert cli_main(["render", replays[name], "--fps", "0"]) == 0
    assert capsys.readouterr().out.count("=== episode") == REPLAYS[name].episodes
    assert calls == ["reset"] * REPLAYS[name].episodes


def test_a_match_observes_each_tick_but_the_last(monkeypatch):
    calls = count_observes(monkeypatch)
    result = run_match(REPLAYS["pong"])
    ticks = sum(o.length for o in result.outcomes)
    # One bundle at each reset, then one after every step that is not done.
    assert calls.count("reset") == 2 and calls.count("step") == ticks - 2


# ---------------------------------------------------------------------------
# WrappedEnv: obs_trans once per tick, one outer bundle per tick


def shifted(v, delta):
    """A vector observation with delta added to each entry, as AddToVectors does."""
    return type(v)(tuple(e + delta for e in v.entries))


def test_wrapped_env_observe_is_the_ticks_one_outer_bundle():
    log: list = []
    env = wrap_env(ToyVecEnv(episode_len=6),
                   stack(SpyItf("outer", log), stack(AddToVectors(0.5), SpyItf("inner", log))))
    first = env.reset(2)
    assert env.observe() is first
    del log[:]
    previous = first
    for _ in range(6):
        result = env.step(Bundle((DiscreteV(1), DiscreteV(2))))
        obs = env.observe()
        assert env.observe() is obs and env.observe() is obs
        assert obs is not previous and obs != previous
        # The outer bundle is this tick's raw observation through the pipeline.
        raw = env.base.observe()
        assert obs.slots == tuple(shifted(v, 0.5) for v in raw)
        previous = obs
        if result.done:
            break
    assert result.done
    obs_calls = [entry for entry in log if entry[1] == "obs"]
    assert obs_calls == [("inner", "obs"), ("outer", "obs")] * 6


def test_run_episode_on_a_wrapped_env_sees_each_ticks_outer_bundle():
    seen = []

    class Recording(RandomAgent):
        def step(self, obs, reward, done):
            seen.append(obs)
            return super().step(obs, reward, done)

    env = wrap_env(ToyVecEnv(episode_len=5), AddToVectors(1.0))
    raw = ToyVecEnv(episode_len=5)
    agents = [Recording(rng=RngStream(0, ("rec", str(s)))) for s in range(2)]
    run_episode(env, agents, seed=7)
    raw.reset(7)
    expected = []
    for _ in range(5):
        expected += [shifted(v, 1.0) for v in raw.observe()]
        raw.step(Bundle((DiscreteV(0), DiscreteV(0))))
    assert seen == expected


# ---------------------------------------------------------------------------
# Env.step checks the result's counts against the env's slots


class TooManyRewards(ToyVecEnv):
    """Two slots, but each step returns four rewards and four alive flags."""

    def _do_step(self, actions):
        result = super()._do_step(actions)
        return StepResult(rewards=result.rewards * 2, done=result.done, alive=result.alive * 2,
                          info=result.info)


def test_step_refuses_a_result_without_one_reward_per_slot():
    env = TooManyRewards()
    env.reset(0)
    with pytest.raises(SpaceMismatch, match=r"^TooManyRewards\._do_step returned 4 rewards "
                                            r"and alive flags for 2 slots$"):
        env.step(Bundle((DiscreteV(0), DiscreteV(0))))


def test_a_match_on_an_env_with_too_many_rewards_stops_at_its_first_tick():
    agents = [RandomAgent(rng=RngStream(s, ("too-many",))) for s in range(2)]
    with pytest.raises(SpaceMismatch, match=r"^episode 0 \(seed 0\), tick 0: TooManyRewards"):
        run_episode(TooManyRewards(), agents, seed=0)
