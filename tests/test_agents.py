"""Agent contract: baseline agents and the setup/reset/step protocol."""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

from marlkit import (
    BoxSpec,
    ConstantAgent,
    DiscreteSpec,
    DiscreteV,
    MappingSpec,
    RandomAgent,
    SeqSpec,
    SeqV,
    SetupError,
    SpaceMismatch,
    TeamAgent,
    VectorV,
    make_env,
    space_contains,
)
from marlkit.envs.bomber import SimpleBomberAgent
from marlkit.envs.gridbattle import HitAndRunAgent
from marlkit.envs.pong import FollowBallAgent


def test_random_agent_samples_its_space():
    agent = RandomAgent(seed=7)
    agent.setup(DiscreteSpec(3), DiscreteSpec(3))
    agent.reset(DiscreteV(0))
    for _ in range(50):
        action = agent.step(DiscreteV(0), 0.0, False)
        assert action.index in (0, 1, 2)


def test_random_agent_deterministic_per_seed():
    def trace(seed):
        agent = RandomAgent(seed=seed)
        agent.setup(DiscreteSpec(5), DiscreteSpec(5))
        agent.reset(DiscreteV(0))
        return [agent.step(DiscreteV(0), 0.0, False).index for _ in range(30)]

    assert trace(7) == trace(7)
    assert trace(7) != trace(8)


def test_random_agent_respects_box_spaces():
    agent = RandomAgent(seed=1)
    spec = BoxSpec((3,), -2.0, 2.0)
    agent.setup(spec, spec)
    for _ in range(20):
        assert space_contains(spec, agent.step(VectorV((0.0, 0.0, 0.0)), 0.0, False))


def test_constant_agent_ignores_observation():
    agent = ConstantAgent(DiscreteV(1))
    agent.setup(DiscreteSpec(2), DiscreteSpec(2))
    agent.reset(DiscreteV(0))
    assert agent.step(DiscreteV(0), 0.0, False) == DiscreteV(1)
    assert agent.step(DiscreteV(1), -5.0, False) == DiscreteV(1)


def test_team_agent_splits_lanes():
    team = TeamAgent([ConstantAgent(DiscreteV(0)), ConstantAgent(DiscreteV(2))])
    obs_spec = SeqSpec((DiscreteSpec(1), DiscreteSpec(1)))
    act_spec = SeqSpec((DiscreteSpec(3), DiscreteSpec(3)))
    team.setup(obs_spec, act_spec)
    team.reset(SeqV((DiscreteV(0), DiscreteV(0))))
    action = team.step(SeqV((DiscreteV(0), DiscreteV(0))), 0.0, False)
    assert action == SeqV((DiscreteV(0), DiscreteV(2)))


@pytest.mark.parametrize("obs", [DiscreteV(0), SeqV((DiscreteV(0),) * 3)], ids=["bare", "3 lanes"])
def test_team_agent_refuses_an_observation_that_is_not_a_seq_of_its_lanes(obs):
    # A check that holds under python -O; before, a third lane was dropped
    # without a word.
    team = TeamAgent([ConstantAgent(DiscreteV(0))] * 2)
    team.setup(SeqSpec((DiscreteSpec(1),) * 2), SeqSpec((DiscreteSpec(1),) * 2))
    message = r"^TeamAgent needs a SeqV observation of 2 lanes, got (DiscreteV|SeqV)\("
    with pytest.raises(SpaceMismatch, match=message):
        team.reset(obs)
    team.reset(SeqV((DiscreteV(0),) * 2))
    with pytest.raises(SpaceMismatch, match=message):
        team.step(obs, 0.0, False)


def test_team_agent_lane_count_validated():
    import pytest

    from marlkit import SetupError

    team = TeamAgent([ConstantAgent(DiscreteV(0))])
    with pytest.raises(SetupError):
        team.setup(SeqSpec((DiscreteSpec(1), DiscreteSpec(1))),
                   SeqSpec((DiscreteSpec(1), DiscreteSpec(1))))


# ---------------------------------------------------------------------------
# Rule agents check the specs they are set up on

# (agent class, the env it is written for, one observation key it reads)
RULE_AGENTS = [
    (FollowBallAgent, "pong2p", "own_paddle_y"),
    (HitAndRunAgent, "gridbattle", "units"),
    (SimpleBomberAgent, "bomber", "bomb_fuse"),
]


def test_rule_agents_accept_their_raw_specs():
    for cls, env_name, _ in RULE_AGENTS:
        env = make_env(env_name)
        for obs_spec, act_spec in zip(env.observation_specs, env.action_specs):
            cls().setup(obs_spec, act_spec)


@pytest.mark.parametrize("cls,env_name,key", RULE_AGENTS)
def test_rule_agents_reject_foreign_specs_at_setup(cls, env_name, key):
    env = make_env(env_name)
    obs_spec, act_spec = env.observation_specs[0], env.action_specs[0]
    for _, other, _ in RULE_AGENTS:
        if other != env_name:
            with pytest.raises(SetupError, match="observation"):
                cls().setup(make_env(other).observation_specs[0], act_spec)
    with pytest.raises(SetupError, match="observation"):
        cls().setup(BoxSpec((32, 32, 1), 0.0, 1.0), act_spec)
    pruned = MappingSpec(tuple((k, s) for k, s in obs_spec.items() if k != key))
    with pytest.raises(SetupError, match=key):
        cls().setup(pruned, act_spec)
    with pytest.raises(SetupError, match="action"):
        cls().setup(obs_spec, DiscreteSpec(act_spec.n + 1))
    with pytest.raises(SetupError, match="action"):
        cls().setup(obs_spec, BoxSpec((1,), 0.0, 1.0))


@pytest.mark.parametrize("key,sub", [
    ("wood", BoxSpec((9, 9, 1), 0.0, 1.0)),
    ("teams", BoxSpec((3,), 0.0, 3.0)),
    ("self_id", DiscreteSpec(5)),
    ("self_id", BoxSpec((1,), 0.0, 3.0)),
])
def test_bomber_agent_checks_shapes_and_ranges(key, sub):
    spec = make_env("bomber").observation_specs[0]
    changed = MappingSpec(tuple((k, sub if k == key else s) for k, s in spec.items()))
    with pytest.raises(SetupError, match=key):
        SimpleBomberAgent().setup(changed, DiscreteSpec(6))


def test_cli_rule_agent_behind_wrong_pipeline_exits_2_without_traceback():
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "marlkit.cli", "run", "--env", "pong2p",
         "--agents", "pong.follow_ball,random",
         "--agent-itf", "pong.screen_obs", "--agent-itf", "-"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "pong.follow_ball observation" in proc.stderr
