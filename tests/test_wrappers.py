"""Env-side and agent-side wrapping, plus lifted single-slot wrappers."""

from __future__ import annotations

import io

import pytest

from marlkit import (
    BoxSpec,
    Bundle,
    ConstantAgent,
    DiscreteV,
    RandomAgent,
    ReplayWriter,
    RngStream,
    SeqV,
    SetupError,
    SingleSlotWrapper,
    SpaceMismatch,
    TeamAgent,
    VectorV,
    WrappedAgent,
    build_pipeline,
    combine,
    identity,
    lift_single_wrapper,
    make_env,
    make_team,
    run_episode,
    stack,
    wrap_agent,
    wrap_env,
    wrap_env_per_agent,
)
from marlkit.envs.pong import PongEnv, ScreenObs

from conftest import AddToVectors, ToyVecEnv


def drive(env, seed=3, steps=10, action=0):
    """Collect (obs, rewards, done, alive) transitions under a constant action."""
    trail = [env.reset(seed)]
    for _ in range(steps):
        result = env.step(Bundle((DiscreteV(action),) * env.num_slots))
        trail.append((env.observe(), result.rewards, result.done, result.alive))
        if result.done:
            break
    return trail


class TestWrapEnv:
    def test_identity_wrap_is_bitwise_transparent(self):
        raw = drive(ToyVecEnv())
        wrapped = drive(wrap_env(ToyVecEnv(), identity()))
        assert raw == wrapped

    def test_outer_specs_exposed(self):
        env = wrap_env(ToyVecEnv(obs_len=3), AddToVectors(2.0))
        assert env.observation_specs == (BoxSpec((3,), 1.0, 3.0),) * 2

    def test_pong_screen_obs_shapes(self):
        env = wrap_env(PongEnv(), ScreenObs(32))
        obs = env.reset(1)
        for slot in range(2):
            assert obs[slot].shape == (32, 32, 1)
        assert env.observation_specs == (BoxSpec((32, 32, 1), 0.0, 1.0),) * 2

    def test_team_wrap_halves_slots(self):
        env = wrap_env(ToyVecEnv(slots=2), make_team([[0, 1]]))
        assert env.num_slots == 1
        assert env.parties == (-1,)  # slots 0 and 1 are opposing parties

    def test_bad_outer_action_is_space_mismatch(self):
        env = wrap_env(ToyVecEnv(), identity())
        env.reset(0)
        with pytest.raises(SpaceMismatch):
            env.step(Bundle((DiscreteV(9), DiscreteV(0))))

    def test_alive_composed_by_groups(self):
        env = wrap_env(ToyVecEnv(slots=2), make_team([[0, 1]]))
        env.reset(0)
        result = env.step(Bundle((
            __import__("marlkit").SeqV((DiscreteV(0), DiscreteV(0))),
        )))
        assert result.alive == (True,)


class TestWrapEnvPerAgent:
    def test_identity_per_slot_is_transparent(self):
        raw = drive(ToyVecEnv())
        wrapped = drive(wrap_env_per_agent(ToyVecEnv(), [identity(), identity()]))
        assert raw == wrapped

    def test_equivalent_to_explicit_combine(self):
        a = drive(wrap_env_per_agent(ToyVecEnv(), [AddToVectors(1.0), AddToVectors(1.0)]))
        b = drive(wrap_env(
            ToyVecEnv(),
            combine(identity(), [AddToVectors(1.0), AddToVectors(1.0)], [[0], [1]]),
        ))
        assert a == b

    def test_slot_transforms_independent(self):
        env = wrap_env_per_agent(ToyVecEnv(), [AddToVectors(5.0), AddToVectors(-5.0)])
        obs = env.reset(11)
        raw_obs = ToyVecEnv().reset(11)
        assert obs[0] == VectorV(tuple(e + 5.0 for e in raw_obs[0].entries))
        assert obs[1] == VectorV(tuple(e - 5.0 for e in raw_obs[1].entries))

    def test_count_mismatch_rejected(self):
        with pytest.raises(SetupError):
            wrap_env_per_agent(ToyVecEnv(), [identity()])

    def test_mismatched_child_partition_rejected(self):
        from marlkit import InvalidPartition

        with pytest.raises((SetupError, InvalidPartition)):
            wrap_env_per_agent(ToyVecEnv(slots=2), [make_team([[0, 1]]), make_team([[0, 1]])])


def wrap_slots(members, itf, env, lo, hi):
    """wrap_agent over raw slots lo..hi-1 of env."""
    return wrap_agent(members, itf, env.observation_specs[lo:hi], env.action_specs[lo:hi])


class TestWrapAgent:
    def test_single_member_identity_equals_bare_agent(self):
        env1, env2 = ToyVecEnv(), ToyVecEnv()
        bare = run_episode(env1, [ConstantAgent(DiscreteV(1)), ConstantAgent(DiscreteV(2))], 5)
        wrapped = run_episode(env2, [
            wrap_slots([ConstantAgent(DiscreteV(1))], identity(), env2, 0, 1),
            wrap_slots([ConstantAgent(DiscreteV(2))], identity(), env2, 1, 2),
        ], 5)
        assert bare == wrapped

    def test_team_controls_multiple_raw_slots(self):
        env = ToyVecEnv(slots=2)
        team = wrap_slots(
            [TeamAgent([ConstantAgent(DiscreteV(0)), ConstantAgent(DiscreteV(3))])],
            make_team([[0, 1]]), env, 0, 2,
        )
        assert team.slots == 2
        result = run_episode(env, [team], 9)
        assert env.trace[:2] == [0, 3]
        assert result.length == 4

    def test_member_action_validated(self):
        env = ToyVecEnv(slots=1, n_actions=2)
        bad = wrap_slots([ConstantAgent(DiscreteV(7))], identity(), env, 0, 1)
        with pytest.raises(SpaceMismatch, match="outer slot 0"):
            run_episode(env, [bad], 0)

    def test_deeply_nested_member_action_is_a_short_space_mismatch(self):
        deep = DiscreteV(0)
        for _ in range(300):
            deep = SeqV((deep,))
        env = ToyVecEnv(slots=1, n_actions=2)
        bad = wrap_slots([ConstantAgent(deep)], identity(), env, 0, 1)
        with pytest.raises(SpaceMismatch, match="outer slot 0: action SeqV") as info:
            run_episode(env, [bad], 0)
        assert len(str(info.value)) < 1000

    def test_member_count_must_match_outer(self):
        # make_team([[0, 1]]) exposes one outer slot; two members cannot fit.
        with pytest.raises(SetupError):
            wrap_slots(
                [ConstantAgent(DiscreteV(0)), ConstantAgent(DiscreteV(0))],
                make_team([[0, 1]]), ToyVecEnv(slots=2), 0, 2,
            )

    def test_interface_must_be_set_up_on_the_run_specs(self):
        with pytest.raises(SetupError):
            WrappedAgent([ConstantAgent(DiscreteV(0))], identity())
        agent = wrap_slots([ConstantAgent(DiscreteV(0))], identity(), ToyVecEnv(obs_len=3), 0, 1)
        with pytest.raises(SetupError):
            run_episode(ToyVecEnv(slots=1, obs_len=2), [agent], 0)

    def test_heterogeneous_agents_share_raw_env(self):
        # Two members wrapped with different interfaces play in one raw env.
        env = ToyVecEnv(slots=2)
        a1 = wrap_slots([ConstantAgent(DiscreteV(1))], AddToVectors(1.0), env, 0, 1)
        a2 = wrap_slots([ConstantAgent(DiscreteV(2))], AddToVectors(-1.0), env, 1, 2)
        result = run_episode(env, [a1, a2], 3)
        assert result.length == 4
        assert env.trace[:2] == [1, 2]


class RewardSteered(RandomAgent):
    """A random agent whose actions also shift with the reward sum it has seen."""

    def reset(self, first_obs):
        self._seen = 0.0

    def step(self, obs, reward, done):
        self._seen += reward
        act = super().step(obs, reward, done)
        return DiscreteV((act.index + round(self._seen)) % self.act_spec.n)


def _steered(seed, count):
    return [RewardSteered(rng=RngStream(seed, ("nested", str(i)))) for i in range(count)]


def _entrant_among_randoms(seed, obs_specs, act_specs, lo, hi, q):
    """Reward-steered randoms on every slot; those on slots lo..hi-1 sit behind Q."""
    agents = _steered(seed, len(obs_specs))
    entrant = wrap_agent(agents[lo:hi], build_pipeline(q), obs_specs[lo:hi], act_specs[lo:hi])
    return agents[:lo] + [entrant] + agents[hi:]


def _replay_bytes(env, actors, seed):
    buffer = io.StringIO()
    run_episode(env, actors, seed, writer=ReplayWriter(buffer))
    return buffer.getvalue()


_NESTED = [  # env, params, env-side pipeline P, entrant pipeline Q, entrant width
    ("gridbattle", {"step_limit": 30},
     [{"name": "battle.img5i"}, {"name": "battle.dead_pad"}], [{"name": "map_to_vector"}], 5),
    ("pong2p", {"step_limit": 120},
     [{"name": "pong.screen_obs", "resolution": 16}], [{"name": "map_to_vector"}], 1),
    ("bomber", {"step_limit": 30},
     [{"name": "bomber.board_map"}, {"name": "bomber.rotate"}], [{"name": "bomber.attr"}], 1),
]


@pytest.mark.parametrize("env_name, params, p, q, width", _NESTED,
                         ids=[case[0] for case in _NESTED])
def test_agent_side_pipeline_nests_inside_a_moved_env_side_one(env_name, params, p, q, width):
    """P on the env with an entrant behind Q == a raw env under WrappedAgent(P) holding it.

    Both equal the run with P and Q on the env side and plain agents on every
    slot, which pins the slot order that the other two runs share.
    """
    for seed in range(20):
        env = wrap_env(make_env(env_name, params), build_pipeline(p))
        n = env.num_slots
        lo = seed % (n // width) * width
        env_side = _replay_bytes(env, _entrant_among_randoms(
            seed, env.observation_specs, env.action_specs, lo, lo + width, q), seed)

        raw, p_itf = make_env(env_name, params), build_pipeline(p)
        outer_obs, outer_act = p_itf.setup(raw.observation_specs, raw.action_specs)
        members = _entrant_among_randoms(seed, outer_obs, outer_act, lo, lo + width, q)
        moved = _replay_bytes(raw, [WrappedAgent(members, p_itf)], seed)
        assert moved == env_side, (env_name, seed)

        groups = [[i] for i in range(lo)] + [list(range(lo, lo + width))]
        groups += [[i] for i in range(lo + width, n)]
        children = [build_pipeline(q) if g[0] == lo else identity() for g in groups]
        flat = wrap_env(make_env(env_name, params), combine(build_pipeline(p), children, groups))
        assert _replay_bytes(flat, _steered(seed, n), seed) == env_side, (env_name, seed)


class ObsScale(SingleSlotWrapper):
    def __init__(self, factor: float):
        self.factor = factor

    def obs_spec(self, spec):
        return BoxSpec(spec.shape, spec.low * self.factor, spec.high * self.factor)

    def obs(self, value):
        return VectorV(tuple(e * self.factor for e in value.entries))


class TestLiftSingleWrapper:
    def test_lift_scaling_applies_per_slot(self):
        env = wrap_env(ToyVecEnv(), lift_single_wrapper(ObsScale(2.0)))
        obs = env.reset(4)
        raw = ToyVecEnv().reset(4)
        for slot in range(2):
            assert obs[slot] == VectorV(tuple(e * 2 for e in raw[slot].entries))

    def test_lift_then_identity_equals_scaling_alone(self):
        a = drive(wrap_env(ToyVecEnv(), lift_single_wrapper(ObsScale(2.0))))
        b = drive(wrap_env(
            ToyVecEnv(), stack(identity(), lift_single_wrapper(ObsScale(2.0)))
        ))
        assert a == b

    def test_both_wrap_orders_run(self):
        # wrapper below interface, and interface below wrapper: both must run.
        first = wrap_env(wrap_env(ToyVecEnv(), lift_single_wrapper(ObsScale(2.0))),
                         AddToVectors(1.0))
        second = wrap_env(wrap_env(ToyVecEnv(), AddToVectors(1.0)),
                          lift_single_wrapper(ObsScale(2.0)))
        for env in (first, second):
            for seed in range(3):
                run_episode(env, [RandomAgent(seed), RandomAgent(seed + 1)], seed)

    def test_three_slot_lift_matches_manual_per_slot(self):
        env = wrap_env(ToyVecEnv(slots=3), lift_single_wrapper(ObsScale(3.0)))
        obs = env.reset(8)
        raw = ToyVecEnv(slots=3).reset(8)
        for slot in range(3):
            assert obs[slot] == VectorV(tuple(e * 3 for e in raw[slot].entries))

    def test_double_identity_wrap_changes_nothing(self):
        raw_env = ToyVecEnv()
        plain = run_episode(raw_env, [ConstantAgent(DiscreteV(0)), ConstantAgent(DiscreteV(1))], 2)
        wrapped_env = wrap_env(ToyVecEnv(), identity())
        wrapped = run_episode(wrapped_env, [
            wrap_slots([ConstantAgent(DiscreteV(0))], identity(), wrapped_env, 0, 1),
            wrap_slots([ConstantAgent(DiscreteV(1))], identity(), wrapped_env, 1, 2),
        ], 2)
        assert plain == wrapped
