"""Episode runner, matches, round robin, replay verification, and the CLI."""

from __future__ import annotations

import json
import pathlib
import re

import pytest

from marlkit import (
    AgentSpec,
    Bundle,
    ConfigError,
    ConstantAgent,
    DiscreteSpec,
    DiscreteV,
    Env,
    InvalidPartition,
    MarlkitError,
    MatchSpec,
    RandomAgent,
    SetupError,
    SpaceMismatch,
    StepResult,
    make_env,
    read_replay,
    replay_verify,
    round_robin,
    run_episode,
    run_match,
)
from marlkit.bundles import outcome_info
from marlkit.cli import main as cli_main
from marlkit.serial import value_from_jsonable

from conftest import ConstEnv


class TestRunEpisode:
    def test_const_env_with_constant_agent(self):
        result = run_episode(ConstEnv(), [ConstantAgent(DiscreteV(0))], 0)
        assert result.length == 1
        assert result.returns == (0.0,)
        assert result.draw and result.winner_party is None

    def test_actor_count_validated(self):
        with pytest.raises(ConfigError):
            run_episode(ConstEnv(), [ConstantAgent(DiscreteV(0))] * 2, 0)

    def test_pong_follow_ball_mirror_terminates(self):
        from marlkit.envs.pong import FollowBallAgent, PongConfig, PongEnv

        for seed in range(3):
            env = PongEnv(PongConfig(step_limit=500))
            r = run_episode(env, [FollowBallAgent(), FollowBallAgent()], seed)
            assert r.length <= 500

    @pytest.mark.parametrize("name", ["pong2p", "gridbattle", "bomber"])
    def test_layout_is_a_tuple_built_once_of_shared_specs(self, name):
        env = make_env(name)
        specs = env.action_specs
        assert type(specs) is tuple and len(specs) == env.num_slots
        assert all(s is specs[0] for s in specs)
        assert env.action_specs is specs
        obs = env.observation_specs
        assert type(obs) is tuple and len(obs) == env.num_slots
        assert all(s is obs[0] for s in obs) and env.observation_specs is obs
        assert type(env.parties) is tuple and env.parties is env.parties


def test_env_layout_defaults_to_one_party_per_slot():
    env = ConstEnv()
    assert (env.observation_specs, env.action_specs) == ((DiscreteSpec(1),), (DiscreteSpec(1),))
    assert (env.parties, env.num_slots) == ((0,), 1)


@pytest.mark.parametrize("obs, act, parties, counts", [
    (2, 1, None, "got 2, 1 and 1"),
    (1, 2, None, "got 1, 2 and 2"),
    (2, 2, [0], "got 2, 2 and 1"),
    (2, 2, [0, 1, 1], "got 2, 2 and 3"),
    (0, 1, [0], "got 0, 1 and 1"),
])
def test_env_whose_layout_counts_differ_is_refused_when_constructed(obs, act, parties, counts):
    class Lopsided(ConstEnv):
        def __init__(self):
            Env.__init__(self, [DiscreteSpec(1)] * obs, [DiscreteSpec(1)] * act, parties)

    with pytest.raises(SetupError, match=f"Lopsided needs one observation spec, action spec "
                                         f"and party per slot: {counts}"):
        Lopsided()


# (kind, table, register, list, make, one built-in name) per registry table
REGISTRIES = [
    ("environment", "_ENVS", "register_env", "list_envs", "make_env", "pong2p"),
    ("agent", "_AGENTS", "register_agent", "list_agents", "make_agent", "random"),
    ("interface", "_INTERFACES", "register_interface", "list_interfaces", "make_interface",
     "identity"),
]


@pytest.mark.parametrize("kind, table, register, listing, make, name", REGISTRIES)
def test_registry_table_rules(kind, table, register, listing, make, name):
    from marlkit import RegistryError, registry

    before = dict(getattr(registry, table))
    with pytest.raises(ConfigError, match=f"^{kind} '{name}' is already registered$"):
        getattr(registry, register)(name, lambda *args: None)
    assert getattr(registry, table) == before
    known = getattr(registry, listing)()
    assert known == sorted(before) and name in known
    with pytest.raises(RegistryError, match=re.escape(f"unknown {kind} 'nope'; known: {known}")):
        getattr(registry, make)("nope")


@pytest.mark.parametrize("kind, table, register, listing, make, name", REGISTRIES)
@pytest.mark.parametrize("bad_name, factory, message", [
    (5, len, "name must be a non-empty string, got 5"),
    ("", len, "name must be a non-empty string, got ''"),
    (["x"], len, "name must be a non-empty string, got ['x']"),
    ("test.not_callable", 5, "'test.not_callable' needs a callable factory, got 5"),
])
def test_registration_checks_its_input(kind, table, register, listing, make, name,
                                       bad_name, factory, message):
    # Before the check, a registered 5 made every listing and every unknown
    # name's lookup a TypeError, and a factory 5 failed only when made.
    from marlkit import RegistryError, registry

    before = dict(getattr(registry, table))
    with pytest.raises(ConfigError, match=f"^{kind} {re.escape(message)}$"):
        getattr(registry, register)(bad_name, factory)
    assert getattr(registry, table) == before
    assert getattr(registry, listing)() == sorted(before)
    with pytest.raises(RegistryError, match=f"unknown {kind} 'nope'"):
        getattr(registry, make)("nope")


@pytest.mark.parametrize("make, name, kind, table", [
    ("make_env", ["x"], "environment", "_ENVS"),
    ("make_agent", {"a": 1}, "agent", "_AGENTS"),
    ("make_interface", ["y"], "interface", "_INTERFACES"),
])
def test_a_name_that_is_not_a_string_is_a_registry_error(make, name, kind, table):
    # An unhashable name was a bare TypeError from the table's dict lookup.
    from marlkit import RegistryError, registry

    known = sorted(getattr(registry, table))
    with pytest.raises(RegistryError, match=re.escape(f"unknown {kind} {name!r}; known: {known}")):
        getattr(registry, make)(name)


def test_factories_are_looked_up_by_module_attribute_at_call_time(monkeypatch):
    # perfbench's spans wrap these module attributes: a caller that held its
    # own reference to a factory would bypass them.
    from collections import Counter

    from marlkit import build_pipeline, harness, registry

    calls = Counter()

    def count(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls[f"{module.__name__}.{name}"] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    count(registry, "make_interface")
    build_pipeline([{"name": "identity"}, {"name": "map_to_vector"}])
    assert calls == {"marlkit.registry.make_interface": 2}
    for name in ("make_env", "make_agent", "build_pipeline"):
        count(harness, name)
    identity = ({"name": "identity"},)
    run_match(MatchSpec(env_name="pong2p", env_params={"step_limit": 3}, env_interfaces=identity,
                        agents=(AgentSpec("random"), AgentSpec("random", interfaces=identity)),
                        episodes=2))
    # Per episode: one env, an env-side and an agent-side pipeline of one
    # node each, and one agent per party.
    assert calls == {"marlkit.registry.make_interface": 2 + 4, "marlkit.harness.make_env": 2,
                     "marlkit.harness.build_pipeline": 4, "marlkit.harness.make_agent": 4}


class TestRunMatch:
    def spec(self, episodes=6, replay=None, seed=10):
        return MatchSpec(
            env_name="pong2p",
            env_params={"step_limit": 120},
            agents=(AgentSpec(name="pong.follow_ball"), AgentSpec(name="random")),
            episodes=episodes,
            base_seed=seed,
            replay_path=replay,
        )

    def test_counts_conserved(self):
        result = run_match(self.spec())
        assert result.wins + result.draws + result.losses == 6
        assert 0.0 <= result.win_rate <= 1.0

    def test_zero_episodes_rejected(self):
        with pytest.raises(ConfigError):
            run_match(self.spec(episodes=0))

    def test_deterministic_given_spec_and_seed(self):
        a = run_match(self.spec())
        b = run_match(self.spec())
        assert (a.wins, a.draws, a.losses) == (b.wins, b.draws, b.losses)
        assert a.mean_return_per_slot == b.mean_return_per_slot

    def test_mirror_match_symmetric_with_side_swap(self):
        # Identical deterministic entrants with side alternation: aggregate
        # must be symmetric (equal wins and losses).
        spec = MatchSpec(
            env_name="pong2p", env_params={"step_limit": 150},
            agents=(AgentSpec(name="pong.follow_ball", label="a"),
                    AgentSpec(name="pong.follow_ball", label="b")),
            episodes=10, base_seed=3,
        )
        result = run_match(spec)
        assert result.wins == result.losses

    def test_party_count_mismatch_rejected(self):
        spec = MatchSpec(
            env_name="bomber", env_params={"mode": "ffa"},
            agents=(AgentSpec(name="random"), AgentSpec(name="random")),
            episodes=1, base_seed=0,
        )
        with pytest.raises(ConfigError):
            run_match(spec)

    def test_team_env_replicates_agents_per_slot(self):
        spec = MatchSpec(
            env_name="gridbattle", env_params={"step_limit": 40},
            agents=(AgentSpec(name="battle.hit_and_run"), AgentSpec(name="random")),
            episodes=2, base_seed=0,
        )
        result = run_match(spec)
        assert len(result.mean_return_per_slot) == 10

    def test_stats_schema(self):
        stats = run_match(self.spec(episodes=2)).stats_jsonable()
        assert set(stats) == {
            "env", "agents", "episodes", "wins", "draws", "losses",
            "win_rate", "mean_return_per_slot", "mean_return_per_entrant", "mean_length",
        }
        assert stats["episodes"] == 2

    def test_mean_return_per_entrant_follows_the_rotation(self):
        from marlkit import register_env, registry

        class PayoutEnv(Env):
            """Three slots, parties 0, 0 and 1; one tick whose reward per slot is its action."""

            def __init__(self):
                super().__init__([DiscreteSpec(1)] * 3, [DiscreteSpec(4)] * 3, [0, 0, 1])

            def _do_reset(self, seed):
                pass

            def _observe(self):
                return Bundle((DiscreteV(0),) * 3)

            def _do_step(self, actions):
                return StepResult(rewards=tuple(float(a.index) for a in actions), done=True,
                                  alive=(True,) * 3, info=outcome_info(None))

        register_env("test.payout", lambda params: PayoutEnv())
        try:
            result = run_match(MatchSpec(
                env_name="test.payout",
                agents=(AgentSpec("constant", {"action": {"d": 3}}),
                        AgentSpec("constant", {"action": {"d": 1}})),
                episodes=2, base_seed=0))
        finally:
            del registry._ENVS["test.payout"]
        # Episode 0: the first entrant plays party 0 (slots 0 and 1), so the
        # returns are (3, 3, 1); episode 1 swaps the sides: (1, 1, 3).
        assert [o.returns for o in result.outcomes] == [(3.0, 3.0, 1.0), (1.0, 1.0, 3.0)]
        assert result.mean_return_per_slot == (2.0, 2.0, 2.0)
        assert result.mean_return_per_entrant == ((6.0 + 3.0) / 2, (1.0 + 2.0) / 2)
        assert result.stats_jsonable()["mean_return_per_entrant"] == [4.5, 1.5]


class TestErrorContext:
    """A toolkit error raised inside an episode names where it happened."""

    BAD = "slot 0: action DiscreteV(index=7) not in DiscreteSpec(n=3)"

    def test_bad_action_names_episode_seed_tick_and_entrants(self):
        spec = MatchSpec(
            env_name="pong2p",
            agents=(AgentSpec("constant", params={"action": {"d": 7}}), AgentSpec("random")),
            episodes=3, base_seed=5,
        )
        with pytest.raises(SpaceMismatch) as info:
            run_match(spec)
        exc = info.value
        assert type(exc) is SpaceMismatch
        assert str(exc) == (f"episode 0 (seed 5), tick 0: {self.BAD} "
                            "(entrants by party: 0 'constant', 1 'random')")
        assert type(exc.__cause__) is SpaceMismatch and str(exc.__cause__) == self.BAD
        assert exc.__cause__.__cause__ is None

    def test_later_episode_and_tick_with_rotated_entrants(self):
        from marlkit import register_agent, registry

        steps = [0]  # across the episodes of one match

        class LateAgent(RandomAgent):
            def step(self, obs, reward, done):
                steps[0] += 1
                return DiscreteV(9) if steps[0] == 25 else super().step(obs, reward, done)

        register_agent("test.late", lambda params, rng: LateAgent(rng=rng))
        try:
            spec = MatchSpec(
                env_name="pong2p", env_params={"step_limit": 20},
                agents=(AgentSpec("test.late"), AgentSpec("random", label="plain")),
                episodes=3, base_seed=4,
            )
            with pytest.raises(SpaceMismatch) as info:
                run_match(spec)  # the second episode's fifth tick
        finally:
            del registry._AGENTS["test.late"]
        bad = "slot 1: action DiscreteV(index=9) not in DiscreteSpec(n=3)"
        assert str(info.value) == (f"episode 1 (seed 5), tick 4: {bad} "
                                   "(entrants by party: 0 'plain', 1 'test.late')")
        assert str(info.value.__cause__) == bad

    def test_run_episode_names_episode_seed_and_tick(self):
        env = make_env("pong2p")
        with pytest.raises(SpaceMismatch) as info:
            run_episode(env, [ConstantAgent(DiscreteV(7)), ConstantAgent(DiscreteV(0))], 3,
                        episode_index=2)
        assert str(info.value) == f"episode 2 (seed 3), tick 0: {self.BAD}"
        assert str(info.value.__cause__) == self.BAD

    def test_custom_error_keeps_its_class_attributes_and_cause(self):
        from marlkit import MarlkitError, register_agent, registry

        class Boom(MarlkitError):
            def __init__(self, code, detail):
                super().__init__(f"boom {code}: {detail}")
                self.code, self.detail = code, detail

        steps = [0]

        class BoomAgent(RandomAgent):
            def step(self, obs, reward, done):
                steps[0] += 1
                if steps[0] == 3:
                    raise Boom(7, "bad")
                return super().step(obs, reward, done)

        register_agent("test.boom", lambda params, rng: BoomAgent(rng=rng))
        try:
            spec = MatchSpec(env_name="pong2p",
                             agents=(AgentSpec("test.boom"), AgentSpec("random")),
                             episodes=2, base_seed=3)
            with pytest.raises(Boom) as info:
                run_match(spec)
        finally:
            del registry._AGENTS["test.boom"]
        exc = info.value
        assert type(exc) is Boom
        assert str(exc) == ("episode 0 (seed 3), tick 2: slot 0 (BoomAgent): boom 7: bad "
                            "(entrants by party: 0 'test.boom', 1 'random')")
        assert (exc.code, exc.detail) == (7, "bad")
        # Raised from the error that named the slot, itself raised from the original.
        named = exc.__cause__
        assert type(named) is Boom and str(named) == "slot 0 (BoomAgent): boom 7: bad"
        assert (named.code, named.detail) == (7, "bad")
        original = named.__cause__
        assert type(original) is Boom and original.__cause__ is None
        assert original.args == ("boom 7: bad",)

    def test_other_exception_passes_through_with_notes(self):
        from marlkit import register_agent, registry

        steps = [0]

        class BoomAgent(RandomAgent):
            def step(self, obs, reward, done):
                steps[0] += 1
                if steps[0] == 5:
                    1 / 0
                return super().step(obs, reward, done)

        register_agent("boom", lambda params, rng: BoomAgent(rng=rng))
        try:
            spec = MatchSpec(env_name="pong2p", agents=(AgentSpec("boom"), AgentSpec("random")),
                             episodes=2, base_seed=3)
            with pytest.raises(ZeroDivisionError) as info:
                run_match(spec)
        finally:
            del registry._AGENTS["boom"]
        exc = info.value
        assert type(exc) is ZeroDivisionError and exc.__cause__ is None
        assert exc.__notes__ == ["slot 0 (BoomAgent)", "episode 0 (seed 3), tick 4",
                                 "entrants by party: 0 'boom', 1 'random'"]

    @staticmethod
    def raising_agent(exc: Exception, call: int, method: str = "step") -> type:
        """A RandomAgent class whose instances raise exc on their class's call-th step
        (or reset) call, counted across every instance."""
        calls = [0]

        def hook(self, *args):
            calls[0] += 1
            if calls[0] == call:
                raise exc
            return getattr(RandomAgent, method)(self, *args)

        return type("BoomAgent", (RandomAgent,), {method: hook})

    def run_with(self, name: str, cls: type, spec: MatchSpec, *argv: str):
        """run_match(spec), or marlkit with argv, with name registered as cls."""
        from marlkit import register_agent, registry

        register_agent(name, lambda params, rng: cls(rng=rng))
        try:
            return cli_main(list(argv)) if argv else run_match(spec)
        finally:
            del registry._AGENTS[name]

    def test_agent_exception_notes_name_its_slot(self):
        spec = MatchSpec(env_name="pong2p", agents=(AgentSpec("random"), AgentSpec("boom")))
        with pytest.raises(ZeroDivisionError) as info:
            self.run_with("boom", self.raising_agent(ZeroDivisionError("x"), 4), spec)
        assert info.value.__notes__ == ["slot 1 (BoomAgent)", "episode 0 (seed 0), tick 3",
                                        "entrants by party: 0 'random', 1 'boom'"]

    def test_agent_reset_error_names_its_slot(self):
        spec = MatchSpec(env_name="pong2p", agents=(AgentSpec("random"), AgentSpec("boom")))
        with pytest.raises(SetupError) as info:
            self.run_with("boom", self.raising_agent(SetupError("no"), 1, "reset"), spec)
        assert str(info.value) == ("episode 0 (seed 0), tick 0: slot 1 (BoomAgent): no "
                                   "(entrants by party: 0 'random', 1 'boom')")

    # Each gridbattle party as one outer slot whose lanes a TeamAgent plays.
    TEAMS = '[{"name": "make_team", "groups": [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9]]}]'

    @classmethod
    def team_agent(cls) -> type:
        """A TeamAgent of five lanes, the third of which raises at tick 2."""
        from marlkit import TeamAgent

        lane = cls.raising_agent(SpaceMismatch("lane 2 out of range"), 13)

        class Team(TeamAgent):
            def __init__(self, rng):
                super().__init__([lane(rng=rng.child(str(m))) for m in range(5)])

        return Team

    def test_team_member_space_mismatch_keeps_class_and_exit_code(self, capsys):
        spec = MatchSpec(env_name="gridbattle", env_params={"scenario": "5I"},
                         env_interfaces=(json.loads(self.TEAMS)[0],),
                         agents=(AgentSpec("random"), AgentSpec("test.team")))
        with pytest.raises(SpaceMismatch) as info:
            self.run_with("test.team", self.team_agent(), spec)
        where = "episode 0 (seed 0), tick 2: slot 1 (Team): lane 2 out of range"
        assert type(info.value) is SpaceMismatch
        assert str(info.value) == f"{where} (entrants by party: 0 'random', 1 'test.team')"
        assert type(info.value.__cause__.__cause__) is SpaceMismatch
        assert self.run_with("test.team", self.team_agent(), spec, "run", "--env", "gridbattle",
                             "--env-param", "scenario=5I", "--env-itf", self.TEAMS,
                             "--agents", "random,test.team") == 2
        assert capsys.readouterr().err == (
            f"error: {where} (entrants by party: 0 'random', 1 'test.team')\n")

    def test_error_behind_a_wrapped_agent_names_the_block(self):
        spec = MatchSpec(env_name="gridbattle", env_params={"scenario": "5I"},
                         agents=(AgentSpec("random"),
                                 AgentSpec("boom", interfaces=({"name": "identity"},))))
        with pytest.raises(ConfigError) as info:
            self.run_with("boom", self.raising_agent(ConfigError("bad"), 8), spec)
        assert str(info.value) == (
            "episode 0 (seed 0), tick 1: slots 5-9 (WrappedAgent): "
            "outer slot 2 (BoomAgent): bad (entrants by party: 0 'random', 1 'boom')")
        block = info.value.__cause__
        assert str(block) == "slots 5-9 (WrappedAgent): outer slot 2 (BoomAgent): bad"
        assert str(block.__cause__) == "outer slot 2 (BoomAgent): bad"
        assert type(block.__cause__.__cause__) is ConfigError
        assert block.__cause__.__cause__.args == ("bad",)

    @staticmethod
    def deep_action(levels: int) -> dict:
        """The JSON form of DiscreteV(0) wrapped in levels one-item sequences."""
        action = {"d": 0}
        for _ in range(levels):
            action = {"s": [action]}
        return action

    def test_deeply_nested_action_is_a_short_space_mismatch(self):
        env = make_env("pong2p")
        env.reset(0)
        action = value_from_jsonable(self.deep_action(300))
        with pytest.raises(SpaceMismatch) as info:
            env.step(Bundle((action, DiscreteV(0))))
        assert str(info.value).startswith("slot 0: action SeqV(items=(SeqV(items=(")
        assert len(str(info.value)) < 1000

    def test_deeply_nested_action_in_a_tourney_exits_2(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text(json.dumps({
            "env": {"name": "pong2p"},
            "entrants": [{"name": "constant", "params": {"action": self.deep_action(300)}},
                         {"name": "random"}],
            "episodes_per_pair": 1,
        }))
        assert cli_main(["tourney", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: episode 0 (seed 0), tick 0: slot 0: action SeqV(")
        assert "Traceback" not in err and len(err) < 1000

    def test_cli_exit_code_unchanged(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "env": {"name": "pong2p"},
            "entrants": [{"name": "constant", "params": {"action": {"d": 7}}, "label": "bad"},
                         {"name": "random"}],
            "episodes_per_pair": 1,
        }))
        assert cli_main(["tourney", "--config", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: episode 0 (seed 0), tick 0: {self.BAD} "
            "(entrants by party: 0 'bad', 1 'random')\n")


class TestReplay:
    def write_one(self, tmp_path, episodes=3, seed=20) -> pathlib.Path:
        path = tmp_path / "match.jsonl"
        spec = MatchSpec(
            env_name="pong2p", env_params={"step_limit": 80},
            agents=(AgentSpec(name="pong.follow_ball"), AgentSpec(name="random")),
            episodes=episodes, base_seed=seed, replay_path=str(path),
        )
        run_match(spec)
        return path

    def test_fresh_replay_verifies(self, tmp_path):
        path = self.write_one(tmp_path)
        assert replay_verify(str(path)).ok

    def test_byte_identical_across_runs(self, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        a_dir.mkdir()
        b_dir.mkdir()
        a = self.write_one(a_dir)
        b = self.write_one(b_dir)
        assert a.read_bytes() == b.read_bytes()

    def test_structure_and_counts(self, tmp_path):
        path = self.write_one(tmp_path, episodes=2)
        replay = read_replay(str(path))
        assert replay.header["format"] == 1
        assert len(replay.episodes) == 2
        for k, ep in enumerate(replay.episodes):
            assert ep.index == k and ep.seed == 20 + k
            assert ep.outcome is not None
            assert len(ep.steps) == ep.outcome["length"]

    def test_mutated_action_detected(self, tmp_path):
        path = self.write_one(tmp_path, episodes=1)
        lines = path.read_text().splitlines()
        # first step record: flip the first live slot's paddle action
        idx = next(i for i, l in enumerate(lines) if '"kind":"step"' in l)
        record = json.loads(lines[idx])
        record["actions"][0]["d"] = (record["actions"][0]["d"] + 1) % 3
        lines[idx] = json.dumps(record, sort_keys=True, separators=(",", ":"))
        mutated = path.with_suffix(".mutated.jsonl")
        mutated.write_text("\n".join(lines) + "\n")
        result = replay_verify(str(mutated))
        assert not result.ok
        assert result.episode == 0

    def test_match_that_raises_leaves_no_replay(self, tmp_path):
        from marlkit import register_agent, registry

        class Crash(RuntimeError):
            pass

        ticks = [0]  # across the episodes of one match; each builds a fresh agent

        class CrashingAgent(RandomAgent):
            def step(self, obs, reward, done):
                ticks[0] += 1
                if ticks[0] == 30:
                    raise Crash("mid-match")
                return super().step(obs, reward, done)

        register_agent("test.crashing", lambda params, rng: CrashingAgent(rng=rng))
        try:
            path = tmp_path / "match.jsonl"
            spec = MatchSpec(
                env_name="pong2p", env_params={"step_limit": 20},
                agents=(AgentSpec(name="random"), AgentSpec(name="test.crashing")),
                episodes=3, base_seed=4, replay_path=str(path),
            )
            with pytest.raises(Crash):
                run_match(spec)  # the second episode's tenth tick raises
            assert list(tmp_path.iterdir()) == []
            path.write_text("kept\n")
            ticks[0] = 0
            with pytest.raises(Crash):
                run_match(spec)
            assert list(tmp_path.iterdir()) == [path]
            assert path.read_text() == "kept\n"
        finally:
            del registry._AGENTS["test.crashing"]

    def test_truncated_file_is_format_error(self, tmp_path):
        from marlkit import FormatError

        path = tmp_path / "broken.jsonl"
        path.write_text('{"kind":"step","t":0}\n')
        with pytest.raises(FormatError):
            replay_verify(str(path))

    def test_unknown_env_is_registry_error(self, tmp_path):
        from marlkit import RegistryError

        path = tmp_path / "alien.jsonl"
        path.write_text(json.dumps({
            "kind": "match", "format": 1, "version": "x",
            "spec": {"env": {"name": "marsopoly", "params": {}}, "env_interfaces": [],
                     "agents": [], "episodes": 1, "seed": 0},
        }) + "\n" + json.dumps({
            "kind": "episode", "index": 0, "seed": 0, "reset_hash": "0" * 16,
        }) + "\n")
        with pytest.raises(RegistryError):
            replay_verify(str(path))


class TestRunMatchEnvs:
    def test_one_env_per_episode(self, monkeypatch):
        from marlkit import harness

        built = []
        make = harness.make_env
        monkeypatch.setattr(harness, "make_env", lambda *a: built.append(a) or make(*a))
        run_match(MatchSpec(env_name="pong2p", env_params={"step_limit": 5},
                            agents=(AgentSpec("random"),) * 2, episodes=3))
        assert len(built) == 3

    def test_party_count_checked_before_any_file(self, tmp_path):
        path = tmp_path / "match.jsonl"
        with pytest.raises(ConfigError, match="bomber has 4 parties, spec provides 2 agents"):
            run_match(MatchSpec(env_name="bomber", agents=(AgentSpec("random"),) * 2,
                                replay_path=str(path)))
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag", ["--env-itf", "--agent-itf"])
    def test_pipeline_entry_checked_before_any_file(self, tmp_path, capsys, flag):
        path = tmp_path / "match.jsonl"
        argv = ["run", "--env", "pong2p", "--agents", "random,random", flag, '["x"]',
                "--replay", str(path)]
        assert cli_main(argv + ["--agent-itf", "-"] * (flag == "--agent-itf")) == 2
        err = capsys.readouterr().err
        assert err == "error: pipeline entry 'x' must be an object with a string name\n"
        assert list(tmp_path.iterdir()) == []


class TestRoundRobin:
    def entrants(self):
        return [
            AgentSpec(name="pong.follow_ball", label="follow"),
            AgentSpec(name="random", params={"seed": 5}, label="rand5"),
            AgentSpec(name="random", params={"seed": 9}, label="rand9"),
        ]

    def test_pair_count_and_episode_totals(self):
        board = round_robin(self.entrants(), "pong2p", {"step_limit": 60},
                            episodes_per_pair=4, base_seed=2)
        assert len(board.pair_results) == 3
        for w, d, l in board.pair_results.values():
            assert w + d + l == 4

    def test_two_entrants_play_exactly_n_episodes(self):
        board = round_robin(self.entrants()[:2], "pong2p", {"step_limit": 60},
                            episodes_per_pair=3, base_seed=0)
        assert len(board.pair_results) == 1
        assert sum(board.result_for(0, 1)) == 3

    def test_antisymmetry(self):
        board = round_robin(self.entrants(), "pong2p", {"step_limit": 60},
                            episodes_per_pair=4, base_seed=7)
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                w_ij, d_ij, l_ij = board.result_for(i, j)
                w_ji, d_ji, l_ji = board.result_for(j, i)
                assert w_ij == l_ji and d_ij == d_ji and l_ij == w_ji

    def test_points_rule(self):
        board = round_robin(self.entrants(), "pong2p", {"step_limit": 60},
                            episodes_per_pair=4, base_seed=7)
        points = board.points()
        for i in range(3):
            expected = sum(
                board.result_for(i, j)[0] + 0.5 * board.result_for(i, j)[1]
                for j in range(3) if j != i
            )
            assert points[i] == expected

    def test_matrix_diagonal_null(self):
        board = round_robin(self.entrants(), "pong2p", {"step_limit": 60},
                            episodes_per_pair=2, base_seed=1)
        matrix = board.win_rate_matrix()
        for i in range(3):
            assert matrix[i][i] is None
            for j in range(3):
                if i != j:
                    assert 0.0 <= matrix[i][j] <= 1.0

    def test_needs_two_parties(self):
        with pytest.raises(ConfigError):
            round_robin(self.entrants()[:2], "bomber", {"mode": "ffa"},
                        episodes_per_pair=1)

    def test_needs_two_entrants(self):
        with pytest.raises(ConfigError):
            round_robin(self.entrants()[:1], "pong2p")

    @pytest.mark.parametrize("labels, message", [
        # Pairs (x, y_vs_z) and (x_vs_y, z) both name pair_x_vs_y_vs_z.jsonl.
        (("x", "y_vs_z", "x_vs_y", "z"),
         "pairs 'x' vs 'y_vs_z' and 'x_vs_y' vs 'z' would both write"),
        # The label's pair comes after one that would already have played.
        (("c", "d", "a/b"), "entrant label 'a/b' holds a path separator"),
    ])
    def test_replay_paths_checked_before_any_match(self, tmp_path, capsys, labels, message):
        entrants = [{"name": "random", "params": {"seed": s}, "label": label}
                    for s, label in enumerate(labels)]
        out = tmp_path / "out"
        out.mkdir()
        path = tmp_path / "tourney.json"
        path.write_text(json.dumps(_tourney_case(entrants=entrants, replay_dir=str(out))))
        assert cli_main(["tourney", "--config", str(path)]) == 2
        assert message in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("bad", [
        AgentSpec(name="nope"), AgentSpec(name="random", params={"seed": "x"}),
        AgentSpec(name="random", interfaces=({"name": "nope_itf"},)),
    ], ids=["name", "params", "interfaces"])
    def test_bad_entrant_is_refused_before_any_reset(self, monkeypatch, bad):
        resets = []
        reset = Env.reset
        monkeypatch.setattr(Env, "reset",
                            lambda env, seed: resets.append(seed) or reset(env, seed))
        # Its first pair is the last one, so every other pair would play first.
        with pytest.raises(MarlkitError):
            round_robin(self.entrants()[:2] + [bad], "pong2p", {"step_limit": 60},
                        episodes_per_pair=2)
        assert resets == []

    @pytest.mark.parametrize("misfit, message", [
        (AgentSpec(name="bomber.simple", label="simple"),
         "entrant 'simple' does not fit pong2p: "),
        (AgentSpec(name="random", interfaces=({"name": "bomber.rotate"},), label="rotated"),
         "entrant 'random' behind agent-side pipeline [{'name': 'bomber.rotate'}] does not fit"),
    ], ids=["agent", "agent-side-pipeline"])
    def test_misfit_entrant_is_refused_before_any_reset(self, monkeypatch, misfit, message):
        resets = []
        reset = Env.reset
        monkeypatch.setattr(Env, "reset",
                            lambda env, seed: resets.append(seed) or reset(env, seed))
        # Its first pair is the last one, so every other pair would play first.
        with pytest.raises(ConfigError, match=re.escape(message)):
            round_robin(self.entrants()[:2] + [misfit], "pong2p", {"step_limit": 60},
                        episodes_per_pair=2)
        assert resets == []

    def test_four_party_env_is_config_error_without_replays(self, tmp_path):
        with pytest.raises(ConfigError, match="4 parties"):
            round_robin(self.entrants(), "bomber", {"mode": "ffa"},
                        episodes_per_pair=1, replay_dir=str(tmp_path))
        assert list(tmp_path.iterdir()) == []


class TestConfigExpressiveness:
    """The train-style vs test-style composition is a pure config change."""

    def test_env_side_and_agent_side_configs_produce_identical_replays(self, tmp_path):
        pipeline = ({"name": "pong.screen_obs", "params": {"resolution": 16}},)
        env_side = MatchSpec(
            env_name="pong2p", env_params={"step_limit": 50},
            env_interfaces=pipeline,
            agents=(AgentSpec(name="random", params={"seed": 1}),
                    AgentSpec(name="random", params={"seed": 2})),
            episodes=2, base_seed=5, replay_path=str(tmp_path / "env_side.jsonl"),
        )
        agent_side = MatchSpec(
            env_name="pong2p", env_params={"step_limit": 50},
            agents=(AgentSpec(name="random", params={"seed": 1}, interfaces=pipeline),
                    AgentSpec(name="random", params={"seed": 2}, interfaces=pipeline)),
            episodes=2, base_seed=5, replay_path=str(tmp_path / "agent_side.jsonl"),
        )
        a = run_match(env_side)
        b = run_match(agent_side)
        assert (a.wins, a.draws, a.losses) == (b.wins, b.draws, b.losses)
        raw_a = (tmp_path / "env_side.jsonl").read_text().splitlines()[1:]
        raw_b = (tmp_path / "agent_side.jsonl").read_text().splitlines()[1:]
        assert raw_a == raw_b  # identical below the header (specs differ)

    @pytest.fixture
    def split_team(self):
        """A test-only agent-side pipeline and an agent that records its instances.

        combine(identity(), [make_team([[0, 1]]), make_team([[0, 1, 2]])]) lays a
        5-slot party out as 2 team slots; only setup() can tell.
        """
        from marlkit import combine, identity, make_team, register_agent, register_interface
        from marlkit import registry

        made = []
        register_interface("test.split_team", lambda p: combine(
            identity(), [make_team([[0, 1]]), make_team([[0, 1, 2]])], [[0, 1], [2, 3, 4]],
        ))

        def recorded_random(params, rng):
            made.append(RandomAgent(rng=rng))
            return made[-1]

        register_agent("test.recorded_random", recorded_random)
        yield made
        del registry._INTERFACES["test.split_team"]
        del registry._AGENTS["test.recorded_random"]

    def test_agent_side_layout_comes_from_setup(self, tmp_path, split_team):
        replay = tmp_path / "split.jsonl"
        spec = MatchSpec(
            env_name="gridbattle", env_params={"scenario": "5I", "step_limit": 30},
            agents=(AgentSpec(name="test.recorded_random",
                              interfaces=({"name": "test.split_team"},)),
                    AgentSpec(name="battle.hit_and_run")),
            episodes=1, base_seed=4, replay_path=str(replay),
        )
        result = run_match(spec)
        assert len(split_team) == 2
        assert len(result.outcomes) == 1 and result.outcomes[0].length > 0
        assert replay_verify(str(replay)).ok

    def test_pipeline_that_does_not_fit_is_config_error(self, capsys):
        pipeline = ({"name": "make_team", "groups": [[0, 1]]},)
        spec = MatchSpec(
            env_name="gridbattle",
            agents=(AgentSpec(name="random", interfaces=pipeline), AgentSpec(name="random")),
        )
        with pytest.raises(ConfigError, match=r"party 0.*make_team.*5 slots") as info:
            run_match(spec)
        assert isinstance(info.value.__cause__, InvalidPartition)
        assert cli_main([
            "run", "--env", "gridbattle", "--agents", "random,random",
            "--agent-itf", json.dumps(list(pipeline)), "--agent-itf", "-",
        ]) == 2
        assert "5 slots" in capsys.readouterr().err

    def test_member_that_does_not_fit_behind_pipeline_is_config_error(self, capsys):
        spec = MatchSpec(
            env_name="pong2p",
            agents=(AgentSpec(name="pong.follow_ball", interfaces=({"name": "pong.screen_obs"},)),
                    AgentSpec(name="random")),
        )
        with pytest.raises(ConfigError, match=r"party 0.*pong\.follow_ball.*pong\.screen_obs") as info:
            run_match(spec)
        assert isinstance(info.value.__cause__, SetupError)
        assert cli_main([
            "run", "--env", "pong2p", "--agents", "pong.follow_ball,random",
            "--agent-itf", "pong.screen_obs", "--agent-itf", "-",
        ]) == 2
        err = capsys.readouterr().err
        assert "party 0" in err and "pong.screen_obs" in err
        assert "pong.follow_ball observation must be a mapping" in err


class TestCli:
    def test_list_commands(self, capsys):
        assert cli_main(["list-envs"]) == 0
        assert "pong2p" in capsys.readouterr().out
        assert cli_main(["list-agents"]) == 0
        assert "bomber.simple" in capsys.readouterr().out
        assert cli_main(["list-interfaces"]) == 0
        assert "make_team" in capsys.readouterr().out

    def test_run_json_stats(self, capsys):
        code = cli_main([
            "run", "--env", "pong2p", "--env-param", "step_limit=60",
            "--agents", "pong.follow_ball,random",
            "--episodes", "10", "--seed", "1", "--json",
        ])
        assert code == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["wins"] + stats["draws"] + stats["losses"] == 10
        assert stats["episodes"] == 10

    def test_run_then_verify_replay(self, tmp_path, capsys):
        replay = tmp_path / "out.jsonl"
        assert cli_main([
            "run", "--env", "gridbattle", "--env-param", "step_limit=40",
            "--agents", "battle.hit_and_run,random",
            "--episodes", "2", "--seed", "3", "--replay", str(replay), "--json",
        ]) == 0
        capsys.readouterr()
        assert cli_main(["verify-replay", str(replay)]) == 0
        assert capsys.readouterr().out.strip() == "ok"

    def test_usage_error_exit_1(self, capsys):
        assert cli_main(["run", "--agents", "random"]) == 1
        assert cli_main(["frobnicate"]) == 1
        assert cli_main(["run", "--env", "pong2p", "--agents", "random,random",
                         "--env-param", "bogus"]) == 1

    def test_runtime_error_exit_2(self, capsys):
        assert cli_main(["run", "--env", "nope", "--agents", "random,random"]) == 2
        assert cli_main(["verify-replay", "/does/not/exist.jsonl"]) == 2

    def test_tourney_config(self, tmp_path, capsys):
        config = {
            "env": {"name": "pong2p", "params": {"step_limit": 50}},
            "entrants": [
                {"name": "pong.follow_ball", "label": "follow"},
                {"name": "random", "params": {"seed": 4}, "label": "r4"},
                {"name": "random", "params": {"seed": 8}, "label": "r8"},
            ],
            "episodes_per_pair": 2,
            "seed": 6,
        }
        path = tmp_path / "tourney.json"
        path.write_text(json.dumps(config))
        assert cli_main(["tourney", "--config", str(path), "--json"]) == 0
        board = json.loads(capsys.readouterr().out)
        matrix = board["win_rate_matrix"]
        assert len(matrix) == 3
        for i in range(3):
            assert matrix[i][i] is None
        assert len(board["points"]) == 3

    def test_render_runs(self, tmp_path, capsys):
        replay = tmp_path / "render.jsonl"
        cli_main([
            "run", "--env", "bomber", "--agents", "random,random,random,random",
            "--episodes", "1", "--seed", "2", "--replay", str(replay),
        ])
        capsys.readouterr()
        assert cli_main(["render", str(replay), "--fps", "0"]) == 0
        out = capsys.readouterr().out
        assert "episode 0" in out and "#" in out

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_render_episode_count_below_one_is_a_usage_error(self, count, tmp_path, capsys):
        replay = tmp_path / "render.jsonl"
        assert cli_main(["run", "--env", "pong2p", "--agents", "random,random",
                         "--episodes", "2", "--seed", "4", "--replay", str(replay)]) == 0
        capsys.readouterr()
        assert cli_main(["render", str(replay), "--fps", "0", "--episodes", count]) == 1
        captured = capsys.readouterr()
        assert "--episodes must be at least 1" in captured.err
        assert "episode 0" not in captured.out

    def test_env_itf_flag(self, capsys):
        code = cli_main([
            "run", "--env", "gridbattle", "--env-param", "step_limit=30",
            "--env-itf", '[{"name": "battle.img5i"}, {"name": "battle.dead_pad"}]',
            "--agents", "random,random", "--episodes", "1", "--seed", "0", "--json",
        ])
        assert code == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["episodes"] == 1


class TestCliExtras:
    def test_mode_flag(self, capsys):
        code = cli_main([
            "run", "--env", "bomber", "--mode", "2v2",
            "--agents", "bomber.simple,random",
            "--episodes", "1", "--seed", "4", "--json",
        ])
        assert code == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["episodes"] == 1
        assert len(stats["agents"]) == 2

    def test_agent_itf_flag(self, capsys):
        code = cli_main([
            "run", "--env", "pong2p", "--env-param", "step_limit=40",
            "--agents", "random,random",
            "--agent-itf", "pong.screen_obs", "--agent-itf", "-",
            "--episodes", "2", "--seed", "0", "--json",
        ])
        assert code == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["wins"] + stats["draws"] + stats["losses"] == 2


# Outside input that is not UTF-8 text, or JSON nested past the recursion limit.
DEEP = "[" * 100_000
MALFORMED = {"not-utf8": b'{"kind": "match"}\n\x7fELF\xd0\xff\n', "too-deep": DEEP.encode()}


class TestMalformedInput:
    """Such files end in a runtime error (exit 2) and such flags in a usage
    error (exit 1), never in a traceback."""

    @pytest.mark.parametrize("kind", sorted(MALFORMED))
    @pytest.mark.parametrize("argv", [["verify-replay", "PATH"], ["render", "PATH", "--fps", "0"],
                                      ["tourney", "--config", "PATH"]], ids=lambda a: a[0])
    def test_file(self, argv, kind, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(MALFORMED[kind])
        assert cli_main([str(path) if a == "PATH" else a for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err

    @pytest.mark.parametrize("flags", [["--env-itf", DEEP], ["--agent-itf", "-", "--agent-itf", DEEP],
                                       ["--env-param", "k=" + DEEP]], ids=lambda f: f[0])
    def test_flag(self, flags, capsys):
        assert cli_main(["run", "--env", "pong2p", "--agents", "random,random", *flags]) == 1
        assert capsys.readouterr().err.startswith("usage error: ")


class TestConfigAliases:
    def test_inline_pipeline_params(self):
        from marlkit import DiscreteSpec, build_pipeline

        itf = build_pipeline([{"name": "make_team", "groups": [[0, 1], [2, 3]]}])
        itf.setup([DiscreteSpec(2)] * 4, [DiscreteSpec(2)] * 4)
        assert itf.outer_slot_count == 2
        assert itf.raw_slot_count == 4

    def test_a_param_given_inline_and_under_params_is_refused(self, tmp_path, capsys):
        # Before, the inline 64 was dropped without a word and the pipeline
        # built at 32, while the replay header recorded both.
        from marlkit import build_pipeline

        entry = {"name": "pong.screen_obs", "params": {"resolution": 32}, "resolution": 64}
        message = ("pipeline entry 'pong.screen_obs' gives 'resolution' both inline and "
                   'under "params"')
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            build_pipeline([entry])
        assert cli_main(["run", "--env", "pong2p", "--agents", "random,random",
                         "--env-itf", json.dumps([entry])]) == 2
        assert message in capsys.readouterr().err
        path = tmp_path / "tourney.json"
        path.write_text(json.dumps({
            "env": {"name": "pong2p", "params": {"step_limit": 20}},
            "entrants": [{"name": "random"},
                         {"name": "random", "label": "screen", "interfaces": [entry]}],
            "episodes_per_pair": 1,
        }))
        assert cli_main(["tourney", "--config", str(path)]) == 2
        assert message in capsys.readouterr().err

    def test_unknown_agent_keys_rejected(self, tmp_path, capsys):
        # Misspellings of "interfaces" must not run the entrant without its pipeline.
        for key in ("agent_interface", "interface"):
            entry = {"name": "random", key: {"name": "pong.screen_obs", "resolution": 16}}
            with pytest.raises(ConfigError, match=key):
                AgentSpec.from_jsonable(entry)
            path = tmp_path / f"{key}.json"
            path.write_text(json.dumps({
                "env": {"name": "pong2p", "params": {"step_limit": 20}},
                "entrants": [{"name": "random", "label": "bare"}, entry],
                "episodes_per_pair": 1,
            }))
            assert cli_main(["tourney", "--config", str(path)]) == 2
            assert key in capsys.readouterr().err

    def test_match_config_round_trips_and_rejects_unknown_keys(self):
        spec = MatchSpec(
            env_name="pong2p", env_params={"step_limit": 20},
            agents=(AgentSpec("random"), AgentSpec("pong.follow_ball", label="f")),
            episodes=3, base_seed=4, replay_path="out.jsonl",
        )
        config = {**spec.to_jsonable(), "replay": "out.jsonl"}
        assert MatchSpec.from_jsonable(config) == spec
        with pytest.raises(ConfigError, match=r"\['sed'\].*known"):
            MatchSpec.from_jsonable({**config, "sed": 3})
        with pytest.raises(ConfigError, match="parms"):
            MatchSpec.from_jsonable({**config, "env": {"name": "pong2p", "parms": {}}})

    def test_tourney_config_typos_exit_2(self, tmp_path, capsys):
        good = {
            "env": {"name": "pong2p", "params": {"step_limit": 20}},
            "entrants": [{"name": "random", "label": "a"}, {"name": "pong.follow_ball"}],
            "episodes_per_pair": 1, "seed": 3,
        }
        path = tmp_path / "good.json"
        path.write_text(json.dumps(good))
        assert cli_main(["tourney", "--config", str(path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["episodes_per_pair"] == 1
        # Before, these ran silently with 2 episodes per pair and seed 0.
        typos = [
            ({**{k: v for k, v in good.items() if k not in ("episodes_per_pair", "seed")},
              "episodes_per_par": 1, "sed": 3}, "['episodes_per_par', 'sed']"),
            ({**good, "env": {"name": "pong2p", "param": {"step_limit": 20}}}, "['param']"),
        ]
        for i, (config, unknown) in enumerate(typos):
            path = tmp_path / f"typo{i}.json"
            path.write_text(json.dumps(config))
            assert cli_main(["tourney", "--config", str(path)]) == 2
            err = capsys.readouterr().err
            assert f"unknown keys {unknown}; known:" in err


def _tourney_case(**override):
    config = {
        "env": {"name": "pong2p", "params": {"step_limit": 20}},
        "entrants": [{"name": "random", "label": "a"}, {"name": "random", "label": "b"}],
        "episodes_per_pair": 1,
    }
    return {**config, **override}


def _entrant(**entry):
    return {"entrants": [{"name": "random", "label": "a", **entry},
                         {"name": "random", "label": "b"}]}


def _groups(second):
    return {"env_interfaces": [{"name": "make_team", "groups": [[0], [second]]}]}


class TestStrictConfig:
    """Config integers are exact JSON integers, and a malformed config shape is
    a runtime error (exit 2) naming the key and value, never a traceback."""

    CASES = {
        "episodes_per_pair float": ({"episodes_per_pair": 1.5}, "1.5"),
        "episodes_per_pair str": ({"episodes_per_pair": "3"}, "'3'"),
        "episodes_per_pair bool": ({"episodes_per_pair": True}, "True"),
        "seed float": ({"seed": 1.9}, "1.9"),
        "seed str": ({"seed": "x"}, "'x'"),
        "random seed float": (_entrant(params={"seed": 20.7}), "20.7"),
        "random seed str": (_entrant(params={"seed": "x"}), "'x'"),
        "resolution float": (
            _entrant(interfaces=[{"name": "pong.screen_obs", "resolution": 20.7}]), "20.7"),
        "resolution str": (
            _entrant(interfaces=[{"name": "pong.screen_obs", "resolution": "x"}]), "'x'"),
        "partition float": (_groups(1.5), "1.5"),
        "partition bool": (_groups(True), "True"),
        "partition str": (_groups("1"), "'1'"),
        "partition letter": (_groups("a"), "'a'"),
        "agent params list": (_entrant(params=[1]), "[1]"),
        "env params list": ({"env": {"name": "pong2p", "params": [1]}}, "[1]"),
        "env_interfaces str": ({"env_interfaces": "pong.screen_obs"}, "'pong.screen_obs'"),
        "pipeline entry int": ({"env_interfaces": [1]}, "1"),
        "agent pipeline entry int": (_entrant(interfaces=[1]), "1"),
        "pipeline entry without name": ({"env_interfaces": [{"params": {}}]}, "{'params': {}}"),
        "pipeline params list": (
            {"env_interfaces": [{"name": "identity", "params": [1]}]}, "[1]"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_bad_config_exits_2(self, case, tmp_path, capsys):
        override, shown = self.CASES[case]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(_tourney_case(**override)))
        assert cli_main(["tourney", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and shown in err

    @pytest.mark.parametrize("override", [
        {"episodes": 2.7}, {"episodes": "3"}, {"episodes": True},
        {"seed": 1.9}, {"seed": "x"},
        {"env": {"name": "pong2p", "params": [1]}},
        {"env_interfaces": "pong.screen_obs"},
        {"agents": [{"name": "random", "params": [1]}]},
        {"agents": [{"name": "random", "interfaces": "pong.screen_obs"}]},
        {"agents": [1]},
    ])
    def test_match_config_is_strict(self, override):
        config = {"env": {"name": "pong2p"}, "agents": [{"name": "random"}] * 2, **override}
        with pytest.raises(ConfigError):
            MatchSpec.from_jsonable(config)


class TestBoundedInputs:
    """A seed outside the signed 64-bit range that every stream packs, and a
    size past its bound, end in an error naming it (exit 2) before episode 0
    runs: no traceback and no replay file. The sizes sit just past their
    bounds, so a run without the bound would still fit in memory."""

    PONG = ["run", "--env", "pong2p", "--env-param", "step_limit=5", "--agents", "random,random"]
    PROBES = {
        "seed past int64": (PONG + ["--seed", "99999999999999999999999"],
                            "match seed 99999999999999999999999 lies outside"),
        "seed below int64": (PONG + ["--seed", str(-2**63 - 1)],
                             f"match seed {-2**63 - 1} lies outside"),
        "last episode past int64": (PONG + ["--seed", str(2**63 - 1), "--episodes", "2"],
                                    f"the last episode's seed {2**63} lies outside"),
        "resolution": (PONG + ["--env-itf", '[{"name": "pong.screen_obs", "resolution": 513}]'],
                       "pong.screen_obs resolution must be in [16, 512], got 513"),
        "bomber size": (["run", "--env", "bomber", "--env-param", "size=65",
                         "--agents", "random,random,random,random"],
                        "bomber size must be odd and in [5, 63], got 65"),
        "pong field_w NaN": (PONG + ["--env-param", "field_w=NaN"],
                             "field_w must be finite and positive, got nan"),
        "pong field_h Infinity": (PONG + ["--env-param", "field_h=Infinity"],
                                  "field_h must be finite and positive, got inf"),
        "pong field_w past its bound": (PONG + ["--env-param", "field_w=1e308"],
                                        "field_w must be at most 1e+06, got 1e+308"),
        "pong speedup -Infinity": (PONG + ["--env-param", "speedup=-Infinity"],
                                   "speedup must be finite and positive, got -inf"),
        "pong paddle_speed NaN": (PONG + ["--env-param", "paddle_speed=NaN"],
                                  "paddle_speed must be finite and positive, got nan"),
    }

    @pytest.mark.parametrize("probe", sorted(PROBES))
    def test_run_exits_2_before_episode_0(self, probe, tmp_path, capsys):
        argv, message = self.PROBES[probe]
        assert cli_main(argv + ["--replay", str(tmp_path / "match.jsonl")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("key, value, message", [
        ("field_w", float("nan"), "field_w must be finite and positive, got nan"),
        ("field_w", float("inf"), "field_w must be finite and positive, got inf"),
        ("field_h", float("inf"), "field_h must be finite and positive, got inf"),
        ("field_w", 1e308, "field_w must be at most 1e+06, got 1e+308"),
        ("field_h", 1e308, "field_h must be at most 1e+06, got 1e+308"),
        ("field_h", 2**64, f"field_h must be at most 1e+06, got {2**64}"),
        ("max_speed", float("nan"), "max_speed must be finite and positive, got nan"),
    ])
    @pytest.mark.parametrize("command", [["verify-replay"], ["render", "--fps", "0"]])
    def test_replay_header_param_exits_2(self, key, value, message, command, tmp_path, capsys):
        path = tmp_path / "match.jsonl"
        assert cli_main(self.PONG + ["--replay", str(path)]) == 0
        header, *rest = path.read_text().splitlines(keepends=True)
        record = json.loads(header)
        record["spec"]["env"]["params"][key] = value
        path.write_text(json.dumps(record) + "\n" + "".join(rest))
        capsys.readouterr()
        assert cli_main([command[0], str(path), *command[1:]]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and "Traceback" not in err
        assert f"{path}:1: bad match spec: " in err

    def test_largest_field_runs_and_renders(self, tmp_path, capsys):
        path = tmp_path / "match.jsonl"
        argv = self.PONG + ["--env-param", "field_w=1e6", "--env-param", "field_h=1e6",
                            "--replay", str(path)]
        assert cli_main(argv) == 0
        assert cli_main(["verify-replay", str(path)]) == 0
        assert cli_main(["render", str(path), "--fps", "0"]) == 0

    def test_lowest_seed_runs(self, capsys):
        assert cli_main(self.PONG + ["--seed", str(-2**63), "--episodes", "2", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["episodes"] == 2

    @pytest.mark.parametrize("seed, entrants, message", [
        (2**64, 2, f"tourney seed {2**64} lies outside"),
        # Three pairs of one episode each: the last plays seed 2**63.
        (2**63 - 2, 3, f"the last pair's last seed {2**63} lies outside"),
    ])
    def test_tourney_exits_2_before_any_pair(self, seed, entrants, message, tmp_path, capsys):
        out = tmp_path / "replays"
        out.mkdir()
        path = tmp_path / "tourney.json"
        path.write_text(json.dumps(_tourney_case(
            seed=seed, replay_dir=str(out),
            entrants=[{"name": "random", "label": str(k)} for k in range(entrants)])))
        assert cli_main(["tourney", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and "Traceback" not in err
        assert list(out.iterdir()) == []
