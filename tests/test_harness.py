"""Episode runner, matches, round robin, replay verification, and the CLI."""

from __future__ import annotations

import json
import pathlib

import pytest

from marlkit import (
    AgentSpec,
    ConfigError,
    ConstantAgent,
    DiscreteV,
    InvalidPartition,
    MatchSpec,
    RandomAgent,
    read_replay,
    replay_verify,
    round_robin,
    run_episode,
    run_match,
)
from marlkit.cli import main as cli_main

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
            "win_rate", "mean_return_per_slot", "mean_length",
        }
        assert stats["episodes"] == 2


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
            "spec": {"env": {"name": "marsopoly", "params": {}}},
        }) + "\n" + json.dumps({
            "kind": "episode", "index": 0, "seed": 0, "reset_hash": "0" * 16,
        }) + "\n")
        with pytest.raises(RegistryError):
            replay_verify(str(path))


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


class TestConfigAliases:
    def test_inline_pipeline_params(self):
        from marlkit import DiscreteSpec, build_pipeline

        itf = build_pipeline([{"name": "make_team", "groups": [[0, 1], [2, 3]]}])
        itf.setup([DiscreteSpec(2)] * 4, [DiscreteSpec(2)] * 4)
        assert itf.outer_slot_count == 2
        assert itf.raw_slot_count == 4

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
